"""Closed-loop execution of ops through valext.cli.main, in process.

One client, sequential, no threads: each op starts when the previous one
has finished and been checked. Every way an op can go wrong counts as a
failed op and never stops the run: a nonzero return code, any exception
(cli.main catches only ValExtError), SystemExit from argparse, a wrong
output, or running past the per-op time budget (enforced with SIGALRM).
"""

from __future__ import annotations

import io
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from checks import check, det, output_bits
from corpus import Op

ROOT = Path(__file__).resolve().parent.parent


def load_cli():
    """Import valext.cli from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "valext" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no valext sources under {src}")
    sys.path.insert(0, str(src))
    import valext.cli as cli

    if Path(cli.__file__).resolve().parent != src / "valext":
        raise SystemExit(f"perfbench: valext was imported from {cli.__file__}, not {src}")
    return cli


_REFERENCE = [[Fraction((7 * i + 3 * j) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(7)]
              for i in range(7)]


def reference_seconds() -> float:
    """CPU time of a fixed exact-rational computation that shares no code
    with valext: two 7x7 Fraction determinants. It tracks the speed the
    shared machine gives this process at the moment."""
    t0 = time.process_time()
    det(_REFERENCE)
    det(_REFERENCE)
    return time.process_time() - t0


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op. A BaseException, so that no
    `except Exception` in the program can swallow it."""


@dataclass
class Result:
    op: Op
    seconds: float | None  # CPU seconds; None when the hard deadline came first
    stdout: str
    error: str | None  # None when the op succeeded and its output checked out
    bits: int = 0
    reference: float = 0.0  # reference_seconds() around the op: mean of before and after


class Runner:
    """Runs ops one at a time under a per-op budget and a hard deadline."""

    def __init__(self, cli, op_budget: float, deadline: float):
        self.cli = cli
        self.op_budget = op_budget
        self.deadline = deadline  # time.perf_counter() value
        self._armed = False
        self._reference = reference_seconds()
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self._armed:
            raise OpTimeout()

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def run(self, op: Op) -> Result:
        budget = max(min(self.op_budget, self.deadline - time.perf_counter()), 0.001)
        out, err = io.StringIO(), io.StringIO()
        error = None
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, budget)
        t0 = time.process_time()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(list(op.argv))  # looked up per call, so wrappers apply
            self._armed = False
            if rc != 0:
                error = f"rc={rc}: {out.getvalue().strip() or err.getvalue().strip()}"
        except OpTimeout:
            error = f"timeout after {budget:.1f}s"
        except SystemExit as exc:
            error = f"exit {exc.code}: {err.getvalue().strip().splitlines()[-1:]}"
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.process_time() - t0
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        before, self._reference = self._reference, reference_seconds()
        stdout = out.getvalue()
        if error is None:
            error = check(op, stdout)
        bits = output_bits(op.command, stdout) if error is None else 0
        return Result(op, seconds, stdout, error, bits, (before + self._reference) / 2)

    def run_pass(self, ops: list[Op]) -> tuple[list[Result], float]:
        """One pass over ops; returns (results, CPU seconds of the pass). Ops
        left when the hard deadline comes are not run and count as failed."""
        results = []
        t0 = time.process_time()
        for op in ops:
            results.append(self.skip(op) if self.expired() else self.run(op))
        return results, time.process_time() - t0

    @staticmethod
    def skip(op: Op) -> Result:
        return Result(op, None, "", "not run: hard deadline reached")
