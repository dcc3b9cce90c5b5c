"""End-to-end and per-layer benchmark of valext, run through valext.cli.main.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Run from the repository root. valext is imported from src/ of the same
checkout; without it the benchmark exits nonzero and prints no result.

--trace 0 repeats whole passes of the workload's seeded ops, untraced,
until --seconds have passed and at least MIN_OPS ops ran, and reports the
end-to-end metrics; the latency percentiles pool every op of every pass.
It also starts SETUP_REPS fresh interpreters that import valext and build
the workload, and reports the median CPU time each spends until its first
op is ready as setup_s.

Op times are CPU times of this process (time.process_time), which leave
out the intervals in which a shared virtual machine is descheduled. The
speed the machine gives a running process still drifts by tens of percent
over seconds to minutes, so throughput and latency are reported in
reference time: each op's CPU time is divided by the CPU time of a fixed
exact-rational computation that shares no code with valext
(harness.reference_seconds, the mean of one run just before and one just
after the op) and multiplied by spec.REFERENCE_S. A change to valext moves
the op times and leaves the reference alone. The unscaled CPU figures and
the wall time are printed alongside. setup_s is not scaled: interpreter
start-up does not track the reference computation.

--trace 1 runs each op untraced and traced, back to back, pass after
pass, for --seconds, checks that every traced op printed exactly what its
untraced run printed, and reports the per-layer metrics per pass, in
unscaled CPU time. --spans FILE also writes the last traced pass's spans
there as JSON lines.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (each {"value", "unit"}).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from corpus import make_ops
from harness import Runner, load_cli
from spans import Tracer

HARD_DEADLINE_S = 150.0  # the whole run ends well inside 180 s


def _setup_probe_seconds(workload: str, seed: int) -> float:
    """CPU seconds a fresh interpreter spends until its first op is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        out, _ = proc.communicate(timeout=60)
    word, _, seconds = out.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (rc={proc.returncode}, said {out!r})")
    return float(seconds)


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method; needs at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _report(results) -> list[str]:
    failed = [r for r in results if r.error]
    lines = [f"  fail_frac = {len(failed) / len(results):.6g} ({len(failed)}/{len(results)} ops)"]
    lines += [f"  FAIL {' '.join(r.op.argv)}: {r.error[:300]}" for r in failed[:10]]
    if len(failed) > 10:
        lines.append(f"  ... and {len(failed) - 10} more failures")
    return lines


def measure(runner: Runner, ops, seconds: float, min_ops: int):
    """Whole passes until `seconds` of wall time have passed and `min_ops`
    ops ran; returns (results, CPU seconds of each pass, wall seconds)."""
    results = []
    cpu = []  # CPU seconds of each pass
    t0 = time.perf_counter()
    while not runner.expired():
        batch, pass_cpu = runner.run_pass(ops)
        results += batch
        cpu.append(pass_cpu)
        if time.perf_counter() - t0 >= seconds and len(results) >= min_ops:
            break
    return results, cpu, time.perf_counter() - t0


def _speed(results, scaled: bool) -> tuple[float, float, float]:
    """Throughput and p50/p90 latency (ms) of the ops that ran, from raw CPU
    times or from CPU times scaled to the reference computation."""
    ran = [r for r in results if r.seconds is not None]
    lat = [r.seconds * (spec.REFERENCE_S / r.reference if scaled else 1) * 1000
           for r in ran] or [0.0]
    ok = sum(1 for r in ran if r.error is None)
    return (ok / (sum(lat) / 1000) if sum(lat) else 0.0, statistics.median(lat),
            _quantile(lat, 90) if len(lat) > 1 else lat[0])


def end_to_end(results, setup: list[float]) -> dict[str, float]:
    throughput, p50, p90 = _speed(results, scaled=True)
    return {
        "throughput_ops_s": throughput,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_bits_max": max(r.bits for r in results),
    }


def traced(runner: Runner, tracer: Tracer, ops, seconds: float):
    """Run every op untraced and traced, pass after pass, for `seconds`.

    Running the pair back to back makes the overhead estimate immune to
    the machine's slow drifts in speed. A traced op whose output differs
    from its untraced output counts as failed. Returns (results of both
    kinds, tracing overhead, CPU seconds of the traced ops, spans of the
    last traced pass).
    """
    def run_traced(op, i):
        tracer.op = i
        tracer.install()
        try:
            return runner.run(op)
        finally:
            tracer.uninstall()

    results = []
    plain_s = traced_s = 0.0
    spans: list = []
    t0 = time.perf_counter()
    while not runner.expired():
        for i, op in enumerate(ops):
            if runner.expired():
                results += [runner.skip(op), runner.skip(op)]
                continue
            # The second run of an op finds a warmer heap; alternate which goes first.
            if (i + tracer.passes) % 2:
                r, plain = run_traced(op, i), runner.run(op)
            else:
                plain, r = runner.run(op), run_traced(op, i)
            if r.error is None and r.stdout != plain.stdout:
                r.error = "traced output differs from untraced output"
            results += [plain, r]
            plain_s += plain.seconds
            traced_s += r.seconds
        spans = tracer.end_pass()
        if time.perf_counter() - t0 >= seconds:
            break
    overhead = traced_s / plain_s - 1 if plain_s else 0.0
    return results, overhead, traced_s, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="write the last traced pass's spans here")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    cli = load_cli()
    ops = make_ops(args.workload, args.seed)
    if args.setup_probe:
        print("ready", time.process_time(), flush=True)
        return 0

    deadline = start + HARD_DEADLINE_S
    head = f"workload={args.workload} seed={args.seed} ops_per_pass={len(ops)}"
    if args.trace == 0:
        setup = [_setup_probe_seconds(args.workload, args.seed) for _ in range(spec.SETUP_REPS)]
        runner = Runner(cli, spec.OP_BUDGET_S, deadline)
        results, cpu, wall = measure(runner, ops, args.seconds, spec.MIN_OPS)
        values = end_to_end(results, setup)
        units = {n: u for n, u, _, _ in spec.END_TO_END}
        refs = [r.reference * 1000 for r in results if r.seconds is not None]
        print(f"{head} mode=untraced passes={len(cpu)} cpu_s={sum(cpu):.2f} wall_s={wall:.2f} "
              f"(wall-clock throughput {len(results) / wall:.4g} ops/s)")
        print(f"  per-pass CPU s: {' '.join(f'{c:.3f}' for c in cpu)}")
        print("  unscaled CPU time: throughput_ops_s = {:.6g}, latency_p50_ms = {:.6g}, "
              "latency_p90_ms = {:.6g}".format(*_speed(results, scaled=False)))
        if refs:
            print(f"  reference computation: median {statistics.median(refs):.4g} ms, "
                  f"range {min(refs):.4g}..{max(refs):.4g} ms (scaled to "
                  f"{spec.REFERENCE_S * 1000:g} ms)")
        notes = {"latency_p50_ms": f" (n={len(results)} samples)",
                 "latency_p90_ms": f" (n={len(results)} samples)",
                 "setup_s": f" (median of {len(setup)} fresh processes)"}
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {units[name]}{notes.get(name, '')}")
    else:
        tracer = Tracer()
        runner = Runner(cli, spec.OP_BUDGET_S, deadline)
        results, overhead, traced_op_s, spans = traced(runner, tracer, ops, args.seconds)
        for name in tracer.missing:
            print(f"perfbench: warning: trace target {name} not found", file=sys.stderr)
        values = tracer.layer_metrics([n for n, _, _ in spec.PER_LAYER], overhead)
        units = {n: u for n, u, _ in spec.PER_LAYER}
        per_pass = traced_op_s / max(tracer.passes, 1)
        print(f"{head} mode=traced traced_passes={tracer.passes} "
              f"op_s_per_pass={per_pass:.4g} (per-layer values are per pass)")
        for name, value in values.items():
            share = f"  ({value / per_pass:.1%} of op time)" if units[name] == "s" and per_pass else ""
            print(f"  {name} = {value:.6g} {units[name]}{share}")
        if args.spans:
            with args.spans.open("w") as fh:
                for name, t0, t1, parent, op, _ in spans:
                    fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                         "parent": parent, "op": op}) + "\n")
    for line in _report(results):
        print(line)
    failed = sum(1 for r in results if r.error)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
