"""Command-line interface: parse inputs, run the pipeline, print JSON or text.

The argument parser, PARSER, is built once, at import: main parses every
call's arguments with it, and run_command reports usage errors through it.

Exit codes: 0 success, 1 mathematical error (NotIrreducible, NegativeValue,
...) or failed internal check (AssertionError), both reported without a
traceback and as JSON on stdout when --output json, 2 usage or parse errors
with a message on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import ValExtError
from .events import recording
from .extensions import extensions_of, residue, value, value_by_count
from .numberfield import NFElem, NumberField
from .orders import p_maximal_order, ratio_str
from .padic import PRIME_BOUND, is_prime
from .polynomials import format_poly
from .theorems import approx_element, check_fundamental, weak_approx


class PolyParseError(ValueError):
    pass


def parse_poly(text: str, var: str) -> dict[int, Fraction]:
    """Exponent -> coefficient. poly := term (('+'|'-') term)*;
    term := [coef '*'?]? VAR ('^' uint)? | coef; coef := int | int '/' uint.
    Whitespace-insensitive; a leading sign is allowed. Each term is one
    match of the pattern below, with its sign; only the first may omit it."""
    s = "".join(text.split())
    if not s:
        raise PolyParseError("empty polynomial")
    term = re.compile(
        rf"""(?P<sign> [+-] | ^ )
        (?: (?P<num> \d+ ) (?: / (?P<den> \d+ ) )? )?
        (?: (?(num) \*? ) (?P<var> {re.escape(var)} ) (?: \^ (?P<exp> \d+ ) )? )?""",
        re.VERBOSE,
    )
    coeffs: dict[int, Fraction] = {}
    i = 0
    while i < len(s):
        m = term.match(s, i)
        if not m or not (m["num"] or m["var"]):
            j = m.end() if m else i
            if j == len(s):
                raise PolyParseError(f"expected a term at the end of {text!r}")
            pos = [k for k, c in enumerate(text) if not c.isspace()][j]  # j indexes s
            raise PolyParseError(f"unexpected character {s[j]!r} at position {pos} in {text!r}")
        den = int(m["den"] or 1)
        if not den:
            raise PolyParseError("zero denominator")
        exp = int(m["exp"] or 1) if m["var"] else 0
        coef = Fraction(int(m["num"] or 1), den) * (-1 if m["sign"] == "-" else 1)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + coef
        i = m.end()
    return coeffs


def parse_defining_poly(text: str) -> NumberField:
    terms = parse_poly(text, "x")
    try:
        return NumberField([terms.get(k, 0) for k in range(max(terms) + 1)])
    except ValueError as exc:
        raise PolyParseError(str(exc)) from None


def parse_element(text: str, field: NumberField) -> NFElem:
    """The terms below degree n are coordinates; each higher power of the
    generator is formed by repeated squaring, so a^N costs O(log N)
    products rather than N reductions."""
    terms = parse_poly(text, "a")
    elem = field.element([terms.pop(k, 0) for k in range(field.n)])
    for k, c in terms.items():
        elem = elem + field.from_poly([0, 1]) ** k * c
    return elem


def format_element(x: NFElem) -> str:
    return format_poly(x.coords, "a")


def _prime_type(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"prime must be an integer, got {text!r}")
    if p >= PRIME_BOUND:
        raise argparse.ArgumentTypeError(f"prime must be below {PRIME_BOUND}, got {p}")
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def _trials_type(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"trials must be an integer, got {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"trials must be >= 0, got {n}")
    return n


def _gamma_type(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 3/2, got {text!r}")


PARSER = argparse.ArgumentParser(
    prog="valext",
    description="Extensions of the p-adic valuation v_p to a number field Q[x]/(f).",
)
_commands = PARSER.add_subparsers(dest="command", required=True)

_shared = argparse.ArgumentParser(add_help=False)
_shared.add_argument("--prime", type=_prime_type, required=True, help="prime p")
_shared.add_argument("--poly", required=True, help="monic integer polynomial in x")
_shared.add_argument("--output", choices=["json", "text"], default="text")
_shared.add_argument("--trace", action="store_true", help="emit procedure trace lines")

_commands.add_parser("extensions", parents=[_shared], help="list all extensions of v_p")

_value = _commands.add_parser("value", parents=[_shared], help="values w_i(elem)")
_value.add_argument("--elem", required=True, help="element, polynomial in a")
_value.add_argument("--extension", type=int, help="restrict to one extension (1-based)")

_res = _commands.add_parser("residue", parents=[_shared], help="residue of elem at one extension")
_res.add_argument("--elem", required=True, help="element, polynomial in a")
_res.add_argument("--extension", type=int, required=True, help="extension index (1-based)")

_weak = _commands.add_parser(
    "weak-approx", parents=[_shared], help="element hitting prescribed residues"
)
_weak.add_argument(
    "--targets",
    required=True,
    help="per-extension residue coordinates, e.g. '0;1' or '1,0;2'",
)

_approx = _commands.add_parser(
    "approx", parents=[_shared], help="element with value gamma at one extension"
)
_approx.add_argument("--extension", type=int, required=True, help="target index (1-based)")
_approx.add_argument("--gamma", type=_gamma_type, required=True, help="target value m/e")

_verify = _commands.add_parser(
    "verify", parents=[_shared], help="run the fundamental-inequality check"
)
_verify.add_argument("--seed", type=int, default=0)
_verify.add_argument("--trials", type=_trials_type, default=100)
_commands.add_parser("order", parents=[_shared], help="print the p-maximal order basis")


def _pick_extension(exts, index: int):
    if not 1 <= index <= len(exts):
        PARSER.error(f"--extension must be in 1..{len(exts)}")
    return exts[index - 1]


def _parse_targets(text: str, exts) -> list[list[int]]:
    groups = text.split(";")
    if len(groups) != len(exts):
        PARSER.error(f"--targets needs {len(exts)} ';'-separated groups, got {len(groups)}")
    out = []
    for g, w in zip(groups, exts):
        try:
            coords = [int(c) for c in g.split(",")] if g.strip() else []
        except ValueError:
            PARSER.error(f"bad target coordinates {g!r}")
        if len(coords) != w.f:
            PARSER.error(
                f"target for extension {w.index} needs {w.f} coordinates, got {len(coords)}"
            )
        out.append(coords)
    return out


def run_command(args) -> tuple[dict, list[str], list[str]]:
    """Returns (json payload, text lines, trace lines)."""
    field = parse_defining_poly(args.poly)
    p = args.prime

    if args.command == "order":
        order = p_maximal_order(field, p)
        basis = [[ratio_str(x, order.den) for x in v] for v in order.num]
        payload = {"prime": p, "poly": args.poly, "basis": basis}
        lines = [" ".join(row) for row in basis]
        return payload, lines, []

    with recording() as trace:
        exts = extensions_of(field, p)

    if args.command == "extensions":
        payload = {"extensions": [w.to_descriptor() for w in exts]}
        lines = [
            f"w_{w.index}: e={w.e} f={w.f} residue_field_dim={w.f}"
            for w in exts
        ]
        return payload, lines, trace

    if args.command == "value":
        elem = parse_element(args.elem, field)
        chosen = exts if args.extension is None else [_pick_extension(exts, args.extension)]
        with recording() as steps:
            vals = [(w.index, value(w, elem)) for w in chosen]
        estr = format_element(elem)
        payload = {
            "element": estr,
            "values": [{"extension": i, "value": str(v)} for i, v in vals],
        }
        lines = [f"w_{i}({estr}) = {v}" for i, v in vals]
        return payload, lines, trace + steps

    if args.command == "residue":
        elem = parse_element(args.elem, field)
        w = _pick_extension(exts, args.extension)
        with recording() as steps:
            res = residue(w, elem)
        estr = format_element(elem)
        payload = {"element": estr, "extension": w.index, "residue": res}
        lines = [f"res_{w.index}({estr}) = {res}"]
        return payload, lines, trace + steps

    if args.command == "weak-approx":
        targets = _parse_targets(args.targets, exts)
        x = weak_approx(exts, targets)
        # The walk, not residue_of_integral: it refuses a zero divisor of a reducible f.
        residues = [residue(w, x) for w in exts]
        estr = format_element(x)
        payload = {
            "element": estr,
            "residues": residues,
            "targets": targets,
        }
        lines = [f"x = {estr}"] + [
            f"res_{w.index}(x) = {r}" for w, r in zip(exts, residues)
        ]
        return payload, lines, trace

    if args.command == "approx":
        w = _pick_extension(exts, args.extension)
        x = approx_element(exts, w.index - 1, args.gamma)
        vals = [(u.index, value_by_count(u, x)) for u in exts]
        estr = format_element(x)
        payload = {
            "element": estr,
            "gamma": str(Fraction(args.gamma)),
            "values": [{"extension": i, "value": str(v)} for i, v in vals],
        }
        lines = [f"x = {estr}"] + [f"w_{i}(x) = {v}" for i, v in vals]
        return payload, lines, trace

    if args.command == "verify":
        report = check_fundamental(exts, trials=args.trials, seed=args.seed)
        payload = report.to_json()
        lines = [
            f"instance: {report.instance}",
            f"sum_ef = {report.sum_ef}, degree = {report.degree}, rank = {report.rank}",
            f"trials: {len(report.trials)}, all equal: {all(t.equal for t in report.trials)}",
            f"pass: {str(report.passed).lower()}",
        ]
        return payload, lines, trace

    raise AssertionError(f"unhandled command {args.command}")


def _join_values(argv: list[str]) -> list[str]:
    """Fold "--elem -a+1" into "--elem=-a+1", and likewise for --poly,
    --gamma and --targets, so values that start with '-' parse."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--poly", "--elem", "--gamma", "--targets") and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    # The user's own integers, and the exact answers, can exceed the 4300
    # digits that Python (3.10.7+, 3.11) converts between int and str by
    # default; the limit would end the run with a traceback.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    args = PARSER.parse_args(_join_values(list(argv)))
    try:
        payload, lines, trace = run_command(args)
    except PolyParseError as exc:
        PARSER.error(str(exc))
    except (ValExtError, AssertionError) as exc:
        if args.output == "json":
            print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        else:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.output == "json":
        print(json.dumps({**payload, "trace": trace} if args.trace else payload))
    else:
        for line in (trace if args.trace else []) + lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
