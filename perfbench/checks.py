"""Output checks of one op, and the output-size count.

Each check reads the JSON the CLI printed and compares it with the pinned
expectation of the op. It returns None when the output is right and a short
reason otherwise. The checks use only exact rational arithmetic of their own.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import permutations

from corpus import Op

_INT = re.compile(r"(?<![\^\d])\d+")  # integers of a printed rational, not exponents


def _val(text: str) -> Fraction | None:
    return None if text == "inf" else Fraction(text)


def _pval(x: Fraction, p: int) -> int:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [row[:] for row in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def _ef_pairs(payload_exts) -> list[tuple[int, int]]:
    return sorted((int(x["e"]), int(x["f"])) for x in payload_exts)


def _check_extensions(op: Op, out: dict) -> str | None:
    got = _ef_pairs(out["extensions"])
    if got != list(op.inst.ef):
        return f"(e,f) multiset {got} != {list(op.inst.ef)}"
    if sum(e * f for e, f in got) != op.inst.n:
        return "sum e_i f_i != n"
    return None


def _check_order(op: Op, out: dict) -> str | None:
    basis = [[Fraction(c) for c in row] for row in out["basis"]]
    n = op.inst.n
    if len(basis) != n or any(len(row) != n for row in basis):
        return "order basis is not n x n"
    d = det(basis)
    if d == 0:
        return "order basis is singular"
    index_val = -_pval(d, op.inst.p)
    if index_val != op.inst.index_val:
        return f"index valuation {index_val} != {op.inst.index_val}"
    return None


def _check_value(op: Op, out: dict) -> str | None:
    vals = [_val(v["value"]) for v in out["values"]]
    ef = list(op.inst.ef)
    if len(vals) != len(ef) or None in vals:
        return f"expected {len(ef)} finite values, got {vals}"
    # Extensions may be listed in any order: some assignment of the pinned
    # (e, f) to the printed values must satisfy w_i in (1/e_i)Z and the
    # product formula sum e_i f_i w_i(x) = v_p(N(x)).
    for perm in set(permutations(ef)):
        if all((v * e).denominator == 1 for v, (e, _) in zip(vals, perm)) and sum(
            e * f * v for v, (e, f) in zip(vals, perm)
        ) == op.expect["vnorm"]:
            return None
    return f"values {[str(v) for v in vals]} break the product formula (v_p(N) = {op.expect['vnorm']})"


def _check_residue(op: Op, out: dict) -> str | None:
    res = out["residue"]
    f = op.inst.ef[0][1]
    if len(res) != f or any(not 0 <= r < op.inst.p for r in res):
        return f"residue {res} is not a vector of {f} residues mod p"
    if any(res) == op.expect["zero"]:
        return f"residue {res} should {'' if op.expect['zero'] else 'not '}vanish"
    return None


def _check_weak_approx(op: Op, out: dict) -> str | None:
    if out["residues"] != op.expect["targets"]:
        return f"residues {out['residues']} != targets {op.expect['targets']}"
    return None


def _check_approx(op: Op, out: dict) -> str | None:
    gamma = op.expect["gamma"]
    vals = {int(v["extension"]): _val(v["value"]) for v in out["values"]}
    if len(vals) != len(op.inst.ef):
        return f"expected {len(op.inst.ef)} values, got {len(vals)}"
    if vals.get(op.expect["index"]) != gamma:
        return f"w_target = {vals.get(op.expect['index'])} != gamma = {gamma}"
    if any(i != op.expect["index"] and (v is not None and v <= gamma) for i, v in vals.items()):
        return f"some other value is <= gamma = {gamma}"
    return None


def _check_verify(op: Op, out: dict) -> str | None:
    if out.get("pass") is not True:
        return "verify did not pass"
    if _ef_pairs(out["extensions"]) != list(op.inst.ef):
        return "verify report lists the wrong (e,f)"
    return None


CHECKS = {
    "extensions": _check_extensions,
    "order": _check_order,
    "value": _check_value,
    "residue": _check_residue,
    "weak-approx": _check_weak_approx,
    "approx": _check_approx,
    "verify": _check_verify,
}


def check(op: Op, stdout: str) -> str | None:
    try:
        out = json.loads(stdout)
        return CHECKS[op.command](op, out)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _result_texts(command: str, out: dict) -> list[str]:
    """The rationals a command prints as its result (not the echoed input)."""
    if command == "order":
        return [c for row in out["basis"] for c in row]
    if command == "extensions":
        return [c for w in out["extensions"] for row in w["prime_basis"] for c in row]
    if command in ("value", "approx"):
        return [v["value"] for v in out["values"]] + ([out["element"]] if command == "approx" else [])
    if command == "residue":
        return [str(out["residue"])]
    if command == "weak-approx":
        return [out["element"]]
    if command == "verify":
        return [x for t in out["trials"] for x in (t["lhs"], t["rhs"])]
    return []


def output_bits(command: str, stdout: str) -> int:
    """Largest bit length of a numerator or denominator in the result printed."""
    texts = _result_texts(command, json.loads(stdout))
    return max((int(m).bit_length() for t in texts for m in _INT.findall(t)), default=0)
