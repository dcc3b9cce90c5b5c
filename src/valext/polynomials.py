"""Univariate polynomials over Q as coefficient lists, lowest degree first.

PolyQ is a list of Fractions. The zero polynomial is the empty list;
otherwise the leading coefficient is nonzero.
"""

from __future__ import annotations

from fractions import Fraction

PolyQ = list[Fraction]


def poly_q(coeffs) -> PolyQ:
    return poly_trim([Fraction(c) for c in coeffs])


def poly_trim(coeffs: PolyQ) -> PolyQ:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def poly_deg(f: PolyQ) -> int:
    """Degree, with deg 0 = -1."""
    return len(f) - 1


def poly_add(f: PolyQ, g: PolyQ) -> PolyQ:
    n = max(len(f), len(g))
    return poly_trim(
        [
            (f[i] if i < len(f) else Fraction(0)) + (g[i] if i < len(g) else Fraction(0))
            for i in range(n)
        ]
    )


def poly_neg(f: PolyQ) -> PolyQ:
    return [-c for c in f]


def poly_sub(f: PolyQ, g: PolyQ) -> PolyQ:
    return poly_add(f, poly_neg(g))


def poly_scale(f: PolyQ, c: Fraction) -> PolyQ:
    if c == 0:
        return []
    return [x * c for x in f]


def poly_mul(f: PolyQ, g: PolyQ) -> PolyQ:
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(f: PolyQ, g: PolyQ) -> tuple[PolyQ, PolyQ]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = f[:]
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    inv = 1 / g[-1]
    while len(f) >= len(g) and f:
        k = len(f) - len(g)
        c = f[-1] * inv
        q[k] = c
        for i in range(len(g)):
            f[k + i] -= c * g[i]
        f = poly_trim(f)
    return poly_trim(q), f


def poly_xgcd(f: PolyQ, g: PolyQ) -> tuple[PolyQ, PolyQ, PolyQ]:
    """(d, s, t) with s f + t g = d, d the monic gcd."""
    r0, r1 = f[:], g[:]
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1))
    if r0:
        lead = r0[-1]
        r0 = poly_scale(r0, 1 / lead)
        s0 = poly_scale(s0, 1 / lead)
        t0 = poly_scale(t0, 1 / lead)
    return r0, s0, t0


def format_poly(coeffs, var: str) -> str:
    """Human-readable polynomial in var, highest degree first: "x^3 - x - 1"."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            gen = var if k == 1 else f"{var}^{k}"
            if c == 1:
                term = gen
            elif c == -1:
                term = f"-{gen}"
            else:
                term = f"{c}*{gen}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out
