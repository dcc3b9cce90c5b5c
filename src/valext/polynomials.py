"""Univariate polynomials over Q as coefficient lists, lowest degree first:
normalisation, remainders, resultants, and formatting.

PolyQ is a list of Fractions. The zero polynomial is the empty list;
otherwise the leading coefficient is nonzero.
"""

from __future__ import annotations

from fractions import Fraction

PolyQ = list[Fraction]


def poly_q(coeffs) -> PolyQ:
    return poly_trim([Fraction(c) for c in coeffs])


def poly_trim(coeffs: PolyQ) -> PolyQ:
    """Drop trailing zeros in place; a copy per division step is quadratic."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_deg(f: PolyQ) -> int:
    """Degree, with deg 0 = -1."""
    return len(f) - 1


def poly_rem(f: PolyQ, g: PolyQ) -> PolyQ:
    """The remainder of f on division by g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = f[:]
    inv = 1 / g[-1]
    while len(f) >= len(g) and f:
        k = len(f) - len(g)
        c = f[-1] * inv
        for i, gi in enumerate(g):
            if gi:  # a sparse divisor such as x^8 + 1 is mostly zeros
                f[k + i] -= c * gi
        f = poly_trim(f)
    return f


def poly_resultant(f: PolyQ, g: PolyQ) -> Fraction:
    """Res(f, g) = lc(f)^deg(g) * prod g(alpha) over the roots alpha of f, by
    Euclid: with r = g mod f, Res(f, g) = lc(f)^(deg g - deg r) Res(f, r) and
    Res(f, r) = (-1)^(deg f deg r) Res(r, f). It is 0 when f and g share a
    factor, and c^deg(g) for a constant f = c."""
    if not f or not g:
        return Fraction(0)
    res = Fraction(1)
    while len(f) > 1:
        r = poly_rem(g, f)
        if not r:
            return Fraction(0)
        res *= f[-1] ** (len(g) - len(r))
        if (len(f) - 1) * (len(r) - 1) % 2:
            res = -res
        f, g = r, f
    return res * f[0] ** (len(g) - 1)


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
