"""Univariate polynomials over Q as coefficient lists, lowest degree first:
normalisation and formatting.

PolyQ is a list of Fractions. The zero polynomial is the empty list;
otherwise the leading coefficient is nonzero.
"""

from __future__ import annotations

from fractions import Fraction

PolyQ = list[Fraction]


def poly_q(coeffs) -> PolyQ:
    """The coefficients as Fractions, trailing zeros dropped."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_deg(f: PolyQ) -> int:
    """Degree, with deg 0 = -1."""
    return len(f) - 1


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
