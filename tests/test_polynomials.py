from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from valext.polynomials import (
    poly_deg,
    poly_q,
    poly_rem,
    poly_resultant,
)


def product(f, g):
    """Schoolbook product of two coefficient lists, trimmed."""
    out = [Fraction(0)] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_q(out)


def test_normalization():
    assert poly_q([1, 2, 0, 0]) == [Fraction(1), Fraction(2)]
    assert poly_q([0]) == []
    assert poly_deg([]) == -1
    assert poly_deg(poly_q([0, 0, 1])) == 2


def test_divmod():
    f = poly_q([1, 0, 0, 1])  # x^3 + 1 = (x^2 - x + 1)(x + 1)
    g = poly_q([1, 1])  # x + 1
    assert poly_rem(f, g) == []
    assert product(poly_q([1, -1, 1]), g) == f
    f2 = poly_q([2, 0, 1])  # x^2 + 2 = (x - 1)(x + 1) + 3
    r2 = poly_rem(f2, g)
    assert r2 == poly_q([3])
    assert poly_q([c - d for c, d in zip(f2, product(poly_q([-1, 1]), g))]) == r2


small_polys = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=5
).map(poly_q)


def sylvester_det(f, g):
    """Res(f, g) as the determinant of the Sylvester matrix, computed by
    sympy. sympy.resultant itself is not the oracle here: sympy 1.14 gets
    its sign wrong when deg f < deg g and both degrees are odd."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return sympy.Matrix(m + n, m + n, [sympy.Rational(x) for row in rows for x in row]).det()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_polys, small_polys)
def test_resultant_matches_sylvester_determinant(f, g):
    """Any leading coefficients and degrees, constants and zero included."""
    assert poly_resultant(f, g) == (sylvester_det(f, g) if f and g else 0)
