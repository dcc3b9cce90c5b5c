from fractions import Fraction

from valext.polynomials import poly_deg, poly_q


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
    assert product(poly_q([1, -1, 1]), g) == f
    f2 = poly_q([2, 0, 1])  # x^2 + 2 = (x - 1)(x + 1) + 3
    assert poly_q([c - d for c, d in zip(f2, product(poly_q([-1, 1]), g))]) == poly_q([3])
