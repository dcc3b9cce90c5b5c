from fractions import Fraction

from valext.polynomials import (
    poly_add,
    poly_deg,
    poly_divmod,
    poly_mul,
    poly_q,
    poly_xgcd,
)


def test_normalization():
    assert poly_q([1, 2, 0, 0]) == [Fraction(1), Fraction(2)]
    assert poly_q([0]) == []
    assert poly_deg([]) == -1
    assert poly_deg(poly_q([0, 0, 1])) == 2


def test_divmod():
    f = poly_q([1, 0, 0, 1])  # x^3 + 1
    g = poly_q([1, 1])  # x + 1
    q, r = poly_divmod(f, g)
    assert r == []
    assert poly_mul(q, g) == f
    f2 = poly_q([2, 0, 1])
    q2, r2 = poly_divmod(f2, g)
    assert poly_q(
        [c + d for c, d in zip(poly_mul(q2, g) + [0] * 3, r2 + [0] * 3)]
    ) == f2


def test_gcd_and_xgcd():
    f = poly_mul(poly_q([1, 1]), poly_q([2, 1]))
    g = poly_mul(poly_q([1, 1]), poly_q([3, 1]))
    d, s, t = poly_xgcd(f, g)
    assert d == poly_q([1, 1])
    assert poly_add(poly_mul(s, f), poly_mul(t, g)) == d
    d, s, t = poly_xgcd(poly_q([1, 0, 1]), poly_q([1, 1]))
    combo = poly_add(poly_mul(s, poly_q([1, 0, 1])), poly_mul(t, poly_q([1, 1])))
    assert combo == d

