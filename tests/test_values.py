from fractions import Fraction

from valext import INFINITY


def test_ordering():
    assert Fraction(-7, 2) < 0 < Fraction(1, 3) < INFINITY
    assert not INFINITY < INFINITY
    assert INFINITY <= INFINITY
    assert INFINITY >= INFINITY
    assert INFINITY > 10**9 and 10**9 < INFINITY
    assert not INFINITY < Fraction(10**9) and not INFINITY <= 0
    assert INFINITY != Fraction(0) and Fraction(0) != INFINITY and INFINITY == INFINITY
    assert sorted([INFINITY, Fraction(1, 2), -1, INFINITY]) == [-1, Fraction(1, 2), INFINITY, INFINITY]
    assert len({INFINITY, INFINITY, Fraction(1)}) == 2


def test_min_is_commutative_and_associative():
    vals = [Fraction(1, 2), Fraction(-1), INFINITY, Fraction(1, 3)]
    for a in vals:
        for b in vals:
            assert min(a, b) == min(b, a)
            for c in vals:
                assert min(min(a, b), c) == min(a, min(b, c))
    assert min(INFINITY, Fraction(1, 3)) == Fraction(1, 3)
    assert min(INFINITY, INFINITY) is INFINITY


def test_str_parse_round_trip():
    """A value prints as a reduced "m/e" (plain "m" when integral) or
    "inf", and a finite one reads back with Fraction."""
    for v in [Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(-5, 7)]:
        assert Fraction(str(v)) == v
    assert str(INFINITY) == "inf"
    assert str(Fraction(2, 4)) == "1/2"


def test_rational_arithmetic_is_exact():
    # Fraction is the Rational type: always reduced, positive denominator
    for a, b in [(3, 7), (-10, 4), (1, 998244353)]:
        q = Fraction(a, b)
        assert q * (1 / q) == 1
        assert q.denominator > 0
        from math import gcd

        assert gcd(abs(q.numerator), q.denominator) == 1
