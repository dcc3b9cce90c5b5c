from fractions import Fraction

from valext import INFINITY, Val
from conftest import parse_val


def test_infinity_absorbs_addition():
    assert INFINITY + Val(3) == INFINITY
    assert Val(Fraction(1, 2)) + INFINITY == INFINITY
    assert INFINITY + INFINITY == INFINITY


def test_finite_addition_is_rational():
    assert Val(Fraction(1, 2)) + Val(Fraction(1, 3)) == Val(Fraction(5, 6))
    assert Val(2) + 3 == Val(5)


def test_ordering():
    assert Val(Fraction(-7, 2)) < Val(0) < Val(Fraction(1, 3)) < INFINITY
    assert not INFINITY < INFINITY
    assert INFINITY <= INFINITY
    assert Val(1) >= Val(1)
    assert INFINITY > Val(10**9)


def test_min_is_commutative_and_associative():
    vals = [Val(Fraction(1, 2)), Val(-1), INFINITY, Val(Fraction(1, 3))]
    for a in vals:
        for b in vals:
            assert min(a, b) == min(b, a)
            for c in vals:
                assert min(min(a, b), c) == min(a, min(b, c))


def test_integer_scaling():
    assert Val(Fraction(1, 2)) * 2 == Val(1)
    assert 3 * INFINITY == INFINITY


def test_str_parse_round_trip():
    for v in [Val(Fraction(3, 4)), Val(-2), Val(0), INFINITY, Val(Fraction(-5, 7))]:
        assert parse_val(str(v)) == v
    assert str(INFINITY) == "inf"
    assert str(Val(Fraction(2, 4))) == "1/2"


def test_rational_arithmetic_is_exact():
    # Fraction is the Rational type: always reduced, positive denominator
    for a, b in [(3, 7), (-10, 4), (1, 998244353)]:
        q = Fraction(a, b)
        assert q * (1 / q) == 1
        assert q.denominator > 0
        from math import gcd

        assert gcd(abs(q.numerator), q.denominator) == 1
