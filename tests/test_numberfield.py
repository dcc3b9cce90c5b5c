import random
from fractions import Fraction

import pytest

from valext import NotIrreducible, NumberField, ZeroInversion
from valext.polynomials import poly_divmod, poly_q

GAUSS = NumberField([1, 0, 1])  # x^2 + 1
CUBIC = NumberField([-1, -1, 0, 1])  # x^3 - x - 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        NumberField([1])  # degree 0
    with pytest.raises(ValueError):
        NumberField([1, 0, 2])  # not monic
    with pytest.raises(ValueError):
        NumberField([Fraction(1, 2), 1])  # not integer


def test_mul_defining_relation():
    i = GAUSS.gen()
    assert i * i == GAUSS.from_rational(-1)


def test_mul_conjugates():
    one_plus = GAUSS.element([1, 1])
    one_minus = GAUSS.element([1, -1])
    assert one_plus * one_minus == GAUSS.from_rational(2)


def test_mul_identity():
    x = CUBIC.element([Fraction(1, 2), 3, Fraction(-2, 7)])
    assert CUBIC.one() * x == x


def test_inv():
    i = GAUSS.gen()
    assert i.inv() == -i
    assert GAUSS.one().inv() == GAUSS.one()
    with pytest.raises(ZeroInversion):
        GAUSS.zero().inv()
    x = CUBIC.element([2, -1, Fraction(1, 3)])
    assert x * x.inv() == CUBIC.one()


def test_inv_detects_reducible():
    red = NumberField([2, 3, 1])  # (x+1)(x+2)
    zero_divisor = red.element([1, 1])
    with pytest.raises(NotIrreducible):
        zero_divisor.inv()


def test_min_poly_examples():
    assert GAUSS.gen().min_poly() == poly_q([1, 0, 1])
    q = GAUSS.from_rational(Fraction(3, 2))
    assert q.min_poly() == poly_q([Fraction(-3, 2), 1])
    assert GAUSS.element([1, 1]).min_poly() == poly_q([2, -2, 1])


def test_min_poly_annihilates():
    rng = random.Random(3)
    for fld in (GAUSS, CUBIC):
        for _ in range(20):
            x = fld.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(fld.n)])
            mp = x.min_poly()
            acc = fld.zero()
            for c in reversed(mp):
                acc = acc * x + fld.from_rational(c)
            assert acc.is_zero
            if not x.is_zero:
                assert mp[0] != 0


def char_poly(m):
    """Characteristic polynomial by Newton's identities (independent path)."""
    n = len(m)
    powers = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    s = []
    cur = powers
    for k in range(1, n + 1):
        cur = [[sum(cur[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        s.append(sum(cur[i][i] for i in range(n)))
    e = [Fraction(1)]
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * s[i - 1]
        e.append(acc / k)
    return poly_q([(-1) ** (n - k) * e[n - k] for k in range(n + 1)])


def test_min_poly_divides_char_poly():
    rng = random.Random(4)
    for fld in (GAUSS, CUBIC):
        for _ in range(10):
            x = fld.element([Fraction(rng.randint(-4, 4)) for _ in range(fld.n)])
            mp = x.min_poly()
            cp = char_poly(x.mult_matrix())
            _, rem = poly_divmod(cp, mp)
            assert rem == []


def test_norm_trace_examples():
    norm, tr = GAUSS.element([1, 1]).norm_trace()
    assert (norm, tr) == (2, 2)
    norm, tr = GAUSS.one().norm_trace()
    assert (norm, tr) == (1, 2)
    norm, tr = CUBIC.gen().norm_trace()
    assert (norm, tr) == (1, 0)


def test_norm_multiplicative_trace_additive():
    rng = random.Random(5)
    for _ in range(25):
        x = CUBIC.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
        y = CUBIC.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
        nx, tx = x.norm_trace()
        ny, ty = y.norm_trace()
        nxy, _ = (x * y).norm_trace()
        _, txy = (x + y).norm_trace()
        assert nxy == nx * ny
        assert txy == tx + ty


def test_degree_one_field():
    line = NumberField([-3, 1])  # x - 3
    assert line.gen() == line.from_rational(3)
    x = line.from_rational(Fraction(7, 2))
    assert (x * x).coords == [Fraction(49, 4)]
    assert x.min_poly() == poly_q([Fraction(-7, 2), 1])


def test_power_negative_exponent():
    i = GAUSS.gen()
    assert i**-1 == -i
    assert (GAUSS.element([1, 1]) ** -2) * (GAUSS.element([1, 1]) ** 2) == GAUSS.one()
