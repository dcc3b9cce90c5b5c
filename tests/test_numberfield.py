import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valext import NotIrreducible, NumberField, ZeroInversion
from valext.polynomials import poly_divmod, poly_q

T = sympy.Symbol("t")

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


def test_from_poly_beyond_degree_2n_minus_2():
    assert GAUSS.from_poly([0] * 20 + [1]) == 1
    assert GAUSS.from_poly([0] * 23 + [1, 0, 5]) == GAUSS.element([0, 4])  # -a + 5a


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


@st.composite
def field_elements(draw):
    """(field, x): f monic irreducible over Q of degree 1..6 with small
    integer coefficients (irreducibility from sympy), and a nonzero x.
    Some draws take f = h(t^k), k = 2 or 3, and x in Q(theta^k) or in Q,
    so that the degree of x is often below n."""
    k = draw(st.sampled_from([1, 2, 3]))
    h = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=6 // k)) + [1]
    f = [0] * (k * (len(h) - 1) + 1)
    f[::k] = h
    assume(sympy.Poly(f[::-1], T).is_irreducible)
    n = len(f) - 1
    coords = draw(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=n, max_size=n)
    )
    step = draw(st.sampled_from([1, k, n]))
    coords = [c if i % step == 0 else 0 for i, c in enumerate(coords)]
    assume(any(coords))
    return NumberField(f), coords


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(field_elements())
def test_inverse_property(case):
    fld, coords = case
    x = fld.element(coords)
    assert x * x.inv() == 1


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(field_elements())
def test_min_poly_power_is_char_poly(case):
    """The characteristic polynomial of multiplication by x is
    min_poly(x)^(n/d); the matrix and its charpoly come from sympy alone."""
    fld, coords = case
    f = sympy.Poly(fld.f[::-1], T)
    x = sympy.Poly(coords[::-1], T)
    cols = [(x * T**j).rem(f).all_coeffs()[::-1] for j in range(fld.n)]
    m = sympy.Matrix(fld.n, fld.n, lambda i, j: cols[j][i] if i < len(cols[j]) else 0)
    mp = fld.element(coords).min_poly()
    d = len(mp) - 1
    assert fld.n % d == 0
    assert m.charpoly(T) == sympy.Poly(mp[::-1], T, domain="QQ") ** (fld.n // d)


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
    assert line.gen() == 3
    assert line.gen().inv() == Fraction(1, 3)
    x = line.from_rational(Fraction(7, 2))
    assert (x * x).coords == [Fraction(49, 4)]
    assert x.min_poly() == poly_q([Fraction(-7, 2), 1])


def test_power_negative_exponent():
    i = GAUSS.gen()
    assert i**-1 == -i
    assert (GAUSS.element([1, 1]) ** -2) * (GAUSS.element([1, 1]) ** 2) == GAUSS.one()
