import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valext import NumberField, discriminant, equation_order
from valext.polynomials import poly_q

from conftest import inverse, poly_rem, reference_mul

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
    i = GAUSS.from_poly([0, 1])
    assert i * i == GAUSS.from_rational(-1)
    # products and reductions keep Fraction coordinates, also where they vanish
    assert all(type(c) is Fraction for c in (i * i).coords + GAUSS.from_poly([0, 0, 1]).coords)


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
    """The minimal relation of x has c_0 != 0 and gives the inverse that the
    test oracles use."""
    fld, coords = case
    x = fld.element(coords)
    assert x * inverse(x) == 1


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


SCALARS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.builds(
        lambda sign, p, k: sign * Fraction(p) ** k,
        st.sampled_from([1, -1]),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(-4, 4),
    ),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(field_elements(), SCALARS)
def test_scalar_multiple_inherits_min_poly(case, q):
    """q*x and x*q take x's known relation rescaled, which must be the
    relation a fresh element with the same coordinates computes; a list
    that min_poly returned may be mutated without touching the memo."""
    fld, coords = case
    x = fld.element(coords)
    mp = x.min_poly()
    mp.append(Fraction(9))
    mp[0] += 1
    assert x.min_poly() == fld.element(coords).min_poly()
    for y in (x * q, q * x):
        fresh = fld.element(y.coords).min_poly()
        got = y.min_poly()
        assert got == fresh
        got[0] += 1
        got.pop()
        assert y.min_poly() == fresh


def test_min_poly_examples():
    assert GAUSS.from_poly([0, 1]).min_poly() == poly_q([1, 0, 1])
    q = GAUSS.from_rational(Fraction(3, 2))
    assert q.min_poly() == poly_q([Fraction(-3, 2), 1])
    assert GAUSS.element([1, 1]).min_poly() == poly_q([2, -2, 1])


def test_min_poly_stops_at_first_dependent_power(monkeypatch):
    """min_poly forms the powers of its element only up to its degree: one
    product for a rational, two for a^2 in x^4+1 and for a^4 in x^8+1, whose
    minimal polynomials are t^2 + 1; not one product per field degree."""
    calls = []
    mul = NumberField._mul
    monkeypatch.setattr(NumberField, "_mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    x4, x8 = NumberField([1, 0, 0, 0, 1]), NumberField([1, 0, 0, 0, 0, 0, 0, 0, 1])
    for x, mp, products in [(x4.from_rational(Fraction(-5, 3)), [Fraction(5, 3), 1], 1),
                            (x4.from_poly([0, 0, 1]), [1, 0, 1], 2),
                            (x8.from_poly([0, 0, 0, 0, 1]), [1, 0, 1], 2)]:
        calls.clear()
        assert x.min_poly() == poly_q(mp)
        assert len(calls) == products


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


def mult_matrix(x):
    """Matrix of multiplication by x on the power basis: column j is x*theta^j."""
    theta = x.field.from_poly([0, 1])
    cols = [x]
    for _ in range(x.field.n - 1):
        cols.append(cols[-1] * theta)
    return [list(row) for row in zip(*(c.coords for c in cols))]


def test_min_poly_divides_char_poly():
    rng = random.Random(4)
    for fld in (GAUSS, CUBIC):
        for _ in range(10):
            x = fld.element([Fraction(rng.randint(-4, 4)) for _ in range(fld.n)])
            mp = x.min_poly()
            cp = char_poly(mult_matrix(x))
            rem = poly_rem(cp, mp)
            assert rem == []


def test_norm_examples():
    assert GAUSS.element([1, 1]).norm() == 2
    assert GAUSS.one().norm() == 1
    assert CUBIC.from_poly([0, 1]).norm() == 1
    assert GAUSS.zero().norm() == 0


def test_norm_multiplicative():
    rng = random.Random(5)
    for _ in range(25):
        x = CUBIC.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
        y = CUBIC.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
        assert (x * y).norm() == x.norm() * y.norm()


@st.composite
def monic_polys_and_elements(draw):
    """(f, g): f monic of degree 1..6 with small integer coefficients, a
    product of one to three random monic factors, so that it is often
    reducible and sometimes not squarefree; g of degree < deg f with
    small rational coefficients, sometimes a factor of f."""
    factors = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(lambda h: h + [1]),
            min_size=1,
            max_size=3,
        )
    )
    f = sympy.Poly(1, T)
    for h in factors:
        f *= sympy.Poly(h[::-1], T)
    assume(1 <= f.degree() <= 6)
    n = f.degree()
    if len(factors) > 1 and draw(st.booleans()):
        g = factors[0]
    else:
        g = draw(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=n, max_size=n
            )
        )
    coeffs = [int(c) for c in f.all_coeffs()[::-1]]
    return coeffs, g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(monic_polys_and_elements())
def test_discriminant_and_norm_match_sympy(case):
    """disc f and N(g(theta)) = Res(f, g) against sympy's discriminant and
    resultant, for reducible and non-squarefree f as well. deg g < deg f,
    where sympy's resultant has the right sign (see test_polynomials)."""
    coeffs, g = case
    fld = NumberField(coeffs)
    f = sympy.Poly(coeffs[::-1], T, domain="QQ")
    assert discriminant(fld) == sympy.discriminant(f)
    x = fld.from_poly(g)
    assert x.norm() == sympy.resultant(f, sympy.Poly(g[::-1], T, domain="QQ"))


@st.composite
def products_mod_f(draw):
    """(f, g, h): f monic of degree 1..8 with integer coefficients in
    [-9, 9], either dense or with at most three nonzero terms below the
    leading one, and g, h rational coordinate vectors of length deg f,
    some of their entries zero. f need not be irreducible."""
    n = draw(st.integers(1, 8))
    coeff = st.integers(-9, 9)
    if draw(st.booleans()):
        f = draw(st.lists(coeff, min_size=n, max_size=n))
    else:
        f = [0] * n
        for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            f[k] = draw(coeff)
    entry = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=30)
    )
    vec = st.lists(entry, min_size=n, max_size=n)
    return f + [1], draw(vec), draw(vec)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(products_mod_f())
def test_mul_is_remainder_of_product(case):
    """g(theta)*h(theta) has the coefficients of sympy's rem(g*h, f)."""
    f, g, h = case
    fld = NumberField(f)
    rem = sympy.rem(
        sympy.Poly(g[::-1], T, domain="QQ") * sympy.Poly(h[::-1], T, domain="QQ"),
        sympy.Poly(f[::-1], T, domain="QQ"),
    )
    expected = [Fraction(int(c.p), int(c.q)) for c in rem.all_coeffs()[::-1]]
    expected += [Fraction(0)] * (fld.n - len(expected))
    assert (fld.element(g) * fld.element(h)).coords == expected


def test_degree_one_field():
    line = NumberField([-3, 1])  # x - 3
    assert line.from_poly([0, 1]) == 3
    x = line.from_rational(Fraction(7, 2))
    assert (x * x).coords == [Fraction(49, 4)]
    assert x.min_poly() == poly_q([Fraction(-7, 2), 1])


def test_subtraction_with_rationals_and_elements():
    theta = CUBIC.from_poly([0, 1])
    assert theta - 10 == CUBIC.from_poly([-10, 1])
    assert 10 - theta == CUBIC.from_poly([10, -1])
    assert theta - theta == 0
    assert (theta - Fraction(1, 2)) + Fraction(1, 2) == theta
    with pytest.raises(ValueError, match="different fields"):
        theta - GAUSS.from_poly([0, 1])


def test_equal_objects_hash_equal():
    """Fields, elements and orders define equality by value, and equal ones
    hash alike, so they serve as set members and dict keys."""
    other = NumberField([-1, -1, 0, 1])
    assert hash(other) == hash(CUBIC) and len({CUBIC, other, GAUSS}) == 2
    x, y = CUBIC.from_poly([1, 2]), other.from_poly([1, 2])
    assert hash(x) == hash(y) and len({x, y, x + 1}) == 2
    orders = {equation_order(CUBIC), equation_order(other)}
    assert len(orders) == 1


def test_power_negative_exponent():
    """The library forms no inverse, so a negative power is refused rather
    than looping on e >>= 1."""
    i = GAUSS.from_poly([0, 1])
    assert i**0 == 1 and i**3 == -i
    with pytest.raises(ValueError, match="negative powers"):
        i**-1


def test_pow_products_are_square_and_multiply(monkeypatch):
    """x^e takes bit_length(e) - 1 squarings and popcount(e) - 1 products by
    x, and no others: x^1 and x^0 take none."""
    fld = NumberField([1, 0, 0, 0, 1])
    x = fld.from_poly([0, 1])
    calls = []
    mul = NumberField._mul
    monkeypatch.setattr(NumberField, "_mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    for e, products in [(0, 0), (1, 0), (2, 1), (3, 2), (32, 5), (33, 6), (63, 10), (64, 6)]:
        calls.clear()
        x**e
        assert len(calls) == products, e


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([[1, 0, 0, 0, 1], [-1, -1, 0, 1], [3, 0, 0, 0, 0, 0, 1]]),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=6, max_size=6))
def test_pow_equals_repeated_products(f, coords):
    """x**e is the product of e factors x for every e <= 64, and x**1 is a
    fresh element equal to x."""
    fld = NumberField(f)
    x = fld.element(coords[: fld.n])
    acc = fld.one()
    for e in range(65):
        assert (x**e).coords == acc.coords, e
        acc = acc * x
    assert x**1 == x and x**1 is not x


def assert_canonical(x):
    """The stored form is integers over one positive denominator in lowest
    terms; gcd(den, 0, ..., 0) = den makes zero ([0, ..., 0], 1)."""
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(products_mod_f(), SCALARS, st.integers(0, 5))
def test_integer_form_against_fraction_reference(case, q, e):
    """+, -, x, scalar x and ** on num/den agree with the same operations on
    Fraction coordinates, the product by the schoolbook reference; every
    result is stored canonically, so == and hash agree with the reference
    coordinates."""
    f, g, h = case
    fld = NumberField(f)
    x, y = fld.element(g), fld.element(h)
    power = [Fraction(int(i == 0)) for i in range(fld.n)]
    for _ in range(e):
        power = reference_mul(f, power, g)
    expected = [
        (x + y, [a + b for a, b in zip(g, h)]),
        (x - y, [a - b for a, b in zip(g, h)]),
        (x * y, reference_mul(f, g, h)),
        (x * q, [a * q for a in g]),
        (q * x, [a * q for a in g]),
        (x**e, power),
    ]
    for z, coords in expected:
        assert_canonical(z)
        assert z.coords == coords
        assert z == fld.element(coords) and hash(z) == hash(fld.element(coords))
    assert (x == y) is (g == h)
    assert (x + y == y + x) and hash(x + y) == hash(y + x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(field_elements(), SCALARS)
def test_every_constructor_builds_the_canonical_form(case, q):
    """element, from_poly, from_rational, Order.element and a scalar product
    build the same (num, den) for the same element, so equal elements from
    different routes compare and hash equal; zero is ([0, ..., 0], 1)."""
    fld, coords = case
    z = equation_order(fld)
    d = math.lcm(*(Fraction(c).denominator for c in coords)) * 6
    routes = [fld.element(coords), fld.from_poly(coords), z.element(coords),
              fld.element([c * d for c in coords]) * Fraction(1, d)]
    scalars = [fld.from_rational(q), fld.element([q] + [0] * (fld.n - 1)), fld.from_poly([q]),
               z.element([q] + [0] * (fld.n - 1)), fld.one() * q]
    for group in (routes, scalars):
        for x in group:
            assert_canonical(x)
            assert (x.num, x.den) == (group[0].num, group[0].den)
            assert x == group[0] and hash(x) == hash(group[0])
    for zero in (fld.zero(), fld.element(coords) * 0, fld.element(coords) - fld.element(coords),
                 fld.from_rational(Fraction(0, 7))):
        assert (zero.num, zero.den) == ([0] * fld.n, 1)
