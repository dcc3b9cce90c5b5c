import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from valext import NumberField, extensions_of, discriminant, equation_order, p_maximal_order, p_radical, ring_of_multipliers
from valext import FpAlgebra, nilradical, quotient_mod_p, split_reduced
from valext import orders
from valext.errors import NotIrreducible
from valext.linalg import columns, fp_identity, fp_kernel, lattice_canonical, mult_matrix, pval
from valext.orders import ideal_over, ratio_str

from conftest import (
    CORPUS,
    CORPUS_IDS,
    canonical_basis,
    extensions_for,
    index_valuation,
    lattice_contains,
    order_basis,
    order_contains,
    order_coords,
    order_for,
    order_from_basis,
    over_den,
    poly_rem,
    prime_basis,
    residue_field,
    scaled_to_integers,
)

GAUSS = NumberField([1, 0, 1])
DEDEKIND = NumberField([8, -2, 1, 1])  # x^3 + x^2 - 2x + 8


def test_equation_order_is_power_basis():
    for fld in (GAUSS, DEDEKIND):
        o = equation_order(fld)
        assert order_basis(o) == fp_identity(fld.n)
        assert order_basis(o)[0] == [Fraction(1)] + [Fraction(0)] * (fld.n - 1)


def test_discriminant():
    assert discriminant(GAUSS) == -4
    assert discriminant(NumberField([-1, -1, 0, 1])) == -23
    assert discriminant(DEDEKIND) == -4 * 503


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers() | st.integers(-(2**300), 2**300), st.sampled_from([2, 3, 5, 7, 10**9 + 7]),
       st.integers(0, 130))
@example(0, 2, 0)
@example(0, 2, 120)
@example(-(2**120), 2, 120)
@example(3 * 2**119, 2, 120)
def test_ratio_str_prints_the_fraction(x, p, k):
    """Lattices stay integers over a p-power denominator until printed, and
    each entry prints exactly as str(Fraction(x, p^k)) would, for x of any
    sign, 0 included, and k up to 130, above the 120 powers of 2 by which
    the 2-maximal order of x^16+65536 exceeds Z[x] (its entries lie over
    2^15)."""
    assert ratio_str(x, p**k) == str(Fraction(x, p**k))


def test_p_radical_semisimple_case():
    # x^2+1 has distinct roots mod 5 (exhaustive search), so the radical is 5*o
    assert [r for r in range(5) if (r * r + 1) % 5 == 0] == [2, 3]
    o = equation_order(GAUSS)
    rad = p_radical(o, 5)
    assert rad == lattice_canonical([[5, 0], [0, 5]], 5)


def test_p_radical_ramified_case():
    o = equation_order(GAUSS)
    rad = p_radical(o, 2)
    # (1+theta)^2 = 2*theta = 0 mod 2o, so 1+theta generates the radical
    assert rad == canonical_basis([[1, 1], [2, 0]], 2)
    assert lattice_contains(rad, [Fraction(1), Fraction(1)], 2)
    assert not lattice_contains(rad, [Fraction(1), Fraction(0)], 2)


def nilpotents_mod_2(field):
    """Exhaustive nilpotency check in Z[theta]/2 via raw polynomial math."""

    def mul(a, b):
        prod = [Fraction(0)] * (2 * field.n - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        rem = poly_rem(prod, field.f)
        rem = list(rem) + [Fraction(0)] * (field.n - len(rem))
        return [Fraction(int(c) % 2) for c in rem]

    out = []
    for bits in itertools.product((0, 1), repeat=field.n):
        x = [Fraction(b) for b in bits]
        y = x
        for _ in range(field.n + 1):
            y = mul(y, y)
        if all(c == 0 for c in y):
            out.append(bits)
    return out


def test_p_radical_dedekind_case():
    nils = nilpotents_mod_2(DEDEKIND)
    # oracle: exactly 0 and theta + theta^2 are nilpotent in o/2o
    assert set(nils) == {(0, 0, 0), (0, 1, 1)}
    o = equation_order(DEDEKIND)
    rad = p_radical(o, 2)
    expected = canonical_basis([[0, 1, 1], [2, 0, 0], [0, 2, 0], [0, 0, 2]], 2)
    assert rad == expected


def test_ring_of_multipliers_of_free_module():
    o = equation_order(GAUSS)
    rad = p_radical(o, 5)  # equals 5*o
    assert ring_of_multipliers(o, rad, 5) == o


def test_ring_of_multipliers_of_whole_order():
    o = equation_order(GAUSS)
    # the whole order in O-coordinates is the identity
    assert ring_of_multipliers(o, [[1, 0], [0, 1]], 5) == o


@pytest.mark.parametrize(
    "ideal",
    [
        [[0, 1], [1, 0]],  # full rank, zero pivot at row 0
        [[1, 1], [1, 2]],  # full rank, an entry above the diagonal
        [[Fraction(1), 0], [0, 1]],  # triangular, but not ints
        [[1, 0]],  # too few generators
    ],
)
def test_ring_of_multipliers_refuses_malformed_generators(ideal):
    """Generators that are no triangular basis of ints are a caller's error:
    ValueError, not NotIrreducible, since x^2+1 is irreducible."""
    with pytest.raises(ValueError) as exc:
        ring_of_multipliers(equation_order(GAUSS), ideal, 2)
    assert not isinstance(exc.value, NotIrreducible)


def test_ring_of_multipliers_refuses_lattice_not_closed():
    # Z(1+i) + Z 4i is no ideal of Z[i]: i(1+i) = -1 + i leaves it
    with pytest.raises(NotIrreducible, match="not multiplicatively closed"):
        ring_of_multipliers(equation_order(GAUSS), [[1, 1], [0, 4]], 2)


def test_ring_of_multipliers_dedekind():
    o = equation_order(DEDEKIND)
    rad = p_radical(o, 2)
    bigger = ring_of_multipliers(o, rad, 2)
    eta = DEDEKIND.element([0, Fraction(1, 2), Fraction(1, 2)])  # (theta+theta^2)/2
    # oracle: eta is integral -- its minimal polynomial is monic with integer
    # coefficients
    mp = eta.min_poly()
    assert mp[-1] == 1 and all(c.denominator == 1 for c in mp)
    assert order_contains(bigger, eta, 2)
    assert not order_contains(o, eta, 2)


def test_p_maximal_order_examples():
    # 5 does not divide disc = -4, so the equation order is already maximal
    assert p_maximal_order(GAUSS, 5) == equation_order(GAUSS)
    # Z[i] is maximal at 2 as well: one Round-2 step is a fixpoint
    assert p_maximal_order(GAUSS, 2) == equation_order(GAUSS)
    o = p_maximal_order(DEDEKIND, 2)
    expected = canonical_basis(
        [[1, 0, 0], [0, 1, 0], [0, Fraction(1, 2), Fraction(1, 2)]], 2
    )
    assert order_basis(o) == expected
    assert index_valuation(order_basis(equation_order(DEDEKIND)), order_basis(o), 2) == 1


def test_round2_chain_increases_index():
    o = equation_order(DEDEKIND)
    bigger = ring_of_multipliers(o, p_radical(o, 2), 2)
    assert index_valuation(order_basis(o), order_basis(bigger), 2) >= 1
    top = p_maximal_order(DEDEKIND, 2)
    fix = ring_of_multipliers(top, p_radical(top, 2), 2)
    assert fix == top


def test_multiplicative_closure_of_maximal_orders():
    for fld, p in [(GAUSS, 2), (GAUSS, 5), (DEDEKIND, 2)]:
        o = p_maximal_order(fld, p)
        for i in range(fld.n):
            for j in range(fld.n):
                prod = o.field.element(order_basis(o)[i]) * o.field.element(order_basis(o)[j])
                assert order_contains(o, prod, p)


def test_radical_nilpotency():
    # elementwise: x^(p^m) lies in p*o once p^m >= n; as an ideal, the n-th
    # power of the radical lands in p*o
    for fld, p in [(GAUSS, 2), (GAUSS, 5), (DEDEKIND, 2)]:
        o = p_maximal_order(fld, p)
        rad = p_radical(o, p)
        q = 1
        while q < fld.n:
            q *= p
        # p*O and its elements, both scaled to integers by O's denominator
        p_o = lattice_canonical([[p * x for x in v] for v in o.num], p)
        gens = [o.element(v) for v in rad]
        for g in gens:
            assert lattice_contains(p_o, [o.den * x for x in (g**q).coords], p)
        for combo in itertools.product(gens, repeat=fld.n):
            prod = fld.one()
            for g in combo:
                prod = prod * g
            assert lattice_contains(p_o, [o.den * x for x in prod.coords], p)


def test_round2_deep_chain():
    # x^2 - 320 = x^2 - 2^6*5: index 2^4 over the equation order, so Round 2
    # needs several enlargement steps before stabilizing at Z[(8+theta)/16]
    fld = NumberField([-320, 0, 1])
    o = p_maximal_order(fld, 2)
    assert index_valuation(order_basis(equation_order(fld)), order_basis(o), 2) == 4
    golden = fld.element([Fraction(1, 2), Fraction(1, 16)])  # (8+theta)/16
    mp = golden.min_poly()
    assert all(c.denominator == 1 for c in mp)  # x^2 - x - 1
    assert order_contains(o, golden, 2)
    from valext import extensions_of

    assert [(w.e, w.f) for w in extensions_of(fld, 2)] == [(1, 2)]


@pytest.mark.parametrize(
    "coeffs,p",
    CORPUS + [((1, 0, 0, 0, 1), 2), ((1, 0, 0, 0, 1), 3), ((-2, 0, 0, 1), 5)],
    ids=CORPUS_IDS + ["x4+1@2", "x4+1@3", "x3-2@5"],
)
def test_ideal_over_indices_are_residue_degrees(coeffs, p):
    """ideal_over builds both the prime lattices of extensions_of and the
    p-radical: v_p[O : P_i] = f_i, and the radical, the intersection of the
    P_i, has v_p[O : rad] = sum f_i. Indices from sympy's determinants. The
    radical comes in canonical O-coordinates, and Order.lattice_nums maps
    it to the canonical power basis of a general elimination."""
    o = order_for(coeffs, p)
    exts = extensions_for(coeffs, p)
    for w in exts:
        assert index_valuation(prime_basis(w), order_basis(o), p) == w.f
    rad = p_radical(o, p)
    assert_canonical_o_coordinates(rad, p)
    rad_basis = over_den(o.lattice_nums(rad, p), o.den)
    assert rad_basis == canonical_basis([o.element(g).coords for g in rad], p)
    assert index_valuation(rad_basis, order_basis(o), p) == sum(w.f for w in exts)


def test_order_contains_one():
    for fld, p in [(GAUSS, 2), (GAUSS, 5), (GAUSS, 7), (DEDEKIND, 2)]:
        o = p_maximal_order(fld, p)
        assert order_contains(o, fld.one(), p)


def test_coords_round_trip():
    o = p_maximal_order(DEDEKIND, 2)
    x = o.element([3, Fraction(1, 3), -2])
    assert order_coords(o, x) == [Fraction(3), Fraction(1, 3), Fraction(-2)]
    assert all(pval(c, 2) >= 0 for c in order_coords(o, x) if c != 0)


@pytest.mark.parametrize(
    "basis",
    [
        [[1, 0], [1, 1]],  # full rank, but an entry above the diagonal
        [[0, 1], [1, 0]],  # full rank, zero pivot at row 0
        [[1, 0], [0, 0]],  # singular
    ],
)
def test_order_refuses_non_triangular_basis(basis):
    with pytest.raises(ValueError):
        order_from_basis(GAUSS, basis)


def test_order_refuses_basis_not_closed_under_multiplication():
    # (theta/2)^2 = -1/4 is not in Z + Z theta/2
    with pytest.raises(ValueError, match="not closed under multiplication"):
        order_from_basis(GAUSS, [[1, 0], [0, Fraction(1, 2)]])
    # theta^2/2 is not integral at 2: the 2-maximal order is Z[theta, (theta+theta^2)/2]
    with pytest.raises(ValueError, match="not closed under multiplication"):
        order_from_basis(DEDEKIND, [[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]])


def assert_canonical_o_coordinates(gens, p):
    """gens is a canonical lattice basis in O-coordinates, as ideal_over
    returns it: int entries, lower triangular with pivots 1 or p, and below
    a pivot zero in each row whose pivot is 1, in [0, p) in each other row."""
    ones = {k for k, g in enumerate(gens) if g[k] == 1}
    for k, g in enumerate(gens):
        assert all(type(x) is int for x in g)
        assert g[k] in (1, p) and not any(g[:k])
        for j in range(k + 1, len(g)):
            assert g[j] == 0 if j in ones else 0 <= g[j] < p


def shifted_scaling(g, p, c):
    """Coefficients of p^n g((x - c)/p), whose root theta = c + p theta_g
    makes (theta - c)/p integral."""
    n = len(g) - 1
    return [sum(g[i] * p ** (n - i) * math.comb(i, k) * (-c) ** (i - k) for i in range(k, n + 1))
            for k in range(n + 1)]


@st.composite
def round2_instances(draw):
    """(f, p): f monic irreducible of degree 1..8 (sympy) with small integer
    coefficients, p in {2, 3, 5, 7}. Half the draws are p^n g((x - c)/p)
    with 0 <= c < p, where (theta - c)/p is integral, so p divides the index
    of Z[theta] once n >= 2; c = 0 gives a diagonal p-maximal order, other
    c give entries below the diagonal. About one draw in four is instead an
    Eisenstein x^n + p u(x) with n > p: totally ramified with e = n > p,
    where the radical of O/pO has nilpotency index above p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(p + 1, 8))
        u = [draw(st.integers(1, p - 1))] + draw(
            st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1))
        return [p * c for c in u] + [1], p
    g = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8)) + [1]
    assume(sympy.Poly(g[::-1], sympy.Symbol("t")).is_irreducible)
    if draw(st.booleans()):
        g = shifted_scaling(g, p, draw(st.integers(0, p - 1)))
    return g, p


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(round2_instances(), st.data())
def test_structure_constants_match_sympy(instance, data):
    """The table of the p-maximal order is integral, sum_k T[i][j][k] b_k is
    sympy's rem(b_i b_j, f), and mult_table_mod_p is T mod p. Dividing any
    basis vector by p leaves the p-maximal order, so that lattice is no ring
    and Order refuses it."""
    f, p = instance
    fld = NumberField(f)
    o = p_maximal_order(fld, p)
    t = sympy.Symbol("t")
    modulus = sympy.Poly(f[::-1], t, domain="QQ")
    b = [sympy.Poly([sympy.Rational(x.numerator, x.denominator) for x in v[::-1]], t,
                    domain="QQ") for v in order_basis(o)]
    for i in range(fld.n):
        for j in range(fld.n):
            consts = o.table[i][j]
            assert all(type(c) is int for c in consts)
            combo = sum((c * bk for c, bk in zip(consts, b)), sympy.Poly(0, t, domain="QQ"))
            assert combo == (b[i] * b[j]).rem(modulus)
    assert o.mult_table_mod_p(p) == [[[c % p for c in cs] for cs in row] for row in o.table]
    k = data.draw(st.integers(0, fld.n - 1))
    bigger = order_basis(o)
    bigger[k] = [x / p for x in bigger[k]]
    with pytest.raises(ValueError, match="not closed under multiplication"):
        order_from_basis(fld, bigger)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(round2_instances(), st.data())
def test_mult_matrix_over_z_matches_order_products(instance, data):
    """Column j of linalg.mult_matrix(O.table, v) holds the order
    coordinates of O.element(v) * b_j, on p-maximal orders that need not be
    Z[theta]; with p given it is the same matrix mod p."""
    f, p = instance
    o = p_maximal_order(NumberField(f), p)
    n = o.field.n
    v = data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    x = o.element(v)
    unit_vectors = [[int(i == j) for i in range(n)] for j in range(n)]
    products = columns([order_coords(o, x * o.element(e)) for e in unit_vectors])
    m = mult_matrix(o.table, v)
    assert m == products
    assert mult_matrix(o.table, v, p) == [[c % p for c in row] for row in m]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(round2_instances(), st.data())
def test_coords_mod_p_reduces_the_rational_coordinates(instance, data):
    """Order.coords and coords_mod_p solve in integers. On p-maximal orders
    that need not be Z[theta], coords inverts Order.element, and
    coords_mod_p is coords reduced mod p, or NotIrreducible where p divides
    a reduced denominator."""
    f, p = instance
    o = p_maximal_order(NumberField(f), p)
    n = o.field.n
    c = [Fraction(data.draw(st.integers(-50, 50)), data.draw(st.sampled_from([1, 3, p, p * p, 3 * p])))
         for _ in range(n)]
    x = o.element(c)
    assert order_coords(o, x) == c
    if any(q.denominator % p == 0 for q in c):
        with pytest.raises(NotIrreducible, match="p in a coordinate denominator"):
            o.coords_mod_p(x, p)
    else:
        assert o.coords_mod_p(x, p) == [q.numerator * pow(q.denominator, -1, p) % p for q in c]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(round2_instances())
def test_round2_bases_are_canonical_z_1_over_p_bases(instance):
    """Every basis Round 2 keeps has Z[1/p] entries, so scaled by its
    common denominator, a power of p, it lies in lattice_canonical's domain,
    integer entries and p-power pivots, and it is canonical: the p-maximal
    order's basis and each prime's basis, so scaled, are fixed by
    lattice_canonical and equal the canonical basis of the general Z_(p)
    elimination."""
    f, p = instance
    fld = NumberField(f)
    bases = [order_basis(p_maximal_order(fld, p))] + [prime_basis(w) for w in extensions_of(fld, p)]
    for basis in bases:
        ints = scaled_to_integers(basis, p)
        assert lattice_canonical(ints, p) == ints == canonical_basis(ints, p)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(round2_instances())
@example(([-2, 0, 0, 1], 2))
@example(([-3, 0, 0, 0, 1], 3))
def test_nilradical_codimension_is_sum_of_residue_degrees(instance):
    """For O the p-maximal order, O/pO modulo its nilradical is the product
    of the residue fields, so the nilradical, ker F^m, has dimension
    n - sum f_i, split_reduced's fields fill the rest, and none of them has
    nilpotents. Where v_p(disc f) <= 1, sum f_i is the sum of sympy's
    factor degrees of f mod p; elsewhere it is read off extensions_of. The
    explicit examples are totally ramified with e > p, where some nilpotent
    x has x^p != 0, so ker F alone would not be the nilradical."""
    f, p = instance
    fld = NumberField(f)
    alg = quotient_mod_p(p_maximal_order(fld, p), p)
    nil = nilradical(alg)
    comps = split_reduced(alg).components
    assert sum(c.dim for c in comps) == fld.n - len(nil)
    assert all(nilradical(residue_field(c, alg)) == [] for c in comps)
    poly = sympy.Poly(f[::-1], sympy.Symbol("t"))
    if int(sympy.discriminant(poly)) % p**2:
        sum_f = sum(g.degree() for g, _ in sympy.Poly(poly, modulus=p).factor_list()[1])
    else:
        sum_f = sum(w.f for w in extensions_of(fld, p))
    assert len(nil) == fld.n - sum_f


@st.composite
def shortcut_instances(draw):
    """(f, p): f monic irreducible of degree 1..6 (sympy) with small integer
    coefficients, p in {2, 3, 5, 7, 11} with v_p(disc f) <= 1 (sympy)."""
    f = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=6)) + [1]
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    poly = sympy.Poly(f[::-1], sympy.Symbol("t"))
    assume(poly.is_irreducible)
    assume(int(sympy.discriminant(poly)) % p**2 != 0)
    return f, p


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(shortcut_instances())
def test_equation_order_maximal_where_p_squared_misses_disc(instance):
    """Where v_p(disc f) <= 1, Z[theta] is the p-maximal order: Round 2 would
    not move it, and Dedekind-Kummer reads the (e_i, f_i) off f mod p."""
    f, p = instance
    fld = NumberField(f)
    eq = equation_order(fld)
    assert p_maximal_order(fld, p) == eq
    assert ring_of_multipliers(eq, p_radical(eq, p), p) == eq
    _, factors = sympy.Poly(f[::-1], sympy.Symbol("t"), modulus=p).factor_list()
    expected = sorted((m, g.degree()) for g, m in factors)
    assert sorted((w.e, w.f) for w in extensions_of(fld, p)) == expected


@pytest.mark.parametrize("p", [1, -5, 0, 4, 6, 9])
def test_non_prime_p_is_refused(p):
    """Without the check, p = 1 and p = -5 never return (pval divides by 1
    forever, FpAlgebra.pow shifts a negative exponent forever), and 0, 4, 6
    and 9 fail with unrelated ZeroDivisionError or ValueError messages."""
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        p_maximal_order(GAUSS, p)
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        extensions_of(DEDEKIND, p)


@st.composite
def subspace_instances(draw):
    """(f, p, vectors): f monic irreducible of degree 1..6 (sympy) with small
    integer coefficients, p in {2, 3, 5}, and up to n + 1 random vectors over
    F_p of length n. Half the draws are p^n g((x - c)/p), where (theta - c)/p
    is integral, so that Round 2 runs and its orders are not diagonal."""
    g = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6)) + [1]
    p = draw(st.sampled_from([2, 3, 5]))
    assume(sympy.Poly(g[::-1], sympy.Symbol("t")).is_irreducible)
    n = len(g) - 1
    if draw(st.booleans()):
        g = shifted_scaling(g, p, draw(st.integers(0, p - 1)))
    vector = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return g, p, draw(st.lists(vector, max_size=n + 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(subspace_instances())
def test_lattices_from_echelon_form_match_general_elimination(instance):
    """ideal_over and ring_of_multipliers read their bases off an F_p echelon
    form. A general Z_(p) elimination of their full generator sets gives the
    same canonical bases: V + pZ^n in O-coordinates for ideal_over, and
    through Order.lattice_nums lift(V) + pO, O + p^-1 lift(V) for its p^-1
    multiple, and O + p^-1 lift(kernel) for each multiplier ring along
    Round 2 from Z[theta]."""
    f, p, vectors = instance
    fld = NumberField(f)
    top = p_maximal_order(fld, p)
    lifts = [top.element(v).coords for v in vectors]
    gens = ideal_over(top, vectors, p)
    assert_canonical_o_coordinates(gens, p)
    assert gens == canonical_basis(vectors + [[p * (j == k) for j in range(fld.n)]
                                              for k in range(fld.n)], p)
    ideal = over_den(top.lattice_nums(gens, p), top.den)
    assert ideal == canonical_basis(lifts + [[p * x for x in b] for b in order_basis(top)], p)
    assert [[x / p for x in b] for b in ideal] == canonical_basis(
        order_basis(top) + [[x / p for x in v] for v in lifts], p
    )
    kernels = []

    def recorded_kernel(m, q):
        kernels.append(fp_kernel(m, q))
        return kernels[-1]

    order = equation_order(fld)
    with mock.patch.object(orders, "fp_kernel", recorded_kernel):
        while True:
            bigger = ring_of_multipliers(order, p_radical(order, p), p)
            kern = [[x / p for x in order.element(v).coords] for v in kernels[-1]]
            assert order_basis(bigger) == canonical_basis(order_basis(order) + kern, p)
            if bigger == order:
                break
            order = bigger
    assert order == top


@st.composite
def monic_polys(draw):
    """Monic integer f of degree 1..16, low first: sparse (at most three
    nonzero lower terms) or dense."""
    n = draw(st.integers(1, 16))
    if draw(st.booleans()):
        low = [0] * n
        for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            low[k] = draw(st.integers(-50, 50))
    else:
        low = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    return low + [1]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(monic_polys())
def test_equation_order_table_is_the_reduced_powers(f):
    """Z[theta]'s structure constants come in closed form, theta^(i+j) mod f,
    and equal the product of the basis vectors e_i e_j in the field, in
    ints."""
    fld = NumberField(f)
    n = fld.n
    table = equation_order(fld).table
    e = [[int(i == k) for i in range(n)] for k in range(n)]
    for i in range(n):
        for j in range(n):
            assert table[i][j] == fld._mul(e[i], e[j])
            assert all(type(c) is int for c in table[i][j])


def plain_round2(fld, p):
    """Round 2 from Z[theta] with no shortcut: (p-maximal order, steps), or
    NotIrreducible once the discriminant's bound on the steps is passed."""
    order, steps = equation_order(fld), 0
    for _ in range(pval(discriminant(fld), p) // 2 + 2):
        bigger = ring_of_multipliers(order, p_radical(order, p), p)
        steps += 1
        if bigger == order:
            return order, steps
        order = bigger
    raise NotIrreducible("Round-2 iteration exceeded the discriminant bound")


def outcome(fn, *args):
    """fn's answer as its order basis, or its refusal as type and message."""
    try:
        return order_basis(fn(*args))
    except (NotIrreducible, ValueError) as exc:
        return type(exc), str(exc)


def taylor_shift(g, c):
    """Coefficients of g(x + c), low first."""
    return [sum(g[i] * math.comb(i, k) * c ** (i - k) for i in range(k, len(g))) for k in range(len(g))]


@st.composite
def power_of_linear_mod_p(draw, p, kind, shifted):
    """(g, c): g = x^n + p h(x) = x^n mod p, low first, of degree n in
    2..9 (so p | n for some n at p = 2, 3, 5, 7), and c = 0 unless shifted;
    f(x) = g(x - c) = (x - c)^n mod p is the polynomial tested. g_0 has
    v_p(g_0) = 1 (kind "eisenstein"), v_p(g_0) >= 2 ("deep"), or is 0
    ("root": f has the root c, so it is reducible). The other coefficients
    carry p^1 .. p^3, so the Newton polygon varies. Kind "unit" has p not
    dividing g_0: then f mod p is (x - c)^n + g_0, a power of a linear
    factor only where n is a power of p, and inseparable where p | n."""
    n = draw(st.integers(2, 9))
    g = [p ** draw(st.integers(1, 3)) * draw(st.integers(-3, 3)) for _ in range(n)] + [1]
    if kind == "eisenstein":
        g[0] = p * draw(st.sampled_from([u for u in (1, -1, 2, -2) if u % p]))
    elif kind == "deep":
        g[0] = p ** draw(st.integers(2, 2 * n)) * draw(st.sampled_from([1, -1, 2, -2]))
    elif kind == "root":
        g[0] = 0
    else:
        g[0] = draw(st.sampled_from([u for u in (1, -1, 2, -2) if u % p]))
    return g, draw(st.integers(1, p - 1)) if shifted else 0


@pytest.mark.parametrize("shifted", [False, True], ids=["c=0", "c!=0"])
@pytest.mark.parametrize("kind", ["eisenstein", "deep", "root", "unit"])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 10**9 + 7])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_p_maximal_order_matches_plain_round2(p, kind, shifted, data):
    """Where f = (x - c)^n mod p, p_maximal_order skips Round 2 (g
    Eisenstein) or starts it from the Newton polygon's order (c = 0). Its
    answer, or its refusal, is that of plain Round 2 from Z[theta]; on an
    Eisenstein g that Round 2 takes one step, a fixpoint at Z[theta], which
    the library skips. Z[theta] = Z[theta - c], so v_p([O : Z[theta]]) is
    the same for g and f."""
    g, c = data.draw(power_of_linear_mod_p(p, kind, shifted))
    f = taylor_shift(g, -c)
    fld = NumberField(f)
    assume(discriminant(fld) != 0)
    calls = []
    with mock.patch.object(orders, "ring_of_multipliers",
                           lambda *args: calls.append(1) or ring_of_multipliers(*args)):
        got = outcome(p_maximal_order, fld, p)
    assert got == outcome(lambda *args: plain_round2(*args)[0], fld, p)
    if kind == "eisenstein":
        assert plain_round2(fld, p) == (equation_order(fld), 1)
        assert got == order_basis(equation_order(fld)) and calls == []
    if type(got) is list:
        gfld = NumberField(g)
        assert (index_valuation(fp_identity(fld.n), got, p) ==
                index_valuation(fp_identity(gfld.n), order_basis(p_maximal_order(gfld, p)), p))


@pytest.mark.parametrize("f,p,steps", [
    ([1, 0, 1], 2, 0),  # (x + 1)^2 + 1 is Eisenstein
    ([-2] + [0] * 11 + [1], 2, 0),
    ([1] + [0] * 63 + [1], 2, 0),  # (x + 1)^64 + 1 is Eisenstein
    ([4096] + [0] * 7 + [1], 2, 3),  # Newton start theta^k / 2^floor(3k/2)
    ([-2187] + [0] * 5 + [1], 3, 1),  # Newton start Z[theta/3], already 3-maximal
    ([-1536, 0, 0, 0, 1], 2, 1),
], ids=["x2+1", "x12-2", "x64+1", "x8+4096", "x6-2187", "x4-1536"])
def test_round2_steps_after_the_start(monkeypatch, f, p, steps):
    """Round 2 takes ring_of_multipliers steps only past what f mod p decides:
    none where f(x + c) is Eisenstein, and from the Newton start otherwise."""
    calls = []
    monkeypatch.setattr(orders, "ring_of_multipliers",
                        lambda *args: calls.append(1) or ring_of_multipliers(*args))
    fld = NumberField(f)
    assert p_maximal_order(fld, p) == plain_round2(fld, p)[0]
    assert len(calls) == steps


@st.composite
def monic_instances(draw):
    """(f, p): f monic of degree 2..8 with small integer coefficients and
    nonzero discriminant, irreducible or not, and p in {2, 3, 5, 7}."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 8))
    f = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n)) + [1]
    assume(discriminant(NumberField(f)) != 0)
    return f, p


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(round2_instances(), monic_instances()))
@example(([-2, 0, 0, 1], 2))  # totally ramified, e = 3 > p
@example(([8, -2, 1, 1], 2))  # p divides the index
@example(([4, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1], 2))  # Round-2 steps, e = 2, 2 and 6
def test_kept_nilradical_matches_a_fresh_one(instance):
    """p_maximal_order keeps O/pO on the order it returns, with its
    nilradical: computed in Round 2's last step, or recorded as empty
    where p does not divide disc f. Either must equal the nilradical of a
    fresh algebra on the same table, and be empty where v_p(disc f) = 0,
    as Dedekind-Kummer says; quotient_mod_p returns the kept algebra."""
    f, p = instance
    fld = NumberField(f)
    order = p_maximal_order(fld, p)
    kept = quotient_mod_p(order, p)
    assert quotient_mod_p(order, p) is kept
    unramified = pval(discriminant(fld), p) == 0
    if unramified:
        assert kept._nilradical == []  # recorded before any nilradical call
    fresh = FpAlgebra(p, order.mult_table_mod_p(p), order.coords_mod_p(fld.one(), p))
    assert nilradical(kept) == nilradical(fresh)
    if unramified:
        assert nilradical(fresh) == []
