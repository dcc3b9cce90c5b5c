import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valext import NumberField, Order, extensions_of, discriminant, equation_order, p_maximal_order, p_radical, ring_of_multipliers
from valext import orders
from valext.errors import NotIrreducible
from valext.linalg import columns, fp_kernel, lattice_canonical, mult_matrix, pval, q_identity
from valext.orders import ideal_over

from conftest import (
    CORPUS,
    CORPUS_IDS,
    canonical_basis,
    extensions_for,
    index_valuation,
    lattice_contains,
    order_contains,
    order_for,
    poly_rem,
)

GAUSS = NumberField([1, 0, 1])
DEDEKIND = NumberField([8, -2, 1, 1])  # x^3 + x^2 - 2x + 8


def test_equation_order_is_power_basis():
    for fld in (GAUSS, DEDEKIND):
        o = equation_order(fld)
        assert o.basis == q_identity(fld.n)
        assert o.basis[0] == [Fraction(1)] + [Fraction(0)] * (fld.n - 1)


def test_discriminant():
    assert discriminant(GAUSS) == -4
    assert discriminant(NumberField([-1, -1, 0, 1])) == -23
    assert discriminant(DEDEKIND) == -4 * 503


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
    assert o.basis == expected
    assert index_valuation(equation_order(DEDEKIND).basis, o.basis, 2) == 1


def test_round2_chain_increases_index():
    o = equation_order(DEDEKIND)
    bigger = ring_of_multipliers(o, p_radical(o, 2), 2)
    assert index_valuation(o.basis, bigger.basis, 2) >= 1
    top = p_maximal_order(DEDEKIND, 2)
    fix = ring_of_multipliers(top, p_radical(top, 2), 2)
    assert fix == top


def test_multiplicative_closure_of_maximal_orders():
    for fld, p in [(GAUSS, 2), (GAUSS, 5), (DEDEKIND, 2)]:
        o = p_maximal_order(fld, p)
        for i in range(fld.n):
            for j in range(fld.n):
                prod = o.field.element(o.basis[i]) * o.field.element(o.basis[j])
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
        p_o = lattice_canonical([[p * x for x in b] for b in o.basis], p)
        gens = [o.element(v) for v in rad]
        for g in gens:
            assert lattice_contains(p_o, (g**q).coords, p)
        for combo in itertools.product(gens, repeat=fld.n):
            prod = fld.one()
            for g in combo:
                prod = prod * g
            assert lattice_contains(p_o, prod.coords, p)


def test_round2_deep_chain():
    # x^2 - 320 = x^2 - 2^6*5: index 2^4 over the equation order, so Round 2
    # needs several enlargement steps before stabilizing at Z[(8+theta)/16]
    fld = NumberField([-320, 0, 1])
    o = p_maximal_order(fld, 2)
    assert index_valuation(equation_order(fld).basis, o.basis, 2) == 4
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
    radical comes in canonical O-coordinates, and Order.lattice_basis maps
    it to the canonical power basis of a general elimination."""
    o = order_for(coeffs, p)
    exts = extensions_for(coeffs, p)
    for w in exts:
        assert index_valuation(w.prime_basis, o.basis, p) == w.f
    rad = p_radical(o, p)
    assert_canonical_o_coordinates(rad, p)
    rad_basis = o.lattice_basis(rad, p)
    assert rad_basis == canonical_basis([o.element(g).coords for g in rad], p)
    assert index_valuation(rad_basis, o.basis, p) == sum(w.f for w in exts)


def test_order_contains_one():
    for fld, p in [(GAUSS, 2), (GAUSS, 5), (GAUSS, 7), (DEDEKIND, 2)]:
        o = p_maximal_order(fld, p)
        assert order_contains(o, fld.one(), p)


def test_coords_round_trip():
    o = p_maximal_order(DEDEKIND, 2)
    x = o.element([3, Fraction(1, 3), -2])
    assert o.coords(x) == [Fraction(3), Fraction(1, 3), Fraction(-2)]
    assert all(pval(c, 2) >= 0 for c in o.coords(x) if c != 0)


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
        Order(GAUSS, basis)


def test_order_refuses_basis_not_closed_under_multiplication():
    # (theta/2)^2 = -1/4 is not in Z + Z theta/2
    with pytest.raises(ValueError, match="not closed under multiplication"):
        Order(GAUSS, [[1, 0], [0, Fraction(1, 2)]])
    # theta^2/2 is not integral at 2: the 2-maximal order is Z[theta, (theta+theta^2)/2]
    with pytest.raises(ValueError, match="not closed under multiplication"):
        Order(DEDEKIND, [[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]])


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
    c give entries below the diagonal."""
    g = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8)) + [1]
    p = draw(st.sampled_from([2, 3, 5, 7]))
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
                    domain="QQ") for v in o.basis]
    for i in range(fld.n):
        for j in range(fld.n):
            consts = o.table[i][j]
            assert all(type(c) is int for c in consts)
            combo = sum((c * bk for c, bk in zip(consts, b)), sympy.Poly(0, t, domain="QQ"))
            assert combo == (b[i] * b[j]).rem(modulus)
    assert o.mult_table_mod_p(p) == [[[c % p for c in cs] for cs in row] for row in o.table]
    k = data.draw(st.integers(0, fld.n - 1))
    bigger = [v[:] for v in o.basis]
    bigger[k] = [x / p for x in bigger[k]]
    with pytest.raises(ValueError, match="not closed under multiplication"):
        Order(fld, bigger)


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
    products = columns([o.coords(x * o.element(e)) for e in unit_vectors])
    m = mult_matrix(o.table, v)
    assert m == products
    assert mult_matrix(o.table, v, p) == [[c % p for c in row] for row in m]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(round2_instances())
def test_round2_bases_are_canonical_z_1_over_p_bases(instance):
    """Every basis Round 2 keeps lies in lattice_canonical's domain, Z[1/p]
    entries and p-power pivots, and is canonical: the p-maximal order's
    basis and each prime's basis are fixed by lattice_canonical and equal
    the canonical basis of the general Z_(p) elimination."""
    f, p = instance
    fld = NumberField(f)
    bases = [p_maximal_order(fld, p).basis] + [w.prime_basis for w in extensions_of(fld, p)]
    for basis in bases:
        assert lattice_canonical(basis, p) == basis == canonical_basis(basis, p)


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
    through Order.lattice_basis lift(V) + pO, O + p^-1 lift(V) for its p^-1
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
    ideal = top.lattice_basis(gens, p)
    assert ideal == canonical_basis(lifts + [[p * x for x in b] for b in top.basis], p)
    assert [[x / p for x in b] for b in ideal] == canonical_basis(
        top.basis + [[x / p for x in v] for v in lifts], p
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
            assert bigger.basis == canonical_basis(order.basis + kern, p)
            if bigger == order:
                break
            order = bigger
    assert order == top
