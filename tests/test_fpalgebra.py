import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valext import (
    AlgIdeal,
    FpAlgebra,
    IllegalIdeal,
    NotReduced,
    NumberField,
    PAdicValuation,
    equation_order,
    extensions_of,
    lift_idempotents,
    nilradical,
    quotient_by,
    quotient_mod_p,
    recording,
    split_reduced,
)
from valext import extensions as extensions_module
from valext import orders as orders_module
from valext.linalg import columns, fp_matvec, fp_rank, mult_matrix

from conftest import CORPUS, CORPUS_IDS, field_for, idempotents, is_unit, order_for


def poly_algebra(p, modulus):
    """F_p[t]/(modulus) with basis 1, t, ..., t^(d-1); modulus monic, low first."""
    d = len(modulus) - 1
    nf_style = []

    def mul(a, b):
        prod = [0] * (2 * d - 1 if d > 1 else 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce mod modulus
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k]
            if c:
                for i in range(len(modulus)):
                    prod[k - d + i] = (prod[k - d + i] - c * modulus[i]) % p
        return [prod[i] % p for i in range(d)]

    basis = [[1 if i == j else 0 for i in range(d)] for j in range(d)]
    table = [[mul(basis[i], basis[j]) for j in range(d)] for i in range(d)]
    unit = [1] + [0] * (d - 1)
    return FpAlgebra(p, table, unit)


F5_T2P1 = poly_algebra(5, [1, 0, 1])  # F_5[t]/(t^2+1), semisimple split
F7_T2P1 = poly_algebra(7, [1, 0, 1])  # F_7[t]/(t^2+1), a field
F2_T2P1 = poly_algebra(2, [1, 0, 1])  # F_2[t]/((t+1)^2), non-reduced


def test_validation_catches_bad_tables():
    with pytest.raises(ValueError):
        FpAlgebra(2, [[[1, 0], [0, 0]], [[1, 0], [0, 1]]], [1, 0])
    for unit in ([1], [1, 0, 0]):  # the table of F_5[t]/(t^2+1), a unit of the wrong length
        with pytest.raises(ValueError):
            FpAlgebra(5, F5_T2P1.table, unit)


def test_rational_coordinates_are_refused_not_truncated():
    """F_p coordinates must be integers. Truncation would make the ideal
    of 1/2 in F_5[t]/(t^2+1) zero and a unit 6/5 pass as 1, so both are
    refused; an integral Fraction is the integer it equals."""
    with pytest.raises(ValueError, match="F_p coordinates must be integers"):
        AlgIdeal(F5_T2P1, [[Fraction(1, 2), 0]])
    with pytest.raises(ValueError, match="F_p coordinates must be integers"):
        FpAlgebra(5, [[[1]]], [Fraction(6, 5)])
    assert AlgIdeal(F5_T2P1, [[Fraction(5), Fraction(10, 2)]]).dim == 0
    assert FpAlgebra(5, [[[1]]], [Fraction(6)]).unit == [1]


# The instances of test_beyond_corpus, as (coefficients low to high, p).
BEYOND_CORPUS = [
    ((-2, 0, 0, 1), 3),
    ((-2, 0, 0, 1), 5),
    ((1, 0, 0, 0, 1), 2),
    ((1, 0, 0, 0, 1), 7),
    ((1, 0, 0, 0, 1), 17),
    ((-5, 0, 1), 2),
    ((2, 2, 1), 2),
    ((-1, -1, 0, 0, 0, 1), 2),
    ((-1, -1, 0, 0, 0, 1), 3),
    ((2, 0, 0, 0, 0, 1), 5),
    ((1, 0, -1, 0, 1), 2),
    ((1, 0, -1, 0, 1), 3),
]


def test_pipeline_tables_pass_full_validation(monkeypatch):
    """quotient_mod_p skips FpAlgebra's table checks, because an order's
    multiplication table is commutative and associative by construction;
    every table the pipeline builds must still pass them."""
    made = []

    def recording(order, p):
        made.append(quotient_mod_p(order, p))
        return made[-1]

    monkeypatch.setattr(orders_module, "quotient_mod_p", recording)
    monkeypatch.setattr(extensions_module, "quotient_mod_p", recording)
    for coeffs, p in CORPUS + BEYOND_CORPUS:
        extensions_of(NumberField(list(coeffs)), p)
    assert len(made) > len(CORPUS + BEYOND_CORPUS)  # Round-2 steps and the final order
    for alg in made:
        rebuilt = FpAlgebra(alg.p, alg.table, alg.unit)  # raises ValueError on a bad table
        assert (rebuilt.table, rebuilt.unit) == (alg.table, alg.unit)


def test_quotient_mod_p_reduction_of_relation():
    alg = quotient_mod_p(equation_order(field_for((1, 0, 1))), 5)
    assert alg.dim == 2
    # theta^2 = -1 = 4
    assert alg.mul([0, 1], [0, 1]) == [4, 0]
    alg2 = quotient_mod_p(equation_order(field_for((1, 0, 1))), 2)
    assert alg2.mul([0, 1], [0, 1]) == [1, 0]


def test_quotient_mod_p_dedekind_is_split():
    o = order_for((8, -2, 1, 1), 2)
    alg = quotient_mod_p(o, 2)
    # oracle: every one of the 8 elements is idempotent, so A = F_2^3
    for v in itertools.product((0, 1), repeat=3):
        assert alg.mul(list(v), list(v)) == list(v)


def test_nilradical_semisimple_is_zero():
    assert nilradical(F5_T2P1).dim == 0


def test_nilradical_of_double_root():
    nil = nilradical(F2_T2P1)
    assert nil.dim == 1
    assert nil.contains([1, 1])  # t+1, since (t+1)^2 = 0
    assert not nil.contains([1, 0])


def test_nilradical_of_field_is_zero():
    assert nilradical(F7_T2P1).dim == 0


def test_quotient_by_zero_ideal_is_isomorphic():
    q, proj = quotient_by(F5_T2P1, AlgIdeal(F5_T2P1, []))
    assert q.dim == 2
    assert fp_matvec(proj, [3, 4], 5) == [3, 4]


def test_quotient_by_radical_of_double_root():
    q, proj = quotient_by(F2_T2P1, nilradical(F2_T2P1))
    assert q.dim == 1
    assert q.unit == [1]
    # t maps to the same class as 1
    assert fp_matvec(proj, [0, 1], 2) == fp_matvec(proj, [1, 0], 2)


def test_alg_ideal_rejects_generators_of_wrong_length():
    for gens in ([[1, 2, 3]], [[1]], [[1, 0], [0]]):
        with pytest.raises(ValueError):
            AlgIdeal(F5_T2P1, gens)


def test_quotient_by_whole_algebra_rejected():
    whole = AlgIdeal(F5_T2P1, [[1, 0], [0, 1]])
    with pytest.raises(IllegalIdeal):
        quotient_by(F5_T2P1, whole)


def test_is_unit():
    assert is_unit(F5_T2P1, [1, 0])
    t = [0, 1]
    f2t2 = poly_algebra(2, [0, 0, 1])  # F_2[t]/(t^2)
    assert not is_unit(f2t2, t)
    assert not is_unit(F5_T2P1, [3, 1])  # 3+t is a nontrivial idempotent


def brute_idempotents(alg):
    return [
        list(v)
        for v in itertools.product(range(alg.p), repeat=alg.dim)
        if alg.mul(list(v), list(v)) == list(v)
    ]


def test_split_reduced_split_case():
    dec = split_reduced(F5_T2P1)
    assert [c.dim for c in dec.components] == [1, 1]
    # oracle: exhaustive solve of e^2 = e over all 25 elements
    idems = brute_idempotents(F5_T2P1)
    assert sorted(map(tuple, idems)) == sorted(
        [(0, 0), (1, 0), (3, 1), (3, 4)]
    )
    assert sorted(map(tuple, idempotents(dec))) == [(3, 1), (3, 4)]


def test_split_reduced_inert_case():
    # oracle: t^2+1 has no root mod 7, so the algebra is the field F_49
    assert all((r * r + 1) % 7 != 0 for r in range(7))
    dec = split_reduced(F7_T2P1)
    assert len(dec.components) == 1
    assert dec.components[0].dim == 2
    assert idempotents(dec) == [[1, 0]]


def test_split_reduced_one_dimensional():
    fp = poly_algebra(2, [0, 1])
    dec = split_reduced(fp)
    assert len(dec.components) == 1
    assert dec.components[0].dim == 1


def test_split_reduced_rejects_nilpotents():
    with pytest.raises(NotReduced):
        split_reduced(F2_T2P1)


def test_split_trace_events():
    with recording() as trace:
        split_reduced(F5_T2P1)
    assert len(trace) == 1 and trace[0].startswith("SPLIT{")
    with recording() as trace2:
        split_reduced(F7_T2P1)
    assert trace2 == []


@st.composite
def squarefree_modulus(draw):
    """(p, g, degrees): g monic squarefree over F_p of degree 1..6, low to
    high, and the degrees of its irreducible factors from sympy."""
    p = draw(st.sampled_from([2, 3, 5, 7, 10**9 + 7]))
    d = draw(st.integers(1, 6))
    g = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1]
    # sympy's Poly.is_sqf calls t^2 squarefree over F_2; the multiplicities
    # of the factorisation do not.
    _, factors = sympy.Poly(g[::-1], sympy.Symbol("t"), modulus=p).factor_list()
    assume(all(m == 1 for _, m in factors))
    return p, g, sorted(f.degree() for f, _ in factors)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(squarefree_modulus())
def test_split_matches_factorisation_oracle(case):
    """F_p[t]/(g) is the product of F_p[t]/(g_i) over the irreducible
    factors g_i of g, so the component dimensions are their degrees."""
    p, g, degrees = case
    alg = poly_algebra(p, g)
    dec = split_reduced(alg)
    assert sorted(c.dim for c in dec.components) == degrees
    idems = idempotents(dec)
    total = alg.zero()
    for i, e in enumerate(idems):
        assert alg.mul(e, e) == e
        for j in range(i):
            assert not any(alg.mul(e, idems[j]))
        total = [(x + y) % p for x, y in zip(total, e)]
    assert total == alg.unit
    projections = [c.projection for c in dec.components]
    assert projections == sorted(projections)


def test_decomposition_invariants():
    for alg in (F5_T2P1, F7_T2P1, poly_algebra(3, [2, 0, 0, 1])):
        if nilradical(alg).dim != 0:
            continue
        dec = split_reduced(alg)
        idems = idempotents(dec)
        total = alg.zero()
        for i, e in enumerate(idems):
            assert alg.mul(e, e) == e
            for j in range(i):
                assert alg.mul(e, idems[j]) == alg.zero()
            total = [(a + b) % alg.p for a, b in zip(total, e)]
        assert total == alg.unit
        # components are fields: every nonzero element is invertible
        for comp in dec.components:
            for v in itertools.product(range(alg.p), repeat=comp.dim):
                if not any(v):
                    continue
                assert is_unit(comp.algebra, list(v))


def test_component_projections_are_algebra_maps():
    dec = split_reduced(F5_T2P1)
    for comp in dec.components:
        proj = comp.projection
        for x in itertools.product(range(5), repeat=2):
            for y in itertools.product(range(5), repeat=2):
                px = fp_matvec(proj, list(x), 5)
                py = fp_matvec(proj, list(y), 5)
                pxy = fp_matvec(proj, F5_T2P1.mul(list(x), list(y)), 5)
                assert comp.algebra.mul(px, py) == pxy
        assert fp_matvec(proj, F5_T2P1.unit, 5) == comp.algebra.unit


def test_lift_idempotents_example():
    # a = F_2[y]/(y^3+y^2): ebar = class of y+1 lifts to y^2+1
    a = poly_algebra(2, [0, 0, 1, 1])
    nil = nilradical(a)
    red, proj = quotient_by(a, nil)
    dec = split_reduced(red)
    lifted = lift_idempotents(a, dec, proj)
    # (y+1)^4 = y^2+1 and (y^2+1)^2 = y^2+1
    assert a.mul([1, 0, 1], [1, 0, 1]) == [1, 0, 1]
    assert set(map(tuple, lifted)) == {(1, 0, 1), (0, 0, 1)}


def test_lift_idempotents_semisimple_identity():
    nil = nilradical(F5_T2P1)
    red, proj = quotient_by(F5_T2P1, nil)
    dec = split_reduced(red)
    lifted = lift_idempotents(F5_T2P1, dec, proj)
    assert sorted(map(tuple, lifted)) == sorted(map(tuple, idempotents(dec)))


def test_lift_of_unit_idempotent_is_unit():
    # single field component: the only idempotent to lift is 1, and it lifts to 1
    red, proj = quotient_by(F7_T2P1, nilradical(F7_T2P1))
    dec = split_reduced(red)
    lifted = lift_idempotents(F7_T2P1, dec, proj)
    assert lifted == [F7_T2P1.unit]


def test_lift_of_unit_is_unit():
    a = poly_algebra(2, [0, 0, 1, 1])
    nil = nilradical(a)
    red, proj = quotient_by(a, nil)
    dec = split_reduced(red)
    lifted = lift_idempotents(a, dec, proj)
    total = a.zero()
    for e in lifted:
        total = [(x + y) % 2 for x, y in zip(total, e)]
    assert total == a.unit


@pytest.mark.parametrize("coeffs,p", CORPUS, ids=CORPUS_IDS)
def test_reduced_quotient_has_no_nilpotents(coeffs, p):
    alg = quotient_mod_p(order_for(coeffs, p), p)
    red, _ = quotient_by(alg, nilradical(alg))
    assert nilradical(red).dim == 0
    # exhaustive for small cases, randomized otherwise
    if red.p ** red.dim <= 700:
        for v in itertools.product(range(red.p), repeat=red.dim):
            if any(v) and red.mul(list(v), list(v)) == red.zero():
                raise AssertionError(f"nilpotent {v} in reduced quotient")


@pytest.mark.parametrize("coeffs,p", CORPUS, ids=CORPUS_IDS)
def test_dimension_bound_and_sums(coeffs, p):
    field = field_for(coeffs)
    alg = quotient_mod_p(order_for(coeffs, p), p)
    nil = nilradical(alg)
    red, proj = quotient_by(alg, nil)
    assert red.dim <= field.n
    dec = split_reduced(red)
    assert sum(c.dim for c in dec.components) == red.dim
    lifted = lift_idempotents(alg, dec, proj)
    local_dims = []
    for e in lifted:
        local = [alg.mul(alg.basis_vector(j), e) for j in range(alg.dim)]
        local_dims.append(fp_rank(local, p))
    assert sum(local_dims) == alg.dim


@pytest.mark.parametrize("coeffs,p", CORPUS, ids=CORPUS_IDS)
def test_rational_images_in_components(coeffs, p):
    """Units of Z_(p) stay nonzero in every field component; p vanishes."""
    vp = PAdicValuation(p)
    order = order_for(coeffs, p)
    alg = quotient_mod_p(order, p)
    nil = nilradical(alg)
    red, proj = quotient_by(alg, nil)
    dec = split_reduced(red)
    for q in [1, 2, 1 + p, p - 1, 7]:
        image = order.coords_mod_p(order.field.from_rational(q), p)
        reduced = fp_matvec(proj, image, p)
        for comp in dec.components:
            comp_image = fp_matvec(comp.projection, reduced, p)
            if q % p:
                assert any(comp_image)
            else:
                assert not any(comp_image)
    p_image = order.coords_mod_p(order.field.from_rational(p), p)
    assert not any(fp_matvec(proj, p_image, p))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 5, 7, 10**9 + 7]), st.data())
def test_mult_matrix_columns_are_products(p, data):
    """On F_p[t]/(g) for a random monic g, column j of
    linalg.mult_matrix(table, x, p), and of FpAlgebra.mult_matrix(x), is
    the product x * b_j that FpAlgebra.mul computes."""
    d = data.draw(st.integers(1, 6))
    coeffs = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    alg = poly_algebra(p, data.draw(coeffs) + [1])
    x = data.draw(coeffs)
    products = columns([alg.mul(x, alg.basis_vector(j)) for j in range(d)])
    assert mult_matrix(alg.table, x, p) == products
    assert alg.mult_matrix(x) == products
