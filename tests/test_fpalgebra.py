import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valext import (
    FpAlgebra,
    NumberField,
    Order,
    equation_order,
    extensions_of,
    nilradical,
    p_maximal_order,
    quotient_mod_p,
    recording,
    split_reduced,
)
from valext import fpalgebra as fpalgebra_module
from valext import orders as orders_module
from valext.fpalgebra import _reduce, lift_idempotent, table_mul
from valext.linalg import columns, fp_kernel, fp_matmul, fp_matvec, fp_rank, fp_solve, mult_matrix

from conftest import (
    CORPUS,
    CORPUS_IDS,
    berlekamp_kernel,
    checked_algebra,
    component_by_solve,
    field_for,
    frobenius_lift,
    idempotents,
    is_unit,
    order_for,
    residue_field,
    split_lines_testing_every_piece,
)
from test_orders import round2_instances


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
    return checked_algebra(p, table, unit)


F5_T2P1 = poly_algebra(5, [1, 0, 1])  # F_5[t]/(t^2+1), semisimple split
F7_T2P1 = poly_algebra(7, [1, 0, 1])  # F_7[t]/(t^2+1), a field
F2_T2P1 = poly_algebra(2, [1, 0, 1])  # F_2[t]/((t+1)^2), non-reduced


def test_validation_catches_bad_tables():
    with pytest.raises(ValueError):
        checked_algebra(2, [[[1, 0], [0, 0]], [[1, 0], [0, 1]]], [1, 0])
    for unit in ([1], [1, 0, 0]):  # the table of F_5[t]/(t^2+1), a unit of the wrong length
        with pytest.raises(ValueError):
            checked_algebra(5, F5_T2P1.table, unit)


@pytest.mark.parametrize("p", [0, 4, 9, 15])
def test_validation_refuses_composite_modulus(p):
    """Z/15[t]/(t^2+1) is F_9 x F_5 x F_5, not a field, and the splitting
    search assumes a field of scalars, so a composite modulus is refused.
    The modulus is checked before any coordinate is reduced by it, so p = 0
    is refused the same way, not with a ZeroDivisionError."""
    with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
        checked_algebra(p, [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], [1, 0])


def test_validation_refuses_zero_algebra():
    with pytest.raises(ValueError, match="zero algebra"):
        checked_algebra(5, [], [])


def test_rational_coordinates_are_refused_not_truncated():
    """F_p coordinates must be integers. Truncation would make a unit 6/5
    pass as 1, so it is refused; an integral Fraction is the integer it
    equals."""
    with pytest.raises(ValueError, match="F_p coordinates must be integers"):
        checked_algebra(5, [[[1]]], [Fraction(6, 5)])
    assert checked_algebra(5, [[[1]]], [Fraction(6)]).unit == [1]


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
    """FpAlgebra takes its table as given, so this is the check on every
    algebra the pipeline builds: O/pO at each Round-2 step and at the
    final order, and its reduction modulo the nilradical where it is not
    reduced. Every one must pass checked_algebra with its table and unit
    unchanged, and so must each residue field built from its projection,
    which holds only if the projection is a ring map. x^12+x^6+4 at 2
    takes Round-2 steps past its start, so intermediate O/pO are built."""
    instances = CORPUS + BEYOND_CORPUS + [((4, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1), 2)]
    made, reductions, fields = [], [], []
    init = FpAlgebra.__init__

    def record(self, p, table, unit):
        init(self, p, table, unit)
        made.append(self)

    def reduce(a):
        red, proj = _reduce(a)
        if red is not a:
            reductions.append(red)
        return red, proj

    monkeypatch.setattr(FpAlgebra, "__init__", record)
    monkeypatch.setattr(fpalgebra_module, "_reduce", reduce)
    for coeffs, p in instances:
        exts = extensions_of(NumberField(list(coeffs)), p)
        fields += [(w.component, quotient_mod_p(w.order, p)) for w in exts]
    monkeypatch.undo()
    assert {id(alg) for alg in reductions} <= {id(alg) for alg in made}
    assert reductions and len(made) - len(reductions) > len(instances)  # O/pO
    for alg in made + [residue_field(*field) for field in fields]:
        rebuilt = checked_algebra(alg.p, alg.table, alg.unit)
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
    assert nilradical(F5_T2P1) == []


def test_nilradical_of_double_root():
    nil = nilradical(F2_T2P1)
    assert len(nil) == 1
    assert fp_rank(nil + [[1, 1]], 2) == 1  # t+1, since (t+1)^2 = 0
    assert fp_rank(nil + [[1, 0]], 2) == 2


def test_nilradical_of_field_is_zero():
    assert nilradical(F7_T2P1) == []


def test_quotient_by_zero_ideal_is_isomorphic():
    """A reduced algebra is its own reduction: its components' projections
    stack to an invertible matrix, here that of F_5[t]/(t^2+1) onto
    F_5 x F_5."""
    red, proj = _reduce(F5_T2P1)
    assert red is F5_T2P1 and proj == [[1, 0], [0, 1]]
    stacked = [row for comp in split_reduced(F5_T2P1).components for row in comp.projection]
    assert fp_rank(stacked, 5) == 2


def test_quotient_by_radical_of_double_root():
    """F_2[t]/((t+1)^2) modulo its radical is F_2: one component, whose
    idempotent is the unit, and t maps to the same class as 1."""
    [comp] = split_reduced(F2_T2P1).components
    assert comp.dim == 1 and residue_field(comp, F2_T2P1).unit == [1]
    assert comp.idempotent == F2_T2P1.unit
    assert fp_matvec(comp.projection, [0, 1], 2) == fp_matvec(comp.projection, [1, 0], 2) == [1]


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


def test_split_trace_events():
    """One SPLIT line per split, then one LIFT line per Newton step; an
    idempotent of a reduced algebra is already one, so it takes one step."""
    with recording() as trace:
        split_reduced(F5_T2P1)
    assert len(trace) == 3 and trace[0].startswith("SPLIT{")
    assert trace[1:] == ["LIFT{iteration=1}"] * 2
    with recording() as trace2:
        split_reduced(F7_T2P1)
    assert trace2 == ["LIFT{iteration=1}"]


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


@st.composite
def split_moduli(draw):
    """(p, g, k): g over F_p, low to high, a squarefree product of three or
    four monic factors of degree 1..3, and k >= 3 irreducible factors."""
    p = draw(st.sampled_from([2, 3, 5, 10**9 + 7]))
    t = sympy.Symbol("t")
    g = sympy.Poly(1, t, modulus=p)
    for _ in range(draw(st.integers(3, 4))):
        d = draw(st.integers(1, 3))
        h = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1]
        g *= sympy.Poly(h[::-1], t, modulus=p)
    _, factors = g.factor_list()
    assume(all(m == 1 for _, m in factors))
    return p, [int(c) % p for c in g.all_coeffs()[::-1]], len(factors)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(split_moduli())
def test_split_takes_two_kernels(case):
    """split_reduced takes the kernel of a Frobenius power for the
    nilradical and that of F - I for the Berlekamp subalgebra, and no
    kernel per factor, however many components there are."""
    p, g, k = case
    kernels = []

    def counted(m, q):
        kernels.append(m)
        return fp_kernel(m, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpalgebra_module, "fp_kernel", counted)
        dec = split_reduced(poly_algebra(p, g))
    assert len(dec.components) == k >= 3
    assert len(kernels) == 2


def test_decomposition_invariants():
    for alg in (F5_T2P1, F7_T2P1, poly_algebra(3, [2, 0, 0, 1])):
        if nilradical(alg):
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
                assert is_unit(residue_field(comp, alg), list(v))


def test_component_projections_are_algebra_maps():
    """On F_5[t]/(t^2+1), reduced, and on F_3[t]/(t^3+t^2), which is not,
    each projection is a ring map onto its field, in the input algebra's
    coordinates."""
    for alg in (F5_T2P1, poly_algebra(3, [0, 0, 1, 1])):
        p = alg.p
        for comp in split_reduced(alg).components:
            proj, field = comp.projection, residue_field(comp, alg)
            for x in itertools.product(range(p), repeat=alg.dim):
                for y in itertools.product(range(p), repeat=alg.dim):
                    px = fp_matvec(proj, list(x), p)
                    py = fp_matvec(proj, list(y), p)
                    pxy = fp_matvec(proj, alg.mul(list(x), list(y)), p)
                    assert field.mul(px, py) == pxy
            assert fp_matvec(proj, alg.unit, p) == field.unit == [1] + [0] * (comp.dim - 1)


def test_lift_idempotents_example():
    # a = F_2[y]/(y^3+y^2): ebar = class of y+1 lifts to y^2+1
    a = poly_algebra(2, [0, 0, 1, 1])
    lifted = idempotents(split_reduced(a))
    # (y+1)^4 = y^2+1 and (y^2+1)^2 = y^2+1
    assert a.mul([1, 0, 1], [1, 0, 1]) == [1, 0, 1]
    assert set(map(tuple, lifted)) == {(1, 0, 1), (0, 0, 1)}


def test_lift_idempotents_semisimple_identity():
    """In a reduced algebra every split idempotent is already one, so the
    lift leaves the brute-force idempotents of F_5[t]/(t^2+1)."""
    lifted = idempotents(split_reduced(F5_T2P1))
    assert sorted(map(tuple, lifted)) == [(3, 1), (3, 4)]


def test_lift_of_unit_idempotent_is_unit():
    # single field component: the only idempotent to lift is 1, and it lifts to 1
    assert idempotents(split_reduced(F7_T2P1)) == [F7_T2P1.unit]


def test_lift_of_unit_is_unit():
    a = poly_algebra(2, [0, 0, 1, 1])
    total = a.zero()
    for e in idempotents(split_reduced(a)):
        total = [(x + y) % 2 for x, y in zip(total, e)]
    assert total == a.unit


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(round2_instances())
def test_lift_idempotent_matches_frobenius_oracle(instance):
    """Newton's lift over the table of O/pO equals the Frobenius power
    x^(p^m) of the same preimage x of each split idempotent, since only one
    idempotent lies over x: the component's own. The preimages are the
    fp_solve ones split_reduced lifts, and those plus the sum of the
    nilradical's basis. The draws include wild ramification with e > p,
    where rad(pO) has nilpotency index above p, and preimages that take two
    Newton steps."""
    f, p = instance
    alg = quotient_mod_p(p_maximal_order(NumberField(f), p), p)
    nil = nilradical(alg)
    red, proj = _reduce(alg)
    for comp in split_reduced(alg).components:
        x = fp_solve(proj, fp_matvec(proj, comp.idempotent, p), p)
        shifted = [sum(col) % p for col in zip(x, *nil)]
        for y in (x, shifted):
            assert lift_idempotent(alg.table, y, p) == frobenius_lift(p, alg.table, y)
            assert lift_idempotent(alg.table, y, p) == comp.idempotent


@pytest.mark.parametrize("mod", [5, 25])
def test_lift_idempotent_refuses_x_whose_square_minus_x_is_a_unit(mod):
    """x = 3 in Z[i]/mod has x^2 - x = 6, a unit mod 5, so no idempotent
    lies over it, and Newton's map fixes x = 1/2 mod 5: the step cap raises
    instead of looping. (x = 2 settles instead; see the next test.)"""
    table = order_for((1, 0, 1), 5).table
    with recording() as lines, pytest.raises(AssertionError, match="step cap"):
        lift_idempotent(table, [3, 0], mod)
    assert lines == [f"LIFT{{iteration={k}}}" for k in range(1, len(lines) + 1)]
    assert 0 < len(lines) <= 5


@pytest.mark.parametrize("mod", [5, 25])
def test_lift_idempotent_refuses_x_whose_square_minus_x_is_not_nilpotent(mod):
    """x = 2 in Z[i]/mod has x^2 - x = 2, a unit mod 5, so no idempotent lies
    over it; yet 3x^2 - 2x^3 - 1 = -(x - 1)^2 (2x + 1) takes it to the
    idempotent 1 mod 5 in one step, and to 1 mod 25 in two. The lift checks
    that x^2 - x is nilpotent and refuses it."""
    table = order_for((1, 0, 1), 5).table
    with pytest.raises(AssertionError, match="not nilpotent"):
        lift_idempotent(table, [2, 0], mod)
    assert lift_idempotent(table, [1, 0], mod) == [1, 0]


@pytest.mark.parametrize("coeffs,p", CORPUS, ids=CORPUS_IDS)
def test_reduced_quotient_has_no_nilpotents(coeffs, p):
    """The component projections of O/pO stack to a map whose kernel is the
    nilradical, onto a product of fields that has no nilpotents."""
    alg = quotient_mod_p(order_for(coeffs, p), p)
    nil = nilradical(alg)
    comps = split_reduced(alg).components
    stacked = [row for comp in comps for row in comp.projection]
    assert fp_rank(stacked, p) == len(stacked) == alg.dim - len(nil)
    assert all(not any(fp_matvec(stacked, v, p)) for v in nil)
    for comp in comps:
        red = residue_field(comp, alg)
        assert nilradical(red) == []
        # exhaustive for small cases
        if red.p ** red.dim <= 700:
            for v in itertools.product(range(red.p), repeat=red.dim):
                if any(v) and red.mul(list(v), list(v)) == red.zero():
                    raise AssertionError(f"nilpotent {v} in a residue field")


@pytest.mark.parametrize("coeffs,p", CORPUS, ids=CORPUS_IDS)
def test_dimension_bound_and_sums(coeffs, p):
    field = field_for(coeffs)
    alg = quotient_mod_p(order_for(coeffs, p), p)
    reduced_dim = alg.dim - len(nilradical(alg))
    assert reduced_dim <= field.n
    dec = split_reduced(alg)
    assert sum(c.dim for c in dec.components) == reduced_dim
    local_dims = []
    for e in idempotents(dec):
        local = [alg.mul(alg.basis_vector(j), e) for j in range(alg.dim)]
        local_dims.append(fp_rank(local, p))
    assert sum(local_dims) == alg.dim


@pytest.mark.parametrize("coeffs,p", CORPUS, ids=CORPUS_IDS)
def test_rational_images_in_components(coeffs, p):
    """Units of Z_(p) stay nonzero in every field component; p vanishes."""
    order = order_for(coeffs, p)
    dec = split_reduced(quotient_mod_p(order, p))
    for q in [1, 2, 1 + p, p - 1, 7, p]:
        image = order.coords_mod_p(order.field.from_rational(q), p)
        for comp in dec.components:
            comp_image = fp_matvec(comp.projection, image, p)
            if q % p:
                assert any(comp_image)
            else:
                assert not any(comp_image)


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


def _count_calls(monkeypatch, name):
    calls = []
    method = getattr(FpAlgebra, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(FpAlgebra, name, counted)
    return calls


@pytest.mark.parametrize("e", [0, 1, 2, 3, 4, 7, 8, 13, 49, 10**9 + 7])
def test_pow_makes_no_wasted_product(monkeypatch, e):
    """Left-to-right powering takes bit_length(e) - 1 squarings and
    popcount(e) - 1 products by x, and x^0 is the unit. The values are
    checked against repeated products, and in F_49 against x^49 = x."""
    x = [3, 2]
    products = _count_calls(monkeypatch, "mul")
    result = F7_T2P1.pow(x, e)
    assert len(products) == (0 if e == 0 else e.bit_length() + bin(e).count("1") - 2)
    if e == 49:
        assert result == x
    elif e < 49:
        expected = F7_T2P1.unit
        for _ in range(e):
            expected = F7_T2P1.mul(expected, x)
        assert result == expected


def _pow_columns(alg):
    return columns([alg.pow(alg.basis_vector(i), alg.p) for i in range(alg.dim)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 5, 7, 10**9 + 7]), st.data())
def test_frobenius_matrix_of_power_basis(p, data):
    """On F_p[t]/(g) for a random monic g, the cached Frobenius matrix has
    the columns b_i^p, and its quotient by the nilradical holds the induced
    matrix, the one the quotient would build itself."""
    d = data.draw(st.integers(1, 6))
    g = data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1]
    alg = poly_algebra(p, g)
    assert alg.frobenius() == _pow_columns(alg)
    assert alg.frobenius() is alg.frobenius()
    red, _ = _reduce(alg)
    assert red.frobenius() == FpAlgebra(p, red.table, red.unit).frobenius()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(round2_instances())
def test_frobenius_matrix_and_components_of_round2_orders(instance):
    """The same on O/pO of the p-maximal order, whose basis is no power
    basis once p divides the index, and its reduced quotient; every
    component's table and unit equal those of one fp_solve per vector at
    the image of its idempotent in the reduction, and its projection is
    that oracle's composed with the reduction."""
    f, p = instance
    alg = quotient_mod_p(p_maximal_order(NumberField(f), p), p)
    assert alg.frobenius() == _pow_columns(alg)
    red, proj = _reduce(alg)
    assert red.frobenius() == FpAlgebra(p, red.table, red.unit).frobenius()
    assert red.frobenius() == _pow_columns(red)
    for comp in split_reduced(alg).components:
        table, unit, red_proj = component_by_solve(red, fp_matvec(proj, comp.idempotent, p))
        field = residue_field(comp, alg)
        assert (field.table, field.unit) == (table, unit)
        assert comp.projection == fp_matmul(red_proj, proj, p)


@pytest.mark.parametrize("coeffs,p", [((1, 0, 1), 5), ((1, 1, 0, 0, 0, 1), 1000000007),
                                      ((1, 1) + (0,) * 22 + (1,), 1000000007)])
def test_power_basis_frobenius_takes_one_pow(monkeypatch, coeffs, p):
    """The equation order's basis 1, a, ..., a^(n-1) gives every column after
    a's as one product of earlier columns, so the matrix costs one pow. p
    does not divide the index, so extensions_of splits this same O/pO, and
    its only other powers are the Cantor-Zassenhaus ones."""
    pows = _count_calls(monkeypatch, "pow")
    alg = quotient_mod_p(equation_order(field_for(coeffs)), p)
    frob = alg.frobenius()
    assert [e for _, e in pows] == [p]
    pows.clear()
    extensions_of(field_for(coeffs), p)
    assert [e for _, e in pows if e != (p - 1) // 2] == [p]
    monkeypatch.undo()
    assert frob == _pow_columns(alg)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(squarefree_modulus())
def test_components_match_solve_oracle(case):
    """On F_p[t]/(g) for squarefree g, each component's table, unit and
    projection equal those of one fp_solve per vector."""
    p, g, _ = case
    alg = poly_algebra(p, g)
    for comp in split_reduced(alg).components:
        oracle = component_by_solve(alg, comp.idempotent)
        field = residue_field(comp, alg)
        assert (field.table, field.unit, comp.projection) == oracle


@st.composite
def nonreduced_moduli(draw):
    """(p, g): g over F_p, low to high, a product of one to three monic
    factors of degree 1..3, each to a power 1..3, so that F_p[t]/(g) often
    has nilpotents."""
    p = draw(st.sampled_from([2, 3, 5, 10**9 + 7]))
    t = sympy.Symbol("t")
    g = sympy.Poly(1, t, modulus=p)
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        h = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1]
        g *= sympy.Poly(h[::-1], t, modulus=p) ** draw(st.integers(1, 3))
    return p, [int(c) % p for c in g.all_coeffs()[::-1]]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(nonreduced_moduli())
def test_nilradical_by_squaring_matches_frobenius_power(case):
    """nilradical squares F until the exponent k reaches m, the least m >= 1
    with p^m >= dim; the kernel of F^k is the same subspace for every k >= m,
    so it returns the same basis as the kernel of F^m."""
    p, g = case
    alg = poly_algebra(p, g)
    frob = alg.frobenius()
    power, q = frob, p
    while q < alg.dim:
        power, q = fp_matmul(power, frob, p), q * p
    assert nilradical(alg) == fp_kernel(power, p)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nonreduced_moduli())
def test_split_reduced_of_nonreduced_algebra_splits_its_reduction(case):
    """F_p[t]/(g) modulo its radical is F_p[t]/(rad g), rad g the product
    of g's distinct irreducible factors, so its components have those
    factors' degrees (sympy). The lifted idempotents are orthogonal in
    F_p[t]/(g) and sum to 1, and each projection sends its own idempotent
    to the field's unit and every other to 0."""
    p, g = case
    alg = poly_algebra(p, g)
    _, factors = sympy.Poly(g[::-1], sympy.Symbol("t"), modulus=p).factor_list()
    comps = split_reduced(alg).components
    assert sorted(c.dim for c in comps) == sorted(f.degree() for f, _ in factors)
    total = alg.zero()
    for i, comp in enumerate(comps):
        assert alg.mul(comp.idempotent, comp.idempotent) == comp.idempotent
        field = residue_field(comp, alg)
        for j, other in enumerate(comps):
            image = fp_matvec(comp.projection, other.idempotent, p)
            assert image == (field.unit if i == j else field.zero())
        total = [(x + y) % p for x, y in zip(total, comp.idempotent)]
    assert total == alg.unit


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(round2_instances().map(
    lambda inst: quotient_mod_p(p_maximal_order(NumberField(inst[0]), inst[1]), inst[1])),
    nonreduced_moduli().map(lambda case: poly_algebra(*case))))
def test_nilradical_is_an_ideal_that_misses_the_unit(alg):
    """Neither split_reduced nor Round 2 checks the nilradical's span, so
    this does: every basis row times every basis vector of the algebra
    stays in the span, and the unit is not in it. The draws are O/pO of
    Round 2's instances, with e > p and p dividing the index, and
    F_p[t]/(g) for g with repeated factors."""
    p, nil = alg.p, nilradical(alg)
    for v in nil:
        for i in range(alg.dim):
            assert fp_rank(nil + [alg.mul(v, alg.basis_vector(i))], p) == len(nil)
    assert fp_rank(nil + [alg.unit], p) == len(nil) + 1


def test_extensions_of_takes_one_nilradical(monkeypatch):
    """x^2+1 at 5 needs no Round-2 step, and split_reduced reduces O/pO
    with one nilradical; nothing re-checks that the reduction is reduced."""
    calls = []

    def counted(a):
        calls.append(a)
        return nilradical(a)

    monkeypatch.setattr(fpalgebra_module, "nilradical", counted)
    monkeypatch.setattr(orders_module, "nilradical", counted)
    extensions_of(NumberField([1, 0, 1]), 5)
    assert len(calls) == 1


def test_split_of_nonreduced_algebra_takes_two_kernels(monkeypatch):
    """F_2[y]/(y^3+y^2) has the nilpotent y: split_reduced takes one kernel
    for its nilradical and one for the Berlekamp subalgebra of the
    reduction, and none to lift its two idempotents."""
    kernels = []

    def counted(m, q):
        kernels.append(m)
        return fp_kernel(m, q)

    monkeypatch.setattr(fpalgebra_module, "fp_kernel", counted)
    dec = split_reduced(poly_algebra(2, [0, 0, 1, 1]))
    assert len(dec.components) == 2
    assert len(kernels) == 2


@pytest.mark.parametrize("coeffs,p", [((1, 0, 1), 5), ((1, 1, 0, 1), 2)], ids=["x2+1@5", "x3+x+1@2"])
def test_unramified_extensions_of_takes_only_the_berlekamp_kernel(monkeypatch, coeffs, p):
    """p does not divide disc f, so O/pO = F_p[x]/(f mod p) is reduced and
    p_maximal_order keeps it with the empty nilradical: extensions_of takes
    no Frobenius power (at x^3+x+1, dim 3 > p = 2 would square F once) and
    one kernel, the Berlekamp one, ker(F - I)."""
    kernels, squares = [], []
    monkeypatch.setattr(fpalgebra_module, "fp_kernel",
                        lambda m, q: kernels.append(m) or fp_kernel(m, q))
    monkeypatch.setattr(fpalgebra_module, "fp_matmul",
                        lambda a, b, q: (a is b and squares.append(a)) or fp_matmul(a, b, q))
    exts = extensions_of(NumberField(list(coeffs)), p)
    monkeypatch.undo()
    alg = quotient_mod_p(exts[0].order, p)
    frob_minus_one = [[(x - (i == j)) % p for j, x in enumerate(row)]
                      for i, row in enumerate(alg.frobenius())]
    assert squares == [] and kernels == [frob_minus_one]


def test_round2_builds_each_quotient_once(monkeypatch):
    """x^12+x^6+4 at 2 takes Round-2 steps: each order's O/pO is built once
    (one mult_table_mod_p per order) and its nilradical computed once, in
    Round 2; extensions_of reads both from the last order, so the number of
    nilradicals computed is the number of Round-2 orders."""
    tables, computed, radicals = [], [], []
    table_of, p_radical = Order.mult_table_mod_p, orders_module.p_radical

    def counted(a):
        if a._nilradical is None:
            computed.append(a)
        return nilradical(a)

    monkeypatch.setattr(Order, "mult_table_mod_p", lambda o, q: tables.append(o) or table_of(o, q))
    monkeypatch.setattr(orders_module, "p_radical", lambda o, q: radicals.append(o) or p_radical(o, q))
    monkeypatch.setattr(fpalgebra_module, "nilradical", counted)
    monkeypatch.setattr(orders_module, "nilradical", counted)
    exts = extensions_of(NumberField([4] + [0] * 5 + [1] + [0] * 5 + [1]), 2)
    monkeypatch.undo()
    assert sorted((w.e, w.f) for w in exts) == [(2, 1), (2, 2), (6, 1)]
    assert len({id(o) for o in radicals}) == len(radicals) >= 2
    assert [id(o) for o in tables] == [id(o) for o in radicals]
    assert exts[0].order is radicals[-1]
    assert len({id(a) for a in computed}) == len(computed) == len(radicals)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    split_moduli().map(lambda case: poly_algebra(*case[:2])),
    nonreduced_moduli().map(lambda case: poly_algebra(*case)),
    round2_instances().map(
        lambda inst: quotient_mod_p(p_maximal_order(NumberField(inst[0]), inst[1]), inst[1]))))
def test_counted_split_matches_testing_every_piece(alg):
    """split_reduced stops field-testing once its pieces number
    k = dim ker(F - I), F the reduction's Frobenius matrix: it finds k
    components, each a field, whose algebra has a one-dimensional
    Berlekamp kernel, and emits the SPLIT lines of the search that tests
    every piece."""
    red, _ = _reduce(alg)
    with recording() as lines:
        comps = split_reduced(alg).components
    assert len(comps) == len(berlekamp_kernel(red))
    assert all(len(berlekamp_kernel(residue_field(c, alg))) == 1 for c in comps)
    assert [ln for ln in lines if ln.startswith("SPLIT")] == split_lines_testing_every_piece(alg)


@pytest.mark.parametrize("mod", [5, 5**4])
def test_lift_of_an_exact_idempotent_costs_one_product(monkeypatch, mod):
    """Where x^2 = x already, the first Newton step 3x^2 - 2x^3 is x: the
    lift emits its one LIFT line and returns x after the one squaring that
    shows it, with no step product and no squarings of x^2 - x = 0. The
    idempotents of Z[i] at 5 lie over those of O/5O, (3, 1) and (3, 4),
    which are exact modulo 5 only; 1 and 0 are exact at every modulus."""
    table = order_for((1, 0, 1), 5).table
    products = []
    monkeypatch.setattr(fpalgebra_module, "table_mul",
                        lambda *args: products.append(1) or table_mul(*args))
    exact = [[1, 0], [0, 0]] + ([[3, 1], [3, 4]] if mod == 5 else [])
    for x in exact:
        products.clear()
        with recording() as lines:
            assert lift_idempotent(table, x[:], mod) == x
        assert lines == ["LIFT{iteration=1}"] and len(products) == 1
    if mod > 5:  # (3, 1) is not exact here, and its lift takes a step
        products.clear()
        lift_idempotent(table, [3, 1], mod)
        assert len(products) > 1
