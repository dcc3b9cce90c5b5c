import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from valext import (
    INFINITY,
    NotIrreducible,
    NumberField,
    PositionKind,
    ZeroElement,
    decide_position,
    equation_order,
    extensions_of,
    quotient_mod_p,
    recording,
    residue,
    value,
    value_by_count,
)
from valext.cli import main
from valext.errors import NegativeValue
from valext.extensions import ExtensionValuation
from valext.linalg import fp_solve

from conftest import (
    CORPUS,
    count_with_kernel_beta,
    extensions_for,
    field_for,
    in_prime,
    inverse,
    order_coords,
    order_for,
    prime_basis,
    pval,
    random_element,
    random_order_element,
    residue_field,
)
from test_orders import round2_instances, shifted_scaling


def splitting_by_roots(coeffs, p):
    """(e, f) multiset of f mod p by exhaustive root search with multiplicity.

    Valid when p does not divide the index; leftover factors of degree <= 3
    with no roots are irreducible.
    """
    poly = [c % p for c in coeffs]

    def div_by_root(q, r):
        out = []
        carry = 0
        for c in reversed(q):
            carry = (carry * r + c) % p
            out.append(carry)
        rem = out.pop()
        out.reverse()
        return out, rem

    pairs = []
    for r in range(p):
        mult = 0
        while len(poly) > 1:
            quotient, rem = div_by_root(poly, r)
            if rem != 0:
                break
            poly = quotient
            mult += 1
        if mult:
            pairs.append((mult, 1))
    if len(poly) > 1:
        assert len(poly) - 1 <= 3
        pairs.append((1, len(poly) - 1))
    return sorted(pairs)


def test_split_case_by_root_oracle():
    assert splitting_by_roots((1, 0, 1), 5) == [(1, 1), (1, 1)]
    exts = extensions_for((1, 0, 1), 5)
    assert sorted((w.e, w.f) for w in exts) == [(1, 1), (1, 1)]


def test_ramified_case_by_root_oracle():
    assert splitting_by_roots((1, 0, 1), 2) == [(2, 1)]
    exts = extensions_for((1, 0, 1), 2)
    assert [(w.e, w.f) for w in exts] == [(2, 1)]
    # cross-check via the norm: N(1+i) = 2, so w(1+i) = 1/2
    fld = field_for((1, 0, 1))
    assert value(exts[0], fld.element([1, 1])) == Fraction(1, 2)


def test_inert_case_by_root_oracle():
    assert splitting_by_roots((1, 0, 1), 7) == [(1, 2)]
    exts = extensions_for((1, 0, 1), 7)
    assert [(w.e, w.f) for w in exts] == [(1, 2)]


def test_mixed_case_by_root_oracle():
    assert splitting_by_roots((-1, -1, 0, 1), 23) == [(1, 1), (2, 1)]
    exts = extensions_for((-1, -1, 0, 1), 23)
    assert sorted((w.e, w.f) for w in exts) == [(1, 1), (2, 1)]


@pytest.mark.parametrize(
    "coeffs,p,ef",
    [
        ((1, 0, 1), 10**9 + 7, [(1, 2)]),
        ((1, 0, 1), 10**9 + 9, [(1, 1), (1, 1)]),
        ((-2, 0, 0, 0, 0, 1), 11, [(1, 5)]),
        ((1, 0, 0, 0, 0, 0, 0, 0, 1), 10**9 + 9, [(1, 2)] * 4),
    ],
    ids=["x2+1@1e9+7", "x2+1@1e9+9", "x5-2@11", "x8+1@1e9+9"],
)
def test_large_prime_and_residue_degree(coeffs, p, ef):
    exts = extensions_of(NumberField(list(coeffs)), p)
    assert [(w.e, w.f) for w in exts] == ef


@pytest.mark.parametrize("coeffs,p", [((1, 0, 1), 5), ((1, 0, 1), 13), ((-2, 0, 0, 1), 31)])
def test_split_extensions_listed_by_root(coeffs, p):
    """At a totally split prime not dividing disc(f), w_i is the extension
    where theta reduces to the i-th smallest root of f mod p."""
    roots = [r for r in range(p) if sum(c * r**i for i, c in enumerate(coeffs)) % p == 0]
    assert len(roots) == len(coeffs) - 1
    field = field_for(coeffs)
    exts = extensions_for(coeffs, p)
    assert [residue(w, field.from_poly([0, 1])) for w in exts] == [[r] for r in roots]


def test_dedekind_case():
    # the root oracle does not apply (p divides the index); the idempotent
    # count in O/2O is the oracle, checked in test_fpalgebra
    exts = extensions_for((8, -2, 1, 1), 2)
    assert sorted((w.e, w.f) for w in exts) == [(1, 1), (1, 1), (1, 1)]


def test_position_trivial_cases():
    exts = extensions_for((1, 0, 1), 5)
    fld = field_for((1, 0, 1))
    for w in exts:
        assert decide_position(fld.from_rational(5), w).kind is PositionKind.IN_MAXIMAL_IDEAL
        assert decide_position(fld.one(), w).kind is PositionKind.UNIT
        outside = decide_position(fld.from_rational(Fraction(1, 5)), w)
        assert outside.kind is PositionKind.OUTSIDE and outside.witness is None
        with pytest.raises(ZeroElement):
            decide_position(fld.zero(), w)


def test_position_splits_primes():
    # x = (2+theta)/(2-theta): N(2+theta) = 5 concentrates at one prime.
    # 2+theta = 0 at theta -> -2 = 3, and 2-theta = 0 at theta -> 2, so x
    # sits inside the maximal ideal at the theta->3 extension and outside
    # the valuation ring at the theta->2 one.
    fld = field_for((1, 0, 1))
    exts = extensions_for((1, 0, 1), 5)
    x = fld.element([2, 1]) * inverse(fld.element([2, -1]))
    by_gen_residue = {tuple(residue(w, fld.from_poly([0, 1]))): w for w in exts}
    w_at_2 = by_gen_residue[(2,)]
    w_at_3 = by_gen_residue[(3,)]
    assert decide_position(x, w_at_3).kind is PositionKind.IN_MAXIMAL_IDEAL
    assert decide_position(x, w_at_2).kind is PositionKind.OUTSIDE
    assert value(w_at_3, x) == 1
    assert value(w_at_2, x) == -1


def test_position_witness_is_exact_fraction():
    fld = field_for((1, 0, 1))
    exts = extensions_for((1, 0, 1), 5)
    rng = random.Random(11)
    for _ in range(20):
        x = random_element(rng, fld, 5)
        for w in exts:
            pos = decide_position(x, w)
            if pos.witness is not None:
                u, s = pos.witness
                assert x * s == u
                assert not any(v == 0 for v in [1]) and not in_prime(w, s)


def test_position_of_inverse_is_consistent():
    rng = random.Random(12)
    for coeffs, p in CORPUS:
        fld = field_for(coeffs)
        exts = extensions_for(coeffs, p)
        for _ in range(10):
            x = random_element(rng, fld, p)
            for w in exts:
                a = decide_position(x, w).kind
                b = decide_position(inverse(x), w).kind
                assert (a, b) != (PositionKind.OUTSIDE, PositionKind.OUTSIDE)
                if a is PositionKind.UNIT:
                    assert b is PositionKind.UNIT
                if a is PositionKind.IN_MAXIMAL_IDEAL:
                    assert b is PositionKind.OUTSIDE
                if a is PositionKind.OUTSIDE:
                    assert b is PositionKind.IN_MAXIMAL_IDEAL


def test_value_of_p_is_one():
    for coeffs, p in CORPUS:
        fld = field_for(coeffs)
        for w in extensions_for(coeffs, p):
            assert value(w, fld.from_rational(p)) == 1


def test_value_examples():
    fld = field_for((1, 0, 1))
    w2 = extensions_for((1, 0, 1), 2)[0]
    assert value(w2, fld.element([1, 1])) == Fraction(1, 2)
    exts5 = extensions_for((1, 0, 1), 5)
    vals = sorted(str(value(w, fld.element([2, 1]))) for w in exts5)
    assert vals == ["0", "1"]
    assert value(w2, fld.zero()) == INFINITY


def test_value_axioms_randomized():
    rng = random.Random(13)
    for coeffs, p in CORPUS:
        fld = field_for(coeffs)
        for w in extensions_for(coeffs, p):
            for _ in range(10):
                x = random_element(rng, fld, p)
                y = random_element(rng, fld, p)
                vx, vy = value(w, x), value(w, y)
                assert value(w, x * y) == vx + vy
                s = x + y
                vs = value(w, s) if not s.is_zero else INFINITY
                assert vs >= min(vx, vy)
                q = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                if q != 0:
                    assert value(w, fld.from_rational(q)) == pval(q, p)


def test_value_denominators_divide_e():
    rng = random.Random(14)
    for coeffs, p in CORPUS:
        fld = field_for(coeffs)
        for w in extensions_for(coeffs, p):
            for _ in range(10):
                x = random_element(rng, fld, p)
                v = value(w, x)
                assert w.e % v.denominator == 0


def test_value_eliminates_once_per_element(monkeypatch):
    """Valuing one element at all four extensions of x^4+1 at 17 (each with
    e = 1) runs one minimal-relation elimination: the walk that certifies
    each extension's count runs on a rational multiple of x, which reuses
    the relation of x, rescaled."""
    import valext.numberfield

    exts = extensions_for((1, 0, 0, 0, 1), 17)
    x = exts[0].field.element([Fraction(3, 17), 2, 0, Fraction(-5, 289)])
    calls = []
    real = valext.numberfield.int_echelon

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(valext.numberfield, "int_echelon", counted)
    vals = [value(w, x) for w in exts]
    assert len(exts) == 4 and all(w.e == 1 for w in exts)
    assert sum(vals) == -8  # v_17(N(x)), by the product formula
    assert len(calls) == 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from(CORPUS), round2_instances()), st.integers(0, 2**16))
@example(CORPUS[3], 0)  # x^3-x-1 at 23: e = 1 and e = 2 side by side
@example(CORPUS[4], 0)  # p divides the index of Z[theta]
def test_anti_uniformizer_by_the_walk(instance, seed):
    """beta, read off the matrix as beta*1, lies in O outside pO and maps
    every generator of P into pO; the walk gives beta/p the value -1/e at
    its own extension and a value >= 0 at the others. extensions_of builds
    no beta: the matrix appears on the first count and is then reused. At
    e = 1, beta is the idempotent and no kernel of P is taken for it, and
    counts with it equal counts with a beta read off a kernel, on the prime
    basis and on elements with p in their denominators."""
    coeffs, p = instance
    exts = extensions_of(NumberField(list(coeffs)), p)
    assert all("anti_uniformizer_matrix" not in vars(w) for w in exts)
    for w in exts:
        order = w.order
        m = w.anti_uniformizer_matrix
        assert w.anti_uniformizer_matrix is m
        assert ("prime_kernel" in vars(w)) is (w.e > 1)
        one = order_coords(order, w.field.one())
        beta = [sum(r * c for r, c in zip(row, one)) for row in m]
        assert all(c.denominator == 1 for c in beta) and any(c % p for c in beta)
        for g in prime_basis(w):
            g_coords = order_coords(order, w.field.element(g))
            assert all(sum(r * c for r, c in zip(row, g_coords)) % p == 0 for row in m)
        beta_over_p = order.element(beta) * Fraction(1, p)
        assert value(w, beta_over_p) == Fraction(-1, w.e)
        assert all(value(u, beta_over_p) >= 0 for u in exts if u is not w)
        if w.e == 1:
            assert beta == w.component.idempotent
            elements = [w.field.element(g) for g in prime_basis(w)]
            rng = random.Random(seed)
            elements += [random_element(rng, w.field, p) for _ in range(3)]
            assert all(value_by_count(w, x) == count_with_kernel_beta(w, x) for x in elements)


def test_prime_lattices_wait_for_their_reader(monkeypatch):
    """extensions_of builds no prime lattice, and to_descriptor, which
    prints f and the lattice, builds it. Through the CLI, value, approx and
    verify do not build it."""
    for coeffs, p in CORPUS:
        for w in extensions_of(field_for(coeffs), p):
            assert "prime_lattice" not in vars(w)
            assert w.to_descriptor()["residue_field_dim"] == w.f
            assert "prime_lattice" in vars(w)

    def refused(self):
        raise AssertionError("prime lattice built")

    monkeypatch.setattr(ExtensionValuation, "prime_lattice", property(refused))
    for argv in (["value", "--elem", "a^2+1"], ["approx", "--extension", "1", "--gamma", "1"],
                 ["verify", "--trials", "2"]):
        assert main([*argv, "--prime", "2", "--poly", "x^3+x^2-2*x+8"]) == 0


@pytest.mark.parametrize("poly,p,reduced,efs", [
    ("x^3-2", 7, True, [(1, 3)]),
    ("x^10+x+1", 2, True, [(1, 3), (1, 7)]),
    ("x^12+x^6+4", 2, False, [(2, 2), (2, 1), (6, 1)]),
])
def test_reduced_quotient_lifts_nothing(monkeypatch, poly, p, reduced, efs):
    """Where O/pO is reduced, split_reduced's fields are already its own
    components: extensions_of solves for no preimage of an idempotent, makes
    no product with the reduction (the identity there) and takes no rank
    for e, and each idempotent still passes lift_idempotent, one LIFT line
    apiece. On x^12+x^6+4 at 2, whose O/2O has nilpotents, every component
    is lifted: one preimage solve, one reduction product and one rank each."""
    import valext.extensions
    import valext.fpalgebra
    from valext.cli import parse_defining_poly

    calls = {"fp_solve": 0, "fp_matmul": 0, "fp_rank": 0}
    reductions = []

    def counted(module, name, counts=lambda args: True):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += counts(args)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    real_reduce = valext.fpalgebra._reduce

    def recorded_reduce(a):
        reductions.append(real_reduce(a))
        return reductions[-1]

    monkeypatch.setattr(valext.fpalgebra, "_reduce", recorded_reduce)
    counted(valext.fpalgebra, "fp_solve")
    counted(valext.fpalgebra, "fp_matmul", lambda args: any(args[1] is r for _, r in reductions))
    counted(valext.extensions, "fp_rank")
    with recording() as lines:
        exts = extensions_of(parse_defining_poly(poly), p)
    assert [(w.e, w.f) for w in exts] == efs
    assert (reductions[0][0].dim < exts[0].order.field.n) is not reduced
    lifted = 0 if reduced else len(exts)
    assert calls == {"fp_solve": lifted, "fp_matmul": lifted, "fp_rank": lifted}
    if reduced:
        assert [ln for ln in lines if ln.startswith("LIFT")] == ["LIFT{iteration=1}"] * len(exts)


def test_count_refusals(monkeypatch):
    """The count of 0 is infinite; over a reducible f an element of zero
    norm is refused before any step is taken; and a beta = p, every step of
    which stays in O, is stopped by the norm bound instead of looping."""
    for coeffs, p in CORPUS:
        for w in extensions_for(coeffs, p):
            assert value_by_count(w, w.field.zero()) == INFINITY
    w = extensions_of(field_for((1, 0, 1)), 5)[0]
    times_p = [[5 * (i == j) for j in range(2)] for i in range(2)]
    monkeypatch.setattr(w, "anti_uniformizer_matrix", times_p)
    with pytest.raises(AssertionError, match="norm bound"):
        value_by_count(w, w.field.element([2, 1]))
    red = NumberField([-4, 0, 1])  # (x-2)(x+2)
    for w in extensions_of(red, 3):
        with pytest.raises(NotIrreducible, match="zero norm"):
            value_by_count(w, red.element([-2, 1]))


def walk_beside_the_count(w, x) -> bool:
    """With m = e*w(x), the walk puts x^e p^-(m-1) in the maximal ideal and
    x^e p^-(m+1) outside the ring: the two verdicts besides UNIT, which is
    the only one that value reaches."""
    m, xe = int(w.e * value(w, x)), x**w.e
    kinds = [decide_position(xe * Fraction(w.p) ** -k, w).kind for k in (m - 1, m + 1)]
    return kinds == [PositionKind.IN_MAXIMAL_IDEAL, PositionKind.OUTSIDE]


@pytest.mark.parametrize("shift", [-1, 1])
def test_value_refuses_a_miscount(monkeypatch, shift):
    """One walk certifies the count: a count off by one step, so w(x) -/+ 1/e,
    makes value raise AssertionError at every corpus extension."""
    import valext.extensions

    real = valext.extensions._count
    monkeypatch.setattr(valext.extensions, "_count", lambda w, x: real(w, x) + shift)
    rng = random.Random(16)
    for coeffs, p in CORPUS:
        fld = field_for(coeffs)
        for w in extensions_for(coeffs, p):
            for _ in range(3):
                with pytest.raises(AssertionError, match="does not certify"):
                    value(w, random_element(rng, fld, p))


def mixed_denominators(p: int, n: int):
    """n rationals a/(u p^k), not all zero, with u prime to p and k >= 0,
    some numerators carrying p as well."""
    u = st.integers(1, 40).filter(lambda d: d % p)
    coord = st.builds(lambda a, d, k: Fraction(a, d * p**k),
                      st.integers(-40, 40), u, st.integers(0, 3))
    return st.lists(coord, min_size=n, max_size=n).filter(any)


@st.composite
def index_divisible_instances(draw):
    """(f, p, elements): f = p^n g((x - c)/p) for g monic irreducible of
    degree 2..4, so (theta - c)/p is integral and p divides the index of
    Z[theta]; a few elements with mixed denominators."""
    g = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=4)) + [1]
    assume(sympy.Poly(g[::-1], sympy.Symbol("t")).is_irreducible)
    p = draw(st.sampled_from([2, 3, 5, 7]))
    f = shifted_scaling(g, p, draw(st.integers(0, p - 1)))
    n = len(f) - 1
    return f, p, draw(st.lists(mixed_denominators(p, n), min_size=1, max_size=3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(index_divisible_instances())
def test_count_equals_walk_where_p_divides_the_index(case):
    """Where the p-maximal order is not Z[theta], so the order coordinates
    of x differ from its power-basis coordinates, the anti-uniformizer count
    equals the reverse-induction walk at every extension."""
    f, p, elements = case
    fld = NumberField(f)
    exts = extensions_of(fld, p)
    assert exts[0].order != equation_order(fld)
    for coords in elements:
        x = fld.element(coords)
        assert [value_by_count(w, x) for w in exts] == [value(w, x) for w in exts]
        assert all(walk_beside_the_count(w, x) for w in exts)


@pytest.mark.parametrize(
    "coeffs,p",
    [((1, 0, 0, 0, 0, 0, 0, 0, 1), 17), ((1, 0, 0, 1, 0, 0, 1), 3), ((8, -2, 1, 1), 2),
     ((-5, 0, 0, 0, 0, 1), 5)],
    ids=["x8+1@17", "x6+x3+1@3", "dedekind@2", "x5-5@5"],
)
def test_count_equals_walk_on_pinned_fields(coeffs, p):
    """The fields on which the count was first timed against the walk."""
    rng = random.Random(15)
    fld = field_for(coeffs)
    exts = extensions_for(coeffs, p)
    for _ in range(4):
        x = random_element(rng, fld, p)
        assert [value_by_count(w, x) for w in exts] == [value(w, x) for w in exts]
        assert all(walk_beside_the_count(w, x) for w in exts)


def test_ramification_cross_check():
    """e from local-factor dimensions equals the lcm of the denominators of
    the prime-basis values: an independent derivation of the value group."""
    for coeffs, p in CORPUS:
        fld = field_for(coeffs)
        for w in extensions_for(coeffs, p):
            denoms = [value(w, fld.element(v)).denominator for v in prime_basis(w)]
            assert lcm(*denoms) == w.e


def test_bijection_round_trip():
    """decide_position lands in the maximal ideal exactly for prime-lattice
    members; distinct extensions have distinct primes."""
    rng = random.Random(15)
    for coeffs, p in CORPUS:
        order = order_for(coeffs, p)
        exts = extensions_for(coeffs, p)
        primes = set()
        for w in exts:
            primes.add(tuple(tuple(x for x in row) for row in prime_basis(w)))
            for _ in range(20):
                x = random_order_element(rng, order, p)
                if x.is_zero:
                    continue
                in_ideal = decide_position(x, w).kind is PositionKind.IN_MAXIMAL_IDEAL
                assert in_ideal == in_prime(w, x)
        assert len(primes) == len(exts)


def test_rational_prime_membership():
    """q in P iff v_p(q) > 0, for rationals q."""
    for coeffs, p in CORPUS:
        fld = field_for(coeffs)
        for w in extensions_for(coeffs, p):
            for q in [1, 2, p, p + 1, 3 * p, p * p, p - 1]:
                member = in_prime(w, fld.from_rational(q))
                assert member == (pval(q, p) > 0)


def test_residue_examples():
    fld = field_for((1, 0, 1))
    exts = extensions_for((1, 0, 1), 5)
    for w in exts:
        field = residue_field(w.component, quotient_mod_p(w.order, 5))
        assert residue(w, fld.one()) == field.unit
        assert residue(w, fld.from_rational(5)) == field.zero()
    gens = sorted(tuple(residue(w, fld.from_poly([0, 1]))) for w in exts)
    assert gens == [(2,), (3,)]  # the two roots of x^2+1 mod 5


def test_residue_negative_value_rejected():
    fld = field_for((1, 0, 1))
    w = extensions_for((1, 0, 1), 5)[0]
    bad = fld.from_rational(Fraction(1, 5))
    with pytest.raises(NegativeValue):
        residue(w, bad)


def test_residue_is_ring_hom_on_valuation_ring():
    """residue is additive and multiplicative on the valuation ring, and
    equals kappa(u) kappa(s)^-1 for the walk's witness x = u/s, with the
    product and inverse taken in the field built from the projection. Beside
    the corpus, x^12+x^6+4 at 2, with (e, f) = (2, 2), (2, 1) and (6, 1),
    composes each projection with the reduction of a non-reduced O/pO, and
    x^4+1 at 3 has two fields with f = 2. Elements are quotients of order
    elements as well as random ones, most of which have negative values."""
    rng = random.Random(16)
    for coeffs, p in CORPUS + [((4, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1), 2), ((1, 0, 0, 0, 1), 3)]:
        fld = field_for(coeffs)
        for w in extensions_for(coeffs, p):
            field = residue_field(w.component, quotient_mod_p(w.order, p))

            def draw():
                if rng.random() < 0.25:
                    return random_element(rng, fld, p)
                a, b = random_order_element(rng, w.order, p), random_order_element(rng, w.order, p)
                return a if b.is_zero else a * inverse(b)

            for _ in range(10):
                x, y = draw(), draw()
                if x.is_zero or y.is_zero or value(w, x) < 0 or value(w, y) < 0:
                    continue
                rx, ry = residue(w, x), residue(w, y)
                assert field.mul(rx, ry) == residue(w, x * y)
                rsum = [(a + b) % p for a, b in zip(rx, ry)]
                assert rsum == residue(w, x + y)
                u, s = decide_position(x, w).witness
                inverse_ks = fp_solve(field.mult_matrix(w.residue_of_integral(s)), field.unit, p)
                assert rx == field.mul(w.residue_of_integral(u), inverse_ks)


def test_trace_case_lines():
    fld = field_for((1, 0, 1))
    w = extensions_for((1, 0, 1), 5)[0]
    with recording() as trace:
        decide_position(fld.from_rational(5), w)
    assert trace and all(t.startswith("CASE") for t in trace)


def test_extension_descriptor_round_trip():
    import json

    for w in extensions_for((-1, -1, 0, 1), 23):
        d = w.to_descriptor()
        assert json.loads(json.dumps(d)) == d
        assert d["e"] == w.e and d["f"] == w.f


def test_reducible_polynomial_surfaces_lazily():
    from valext import NotIrreducible

    red = NumberField([-1, 0, 1])  # (x-1)(x+1): tolerated until a zero divisor
    exts = extensions_of(red, 3)
    zero_divisor = red.element([-1, 1])
    with pytest.raises(NotIrreducible):
        value(exts[0], zero_divisor)
    with pytest.raises(NotIrreducible):
        extensions_of(NumberField([1, -2, 1]), 3)  # (x-1)^2: zero discriminant


def test_degree_one_field_has_single_trivial_extension():
    fld = NumberField([-2, 1])  # x - 2, i.e. L = Q
    exts = extensions_of(fld, 5)
    assert [(w.e, w.f) for w in exts] == [(1, 1)]
    assert value(exts[0], fld.from_rational(50)) == 2
