import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valext import (
    GammaNotInValueGroup,
    NumberField,
    approx_element,
    build_ef_basis,
    check_fundamental,
    extensions_of,
    residue,
    value,
    value_by_count,
    weak_approx,
)
from valext import theorems
from valext.fpalgebra import lift_idempotent

from conftest import (
    CORPUS,
    CORPUS_IDS,
    extensions_for,
    field_for,
    order_contains,
    order_for,
    paper_approx_element,
)
from test_orders import round2_instances


def test_weak_approx_zero_targets():
    exts = extensions_for((1, 0, 1), 5)
    x = weak_approx(exts, [[0], [0]])
    for w in exts:
        assert residue(w, x) == [0]


def test_weak_approx_single_extension():
    exts = extensions_for((1, 0, 1), 7)
    w = exts[0]
    target = [3, 5]
    x = weak_approx(exts, [target])
    assert residue(w, x) == target


def test_weak_approx_refuses_rational_targets():
    """A residue target 1/2 is refused, not truncated to 0; an integral
    Fraction is the integer it equals."""
    exts = extensions_for((1, 0, 1), 5)
    with pytest.raises(ValueError, match="F_p coordinates must be integers"):
        weak_approx(exts, [[Fraction(1, 2)], [0]])
    x = weak_approx(exts, [[Fraction(6)], [Fraction(-3)]])
    assert [residue(w, x) for w in exts] == [[1], [2]]


def test_weak_approx_split_example():
    # targets (0, 1): x = 3+theta works under (theta->2, theta->3) since
    # 3+2 = 5 = 0 and 3+3 = 6 = 1 mod 5; any output with these residues is valid
    fld = field_for((1, 0, 1))
    exts = extensions_for((1, 0, 1), 5)
    ordered = sorted(exts, key=lambda w: tuple(residue(w, fld.from_poly([0, 1]))))
    targets_by_ext = {ordered[0].index: [0], ordered[1].index: [1]}
    x = weak_approx(exts, [targets_by_ext[w.index] for w in exts])
    reference = fld.element([3, 1])
    for w in exts:
        assert residue(w, x) == targets_by_ext[w.index]
        assert residue(w, reference) == targets_by_ext[w.index]


@pytest.mark.parametrize("coeffs,p", CORPUS, ids=CORPUS_IDS)
def test_weak_approx_randomized(coeffs, p):
    rng = random.Random(17)
    exts = extensions_for(coeffs, p)
    order = order_for(coeffs, p)
    for _ in range(10):
        targets = [[rng.randrange(p) for _ in range(w.f)] for w in exts]
        x = weak_approx(exts, targets)
        assert order_contains(order, x, p)
        for w, t in zip(exts, targets):
            assert residue(w, x) == t


def test_approx_gamma_not_in_value_group():
    exts = extensions_for((1, 0, 1), 5)
    with pytest.raises(GammaNotInValueGroup):
        approx_element(exts, 0, Fraction(1, 2))


def test_approx_single_extension_gamma_zero():
    exts = extensions_for((1, 0, 1), 7)
    x = approx_element(exts, 0, Fraction(0))
    assert value(exts[0], x) == 0


def test_approx_ramified_half():
    exts = extensions_for((1, 0, 1), 2)
    x = approx_element(exts, 0, Fraction(1, 2))
    assert value(exts[0], x) == Fraction(1, 2)


def assert_reduced(w, x, gamma):
    """x is reduced modulo p^N O, N = floor(gamma) + 1: with k = max(0,
    -floor(gamma)), the order coordinates of p^k x are integers in
    [0, p^(N+k))."""
    floor = math.floor(gamma)
    k = max(0, -floor)
    bound = w.p ** (floor + 1 + k)
    for c in w.order.coords(x * Fraction(w.p**k)):
        assert c.denominator == 1 and 0 <= c < bound


@pytest.mark.parametrize("coeffs,p", CORPUS, ids=CORPUS_IDS)
def test_approx_postconditions(coeffs, p):
    exts = extensions_for(coeffs, p)
    for ti, w in enumerate(exts):
        e1 = w.e
        # gamma = m/e for m in [-2e, 3e): every step count b = ceil(m/e) e - m
        # in [0, e), and p-power exponents a = ceil(gamma + k) up to 3
        for gamma in (Fraction(m, e1) for m in range(-2 * e1, 3 * e1)):
            x = approx_element(exts, ti, gamma)
            assert value(w, x) == gamma
            for i, other in enumerate(exts):
                if i != ti:
                    assert value(other, x) > gamma
            assert_reduced(w, x, gamma)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(round2_instances(), st.data())
def test_approx_element_is_reduced_and_walk_agrees(instance, data):
    """On Round-2 instances, wild ramification included, approx_element's
    reduced element and the paper's own construction c y^(1-2d)
    (conftest.paper_approx_element, over Q with inverses) both have value
    gamma at the target and more elsewhere, read by the reverse-induction
    walk (value), which shares no code with the anti-uniformizer count.
    gamma ranges over (1/e)Z in [-2, 2], negative and integral values
    included."""
    f, p = instance
    exts = extensions_of(NumberField(f), p)
    ti = data.draw(st.integers(0, len(exts) - 1))
    w = exts[ti]
    gamma = Fraction(data.draw(st.sampled_from(range(-2 * w.e, 2 * w.e + 1))), w.e)
    x = approx_element(exts, ti, gamma)
    assert_reduced(w, x, gamma)
    for y in (x, paper_approx_element(exts, ti, gamma)):
        assert value(w, y) == gamma
        for other in exts:
            if other is not w:
                assert value(other, y) > gamma


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(round2_instances(), st.integers(1, 5))
def test_lifted_idempotents_modulo_p_power(instance, big_m):
    """The idempotents that approx_element lifts to O/p^M O lift the stored
    ones of O/pO and are a complete orthogonal set there: eps_i^2 = eps_i,
    eps_i eps_j = 0 for i != j, and sum eps_i = 1. Products are taken in the
    field and read back through order coordinates, not the structure table."""
    f, p = instance
    exts = extensions_of(NumberField(f), p)
    order = exts[0].order
    mod = p**big_m

    def reduced(x):
        coords = order.coords(x)
        assert all(c.denominator % p for c in coords)
        return [c.numerator * pow(c.denominator, -1, mod) % mod for c in coords]

    eps = []
    for w in exts:
        lifted = lift_idempotent(order.table, w.idempotent, mod)
        assert [c % p for c in lifted] == w.idempotent
        eps.append(order.element(lifted))
    for i, a in enumerate(eps):
        assert reduced(a * a) == reduced(a)
        for b in eps[:i]:
            assert not any(reduced(a * b))
    assert reduced(sum(eps, order.field.zero())) == reduced(order.field.one())


@pytest.mark.parametrize("coeffs,p", CORPUS, ids=CORPUS_IDS)
def test_ef_basis_invariants(coeffs, p):
    exts = extensions_for(coeffs, p)
    basis = build_ef_basis(exts)
    fld = field_for(coeffs)
    order = order_for(coeffs, p)
    for i, w in enumerate(exts):
        residues = []
        for a in basis.a[i]:
            assert order_contains(order, a, p)
            assert value(w, a) == 0
            for i2, other in enumerate(exts):
                if i2 != i:
                    assert value(other, a) > 0
            residues.append(residue(w, a))
        from valext.linalg import fp_rank

        assert fp_rank(residues, p) == w.f
        seen = set()
        for k, b in enumerate(basis.b[i]):
            v = value(w, b)
            assert v == Fraction(k, w.e)
            seen.add(v % 1)
            for i2, other in enumerate(exts):
                if i2 != i:
                    assert value(other, b) >= v
        assert len(seen) == w.e


def test_ef_basis_split_example():
    # e = f = 1 on both extensions: one a per extension, b = {1}-like unit
    exts = extensions_for((1, 0, 1), 5)
    basis = build_ef_basis(exts)
    assert [len(a) for a in basis.a] == [1, 1]
    assert [len(b) for b in basis.b] == [1, 1]
    got = [[str(value_by_count(w, b)) for b in bs] for w, bs in zip(exts, basis.b)]
    assert got == [["0"], ["0"]]


def test_ef_basis_ramified_has_half_integer_representative():
    exts = extensions_for((1, 0, 1), 2)
    basis = build_ef_basis(exts)
    assert [str(value_by_count(exts[0], b)) for b in basis.b[0]] == ["0", "1/2"]


@pytest.mark.parametrize("coeffs,p", CORPUS, ids=CORPUS_IDS)
def test_check_fundamental(coeffs, p):
    exts = extensions_for(coeffs, p)
    report = check_fundamental(exts, trials=25, seed=42)
    assert report.passed
    assert all(t.equal for t in report.trials)
    assert report.sum_ef == sum(w.e * w.f for w in exts)
    assert report.rank == report.sum_ef
    assert report.sum_ef <= report.degree
    # weak fundamental inequality: sum of residue degrees alone is bounded too
    assert sum(w.f for w in exts) <= report.degree


def test_check_report_json_round_trip():
    exts = extensions_for((1, 0, 1), 5)
    report = check_fundamental(exts, trials=3, seed=1)
    blob = json.dumps(report.to_json())
    parsed = json.loads(blob)
    assert parsed["pass"] is True
    assert parsed["sum_ef"] == 2
    assert len(parsed["trials"]) == 3


def test_check_fundamental_deterministic():
    exts = extensions_for((-1, -1, 0, 1), 23)
    r1 = check_fundamental(exts, trials=5, seed=9)
    r2 = check_fundamental(exts, trials=5, seed=9)
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())


@pytest.mark.parametrize("coeffs,p", [((1, 0, 1), 2), ((1, 0, 0, 0, 1), 17)],
                         ids=["x^2+1@2", "x^4+1@17"])
def test_check_fundamental_takes_the_rank_mod_p(coeffs, p, monkeypatch):
    """p b_00 lies in pO, so its products with the a_0j vanish in O/pO:
    with b_00 replaced by p b_00 the products stay independent over Q, but
    their rank mod p, the one the report gives, falls below sum e_i f_i
    and the check fails."""
    real = theorems.build_ef_basis

    def scaled(exts):
        basis = real(exts)
        basis.b[0][0] = basis.b[0][0] * p
        return basis

    monkeypatch.setattr(theorems, "build_ef_basis", scaled)
    exts = extensions_for(coeffs, p)
    report = check_fundamental(exts, trials=0)
    assert report.rank == report.sum_ef - exts[0].f
    assert not report.passed
