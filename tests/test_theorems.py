import json
import random
from fractions import Fraction

import pytest

from valext import (
    GammaNotInValueGroup,
    HypothesisViolation,
    INFINITY,
    Val,
    approx_element,
    build_ef_basis,
    check_fundamental,
    check_min_formula,
    residue,
    value,
    weak_approx,
)

from conftest import CORPUS, CORPUS_IDS, extensions_for, field_for, order_contains, order_for


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
    assert value(exts[0], x) == Val(0)


def test_approx_ramified_half():
    exts = extensions_for((1, 0, 1), 2)
    x = approx_element(exts, 0, Fraction(1, 2))
    assert value(exts[0], x) == Val(Fraction(1, 2))


@pytest.mark.parametrize("coeffs,p", CORPUS, ids=CORPUS_IDS)
def test_approx_postconditions(coeffs, p):
    exts = extensions_for(coeffs, p)
    for ti, w in enumerate(exts):
        e1 = w.e
        gammas = [Fraction(-2, e1), Fraction(-1, e1), Fraction(0), Fraction(1, e1), Fraction(2, e1), Fraction(1)]
        for gamma in gammas:
            x = approx_element(exts, ti, gamma)
            assert value(w, x) == Val(gamma)
            for i, other in enumerate(exts):
                if i != ti:
                    assert value(other, x) > Val(gamma)


def test_check_min_formula_single_term():
    exts = extensions_for((1, 0, 1), 5)
    w = exts[0]
    fld = field_for((1, 0, 1))
    one = fld.one()
    for c in [Fraction(5), Fraction(1), Fraction(3, 5)]:
        lhs, rhs, ok = check_min_formula(w, [one], [one], [[c]])
        assert ok
        assert lhs == rhs
        vp_c = Val(0) if c == 1 else lhs
        assert lhs == value(w, fld.from_rational(c))


def test_check_min_formula_ramified_example():
    # a = {1}, b = {1, 1+theta}, c = (2, 1): both sides are 1/2
    fld = field_for((1, 0, 1))
    w = extensions_for((1, 0, 1), 2)[0]
    lhs, rhs, ok = check_min_formula(
        w, [fld.one()], [fld.one(), fld.element([1, 1])], [[Fraction(2), Fraction(1)]]
    )
    assert ok
    assert lhs == Val(Fraction(1, 2))
    assert rhs == Val(Fraction(1, 2))


def test_check_min_formula_inert_example():
    # a = {1, theta}, b = {1}, c = (7, 1)^T: both sides are 0
    fld = field_for((1, 0, 1))
    w = extensions_for((1, 0, 1), 7)[0]
    lhs, rhs, ok = check_min_formula(
        w, [fld.one(), fld.from_poly([0, 1])], [fld.one()], [[Fraction(7)], [Fraction(1)]]
    )
    assert ok
    assert lhs == Val(0)
    assert rhs == Val(0)


def test_check_min_formula_all_zero_coefficients():
    fld = field_for((1, 0, 1))
    w = extensions_for((1, 0, 1), 5)[0]
    lhs, rhs, ok = check_min_formula(w, [fld.one()], [fld.one()], [[Fraction(0)]])
    assert ok and lhs == INFINITY and rhs == INFINITY


def test_check_min_formula_hypothesis_violations():
    fld = field_for((1, 0, 1))
    w = extensions_for((1, 0, 1), 5)[0]
    with pytest.raises(HypothesisViolation):
        check_min_formula(w, [fld.from_rational(5)], [fld.one()], [[Fraction(1)]])
    with pytest.raises(HypothesisViolation):
        check_min_formula(w, [fld.one()], [fld.one(), fld.from_rational(5)], [[1, 1]])
    with pytest.raises(HypothesisViolation):
        check_min_formula(w, [fld.one(), fld.one()], [fld.one()], [[1], [1]])


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
            assert value(w, a) == Val(0)
            for i2, other in enumerate(exts):
                if i2 != i:
                    assert value(other, a) > Val(0)
            residues.append(residue(w, a))
        from valext.linalg import fp_rank

        assert fp_rank(residues, p) == w.f
        seen = set()
        for k, b in enumerate(basis.b[i]):
            v = value(w, b)
            assert v == Val(Fraction(k, w.e))
            seen.add(v.q - int(v.q))
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
    assert [[str(v) for v in vs] for vs in basis.b_values] == [["0"], ["0"]]


def test_ef_basis_ramified_has_half_integer_representative():
    exts = extensions_for((1, 0, 1), 2)
    basis = build_ef_basis(exts)
    assert [str(v) for v in basis.b_values[0]] == ["0", "1/2"]


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
