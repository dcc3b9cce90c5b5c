"""Instances outside the acceptance corpus: heavier ramification, inert
quadratics whose maximal order is not the equation order, and a quartic."""

from fractions import Fraction

from valext import NumberField, extensions_of, p_maximal_order, residue, value
from conftest import order_basis, order_contains, pval, random_element
import random


def test_totally_ramified_cubic():
    fld = NumberField([-2, 0, 0, 1])  # x^3 - 2
    exts = extensions_of(fld, 3)
    assert [(w.e, w.f) for w in exts] == [(3, 1)]
    # N(theta) = 2 is a 3-adic unit, so w(theta) = 0, and N(theta + 1) = 3,
    # so w(theta + 1) = 1/3
    w = exts[0]
    assert value(w, fld.from_poly([0, 1])) == 0
    assert value(w, fld.from_rational(3)) == 1
    x = fld.from_poly([0, 1]) + fld.from_rational(1)  # theta + 1: N = 3
    assert value(w, x) == Fraction(1, 3)


def test_split_and_inert_cubic():
    fld = NumberField([-2, 0, 0, 1])  # x^3 - 2 mod 5 = (x-3)(x^2+3x+4)
    exts = extensions_of(fld, 5)
    assert sorted((w.e, w.f) for w in exts) == [(1, 1), (1, 2)]


def test_quartic_cyclotomic_at_2():
    fld = NumberField([1, 0, 0, 0, 1])  # x^4 + 1, the 8th cyclotomic field
    exts = extensions_of(fld, 2)
    assert [(w.e, w.f) for w in exts] == [(4, 1)]
    w = exts[0]
    one_plus = fld.element([1, 1, 0, 0])
    assert value(w, one_plus) == Fraction(1, 4)


def test_quartic_at_odd_prime():
    fld = NumberField([1, 0, 0, 0, 1])
    exts = extensions_of(fld, 7)
    # x^4+1 mod 7 = (x^2+3x+1)(x^2-3x+1): two extensions with f = 2
    assert sorted((w.e, w.f) for w in exts) == [(1, 2), (1, 2)]
    assert sum(w.e * w.f for w in exts) == 4


def test_golden_ratio_order_at_2():
    """x^2-5 at p=2: the 2-maximal order is Z[(1+sqrt5)/2], whose canonical
    basis starts with (1+theta)/2 rather than 1."""
    fld = NumberField([-5, 0, 1])
    o = p_maximal_order(fld, 2)
    assert order_basis(o) == [[Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(1)]]
    assert order_contains(o, fld.one(), 2)
    half = fld.element([Fraction(1, 2), Fraction(1, 2)])
    mp = half.min_poly()  # x^2 - x - 1: integral
    assert all(c.denominator == 1 for c in mp)
    exts = extensions_of(fld, 2)
    assert [(w.e, w.f) for w in exts] == [(1, 2)]
    w = exts[0]
    assert value(w, half) == 0
    rng = random.Random(2024)
    for _ in range(10):
        x = random_element(rng, fld, 2)
        y = random_element(rng, fld, 2)
        assert value(w, x * y) == value(w, x) + value(w, y)


def test_wildly_ramified_quadratic():
    fld = NumberField([2, 2, 1])  # x^2 + 2x + 2, disc = -4: ramified at 2
    exts = extensions_of(fld, 2)
    assert [(w.e, w.f) for w in exts] == [(2, 1)]
    w = exts[0]
    assert value(w, fld.from_poly([0, 1])) == Fraction(1, 2)  # N(theta) = 2


def test_quintic_splittings():
    fld = NumberField([-1, -1, 0, 0, 0, 1])  # x^5 - x - 1
    assert sorted((w.e, w.f) for w in extensions_of(fld, 2)) == [(1, 2), (1, 3)]
    assert sorted((w.e, w.f) for w in extensions_of(fld, 3)) == [(1, 5)]
    wild = NumberField([2, 0, 0, 0, 0, 1])  # x^5 + 2 = (x+2)^5 mod 5: e = p = 5
    exts = extensions_of(wild, 5)
    assert [(w.e, w.f) for w in exts] == [(5, 1)]
    assert value(exts[0], wild.from_poly([0, 1])) == 0  # N(theta) = -2, a 5-unit
    assert value(exts[0], wild.from_poly([0, 1]) + 2) == Fraction(1, 5)  # N = -30


def test_twelfth_cyclotomic_field():
    fld = NumberField([1, 0, -1, 0, 1])  # x^4 - x^2 + 1
    for p in (2, 3):
        assert [(w.e, w.f) for w in extensions_of(fld, p)] == [(2, 2)]


def test_completely_split_quartic():
    # 17 = 1 mod 8, so x^4+1 has four roots mod 17 and v_17 has four extensions
    fld = NumberField([1, 0, 0, 0, 1])
    exts = extensions_of(fld, 17)
    assert sorted((w.e, w.f) for w in exts) == [(1, 1)] * 4
    roots = sorted(r for r in range(17) if (r**4 + 1) % 17 == 0)
    assert sorted(tuple(residue(w, fld.from_poly([0, 1]))) for w in exts) == [(r,) for r in roots]
    from valext import check_fundamental, weak_approx

    x = weak_approx(exts, [[1], [2], [3], [4]])
    assert [residue(w, x) for w in exts] == [[1], [2], [3], [4]]
    report = check_fundamental(exts, trials=10, seed=5)
    assert report.passed and report.sum_ef == 4


def test_norm_formula():
    """sum e_i f_i w_i(x) = v_p(N(x)): ties every extension together at once."""
    import random

    instances = [
        ([1, 0, 1], 2),
        ([1, 0, 1], 5),
        ([8, -2, 1, 1], 2),
        ([-1, -1, 0, 1], 23),
        ([-1, -1, 0, 0, 0, 1], 2),
    ]
    for coeffs, p in instances:
        fld = NumberField(coeffs)
        exts = extensions_of(fld, p)
        rng = random.Random(99)
        for _ in range(15):
            x = random_element(rng, fld, p)
            norm = x.norm()
            total = sum((w.e * w.f * value(w, x) for w in exts), Fraction(0))
            assert total == pval(norm, p)
