"""Acceptance suite: one test per criterion, exact tolerances, seeded draws.

Each test prints a single PASS line on success (visible with pytest -s or
in the captured output); any failure is an ordinary assertion failure.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

from valext import (
    INFINITY,
    PositionKind,
    approx_element,
    check_fundamental,
    decide_position,
    nilradical,
    quotient_mod_p,
    residue,
    split_reduced,
    value,
    weak_approx,
)
from conftest import (
    CORPUS,
    extensions_for,
    field_for,
    idempotents,
    in_prime,
    is_unit,
    order_contains,
    order_for,
    prime_basis,
    pval,
    random_element,
    random_order_element,
    residue_field,
)

EXPECTED_SPLITTINGS = {
    ((1, 0, 1), 5): [(1, 1), (1, 1)],
    ((1, 0, 1), 2): [(2, 1)],
    ((1, 0, 1), 7): [(1, 2)],
    ((-1, -1, 0, 1), 23): [(1, 1), (2, 1)],
    ((8, -2, 1, 1), 2): [(1, 1), (1, 1), (1, 1)],
}


def test_criterion_1_splitting_corpus():
    for (coeffs, p), expected in EXPECTED_SPLITTINGS.items():
        got = sorted((w.e, w.f) for w in extensions_for(coeffs, p))
        assert got == expected, f"{coeffs} at {p}: got {got}, expected {expected}"
    print("ACCEPTANCE 1 (splitting corpus, exact match): PASS")


def test_criterion_2_sum_ef_equals_degree():
    for coeffs, p in CORPUS:
        exts = extensions_for(coeffs, p)
        n = field_for(coeffs).n
        total = sum(w.e * w.f for w in exts)
        assert total == n, f"{coeffs} at {p}: sum e*f = {total} != {n}"
    print("ACCEPTANCE 2 (sum e_i f_i = [L:Q] on every instance): PASS")


def test_criterion_3_reduced_dimension():
    for coeffs, p in CORPUS:
        n = field_for(coeffs).n
        alg = quotient_mod_p(order_for(coeffs, p), p)
        reduced_dim = alg.dim - len(nilradical(alg))
        exts = extensions_for(coeffs, p)
        assert reduced_dim <= n
        assert reduced_dim == sum(c.dim for c in split_reduced(alg).components)
        assert reduced_dim == sum(w.f for w in exts)
    print("ACCEPTANCE 3 (dim R/J(R) <= n and equals sum f_i): PASS")


def test_criterion_4_decomposition_invariants():
    failures = 0
    for coeffs, p in CORPUS:
        alg = quotient_mod_p(order_for(coeffs, p), p)
        dec = split_reduced(alg)
        idems = idempotents(dec)
        total = alg.zero()
        for i, e in enumerate(idems):
            if alg.mul(e, e) != e:
                failures += 1
            for j in range(i):
                if any(alg.mul(e, idems[j])):
                    failures += 1
            total = [(a + b) % p for a, b in zip(total, e)]
        if total != alg.unit:
            failures += 1
        for comp in dec.components:
            kappa = residue_field(comp, alg)
            if comp.dim <= 2 and p <= 7:
                for v in itertools.product(range(p), repeat=comp.dim):
                    if any(v) and not is_unit(kappa, list(v)):
                        failures += 1
            else:
                rng = random.Random(1000 + p)
                for _ in range(500):
                    v = [rng.randrange(p) for _ in range(comp.dim)]
                    if any(v) and not is_unit(kappa, v):
                        failures += 1
    assert failures == 0
    print("ACCEPTANCE 4 (decomposition invariants, zero failures): PASS")


def test_criterion_5_bijection_round_trip():
    mismatches = 0
    for coeffs, p in CORPUS:
        order = order_for(coeffs, p)
        for w in extensions_for(coeffs, p):
            rng = random.Random(500 + w.index * 17 + p)
            for _ in range(50):
                x = random_order_element(rng, order, p)
                if x.is_zero:
                    continue
                in_ideal = decide_position(x, w).kind is PositionKind.IN_MAXIMAL_IDEAL
                if in_ideal != in_prime(w, x):
                    mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 5 (bijection round trip, zero mismatches): PASS")


def test_criterion_6_valuation_axioms():
    failures = 0
    for coeffs, p in CORPUS:
        fld = field_for(coeffs)
        exts = extensions_for(coeffs, p)
        rng = random.Random(600 + p)
        per_ext = 200 // len(exts) + 1
        for w in exts:
            if value(w, fld.from_rational(p)) != 1:
                failures += 1
            for _ in range(per_ext):
                x = random_element(rng, fld, p)
                y = random_element(rng, fld, p)
                vx, vy = value(w, x), value(w, y)
                if value(w, x * y) != vx + vy:
                    failures += 1
                s = x + y
                vs = value(w, s) if not s.is_zero else INFINITY
                if not vs >= min(vx, vy):
                    failures += 1
                q = Fraction(rng.randint(-(p**2), p**2), rng.randint(1, p**2))
                if q != 0 and value(w, fld.from_rational(q)) != pval(q, p):
                    failures += 1
                for v in (vx, vy):
                    if w.e % v.denominator != 0:
                        failures += 1
    assert failures == 0
    print("ACCEPTANCE 6 (valuation axioms on seeded random pairs): PASS")


def test_criterion_7_weak_approximation():
    failures = 0
    for coeffs, p in CORPUS:
        order = order_for(coeffs, p)
        exts = extensions_for(coeffs, p)
        rng = random.Random(700 + p)
        for _ in range(50):
            targets = [[rng.randrange(p) for _ in range(w.f)] for w in exts]
            x = weak_approx(exts, targets)
            if not order_contains(order, x, p):
                failures += 1
            for w, t in zip(exts, targets):
                if residue(w, x) != t:
                    failures += 1
    assert failures == 0
    print("ACCEPTANCE 7 (weak approximation, zero failures): PASS")


def test_criterion_8_approximation_lemma():
    failures = 0
    for coeffs, p in CORPUS:
        exts = extensions_for(coeffs, p)
        for ti, w in enumerate(exts):
            e1 = w.e
            for gamma in [
                Fraction(-2, e1),
                Fraction(-1, e1),
                Fraction(0),
                Fraction(1, e1),
                Fraction(1),
            ]:
                x = approx_element(exts, ti, gamma)
                if value(w, x) != gamma:
                    failures += 1
                for i, other in enumerate(exts):
                    if i != ti and not value(other, x) > gamma:
                        failures += 1
    assert failures == 0
    print("ACCEPTANCE 8 (approximation lemma, all gammas exact): PASS")


def test_criterion_9_fundamental_inequality_engine():
    for coeffs, p in CORPUS:
        exts = extensions_for(coeffs, p)
        report = check_fundamental(exts, trials=100, seed=0)
        assert all(t.equal for t in report.trials), f"{coeffs} at {p}: min formula failed"
        assert report.rank == report.sum_ef
        assert report.sum_ef <= report.degree
        assert report.passed
    print("ACCEPTANCE 9 (min formula, 100 exact trials + rank): PASS")


def test_criterion_10_ramification_cross_check():
    for coeffs, p in CORPUS:
        fld = field_for(coeffs)
        for w in extensions_for(coeffs, p):
            denoms = [value(w, fld.element(v)).denominator for v in prime_basis(w)]
            assert lcm(*denoms) == w.e, f"{coeffs} at {p}, w_{w.index}"
    print("ACCEPTANCE 10 (lattice-value e agrees with dimension e): PASS")
