"""Executable forms of the approximation and inequality results.

weak_approx prescribes all residues at once through the product isomorphism
of the reduced quotient; approx_element realizes a prescribed value at one
extension while staying strictly above it at the others; check_min_formula
and check_fundamental verify the min-value formulas with exact rational
comparison and certify sum(e_i f_i) <= [L:Q] by an explicit independent set.

Every value here is counted with the anti-uniformizer of its extension's
prime (extensions.value_by_count), not found by the reverse-induction walk;
the residues that check_min_formula needs still come from the walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .errors import GammaNotInValueGroup, HypothesisViolation
from .extensions import ExtensionValuation, residue, value_by_count
from .linalg import VecFp, fp_rank, fp_solve, fp_vec, q_rank
from .numberfield import NFElem
from .padic import PAdicValuation
from .polynomials import format_poly
from .values import INFINITY, Val


def weak_approx(exts: list[ExtensionValuation], targets: list[VecFp]) -> NFElem:
    """Element of the p-maximal order with the prescribed residue at every
    extension, found by one linear solve through the stacked projections."""
    if len(targets) != len(exts):
        raise ValueError("one residue target per extension required")
    order = exts[0].order
    p = exts[0].p
    stacked = []
    rhs = []
    for w, t in zip(exts, targets):
        if len(t) != w.f:
            raise ValueError(f"target for extension {w.index} must have {w.f} coordinates")
        stacked.extend(w.residue_projection)
        rhs.extend(fp_vec(t, p))
    sol = fp_solve(stacked, rhs, p)
    if sol is None:
        raise AssertionError("stacked residue system is inconsistent")
    return order.element(sol)


def approx_element(
    exts: list[ExtensionValuation], target: int, gamma: Fraction
) -> NFElem:
    """Element x with w_target(x) = gamma and w_i(x) > gamma elsewhere.

    Starts from a power of a minimal-value prime-basis element, then
    corrects the other extensions with weak-approximation elements a, b and
    the scaling constant c = p^(2 e gamma): the result is c y^(1-2e) with
    y = x + b c (a x)^(1-2e).
    """
    gamma = Fraction(gamma)
    w1 = exts[target]
    if w1.e % gamma.denominator:
        raise GammaNotInValueGroup(
            f"gamma = {gamma} is not in (1/{w1.e})Z"
        )
    others = [w for i, w in enumerate(exts) if i != target]

    x0 = _element_of_value(w1, gamma)
    values_x0 = {w.index: value_by_count(w, x0) for w in others}

    def unit_target(w: ExtensionValuation) -> VecFp:
        return list(w.residue_algebra.unit)

    def zero_target(w: ExtensionValuation) -> VecFp:
        return w.residue_algebra.zero()

    a_targets = []
    b_targets = []
    for w in exts:
        if w is w1:
            a_targets.append(unit_target(w))
            b_targets.append(zero_target(w))
        elif values_x0[w.index] >= gamma:
            a_targets.append(zero_target(w))
            b_targets.append(unit_target(w))
        else:
            a_targets.append(unit_target(w))
            b_targets.append(unit_target(w))
    a = weak_approx(exts, a_targets)
    b = weak_approx(exts, b_targets)

    e_ord = gamma.denominator
    c = Fraction(w1.p) ** int(2 * e_ord * gamma)
    y = x0 + b * c * (a * x0) ** (1 - 2 * e_ord)
    return y ** (1 - 2 * e_ord) * c


def _element_of_value(w1: ExtensionValuation, gamma: Fraction) -> NFElem:
    """Some x with w1(x) = gamma: a 1/e-valued prime-basis element raised to
    the e*gamma power. The minimal basis value is exactly 1/e because every
    lattice element dominates the basis minimum and a uniformizer lies in P."""
    fld = w1.field
    target_val = Val(Fraction(1, w1.e))
    for vec in w1.prime_basis:
        g = fld.element(vec)
        if value_by_count(w1, g) == target_val:
            return g ** int(w1.e * gamma)
    raise AssertionError("prime basis has no element of minimal positive value")


def check_min_formula(
    w: ExtensionValuation,
    a: list[NFElem],
    b: list[NFElem],
    c: list[list[Fraction]],
) -> tuple[Val, Val, bool]:
    """Single-valuation min formula: w(sum c_ij a_i b_j) against the
    termwise minimum. Hypotheses are checked and violations raised."""
    if len(c) != len(a) or any(len(row) != len(b) for row in c):
        raise ValueError("coefficient matrix shape must be len(a) x len(b)")
    residues = []
    for ai in a:
        if value_by_count(w, ai) != Val(0):
            raise HypothesisViolation("a-elements must be units of the valuation ring")
        residues.append(residue(w, ai))
    if fp_rank(residues, w.p) != len(a):
        raise HypothesisViolation("a-residues must be linearly independent")
    bvals = []
    for bj in b:
        if bj.is_zero:
            raise HypothesisViolation("b-elements must be nonzero")
        bvals.append(value_by_count(w, bj))
    for i in range(len(bvals)):
        for j in range(i):
            if (bvals[i].q - bvals[j].q).denominator == 1:
                raise HypothesisViolation("b-values must be in distinct classes mod Z")

    total = w.field.zero()
    rhs = INFINITY
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            cij = Fraction(c[i][j])
            if cij == 0:
                continue
            term = ai * bj * cij
            total = total + term
            rhs = min(rhs, value_by_count(w, term))
    lhs = value_by_count(w, total)
    return lhs, rhs, lhs == rhs


@dataclass
class EfBasis:
    """Residue lifts a[i][j] and value representatives b[i][k] per extension,
    satisfying the cross-extension hypotheses of the min-value theorem."""

    exts: list[ExtensionValuation]
    a: list[list[NFElem]]
    b: list[list[NFElem]]
    b_values: list[list[Val]]


def build_ef_basis(exts: list[ExtensionValuation]) -> EfBasis:
    """Assemble the hypotheses of the fundamental-inequality theorem from
    weak approximation (a-side) and the approximation lemma (b-side)."""
    a_all = []
    b_all = []
    b_values = []
    for i, w in enumerate(exts):
        a_i = []
        for j in range(w.f):
            targets = [
                ([0] * other.f if other is not w else other.residue_algebra.basis_vector(j))
                for other in exts
            ]
            x = weak_approx(exts, targets)
            if value_by_count(w, x) != Val(0):
                raise AssertionError("residue lift is not a unit at its own extension")
            a_i.append(x)
        a_all.append(a_i)
        b_i = []
        v_i = []
        for k in range(w.e):
            gamma = Fraction(k, w.e)
            x = approx_element(exts, i, gamma)
            got = value_by_count(w, x)
            if got != Val(gamma):
                raise AssertionError("value representative has the wrong value")
            b_i.append(x)
            v_i.append(got)
        b_all.append(b_i)
        b_values.append(v_i)
    return EfBasis(exts=exts, a=a_all, b=b_all, b_values=b_values)


@dataclass
class TrialRecord:
    coefficients: list[str]
    lhs: str
    rhs: str
    equal: bool


@dataclass
class CheckReport:
    """Outcome of the fundamental-inequality verification on one instance."""

    instance: str
    degree: int
    sum_ef: int
    rank: int
    extension_pairs: list[tuple[int, int]]
    trials: list[TrialRecord] = dataclass_field(default_factory=list)
    passed: bool = False

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "degree": self.degree,
            "sum_ef": self.sum_ef,
            "rank": self.rank,
            "extensions": [{"e": e, "f": f} for e, f in self.extension_pairs],
            "trials": [
                {
                    "coefficients": t.coefficients,
                    "lhs": t.lhs,
                    "rhs": t.rhs,
                    "equal": t.equal,
                }
                for t in self.trials
            ],
            "pass": self.passed,
        }


def _random_coefficient(rng: random.Random, p: int) -> Fraction:
    """Numerators within +-p^3, denominators coprime to p, with occasional
    pure p-powers so both v(c) = 0 and v(c) != 0 branches get exercised."""
    if rng.random() < 0.25:
        return Fraction(rng.choice([1, -1])) * Fraction(p) ** rng.randint(-2, 2)
    num = rng.randint(-(p**3), p**3)
    den = rng.randint(1, p**3)
    while den % p == 0:
        den = rng.randint(1, p**3)
    return Fraction(num, den)


def check_fundamental(
    exts: list[ExtensionValuation], trials: int = 100, seed: int = 0
) -> CheckReport:
    """Verify the min-value formula on random coefficient draws and the
    K-linear independence of the products a_ij b_ik; failures are recorded
    in the report rather than raised."""
    basis = build_ef_basis(exts)
    vp = PAdicValuation(exts[0].p)
    fld = exts[0].field
    sum_ef = sum(w.e * w.f for w in exts)

    products = []
    for i, w in enumerate(exts):
        for aij in basis.a[i]:
            for bik in basis.b[i]:
                products.append((aij * bik).coords)
    rank = q_rank(products)

    report = CheckReport(
        instance=f"Q[x]/({format_poly(fld.f, 'x')}) at p={exts[0].p}",
        degree=fld.n,
        sum_ef=sum_ef,
        rank=rank,
        extension_pairs=[(w.e, w.f) for w in exts],
    )

    all_equal = True
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        coeffs: list[list[list[Fraction]]] = []
        total = fld.zero()
        rhs = INFINITY
        for i, w in enumerate(exts):
            ci = []
            for j in range(w.f):
                cj = []
                for k in range(w.e):
                    cval = _random_coefficient(rng, w.p)
                    cj.append(cval)
                    if cval != 0:
                        total = total + basis.a[i][j] * basis.b[i][k] * cval
                        rhs = min(rhs, vp.value(cval) + basis.b_values[i][k])
                ci.append(cj)
            coeffs.append(ci)
        lhs = min(value_by_count(w, total) for w in exts)
        equal = lhs == rhs
        all_equal = all_equal and equal
        flat = [str(c) for ci in coeffs for cj in ci for c in cj]
        report.trials.append(
            TrialRecord(coefficients=flat, lhs=str(lhs), rhs=str(rhs), equal=equal)
        )
    report.passed = all_equal and rank == sum_ef and sum_ef <= fld.n
    return report

