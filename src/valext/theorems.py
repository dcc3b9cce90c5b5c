"""Executable forms of the approximation and inequality results.

weak_approx prescribes all residues at once through the product isomorphism
of the reduced quotient; approx_element realizes a prescribed value at one
extension while staying strictly above it at the others; check_fundamental
verifies the min-value formula of the fundamental inequality with exact
rational comparison and certifies sum(e_i f_i) <= [L:Q] by an explicit
independent set, whose rank over Q is bounded below by the rank of its
image in O/pO, taken over F_p.

Every value here is counted with the anti-uniformizer beta of its
extension's prime (extensions.value_by_count), without the walk that
certifies the count in extensions.value.

The approximation lemma prescribes values only, so its element matters only
modulo terms of larger value, and the fundamental-inequality proof uses no
more than that. approx_element therefore builds its element in O/p^M O, in
integers over the order's structure constants, by the idempotent form of
the approximation theorem (Neukirch, ANT II.3.4): a power of p and of
beta/p times the extension's idempotent, lifted from O/pO by
fpalgebra.lift_idempotent, the Newton lift that extensions_of also uses.
No inverse and no rational is formed, and for gamma >= 0 the coordinates
over the p-maximal order lie in [0, p^N), N = floor(gamma) + 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field as dataclass_field
from fractions import Fraction

from .errors import GammaNotInValueGroup
from .extensions import ExtensionValuation, value_by_count
from .fpalgebra import lift_idempotent
from .linalg import VecFp, fp_rank, fp_solve, fp_vec, pval
from .numberfield import NFElem
from .polynomials import format_poly
from .values import INFINITY


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
        stacked.extend(w.component.projection)
        rhs.extend(fp_vec(t, p))
    sol = fp_solve(stacked, rhs, p)
    if sol is None:
        raise AssertionError("stacked residue system is inconsistent")
    return order.element(sol)


def approx_element(
    exts: list[ExtensionValuation], target: int, gamma: Fraction
) -> NFElem:
    """Element x with w_target(x) = gamma and w_i(x) > gamma elsewhere.

    With N = floor(gamma) + 1, k = max(0, -floor(gamma)), M = N + k,
    m = e(gamma + k), a = ceil(m/e) and b = a e - m, so 0 <= b < e,
    x = p^-k ((beta/p)^b p^a eps mod p^M O), for eps the target's idempotent
    lifted to O/p^(M+b) O and beta the anti-uniformizer of its prime. At
    that prime beta/p has value -1/e and eps is 1, so w_target(x) = gamma.
    beta/p is integral at every other prime, where eps is 0 mod p^(M+b), so
    w_i(x) >= M - k = N > gamma there. Reducing modulo p^M O changes no
    value below M; the order coordinates of p^k x are integers in [0, p^M).
    """
    gamma = Fraction(gamma)
    w1 = exts[target]
    p, e = w1.p, w1.e
    if e % gamma.denominator:
        raise GammaNotInValueGroup(f"gamma = {gamma} is not in (1/{e})Z")
    floor = math.floor(gamma)
    k = max(0, -floor)
    m = int(e * (gamma + k))
    a = -(-m // e)
    b = a * e - m
    # Each step by beta/p loses one power of p from the modulus.
    mod = p ** (floor + 1 + k + b)
    x = [c * p**a % mod for c in lift_idempotent(w1.order.table, w1.component.idempotent, mod)]
    for _ in range(b):
        x = w1.times_beta_over_p(x, mod)
        if x is None:
            raise AssertionError("a step by beta/p left the order")
        mod //= p
    y = w1.order.element(x)
    return NFElem(y.field, y.num, y.den * p**k)


@dataclass
class EfBasis:
    """Residue lifts a[i][j] and value representatives b[i][k], of value
    k/e_i, per extension, satisfying the cross-extension hypotheses of the
    min-value theorem."""

    a: list[list[NFElem]]
    b: list[list[NFElem]]


def build_ef_basis(exts: list[ExtensionValuation]) -> EfBasis:
    """Assemble the hypotheses of the fundamental-inequality theorem from
    weak approximation (a-side) and the approximation lemma (b-side)."""
    a_all = []
    b_all = []
    for i, w in enumerate(exts):
        a_i = []
        for j in range(w.f):
            targets = [[int(other is w and k == j) for k in range(other.f)] for other in exts]
            x = weak_approx(exts, targets)
            if value_by_count(w, x) != 0:
                raise AssertionError("residue lift is not a unit at its own extension")
            a_i.append(x)
        a_all.append(a_i)
        b_i = []
        for k in range(w.e):
            gamma = Fraction(k, w.e)
            x = approx_element(exts, i, gamma)
            if value_by_count(w, x) != gamma:
                raise AssertionError("value representative has the wrong value")
            b_i.append(x)
        b_all.append(b_i)
    return EfBasis(a=a_all, b=b_all)


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
    extensions: list[dict[str, int]]
    trials: list[TrialRecord] = dataclass_field(default_factory=list)
    passed: bool = False

    def to_json(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


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
    in the report rather than raised.

    The rank is that of the products' images in O/pO over F_p, a lower
    bound for their rank over Q: a Q-relation, scaled to integers not all
    divisible by p, reduces to an F_p-relation. O/pO is the product of the
    O/P_l^(e_l). For l != i, w_l(b_ik) >= 1, as approx_element gives it,
    so a_ij b_ik vanishes there; in O/P_i^(e_i) the products span, since
    the a_ij lift a basis of the residue field and b_ik has value k/e_i.
    So the images have F_p-rank sum e_i f_i, and that rank proves the
    products independent over Q."""
    basis = build_ef_basis(exts)
    fld, order, p = exts[0].field, exts[0].order, exts[0].p
    sum_ef = sum(w.e * w.f for w in exts)

    # products[i][j][k] = a_ij b_ik, formed once for the rank and every trial
    products = [[[aij * bik for bik in b_i] for aij in a_i] for a_i, b_i in zip(basis.a, basis.b)]
    rank = fp_rank([order.coords_mod_p(x, p) for p_i in products for row in p_i for x in row], p)

    report = CheckReport(
        instance=f"Q[x]/({format_poly(fld.f, 'x')}) at p={p}",
        degree=fld.n,
        sum_ef=sum_ef,
        rank=rank,
        extensions=[{"e": w.e, "f": w.f} for w in exts],
    )

    all_equal = True
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        flat: list[str] = []  # the c_ijk in (i, j, k) order
        total = fld.zero()
        rhs = INFINITY
        for i, w in enumerate(exts):
            for j in range(w.f):
                for k in range(w.e):
                    cval = _random_coefficient(rng, w.p)
                    flat.append(str(cval))
                    if cval != 0:
                        total = total + products[i][j][k] * cval
                        rhs = min(rhs, pval(cval, w.p) + Fraction(k, w.e))
        lhs = min(value_by_count(w, total) for w in exts)
        equal = lhs == rhs
        all_equal = all_equal and equal
        report.trials.append(
            TrialRecord(coefficients=flat, lhs=str(lhs), rhs=str(rhs), equal=equal)
        )
    report.passed = all_equal and rank == sum_ef and sum_ef <= fld.n
    return report

