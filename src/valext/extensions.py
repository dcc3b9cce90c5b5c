"""Extensions of v_p to L: enumeration, membership decision, value, residue.

extensions_of runs the pipeline p-maximal order -> O/pO -> split_reduced,
which reduces O/pO, splits the reduction into fields and lifts the
idempotents by Newton iteration, and reads off one extension per field
component. decide_position classifies an element against one extension's
valuation ring by reverse induction on its minimal polynomial relation
(the walk); residue is read off its witness by one solve through kappa.

Values use the prime P directly: for x in O, e*w(x) is how often x can be
multiplied by beta/p, for an anti-uniformizer beta of P, and stay in O
(Cohen, GTM 138, Alg. 4.8.17). value_by_count returns that count, and is
what the theorems layer and the approx command use; approx_element builds
its elements with the same step. value certifies the count with one walk,
whose CASE steps the value command traces.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import NegativeValue, NotIrreducible, ZeroElement
from .events import emit
from .fpalgebra import Component, quotient_mod_p, split_reduced
from .linalg import (
    VecFp,
    fp_kernel,
    fp_matmul,
    fp_matvec,
    fp_rank,
    fp_solve,
    mult_matrix,
    pval,
)
from .numberfield import NFElem, NumberField
from .orders import Order, ideal_over, p_maximal_order, ratio_str
from .polynomials import poly_deg
from .values import INFINITY


class PositionKind(enum.Enum):
    UNIT = "Unit"
    IN_MAXIMAL_IDEAL = "InMaximalIdeal"
    OUTSIDE = "Outside"


@dataclass
class Position:
    """Where an element sits relative to one extension's valuation ring.

    For the two non-negative kinds, witness = (u, s) with u, s in the
    p-maximal order, s outside the prime, and x = u/s exactly.
    """

    kind: PositionKind
    witness: tuple[NFElem, NFElem] | None = None


@dataclass(eq=False)
class ExtensionValuation:
    """One extension w of v_p to L.

    Values of nonzero elements lie in (1/e)Z. component is w's field
    component of O/pO in order coordinates: its projection maps onto the
    residue field, and its idempotent is 1 at w's prime and 0 at every
    other prime over p. Built on first use and kept: the prime P as an F_p
    kernel and as a lattice (prime_lattice), and the matrix of the
    anti-uniformizer beta that values are counted with and approx_element
    steps by. Instances compare by identity.
    """

    index: int
    e: int
    f: int
    field: NumberField
    p: int
    order: Order
    component: Component

    @cached_property
    def prime_kernel(self) -> list[VecFp]:
        """A basis of P/pO in O/pO coordinates: the residue projection's kernel."""
        return fp_kernel(self.component.projection, self.p)

    @cached_property
    def prime_lattice(self) -> list[list[int]]:
        """den times P's canonical basis in the power basis (Order.lattice_nums)."""
        return self.order.lattice_nums(ideal_over(self.order, self.prime_kernel, self.p), self.p)

    @cached_property
    def anti_uniformizer_matrix(self) -> list[list[int]]:
        """Integer matrix of y -> beta*y over the order basis, for some beta
        outside pO with beta*P <= pO.

        P/pO is the kernel of the residue projection, and beta mod p is a
        nonzero element of its annihilator in O/pO, which is P^(e-1)/P^e at
        P and zero at every other prime over p. So v_P(beta) = e - 1 and
        beta/p is integral away from P. When e = 1, the local factor at P is
        the residue field and P/pO is the sum of the other local factors, so
        beta is the component's idempotent, which kills them and is 1 at P,
        and no kernel is taken; when P = pO, that idempotent is 1. Values do
        not depend on which beta is taken, and approx_element steps by beta/p
        only when e > 1, so output is the same for every choice.
        """
        table = self.order.table
        if self.e == 1:
            return mult_matrix(table, self.component.idempotent)
        stacked = [row for g in self.prime_kernel for row in mult_matrix(table, g)]
        return mult_matrix(table, fp_kernel(stacked, self.p)[0])

    def times_beta_over_p(self, y: list[int], mod: int) -> list[int] | None:
        """Order coordinates of y*beta/p modulo mod/p, for y in O given by
        its coordinates modulo mod, a power of p; None when y*beta is not in
        pO, that is when y*beta/p leaves O."""
        p = self.p
        z = [sum(map(mul, row, y)) % mod for row in self.anti_uniformizer_matrix]
        if any(c % p for c in z):
            return None
        return [c // p for c in z]

    def residue_of_integral(self, x: NFElem) -> VecFp:
        """Residue-field image of an element of the p-maximal order."""
        return fp_matvec(self.component.projection, self.order.coords_mod_p(x, self.p), self.p)

    def to_descriptor(self) -> dict:
        return {
            "index": self.index,
            "e": self.e,
            "f": self.f,
            "residue_field_dim": self.f,
            "prime_basis": [[ratio_str(x, self.order.den) for x in v] for v in self.prime_lattice],
        }

    def __repr__(self):
        return f"ExtensionValuation(index={self.index}, e={self.e}, f={self.f}, p={self.p})"


def extensions_of(field: NumberField, p: int) -> list[ExtensionValuation]:
    """All extensions of v_p to L, one per maximal ideal of the closure:
    one per component of split_reduced(O/pO), with f the component's
    dimension and e*f that of its local factor: f, e = 1, if O/pO is reduced."""
    order = p_maximal_order(field, p)
    alg = quotient_mod_p(order, p)
    dec = split_reduced(alg)
    exts = []
    for i, comp in enumerate(dec.components):
        local_dim = comp.dim if dec.reduced else fp_rank(alg.mult_matrix(comp.idempotent), p)
        if local_dim % comp.dim:
            raise AssertionError("local factor dimension not divisible by residue degree")
        exts.append(
            ExtensionValuation(
                index=i + 1,
                e=local_dim // comp.dim,
                f=comp.dim,
                field=field,
                p=p,
                order=order,
                component=comp,
            )
        )
    return exts


def decide_position(x: NFElem, w: ExtensionValuation) -> Position:
    """Classify x against w's valuation ring by reverse induction.

    Take the minimal relation sum c_i x^i = 0 normalized so min v_p(c_i) = 0
    and walk the partial sums alpha_j downward, keeping x*alpha_j in the
    prime: a unit coefficient exits with x in the localization (case 1),
    x*alpha_(j-1) outside the prime exits with 1/x in it (case 2), and
    otherwise the induction continues (case 3).
    """
    if x.is_zero:
        raise ZeroElement("position of 0 is undefined")
    p = w.p
    mp = x.min_poly()
    if mp[0] == 0:
        raise NotIrreducible("nonzero element is a zero divisor")
    d = poly_deg(mp)
    vals = [pval(c, p) if c != 0 else None for c in mp]
    jstar = min(
        (i for i in range(d + 1) if vals[i] is not None), key=lambda i: vals[i]
    )
    c = [ci / mp[jstar] for ci in mp]
    kappa_of = w.residue_of_integral
    y = x.field.zero()  # x*alpha_(d+1) = 0, in the prime trivially
    for j in range(d + 1, 0, -1):
        c_prev = c[j - 1]
        # alpha_(j-1) = x*alpha_j + c_(j-1), and x*alpha_j is the last y
        alpha_prev = y + c_prev
        y = x * alpha_prev
        if c_prev != 0 and pval(c_prev, p) == 0:
            emit(f"CASE1{{j={j}}}")
            ru = kappa_of(y)
            if not any(kappa_of(alpha_prev)):
                raise NotIrreducible("case-1 denominator fell into the prime")
            # kappa(x) = kappa(y)/kappa(alpha_(j-1)) is nonzero iff kappa(y) is
            kind = PositionKind.UNIT if any(ru) else PositionKind.IN_MAXIMAL_IDEAL
            return Position(kind, witness=(y, alpha_prev))
        if any(kappa_of(y)):
            emit(f"CASE2{{j={j}}}")
            # kappa(1/x) = kappa(alpha_(j-1))/kappa(y), with kappa(y) nonzero
            if any(kappa_of(alpha_prev)):
                # x and 1/x are both units of the localization
                return Position(PositionKind.UNIT, witness=(y, alpha_prev))
            return Position(PositionKind.OUTSIDE)
        emit(f"CASE3{{j={j}}}")
    raise NotIrreducible("reverse induction failed to classify the element")


def value(w: ExtensionValuation, x: NFElem) -> Fraction:
    """w(x) as an exact rational with denominator dividing e; INFINITY for 0.

    The anti-uniformizer count gives m = e*w(x), and one walk certifies it:
    decide_position(x^e p^(-m)) must say UNIT, that is w(x^e p^(-m)) = 0,
    or AssertionError is raised. The minimal polynomial of x^e is computed
    first, so x^e p^(-m), a rational multiple, inherits it rescaled; with
    e = 1 it is x's own, shared by every extension that values x.
    """
    if x.is_zero:
        return INFINITY
    m = _count(w, x)
    xe = x if w.e == 1 else x**w.e
    xe.min_poly()
    if decide_position(xe * Fraction(w.p) ** -m, w).kind is not PositionKind.UNIT:
        raise AssertionError("the walk does not certify the anti-uniformizer count")
    return Fraction(m, w.e)


def value_by_count(w: ExtensionValuation, x: NFElem) -> Fraction:
    """w(x) by the anti-uniformizer count alone, with no walk."""
    if x.is_zero:
        return INFINITY
    return Fraction(_count(w, x), w.e)


def _count(w: ExtensionValuation, x: NFElem) -> int:
    """e*w(x) for nonzero x, by counting steps with the anti-uniformizer
    beta of w's prime.

    v_P(beta/p) = -1 and beta/p is integral at every other prime over p, so
    for y in O, e*w(y) is the number of steps y <- y*beta/p that stay in O.
    With c / d x's order coordinates in lowest terms and p^a the p-part of
    d, y = x*p^a has coordinates in Z_(p) and e*w(x) is that count less
    e*a. Every w_j(y) >= 0, so the product formula
    sum_j e_j f_j w_j(y) = v_p(N(y)) gives e*f*w(y) <= v_p(N(y)), and the
    count is at most floor((v_p(N(x)) + n*a) / f); passing that bound raises
    AssertionError. The first bound+1 steps depend only on y mod
    p^(bound+1), so the coordinates are kept reduced modulo it, c times the
    inverse of d's unit part, and each step loses one power of p.
    """
    norm = x.norm()
    if norm == 0:
        raise NotIrreducible("nonzero element has zero norm")
    p, e = w.p, w.e
    c, d = w.order.coords(x)
    g = math.gcd(d, *c)
    a = pval(d // g, p)
    bound = (pval(norm, p) + x.field.n * a) // w.f
    mod = p ** (bound + 1)
    u = pow(d // g // p**a, -1, mod)
    y = [t // g * u % mod for t in c]
    for steps in range(bound + 1):
        y = w.times_beta_over_p(y, mod)
        if y is None:
            return steps - e * a
        mod //= p
    raise AssertionError("anti-uniformizer count passed the norm bound")


def residue(w: ExtensionValuation, x: NFElem) -> VecFp:
    """Image of x in the residue field; requires w(x) >= 0.

    The walk's witness is x = u/s with kappa(s) != 0, and kappa, the
    projection pi after reduction mod p, is a ring map: so pi(y) for any y
    with pi(s y) = kappa(u) is kappa(u)/kappa(s); AssertionError if none.
    """
    if x.is_zero:
        return [0] * w.f
    pos = decide_position(x, w)
    if pos.kind is PositionKind.OUTSIDE:
        raise NegativeValue("element has negative value at this extension")
    u, s = pos.witness
    p, proj = w.p, w.component.projection
    times_s = quotient_mod_p(w.order, p).mult_matrix(w.order.coords_mod_p(s, p))
    y = fp_solve(fp_matmul(proj, times_s, p), w.residue_of_integral(u), p)
    if y is None:
        raise AssertionError("kappa(u) is not a multiple of kappa(s)")
    return fp_matvec(proj, y, p)
