"""Orders in a number field as Z_(p)-lattices, and Round-2 p-maximalization.

The p-maximal order localized at p models the relative integral closure of
Z_(p) in L. Only p-maximality is ever computed: integers coprime to p are
units throughout, so the discriminant never needs factoring. Order bases
are the lower-triangular ones of lattice_canonical, so coordinates come by
forward substitution; Round 2 is skipped where v_p(disc f) <= 1 already
makes Z[theta] p-maximal.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotIrreducible
from .fpalgebra import nilradical, quotient_mod_p
from .linalg import (
    VecQ,
    columns,
    fp_kernel,
    lattice_canonical,
    lattice_coords,
    pval,
    q_identity,
    require_triangular,
)
from .numberfield import NFElem, NumberField


def _mod_p(coords: VecQ, p: int, why: str) -> list[int]:
    """Image in F_p of coordinates in Z_(p); NotIrreducible(why) otherwise."""
    if any(c.denominator % p == 0 for c in coords):
        raise NotIrreducible(why)
    return [c.numerator * pow(c.denominator, -1, p) % p for c in coords]


class Order:
    """Full-rank unital subring of L given by a canonical lattice basis.

    basis[j] is the power-basis coordinate vector of the j-th basis element.
    It must be lower triangular with nonzero diagonal, as lattice_canonical
    returns it; any other basis raises ValueError.
    """

    def __init__(self, field: NumberField, basis: list[VecQ]):
        self.field = field
        self.basis = [[Fraction(x) for x in v] for v in basis]
        if len(self.basis) != field.n:
            raise ValueError("order basis must have full rank")
        require_triangular(self.basis)
        self._tables: dict[int, list[list[list[int]]]] = {}

    def element(self, coords) -> NFElem:
        out = [Fraction(0)] * self.field.n
        for c, b in zip(coords, self.basis):
            if c:
                out = [o + c * x for o, x in zip(out, b)]
        return self.field.element(out)

    def basis_element(self, j: int) -> NFElem:
        return self.field.element(self.basis[j])

    def coords(self, x: NFElem) -> VecQ:
        """Exact coordinates of x in the order basis (over Q)."""
        return lattice_coords(self.basis, x.coords)

    def coords_mod_p(self, x: NFElem, p: int) -> list[int]:
        """Image of an order element in O/pO, as F_p coordinates."""
        return _mod_p(
            self.coords(x), p, "element expected in the order has p in a coordinate denominator"
        )

    def mult_table_mod_p(self, p: int) -> list[list[list[int]]]:
        """Structure constants of O/pO over the order basis. O/pO is
        commutative, so only the products b_i b_j with i <= j are computed."""
        if p not in self._tables:
            n = self.field.n
            elems = [self.basis_element(j) for j in range(n)]
            table = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    table[i][j] = table[j][i] = self.coords_mod_p(elems[i] * elems[j], p)
            self._tables[p] = table
        return self._tables[p]

    def __eq__(self, other):
        return (
            isinstance(other, Order)
            and self.field == other.field
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, tuple(tuple(v) for v in self.basis)))

    def __repr__(self):
        return f"Order(n={self.field.n})"


def equation_order(field: NumberField) -> Order:
    """Z[theta] localized: the power basis itself."""
    return Order(field, q_identity(field.n))


def discriminant(field: NumberField) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) N(f'(theta)) = (-1)^(n(n-1)/2) Res(f, f')
    for monic f."""
    n = field.n
    norm = field.from_poly([field.f[i] * i for i in range(1, n + 1)]).norm()
    return -norm if (n * (n - 1) // 2) % 2 else norm


def ideal_over(order: Order, vectors: list[list[int]], p: int) -> list[VecQ]:
    """The lattice between pO and O whose image in O/pO is spanned by the
    given F_p coordinate vectors, as a canonical basis."""
    gens = [order.element(v).coords for v in vectors]
    gens += [[p * x for x in b] for b in order.basis]
    return lattice_canonical(gens, p)


def p_radical(order: Order, p: int) -> list[VecQ]:
    """Preimage in the order of the nilradical of O/pO, as a lattice basis."""
    return ideal_over(order, nilradical(quotient_mod_p(order, p)).basis, p)


def ring_of_multipliers(order: Order, ideal: list[VecQ], p: int) -> Order:
    """The order {x in L : x I <= I} for an ideal I containing pO.

    Computed via pO' = {w in O : w I <= p I}: each generator g of I gives an
    F_p-linear map O/pO -> I/pI, and the intersection of their kernels is
    pO'/pO.
    """
    n = order.field.n
    rows_stacked: list[list[int]] = []
    for v in ideal:
        g = order.field.element(v)
        cols = [lattice_coords(ideal, (order.basis_element(j) * g).coords) for j in range(n)]
        cols = [_mod_p(c, p, "ideal is not multiplicatively closed") for c in cols]
        rows_stacked += columns(cols)
    kern = fp_kernel(rows_stacked, p)
    gens = order.basis + [[x / p for x in order.element(v).coords] for v in kern]
    return Order(order.field, lattice_canonical(gens, p))


def p_maximal_order(field: NumberField, p: int) -> Order:
    """Round 2: enlarge through multiplier rings of the p-radical until stable."""
    disc = discriminant(field)
    if disc == 0:
        raise NotIrreducible("zero discriminant: defining polynomial is not squarefree")
    v = pval(disc, p)
    order = equation_order(field)
    if v <= 1:  # [O : Z[theta]]^2 divides disc(f), so Z[theta] is p-maximal
        return order
    for _ in range(v // 2 + 2):
        rad = p_radical(order, p)
        bigger = ring_of_multipliers(order, rad, p)
        if bigger == order:
            return order
        order = bigger
    raise NotIrreducible("Round-2 iteration exceeded the discriminant bound")
