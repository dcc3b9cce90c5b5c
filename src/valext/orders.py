"""Orders in a number field as Z_(p)-lattices, and Round-2 p-maximalization.

The p-maximal order localized at p models the relative integral closure of
Z_(p) in L. Only p-maximality is ever computed: integers coprime to p are
units throughout, so the discriminant never needs factoring. Order bases
are the lower-triangular ones of lattice_canonical, so coordinates come by
forward substitution; Round 2 is skipped where v_p(disc f) <= 1 already
makes Z[theta] p-maximal.

Every lattice of Round 2 lies between pO and O, or between O and p^-1 O,
so it is fixed by an F_p-subspace of O/pO, whose echelon form is its
canonical basis in integer O-coordinates; power bases are formed only for
new orders and primes. Every order carries its integer structure
constants, computed once, and Round 2 multiplies through them: no product
of number-field elements is formed here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotIrreducible
from .fpalgebra import nilradical, quotient_mod_p
from .linalg import (
    VecQ,
    columns,
    fp_kernel,
    fp_rref,
    lattice_canonical,
    lattice_coords,
    mult_matrix,
    pval,
    q_identity,
    require_triangular,
)
from .numberfield import NFElem, NumberField
from .padic import is_prime


def _structure_constants(field: NumberField, basis: list[VecQ]) -> list[list[list[int]]]:
    """table[i][j] = the integer coordinates of b_i b_j in the basis, or
    ValueError where one is not an integer.

    Over a common denominator d, b_j = num[j] / d with num[j] integral, so
    b_i b_j = w / d^2 with w = num[i] num[j] mod f, integral because f is
    monic with integer coefficients; the coordinates c of the product solve
    sum_k c_k d num[k] = w, exactly in integers.
    """
    n = field.n
    d = math.lcm(*(x.denominator for v in basis for x in v))
    num = [[x.numerator * (d // x.denominator) for x in v] for v in basis]
    solve_basis = [[d * x for x in v] for v in num]
    table: list[list[list[int]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            try:
                table[i][j] = table[j][i] = lattice_coords(solve_basis, field._mul(num[i], num[j]))
            except ValueError:
                raise ValueError("basis is not closed under multiplication") from None
    return table


class Order:
    """Full-rank unital subring of L given by a canonical lattice basis.

    basis[j] is the power-basis coordinate vector of the j-th basis element.
    It must be lower triangular with nonzero diagonal, as lattice_canonical
    returns it; any other basis raises ValueError. The structure constants
    table[i][j][k], with b_i b_j = sum_k table[i][j][k] b_k, are computed
    once and must be integers; otherwise the basis spans no ring over Z and
    ValueError is raised. Canonical bases of orders always pass: their
    entries lie in Z[1/p] with p-power pivots, so the constants lie in
    Z[1/p] and in Z_(p), hence in Z.
    """

    def __init__(self, field: NumberField, basis: list[VecQ]):
        self.field = field
        self.basis = [[Fraction(x) for x in v] for v in basis]
        if len(self.basis) != field.n:
            raise ValueError("order basis must have full rank")
        require_triangular(self.basis)
        self.table = _structure_constants(field, self.basis)

    def element(self, coords) -> NFElem:
        out = [Fraction(0)] * self.field.n
        for c, b in zip(coords, self.basis):
            if c:
                out = [o + c * x if x else o for o, x in zip(out, b)]
        return self.field.element(out)

    def lattice_basis(self, gens: list[list[int]], p: int) -> list[VecQ]:
        """Canonical power basis of the lattice with O-coordinate basis gens."""
        return lattice_canonical([self.element(g).coords for g in gens], p)

    def coords(self, x: NFElem) -> VecQ:
        """Exact coordinates of x in the order basis (over Q)."""
        return lattice_coords(self.basis, x.coords)

    def coords_mod_p(self, x: NFElem, p: int) -> list[int]:
        """Image of an order element in O/pO, as F_p coordinates."""
        coords = self.coords(x)
        if any(c.denominator % p == 0 for c in coords):
            raise NotIrreducible("element expected in the order has p in a coordinate denominator")
        return [c.numerator * pow(c.denominator, -1, p) % p for c in coords]

    def mult_table_mod_p(self, p: int) -> list[list[list[int]]]:
        """Structure constants of O/pO over the order basis: the table mod p."""
        return [[[x % p for x in c] for c in row] for row in self.table]

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


def ideal_over(order: Order, vectors: list[list[int]], p: int) -> list[list[int]]:
    """The lattice between pO and O whose image in O/pO is spanned by the
    given F_p coordinate vectors, in integer O-coordinates: the echelon row
    with pivot k, or p e_k where no row has pivot k. They span pO (p e_k is
    p times row k less multiples of the p e_j at non-pivots j) and are the
    canonical basis: lower triangular, pivots 1 or p, zero in the other
    pivot rows and reduced into [0, p) elsewhere."""
    rows, pivots = fp_rref(vectors, p)
    by_pivot = dict(zip(pivots, rows))
    n = order.field.n
    return [by_pivot.get(k) or [p * (j == k) for j in range(n)] for k in range(n)]


def p_radical(order: Order, p: int) -> list[list[int]]:
    """Preimage in the order of the nilradical of O/pO, as ideal_over gives it."""
    return ideal_over(order, nilradical(quotient_mod_p(order, p)), p)


def ring_of_multipliers(order: Order, ideal: list[list[int]], p: int) -> Order:
    """The order {x in L : x I <= I} for an ideal I containing pO, given in
    integer O-coordinates as ideal_over gives it: a basis that is not lower
    triangular with nonzero diagonal, or not of ints, raises ValueError.

    Computed via pO' = {w in O : w I <= p I}: each generator g of I gives an
    F_p-linear map O/pO -> I/pI, and the intersection of their kernels is
    pO'/pO, zero exactly when O' = O. Each b_j g is a contraction with the
    table, solved in I in integers: a remainder means I is no ideal.
    """
    if len(ideal) != order.field.n or any(type(x) is not int for g in ideal for x in g):
        raise ValueError("ideal generators must be n integer O-coordinate vectors")
    require_triangular(ideal)
    rows_stacked: list[list[int]] = []
    for g in ideal:
        cols = []
        for prod in zip(*mult_matrix(order.table, g)):
            try:
                cols.append([x % p for x in lattice_coords(ideal, prod)])
            except ValueError:
                raise NotIrreducible("ideal is not multiplicatively closed") from None
        rows_stacked += columns(cols)
    kern = fp_kernel(rows_stacked, p)
    if not kern:  # pO' = pO: O is its own ring of multipliers
        return order
    # O' = p^-1 ideal_over(kern), and canonical bases scale with powers of p
    bigger = order.lattice_basis(ideal_over(order, kern, p), p)
    return Order(order.field, [[x / p for x in b] for b in bigger])


def p_maximal_order(field: NumberField, p: int) -> Order:
    """Round 2: enlarge through multiplier rings of the p-radical until stable."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
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
