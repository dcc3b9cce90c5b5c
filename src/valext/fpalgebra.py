"""Finite-dimensional commutative unital algebras over F_p.

Houses the quotient A = O/pO of an order, kept on the order for each p,
its nilradical, kept on A, and the decomposition of A into local factors,
one per field of its reduction A/rad(A): split_reduced reduces A, splits
the reduction and lifts the split back to A. Where p does not divide
disc f, A = F_p[x]/(f mod p) is reduced (Dedekind-Kummer), and its
nilradical is recorded empty. The split takes one kernel, the Berlekamp
subalgebra ker(x -> x^p - x) = F_p^k (Berlekamp 1970), and splits each
factor that is not a field by a closed-form idempotent: a Berlekamp element
itself for p = 2, and for odd p one built from the Cantor-Zassenhaus power
(z + c)^((p-1)/2) (Cantor and Zassenhaus 1981), so splitting takes time
polynomial in the dimension and in log p; once the pieces number k, each
is a field. Frobenius x -> x^p is F_p-linear, and each algebra builds its
matrix once (FpAlgebra.frobenius): the nilradical and the Berlekamp kernel
read it, and the reduction is handed the induced matrix, since x^p maps
every ideal into itself. Components come in a canonical order, sorted by
their reduced projections. A component is only its idempotent and its
projection, a ring map onto its field; no field gets a table of its own, so
each order and p build one FpAlgebra and its reduction. Idempotents are
lifted through the nilradical, and on to O/p^K O, by one Newton iteration
over an integer structure table (lift_idempotent); an exact idempotent
costs one product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .events import emit
from .linalg import (
    MatFp,
    VecFp,
    columns,
    fp_identity,
    fp_kernel,
    fp_matmul,
    fp_rank,
    fp_rref,
    fp_solve,
    mult_matrix,
)


def table_mul(table: list[list[list[int]]], x: list[int], y: list[int], mod: int) -> list[int]:
    """x*y reduced into [0, mod), for coordinate vectors over a basis with
    integer structure constants table[i][j] (the coordinates of b_i b_j)."""
    d = len(x)
    out = [0] * d
    for i, a in enumerate(x):
        if a == 0:
            continue
        for j, b in enumerate(y):
            if b == 0:
                continue
            c = a * b % mod
            row = table[i][j]
            for k in range(d):
                if row[k]:
                    out[k] = (out[k] + c * row[k]) % mod
    return out


class FpAlgebra:
    """Commutative unital F_p-algebra given by structure constants.

    table[i][j] is the coordinate vector of b_i * b_j; unit is the
    coordinate vector of 1. Both are taken as given: p must be prime, every
    coordinate reduced into [0, p), and the table commutative, associative
    and unital, as the quotients below build it.
    """

    def __init__(self, p: int, table: list[list[VecFp]], unit: VecFp):
        self.p = p
        self.dim = len(table)
        self.table = table
        self.unit = unit
        self._frobenius: MatFp | None = None
        self._nilradical: list[VecFp] | None = None

    def zero(self) -> VecFp:
        return [0] * self.dim

    def basis_vector(self, i: int) -> VecFp:
        v = [0] * self.dim
        v[i] = 1
        return v

    def mul(self, x: VecFp, y: VecFp) -> VecFp:
        return table_mul(self.table, x, y, self.p)

    def pow(self, x: VecFp, e: int) -> VecFp:
        """x^e in bit_length(e) - 1 squarings and popcount(e) - 1 products."""
        if e == 0:
            return self.unit[:]
        result = x[:]
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, x)
        return result

    def frobenius(self) -> MatFp:
        """Matrix of x -> x^p, built on first use and kept. Frobenius is a
        ring map, so where the table gives b_k as a product b_i b_j of
        earlier basis elements, column k is one product of columns i and j;
        only the other columns take a pow, and a power basis takes one."""
        if self._frobenius is None:
            cols: list[VecFp] = []
            for k in range(self.dim):
                b = self.basis_vector(k)
                ij = next(((i, j) for j in range(k) for i in range(j + 1)
                           if self.table[i][j] == b), None)
                if b == self.unit:
                    cols.append(b)
                elif ij:
                    cols.append(self.mul(cols[ij[0]], cols[ij[1]]))
                else:
                    cols.append(self.pow(b, self.p))
            self._frobenius = columns(cols)
        return self._frobenius

    def mult_matrix(self, x: VecFp) -> MatFp:
        """Matrix of multiplication by x; column j is x * b_j."""
        return mult_matrix(self.table, x, self.p)

    def __repr__(self):
        return f"FpAlgebra(p={self.p}, dim={self.dim})"


@dataclass
class Component:
    """One field factor of an algebra's reduction, lifted to the algebra.

    idempotent is the factor's idempotent in the input algebra, and
    projection is the ring map from the input algebra onto the field, of
    degree dim, in coordinates where the field's unit is [1, 0, ...].
    """

    idempotent: VecFp
    projection: MatFp
    dim: int


@dataclass
class Decomposition:
    """An algebra's idempotents, one per field of its reduction, and whether it is reduced."""

    components: list[Component]
    reduced: bool


def quotient_mod_p(order, p: int) -> FpAlgebra:
    """A = O/pO with basis the images of the order basis, built once per
    order and p and kept (Order.quotients): Round 2's last step and
    extensions_of share it. The table is the multiplication table of an
    order basis, so it is commutative and associative by construction."""
    if p not in order.quotients:
        unit = order.coords_mod_p(order.field.one(), p)
        order.quotients[p] = FpAlgebra(p, order.mult_table_mod_p(p), unit)
    return order.quotients[p]


def nilradical(a: FpAlgebra) -> list[VecFp]:
    """A basis of the nilpotents, kept on a: the kernel of F^k, F the
    Frobenius matrix, for k >= m, where m >= 1 and p^m >= dim. That kernel
    is the same subspace for every such k, so F is squared until k reaches
    m; p_maximal_order records it empty where O/pO is reduced. The
    nilpotents of a commutative ring form an ideal, so neither Round 2 nor
    split_reduced checks this basis for closure or for the unit."""
    if a._nilradical is None:
        p = a.p
        power, q = a.frobenius(), p
        while q < a.dim:
            power, q = fp_matmul(power, power, p), q * q
        a._nilradical = fp_kernel(power, p)
    return a._nilradical


def _reduce(a: FpAlgebra) -> tuple[FpAlgebra, MatFp]:
    """a modulo its nilradical, and the projection onto it; a reduced a is
    its own reduction. The quotient's coordinates are the non-pivot
    positions of the nilradical's echelon basis, so the projection has an
    obvious section (fill pivots with zero), and the quotient's Frobenius
    matrix is the projection of a's at the free columns."""
    p = a.p
    rows, pivots = fp_rref(nilradical(a), p)
    if not rows:
        return a, fp_identity(a.dim)
    free = [c for c in range(a.dim) if c not in pivots]

    def qcoords(v: VecFp) -> VecFp:
        for row, pc in zip(rows, pivots):
            if f := v[pc]:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return [v[c] for c in free]

    reps = [a.basis_vector(c) for c in free]
    table = [[qcoords(a.mul(r1, r2)) for r2 in reps] for r1 in reps]
    proj = columns([qcoords(a.basis_vector(j)) for j in range(a.dim)])
    quotient = FpAlgebra(p, table, qcoords(a.unit))
    quotient._frobenius = columns([qcoords([row[c] for row in a.frobenius()]) for c in free])
    return quotient, proj


def split_reduced(a: FpAlgebra) -> Decomposition:
    """Split a's reduction a/rad(a) into fields, and lift the split to a.

    The Berlekamp subalgebra B = ker(F - I), F the Frobenius matrix of the
    reduction, is F_p^k, k the number of field factors, and for an
    idempotent e, e*B is that of the factor e*A. So e*A is a field exactly
    when every e*b, b in the kernel basis of B, is a multiple of e, and
    every piece is one once the pieces number k; otherwise the first
    z = e*b that is not a multiple splits e*A. For p = 2, z is
    itself an idempotent. For odd p, t = (z + c*e)^((p-1)/2) has
    coordinates 0 and +-1 in F_p^k, so (t^2 + t)/2 is an idempotent, and
    the first shift c that makes it neither 0 nor e is taken
    (Cantor-Zassenhaus). The shifts run through one sequence shared by all
    factors, since a factor that keeps its parent's z would fail again
    every shift that failed there. A non-scalar z has two coordinates that
    some shift puts on opposite sides, and p consecutive shifts cover F_p,
    so a split is always found; a p-th failure leaves an improper
    idempotent, which raises AssertionError. Components are sorted by their
    projection matrices from the reduction, so their order depends only on
    the algebra, not on which z and c the search took. Only then is each
    idempotent lifted to a, as lift_idempotent of its preimage, and each
    projection composed with the reduction, unless a is its own reduction;
    lifts that are not orthogonal or do not sum to 1 raise AssertionError.
    """
    red, reduction = _reduce(a)
    p = a.p
    berlekamp = fp_kernel([[(x - (i == j)) % p for j, x in enumerate(row)]
                           for i, row in enumerate(red.frobenius())], p)
    shifts = itertools.count()
    components: list[Component] = []
    pending = [red.unit[:]]
    while pending:
        e = pending.pop()
        k = next(i for i, x in enumerate(e) if x)
        scale = pow(e[k], -1, p)
        z = None if len(components) + len(pending) + 1 == len(berlekamp) else next(
            (z for b in berlekamp if (z := red.mul(e, b)) != [z[k] * scale * x % p for x in e]), None)
        if z is None:
            components.append(_make_component(red, e))
            continue
        idem = z
        if p > 2:
            for c in itertools.islice(shifts, p):
                t = red.pow([(x + c * u) % p for x, u in zip(z, e)], (p - 1) // 2)
                idem = [(s + x) * ((p + 1) // 2) % p for s, x in zip(red.mul(t, t), t)]
                if any(idem) and idem != e:
                    break
        if red.mul(idem, idem) != idem or not any(idem) or idem == e:
            raise AssertionError("constructed element is not a proper idempotent")
        emit(f"SPLIT{{z={z}, idempotent={idem}}}")
        pending += [[(u - x) % p for u, x in zip(e, idem)], idem]
    components.sort(key=lambda c: c.projection)
    if red is not a:
        components = [replace(c, projection=fp_matmul(c.projection, reduction, p),
                              idempotent=fp_solve(reduction, c.idempotent, p)) for c in components]
    lifted = [replace(c, idempotent=lift_idempotent(a.table, c.idempotent, p)) for c in components]
    total = a.zero()
    for i, c in enumerate(lifted):
        if any(any(a.mul(c.idempotent, d.idempotent)) for d in lifted[:i]):
            raise AssertionError("lifted idempotents are not orthogonal")
        total = [(s + x) % p for s, x in zip(total, c.idempotent)]
    if total != a.unit:
        raise AssertionError("lifted idempotents do not sum to 1")
    return Decomposition(lifted, red is a)


def _make_component(a: FpAlgebra, unit: VecFp) -> Component:
    # The factor unit*A has the echelon basis of the products unit*b_j.
    # Re-basis with the idempotent first, so component coordinates make the
    # unit [1, 0, ...] and one-dimensional residue fields read as canonical
    # F_p labels. Chosen-basis coordinates are the echelon ones E (v at the
    # pivots) times the inverse of the chosen basis's: that basis is the unit
    # and the echelon rows but the last row k where the unit's u_k != 0, so
    # row 0 of the product is s E[k], s = 1/u_k, and row j is E[j] - u_j s E[k].
    # The greedy rank loop must pick that same basis, or AssertionError.
    p = a.p
    products = columns(a.mult_matrix(unit))
    rows, pivots = fp_rref(products, p)
    d = len(pivots)
    chosen = [unit]
    for row in rows[:d]:
        if len(chosen) == d:
            break
        if fp_rank(chosen + [row], p) > len(chosen):
            chosen.append(row)
    u = [unit[pc] for pc in pivots]
    k = max(j for j, x in enumerate(u) if x)
    if chosen != [unit] + [row for j, row in enumerate(rows[:d]) if j != k]:
        raise AssertionError("the component basis is not the unit and the echelon rows but row k")
    s = pow(u[k], -1, p)
    ech = columns([[v[pc] for pc in pivots] for v in products])
    first = [s * x % p for x in ech[k]]
    projection = [first] + [[(x - u[j] * y) % p for x, y in zip(ech[j], first)]
                            for j in range(d) if j != k]
    return Component(unit[:], projection, d)


def lift_idempotent(table: list[list[list[int]]], x: list[int], mod: int) -> list[int]:
    """The idempotent modulo mod O over x, by Newton's x <- 3x^2 - 2x^3
    (Cohen, GTM 138, §3.5), for mod = p^K and x with x^2 - x in rad(pO).

    table holds integer structure constants of O: an order's, or those of
    O/pO when mod = p. Each step emits one LIFT line, and the lift returns
    after the first step that leaves x^2 = x; where x^2 = x already, that
    step is x itself, and takes no product. A step squares the ideal that
    x^2 - x lies in, and rad(pO)^(dim K) lies in p^K O, so 2^j >= dim K
    steps suffice; since K < bit length of mod, a lift that needs more
    raises AssertionError instead of looping. The same bound makes
    (x^2 - x)^(2^cap) vanish modulo mod for every x it holds for, so a lift
    that settles on an idempotent not over x, as x = 2 in Z[i] at 5 does,
    raises AssertionError too.
    """
    cap = (len(x) * mod.bit_length()).bit_length()
    sq = table_mul(table, x, x, mod)
    y = [(s - c) % mod for s, c in zip(sq, x)]
    for it in range(1, cap + 1):
        if sq != x:  # an exact idempotent is its own step: 3x^2 - 2x^3 = x
            x = [(3 * s - 2 * c) % mod for s, c in zip(sq, table_mul(table, sq, x, mod))]
            sq = table_mul(table, x, x, mod)
        emit(f"LIFT{{iteration={it}}}")
        if sq == x:
            for _ in range(cap if any(y) else 0):  # x^2 - x = 0 needs no squaring
                y = table_mul(table, y, y, mod)
            if any(y):
                raise AssertionError("x^2 - x is not nilpotent: the idempotent is not over x")
            return x
    raise AssertionError("no idempotent within the step cap: x^2 - x is not in rad(pO)")
