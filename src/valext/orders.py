"""Orders in a number field as Z_(p)-lattices, and Round-2 p-maximalization.

The p-maximal order localized at p models the relative integral closure of
Z_(p) in L. Only p-maximality is ever computed: integers coprime to p are
units throughout, so the discriminant never needs factoring. Order bases
are the lower-triangular ones of lattice_canonical, so coordinates come by
forward substitution; Round 2 is skipped where Dedekind's criterion, by
polynomial arithmetic mod p, finds Z[theta] p-maximal (by one gcd where f
mod p is squarefree), and only where it does not is the discriminant
formed; Round 2 then starts from the order the Newton polygon of f gives
where f = x^n mod p, and from Dedekind's first step elsewhere (see
p_maximal_order).

Every lattice of Round 2 lies between pO and O, or between O and p^-1 O,
so it is fixed by an F_p-subspace of O/pO, whose echelon form is its
canonical basis in integer O-coordinates; power bases are formed only for
new orders and primes, in integers over the order's one denominator, and
printed from them (ratio_str). Every order carries its integer structure
constants, computed once, in one block solve or, for Z[theta], none. Round
2 multiplies through them, and solves the product matrices of the ideal's
pivot-1 generators in the ideal, beside p Id, as one integer block per
step: no product of number-field elements is formed here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotIrreducible
from .fpalgebra import FpAlgebra, nilradical, quotient_mod_p
from .linalg import (
    columns,
    fp_identity,
    fp_kernel,
    fp_matvec,
    fp_rref,
    lattice_canonical,
    lattice_coords,
    lattice_solve,
    mult_matrix,
    pval,
    require_triangular,
)
from .numberfield import NFElem, NumberField, over_one_den
from .padic import is_prime


def _structure_constants(field: NumberField, num: list[list[int]], d: int) -> list[list[list[int]]]:
    """table[i][j] = the integer coordinates of b_i b_j in the basis
    b_j = num[j] / d, or ValueError where one is not an integer. For
    Z[theta] they are theta^(i+j) mod f, read off theta^0 .. theta^(2n-2).
    Otherwise b_i b_j = w / d^2 with w = num[i] num[j] mod f integral, as f
    is monic, and sum_k c_k d num[k] = w is one integer block solve for all i <= j.
    """
    n = field.n
    pows = [[int(i == k) for i in range(n)] for k in range(n)]
    if d == 1 and num == pows:
        for _ in range(n - 1):
            pows.append(field._reduce([0] + pows[-1]))
        return [[pows[i + j] for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    prods = columns([field._mul(num[i], num[j]) for i, j in pairs])
    try:
        coords = columns(lattice_solve([[d * x for x in v] for v in num], prods))
    except ValueError:
        raise ValueError("basis is not closed under multiplication") from None
    entry = dict(zip(pairs, coords))
    return [[entry[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


def ratio_str(x: int, den: int) -> str:
    """str(Fraction(x, den)) for den > 0, with no Fraction formed."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


class Order:
    """Full-rank unital subring of L given by a canonical lattice basis.

    The j-th basis element is num[j] / den, in integers with their common
    gcd divided out, so equal orders have equal (den, num). num must be
    lower triangular with nonzero diagonal, as lattice_canonical returns
    it; any other basis raises ValueError. The structure constants
    table[i][j][k], with b_i b_j = sum_k table[i][j][k] b_k, are computed
    once and must be integers; otherwise the basis spans no ring over Z and
    ValueError is raised. Canonical bases of orders always pass: their entries lie in
    Z[1/p] with p-power pivots, so the constants lie in Z[1/p] and in
    Z_(p), hence in Z.
    """

    def __init__(self, field: NumberField, num: list[list[int]], den: int):
        self.field = field
        if len(num) != field.n:
            raise ValueError("order basis must have full rank")
        require_triangular(num)
        g = math.gcd(den, *(x for v in num for x in v))
        self.den = den // g
        self.num = [[x // g for x in v] for v in num]
        self.table = _structure_constants(field, self.num, self.den)
        self.quotients: dict[int, FpAlgebra] = {}  # O/pO by p, as quotient_mod_p builds it
        self.reduced_at: set[int] = set()  # primes p with O/pO known to be reduced

    def element(self, coords) -> NFElem:
        """The element with these int or Fraction order coordinates."""
        c, d = over_one_den(coords)
        return NFElem(self.field, self._combo(c), self.den * d)

    def _combo(self, coords) -> list:
        """den times the element with these coordinates: sum_k coords[k] num[k]."""
        v = [0] * self.field.n
        for c, b in zip(coords, self.num):
            if c:
                v = [x + c * y for x, y in zip(v, b)]
        return v

    def lattice_nums(self, gens: list[list[int]], p: int) -> list[list[int]]:
        """den times the canonical power basis of the lattice with
        O-coordinate basis gens, reduced in integers. den must be a power of
        p, so that the lattice has Z[1/p] entries and p-power pivots exactly
        when den times it has p-power pivots."""
        if p ** pval(self.den, p) != self.den:
            raise ValueError(f"basis needs Z[1/{p}] entries and powers of {p} as pivots")
        return lattice_canonical([self._combo(g) for g in gens], p)

    def coords(self, x: NFElem) -> tuple[list[int], int]:
        """(c, D), D > 0, with c / D x's coordinates in the order basis in
        lowest terms, solved in integers (det num^-1 is integral): x lies in
        the order localized at p exactly when p does not divide D."""
        det = abs(math.prod(v[k] for k, v in enumerate(self.num)))
        c, d = lattice_coords(self.num, [det * self.den * t for t in x.num]), det * x.den
        g = math.gcd(d, *c)
        return [t // g for t in c], d // g

    def coords_mod_p(self, x: NFElem, p: int) -> list[int]:
        """Image of an order element in O/pO: c / D mod p; NotIrreducible if p | D."""
        c, d = self.coords(x)
        if d % p == 0:
            raise NotIrreducible("element expected in the order has p in a coordinate denominator")
        u = pow(d, -1, p)
        return [t * u % p for t in c]

    def mult_table_mod_p(self, p: int) -> list[list[list[int]]]:
        """Structure constants of O/pO over the order basis: the table mod p."""
        return [[[x % p for x in c] for c in row] for row in self.table]

    def __eq__(self, other):
        return (isinstance(other, Order) and self.field == other.field
                and (self.den, self.num) == (other.den, other.num))

    def __hash__(self):
        return hash((self.field, self.den, tuple(map(tuple, self.num))))

    def __repr__(self):
        return f"Order(n={self.field.n})"


def equation_order(field: NumberField) -> Order:
    """Z[theta] localized: the power basis itself."""
    return Order(field, fp_identity(field.n), 1)


def discriminant(field: NumberField) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) N(f'(theta)) = (-1)^(n(n-1)/2) Res(f, f')
    for monic f, with f'(theta) kept in integer coordinates for NFElem.norm."""
    n = field.n
    norm = NFElem(field, [i * c for i, c in enumerate(field._low + [1])][1:]).norm()
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

    Computed via pO' = {w in O : w I <= p I}, which lies in I since p is in
    I. For w in I the generators p e_k impose nothing (w p b_k is in pI), so
    pO'/pO is cut out of I/pO by the r generators g with pivot 1, the lifts
    of a basis of I/pO: K starts as their span, and each g takes
    K <- K meet ker(w -> w g mod pI), the kernel of an n x dim K map; K is
    zero exactly when O' = O. The matrices of b_j -> b_j g, one contraction
    with the table each, are solved in I as one integer block beside p Id:
    a remainder means pO or some O g leaves I, which together say O I <= I.
    """
    n = order.field.n
    if len(ideal) != n or any(type(x) is not int for g in ideal for x in g):
        raise ValueError("ideal generators must be n integer O-coordinate vectors")
    require_triangular(ideal)
    gens = [g for k, g in enumerate(ideal) if g[k] == 1]
    p_id = [[p * (i == j) for j in range(n)] for i in range(n)]
    block = [sum(rows, []) for rows in zip(p_id, *(mult_matrix(order.table, g) for g in gens))]
    try:
        coords = lattice_solve(ideal, block)
    except ValueError:
        raise NotIrreducible("ideal does not contain pO or is not multiplicatively closed") from None
    kern = [[x % p for x in g] for g in gens]
    for k in range(1, len(gens) + 1):
        if not kern:
            break
        prod = [row[k * n : (k + 1) * n] for row in coords]
        # n rows, never fewer, so fp_kernel of a zero map keeps all of K
        cut = fp_kernel(columns([fp_matvec(prod, w, p) for w in kern]), p)
        kern = [fp_matvec(columns(kern), c, p) for c in cut]
    if not kern:  # pO' = pO: O is its own ring of multipliers
        return order
    # O' = p^-1 ideal_over(kern), and canonical bases scale with powers of p
    bigger = order.lattice_nums(ideal_over(order, kern, p), p)
    return Order(order.field, bigger, order.den * p)


def _trim(a: list[int]) -> list[int]:
    """a with its trailing zeros dropped, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer polynomials, coefficient lists low first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q b + r over F_p and deg r < deg b, r trimmed, for
    polynomials with entries in [0, p) and b[-1] != 0."""
    r, inv = a[:], pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + len(b) - 1] * inv % p
        for i, x in enumerate(b):
            r[k + i] = (r[k + i] - c * x) % p
    return q, _trim(r[: len(b) - 1])


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over F_p of a and b, not both zero."""
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _fp_derivative(a: list[int], p: int) -> list[int]:
    """The derivative over F_p of a, trimmed."""
    return _trim([i * x % p for i, x in enumerate(a)][1:])


def _fp_radical(a: list[int], p: int) -> list[int]:
    """The product of the distinct monic irreducible factors of a monic a
    over F_p. Those of multiplicity prime to p divide u = a / gcd(a, a');
    stripped of them, w = gcd(a, a') keeps the others, to multiples of p,
    so w = b(x^p) = b(x)^p, as F_p is fixed by x -> x^p."""
    if len(a) == 1:
        return a
    d = _fp_derivative(a, p)
    if not d:
        return _fp_radical(a[::p], p)
    w = _fp_gcd(a, d, p)
    u = _fp_divmod(a, w, p)[0]
    while len(g := _fp_gcd(w, u, p)) > 1:
        w = _fp_divmod(w, g, p)[0]
    return [x % p for x in _poly_mul(u, _fp_radical(w, p))]


def _dedekind_defect(f: list[int], p: int) -> list[int]:
    """Z = gcd(F, g, h) mod p of Dedekind's criterion (Cohen, GTM 138,
    Thm 6.1.4) for monic f, low first: with g the radical of f mod p,
    h = f / g mod p, and g, h lifted, F = (f - g h) / p. Z[theta] is
    p-maximal exactly where Z = 1."""
    fbar = [x % p for x in f]
    g = _fp_radical(fbar, p)
    h = _fp_divmod(fbar, g, p)[0]
    big_f = _trim([(x - y) // p % p for x, y in zip(f, _poly_mul(g, h))])
    return _fp_gcd(_fp_gcd(big_f, g, p), h, p)


def _dedekind_step(field: NumberField, z: list[int], p: int) -> Order:
    """Round 2's first step from Z[theta], given Dedekind's Z, with no
    radical or multiplier ring formed: Z[theta] + U(theta)/p Z[theta] for
    U = f / Z mod p, which is p^-1 times the lattice over pZ[theta] spanned
    by U x^k, k < deg Z (Z[theta] itself where Z = 1)."""
    u = _fp_divmod([x % p for x in field._low + [1]], z, p)[0]
    shifts = [[0] * k + u + [0] * (len(z) - 2 - k) for k in range(len(z) - 1)]
    eq = equation_order(field)
    return Order(field, eq.lattice_nums(ideal_over(eq, shifts, p), p), p)


def p_maximal_order(field: NumberField, p: int) -> Order:
    """Round 2: enlarge through multiplier rings of the p-radical until stable.

    Where gcd(f mod p, f' mod p) = 1 over F_p, f mod p is squarefree, so
    v_p(disc f) = 0: Z[theta] is returned, and p recorded in
    Order.reduced_at, as O/pO = F_p[x]/(f mod p) is reduced
    (Dedekind-Kummer) and gets the empty nilradical when quotient_mod_p
    builds it. Otherwise Z[theta] is returned exactly where Dedekind's
    criterion finds it p-maximal (Z = 1), as where v_p(disc f) = 1 or
    f(x + c) is Eisenstein. Only past that is the n x n discriminant formed:
    it refuses a zero one and caps Round 2's steps. A non-squarefree f gets
    there: each factor mod p of a repeated factor of f divides F, g and h.
    Where f = x^n mod p, lambda = min over a_i != 0 of v_p(a_i)/(n - i),
    the least valuation of a root by the Newton polygon of f, gives
    v_p(r_mk) >= (m - k) lambda for the reduced powers
    theta^m = sum_k r_mk theta^k, m >= n, so the theta^k / p^floor(k lambda)
    span an order, and Round 2 starts from it; elsewhere from Dedekind's
    step. Every start lies in the unique p-maximal order, so the answer is
    the same from each.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n, f = field.n, field._low + [1]
    fbar = [x % p for x in f]
    # Kept ahead of Dedekind's criterion, which would also accept Z[theta]
    # here: one gcd costs less than _fp_radical, and says O/pO is reduced.
    if len(_fp_gcd(fbar, _fp_derivative(fbar, p), p)) == 1:
        order = equation_order(field)
        order.reduced_at.add(p)
        return order
    z = _dedekind_defect(f, p)
    if len(z) == 1:
        return equation_order(field)
    disc = discriminant(field)
    if disc == 0:
        raise NotIrreducible("zero discriminant: defining polynomial is not squarefree")
    if any(fbar[:n]):
        order = _dedekind_step(field, z, p)
    else:
        lam = min(Fraction(pval(x, p), n - i) for i, x in enumerate(f[:n]) if x)
        top = math.floor((n - 1) * lam)
        order = Order(field, [[p ** (top - math.floor(k * lam)) * (i == k) for i in range(n)]
                              for k in range(n)], p**top)
    for _ in range(pval(disc, p) // 2 + 2):
        rad = p_radical(order, p)
        bigger = ring_of_multipliers(order, rad, p)
        if bigger == order:
            return order
        order = bigger
    raise NotIrreducible("Round-2 iteration exceeded the discriminant bound")
