from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import sympy

from valext import (
    FpAlgebra,
    NumberField,
    Order,
    extensions_of,
    is_prime,
    p_maximal_order,
    value,
    value_by_count,
    weak_approx,
)
from valext.fpalgebra import _reduce
from valext.linalg import (
    columns,
    fp_identity,
    fp_kernel,
    fp_matvec,
    fp_rank,
    fp_rref,
    fp_solve,
    fp_vec,
    lattice_solve,
    mult_matrix,
)

# The instance corpus: defining polynomial (low-to-high coefficients) and p.
CORPUS = [
    ((1, 0, 1), 5),  # x^2+1, split
    ((1, 0, 1), 2),  # x^2+1, ramified
    ((1, 0, 1), 7),  # x^2+1, inert
    ((-1, -1, 0, 1), 23),  # x^3-x-1, partially ramified
    ((8, -2, 1, 1), 2),  # x^3+x^2-2x+8, index divisible by p
]

CORPUS_IDS = ["x2+1@5", "x2+1@2", "x2+1@7", "x3-x-1@23", "dedekind@2"]


@lru_cache(maxsize=None)
def field_for(coeffs: tuple) -> NumberField:
    return NumberField(list(coeffs))


@lru_cache(maxsize=None)
def order_for(coeffs: tuple, p: int):
    return p_maximal_order(field_for(coeffs), p)


@lru_cache(maxsize=None)
def extensions_for(coeffs: tuple, p: int):
    return extensions_of(field_for(coeffs), p)


def over_den(nums, den: int) -> list:
    """A lattice kept as integers over one denominator, as the Fractions it
    stands for."""
    return [[Fraction(x, den) for x in v] for v in nums]


def order_basis(order) -> list:
    """An order's basis b_j = num[j] / den, as Fractions."""
    return over_den(order.num, order.den)


def order_coords(order, x) -> list:
    """x's order coordinates as Fractions, from Order.coords's integers over
    one denominator."""
    c, d = order.coords(x)
    return [Fraction(t, d) for t in c]


def prime_basis(w) -> list:
    """w's prime lattice as Fractions: its integer basis over the order's den."""
    return over_den(w.prime_lattice, w.order.den)


def order_from_basis(field, basis):
    """Order from a basis of rationals: integer numerators over the lcm of
    the denominators."""
    den = math.lcm(*(Fraction(x).denominator for v in basis for x in v))
    return Order(field, [[int(Fraction(x) * den) for x in v] for v in basis], den)


def random_rational(rng, p: int, scale: int = 3) -> Fraction:
    """Rational with controlled p-part, for seeded property tests."""
    num = rng.randint(-(p**scale), p**scale)
    den = rng.randint(1, p**scale)
    return Fraction(num, den) * Fraction(p) ** rng.randint(-2, 2)


def random_element(rng, field: NumberField, p: int):
    """Nonzero field element with small mixed-denominator coordinates."""
    while True:
        coords = [random_rational(rng, p, scale=2) for _ in range(field.n)]
        if any(c != 0 for c in coords):
            return field.element(coords)


def random_order_element(rng, order, p: int):
    """Element of the order with coordinates in Z (hence in Z_(p))."""
    coords = [rng.randint(-p * 3, p * 3) for _ in range(order.field.n)]
    return order.element(coords)


def inverse(x):
    """x^-1 from the minimal polynomial c_0 + c_1 t + ... + t^d of a nonzero
    x: x^-1 = -(c_1 + c_2 x + ... + x^(d-1)) / c_0, by Horner."""
    mp = x.min_poly()
    assert mp[0] != 0, "nonzero zero divisor: the defining polynomial is reducible"
    acc = x.field.one()
    for c in reversed(mp[1:-1]):
        acc = acc * x + c
    return acc * (-1 / mp[0])


def power(x, k: int):
    """x^k for any integer k, through inverse for k < 0."""
    return inverse(x) ** -k if k < 0 else x**k


def paper_approx_element(exts, target: int, gamma: Fraction):
    """The approximation lemma's element as the paper constructs it, over Q
    and unreduced: with x0 = g^(e gamma) for a prime-basis element g of
    value 1/e, weak-approximation elements a (a unit wherever x0 may fall
    short of gamma) and b (zero at the target, a unit where x0 already
    reaches gamma), c = p^(2 d gamma) and d the denominator of gamma, it is
    c y^(1-2d) for y = x0 + b c (a x0)^(1-2d). Values come from the walk."""
    w1 = exts[target]
    fld = w1.field
    g = next(g for g in map(fld.element, prime_basis(w1)) if value(w1, g) == Fraction(1, w1.e))
    x0 = power(g, int(w1.e * gamma))
    unit = [[1] + [0] * (w.f - 1) for w in exts]
    zero = [[0] * w.f for w in exts]
    at_gamma = [w is not w1 and value(w, x0) >= gamma for w in exts]
    a = weak_approx(exts, [zero[i] if hit else unit[i] for i, hit in enumerate(at_gamma)])
    b = weak_approx(exts, [zero[i] if w is w1 else unit[i] for i, w in enumerate(exts)])
    d = gamma.denominator
    c = Fraction(w1.p) ** int(2 * d * gamma)
    y = x0 + b * c * power(a * x0, 1 - 2 * d)
    return power(y, 1 - 2 * d) * c


# -- membership, unit and index oracles the tests compare against -----------


def poly_rem(f, g) -> list:
    """Remainder of f on division by g, coefficient lists lowest degree
    first with g[-1] != 0, by schoolbook division; trailing zeros dropped."""
    f = [Fraction(c) for c in f]
    while True:
        while f and f[-1] == 0:
            f.pop()
        if len(f) < len(g):
            return f
        c, k = f[-1] / g[-1], len(f) - len(g)
        for i, gi in enumerate(g):
            f[k + i] -= c * gi


def reference_mul(f, g, h) -> list:
    """g(theta) h(theta) in Q[x]/(f) for Fraction coordinate vectors g, h of
    length n = deg f: the schoolbook product, reduced mod f by poly_rem and
    padded back to n coordinates."""
    prod = [Fraction(0)] * (len(g) + len(h) - 1)
    for i, a in enumerate(g):
        for j, b in enumerate(h):
            prod[i + j] += Fraction(a) * Fraction(b)
    rem = poly_rem(prod, f)
    return rem + [Fraction(0)] * (len(f) - 1 - len(rem))


def multiplier_kernel(order, ideal, p: int) -> list:
    """pO'/pO for O' the ring of multipliers of the ideal I, as a basis of
    F_p vectors in O-coordinates: the kernel of the stacked maps
    O/pO -> I/pI, w -> w g, over all n generators g of I, with each product
    matrix solved in I by itself. A reference for ring_of_multipliers, which
    cuts the kernel down inside I/pO by the pivot-1 generators alone."""
    stacked = [row for g in ideal for row in lattice_solve(ideal, mult_matrix(order.table, g))]
    return fp_kernel(stacked, p)


def count_with_kernel_beta(w, x):
    """w(x) by the anti-uniformizer count with beta read off a kernel, for
    any e: beta mod p spans the first kernel vector of the stacked maps
    y -> g*y, g in a basis of P/pO, in O/pO (the annihilator of P/pO), and
    beta = 1 when P = pO. The count runs on a copy of w holding that beta."""
    table, p = w.order.table, w.p
    twin = dataclasses.replace(w)
    if w.prime_kernel:
        stacked = [row for g in w.prime_kernel for row in mult_matrix(table, g)]
        vars(twin)["anti_uniformizer_matrix"] = mult_matrix(table, fp_kernel(stacked, p)[0])
    else:
        vars(twin)["anti_uniformizer_matrix"] = fp_identity(len(table))
    return value_by_count(twin, x)


def pval(x, p: int) -> int:
    """p-adic valuation of a nonzero rational, for the oracles below; they
    share no code with valext.linalg."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("pval of zero")
    v = 0
    for n, sign in ((x.numerator, 1), (x.denominator, -1)):
        while n % p == 0:
            n //= p
            v += sign
    return v


def rep_mod_ppow(x, p: int, k: int) -> Fraction:
    """Canonical representative of x modulo p^k Z_(p), for any rational x
    (Cohen, GTM 138, §2.4): zero when pval(x) >= k, otherwise p^v c with
    v = pval(x) and c the unit part x/p^v modulo p^(k-v), in [0, p^(k-v))."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    v = pval(x, p)
    if v >= k:
        return Fraction(0)
    u = x / Fraction(p) ** v
    mod = p ** (k - v)
    return Fraction(u.numerator * pow(u.denominator, -1, mod) % mod) * Fraction(p) ** v


def column_matrix(vectors) -> sympy.Matrix:
    """sympy matrix whose columns are the given rational vectors."""
    return sympy.Matrix([[sympy.Rational(x) for x in v] for v in vectors]).T


def lattice_contains(basis, v, p: int) -> bool:
    """Membership of v in the full-rank lattice spanned by basis over Z_(p),
    solving for the coordinates with sympy."""
    coords = column_matrix(basis).LUsolve(sympy.Matrix([sympy.Rational(x) for x in v]))
    return all(c == 0 or pval(Fraction(int(c.p), int(c.q)), p) >= 0 for c in coords)


def canonical_basis(gens, p: int) -> list:
    """Canonical basis of the Z_(p)-lattice spanned by arbitrary generators,
    by a general column echelon over Z_(p); ValueError when they do not
    span full rank. The library only ever normalizes triangular bases, so
    this elimination is the independent route to the same unique form.

    Pivot rows are processed top down, each pivot entry is normalized to an
    exact power of p (its unit part is divided out), and entries of earlier
    basis vectors at later pivot rows are reduced modulo the pivot power.
    """
    if not gens:
        raise ValueError("no generators")
    n = len(gens[0])
    cols = [[Fraction(x) for x in v] for v in gens if any(Fraction(x) != 0 for x in v)]
    basis = []  # (pivot row, pivot power, column)
    for i in range(n):
        cand = [c for c in cols if c[i] != 0]
        if not cand:
            continue
        piv = min(cand, key=lambda c: pval(c[i], p))
        cols.remove(piv)
        k = pval(piv[i], p)
        unit = piv[i] / Fraction(p) ** k
        piv = [x / unit for x in piv]
        pk = Fraction(p) ** k
        for c in cols:
            if c[i] != 0:
                f = c[i] / pk
                for r in range(n):
                    c[r] -= f * piv[r]
        basis.append((i, k, piv))
    if len(basis) < n:
        raise ValueError(f"generators span rank {len(basis)} < {n}")
    # Reduce entries at later pivot rows; later pivot columns vanish on
    # earlier pivot rows, so reductions in increasing row order are stable.
    for bi, (_, _, col) in enumerate(basis):
        for pj, kj, pivcol in basis[bi + 1 :]:
            rep = rep_mod_ppow(col[pj], p, kj)
            if col[pj] != rep:
                f = (col[pj] - rep) / (Fraction(p) ** kj)
                for r in range(len(col)):
                    col[r] -= f * pivcol[r]
    return [col for _, _, col in basis]


def scaled_to_integers(basis, p: int) -> list:
    """basis times the common denominator of its entries, which must be a
    power of p: the integer form in which lattice_canonical takes a lattice
    with Z[1/p] entries."""
    den = math.lcm(*(Fraction(x).denominator for v in basis for x in v))
    assert p ** pval(den, p) == den, f"denominator {den} is not a power of {p}"
    return [[int(x * den) for x in v] for v in basis]


def in_prime(w, x) -> bool:
    """Lattice membership of x in the prime P = ker(residue) of w's order."""
    return lattice_contains(prime_basis(w), x.coords, w.p)


def index_valuation(sub, sup, p: int) -> int:
    """v_p of the index [sup : sub] of two lattice bases via sympy's
    determinants."""
    ratio = column_matrix(sub).det() / column_matrix(sup).det()
    return pval(Fraction(int(ratio.p), int(ratio.q)), p)


def order_contains(order, x, p: int) -> bool:
    """Membership of x in the order localized at p."""
    return all(c == 0 or pval(c, p) >= 0 for c in order_coords(order, x))


def checked_algebra(p: int, table, unit) -> FpAlgebra:
    """FpAlgebra(p, table, unit) once its preconditions hold, ValueError
    otherwise: p prime (checked before any coordinate is reduced by it),
    integer coordinates reduced into [0, p) (an entry such as 1/2 is
    refused, not truncated), a nonzero cubical table with a unit of its
    length, and a commutative, unital and associative multiplication."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    table = [[fp_vec(v, p) for v in row] for row in table]
    unit = fp_vec(unit, p)
    d = len(table)
    if d == 0:
        raise ValueError("the zero algebra has no residue field")
    if any(len(row) != d or any(len(v) != d for v in row) for row in table):
        raise ValueError("structure constant table not cubical")
    if len(unit) != d:
        raise ValueError(f"unit has length {len(unit)}, expected {d}")
    if any(table[i][j] != table[j][i] for i in range(d) for j in range(i)):
        raise ValueError("multiplication not commutative")
    alg = FpAlgebra(p, table, unit)
    basis = fp_identity(d)
    if any(alg.mul(unit, b) != b for b in basis):
        raise ValueError("unit does not act as identity")
    for i, j, k in itertools.product(range(d), repeat=3):
        if alg.mul(table[i][j], basis[k]) != alg.mul(basis[i], table[j][k]):
            raise ValueError("multiplication not associative")
    return alg


def is_unit(alg, x) -> bool:
    """True iff multiplication by x is invertible in the F_p-algebra alg."""
    return fp_rank(alg.mult_matrix(x), alg.p) == alg.dim


def idempotents(dec) -> list:
    """The component idempotents of a Decomposition, in component order."""
    return [c.idempotent for c in dec.components]


def residue_field(component, algebra) -> FpAlgebra:
    """The field of a split_reduced component of algebra, in the
    coordinates of its projection pi, built from pi alone: pi is a ring map
    onto the field, so with y_i = fp_solve(pi, e_i) a preimage of each basis
    vector, the table is table[i][j] = pi(y_i y_j) and the unit is pi(1)."""
    p, proj = algebra.p, component.projection
    pre = [fp_solve(proj, e, p) for e in fp_identity(component.dim)]
    table = [[fp_matvec(proj, algebra.mul(y, z), p) for z in pre] for y in pre]
    return FpAlgebra(p, table, fp_matvec(proj, algebra.unit, p))


def component_by_solve(alg, idempotent) -> tuple:
    """(table, unit, projection) of the field component of a reduced algebra
    at a primitive idempotent e, with one fp_solve per vector: an oracle for
    split_reduced's components. The basis is the one split_reduced chooses:
    e, then each row of the echelon basis of e*A that raises the rank."""
    p = alg.p
    rows, pivots = fp_rref([list(c) for c in zip(*alg.mult_matrix(idempotent))], p)
    chosen = [idempotent]
    for row in rows[: len(pivots)]:
        if len(chosen) < len(pivots) and fp_rank(chosen + [row], p) > len(chosen):
            chosen.append(row)
    cols = columns(chosen)

    def coords(v):
        sol = fp_solve(cols, v, p)
        assert sol is not None, "vector not in the component"
        return sol

    table = [[coords(alg.mul(x, y)) for y in chosen] for x in chosen]
    proj = columns([coords(alg.mul(idempotent, alg.basis_vector(j))) for j in range(alg.dim)])
    return table, coords(idempotent), proj


def berlekamp_kernel(a) -> list:
    """A basis of ker(F - I), F the Frobenius matrix of a: F_p^k for a
    reduced a with k field factors."""
    p = a.p
    return fp_kernel([[(x - (i == j)) % p for j, x in enumerate(row)]
                      for i, row in enumerate(a.frobenius())], p)


def split_lines_testing_every_piece(a) -> list:
    """The SPLIT lines of split_reduced's search on a, with every piece
    field-tested by its products with the Berlekamp basis, none taken as a
    field because the pieces already number k: a reference for the
    counted split. Field tests take no shift, so the lines must agree."""
    red, _ = _reduce(a)
    p, berlekamp = a.p, berlekamp_kernel(red)
    shifts, lines, pending = itertools.count(), [], [red.unit[:]]
    while pending:
        e = pending.pop()
        k = next(i for i, x in enumerate(e) if x)
        scale = pow(e[k], -1, p)
        z = next((z for b in berlekamp
                  if (z := red.mul(e, b)) != [z[k] * scale * x % p for x in e]), None)
        if z is None:
            continue
        idem = z
        for c in itertools.islice(shifts, p) if p > 2 else ():
            t = red.pow([(x + c * u) % p for x, u in zip(z, e)], (p - 1) // 2)
            idem = [(s + x) * ((p + 1) // 2) % p for s, x in zip(red.mul(t, t), t)]
            if any(idem) and idem != e:
                break
        lines.append(f"SPLIT{{z={z}, idempotent={idem}}}")
        pending += [[(u - x) % p for u, x in zip(e, idem)], idem]
    return lines


def frobenius_lift(p: int, table, x) -> list:
    """x^(p^m), the least p^m >= dim, in the F_p-algebra with structure
    constants table, by its own product. Frobenius is a ring endomorphism
    that fixes idempotents and kills nilpotents, so for x^2 - x nilpotent
    this is the one idempotent over x: an oracle for Newton's lift in
    fpalgebra.lift_idempotent."""
    d = len(x)

    def mul(u, v):
        out = [0] * d
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    out[k] += u[i] * v[j] * table[i][j][k]
        return [c % p for c in out]

    q = 1
    while q < d:
        q *= p
    # x^q as x times x^(q-1), by binary powering
    result, base, e = x, x, q - 1
    while e:
        if e & 1:
            result = mul(result, base)
        base, e = mul(base, base), e >> 1
    return result
