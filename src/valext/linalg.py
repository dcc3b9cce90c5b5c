"""Exact dense linear algebra over Z and F_p, and Z_(p)-lattice bases.

Matrices are lists of rows; vectors are flat lists. There are two
eliminations: a fraction-free echelon form over Z (int_echelon), which
gives determinants and minimal relations over Q once the rows are scaled
to integers, and a reduced echelon form over F_p (fp_rref) on ints reduced
into [0, p), which gives ranks, kernels and solutions modulo p. A lattice
basis with Z[1/p] entries is taken scaled to integers by its common
denominator, a power of p: lattice_canonical reduces it and lattice_solve
solves against it in integers. Sizes here are desk scale (the
dimension is the field degree), so plain Gaussian elimination is the right
tool.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

VecFp = list[int]
MatFp = list[list[int]]


def _int_pval(n: int, p: int) -> int:
    """v_p(n) for an int n != 0, in O(log v_p(n)) divisions: by p, p^2,
    p^4, ... while they divide, then by each of those, largest first, that
    still divides (the binary digits of what is left)."""
    v, q, k, done = 0, p, 1, []
    while n % q == 0:
        n //= q
        v += k
        done.append((q, k))
        q, k = q * q, 2 * k
    for q, k in reversed(done):
        if n % q == 0:
            n //= q
            v += k
    return v


def pval(x: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational, an int or a Fraction."""
    n, d = x.numerator, x.denominator
    if n == 0:
        raise ValueError("pval of zero")
    # the guards only skip the call where p does not divide
    return (n % p == 0 and _int_pval(n, p)) - (d % p == 0 and _int_pval(d, p))


def columns(vectors: list[list]) -> list[list]:
    """The matrix whose j-th column is vectors[j]."""
    return [list(row) for row in zip(*vectors)]


def mult_matrix(table: list[list[list[int]]], v: list[int], p: int | None = None) -> list[list[int]]:
    """Matrix of y -> v*y over a basis with integer structure constants
    table[i][j] (the coordinates of b_i b_j): column j is
    v*b_j = sum_i v_i table[i][j], reduced into [0, p) when p is given."""
    cols = []
    for j in range(len(v)):
        col = [0] * len(v)
        for vi, row in zip(v, table):
            if vi:
                col = [c + vi * t for c, t in zip(col, row[j])]
        cols.append(col if p is None else [c % p for c in col])
    return columns(cols)


def int_echelon(rows):
    """Fraction-free row echelon form (Bareiss 1968) of integer rows taken
    one at a time. Row r is reduced against each earlier pivot row P_j, with
    pivot column c_j and pivot d_j = P_j[c_j], by
    r <- (d_j r - r[c_j] P_j) / d_(j-1), d_(-1) = 1; every entry formed is a
    minor of the input, so each division is exact. Yields each reduced row
    and its pivot column, its first nonzero one, or None for a row dependent
    on those before it, which reduces to zero and becomes no pivot row."""
    pivots: list[tuple[int, list[int]]] = []
    for r in rows:
        prev = 1
        for c, top in pivots:
            x, d = r[c], top[c]
            r = [(d * a - x * b) // prev for a, b in zip(r, top)]
            prev = d
        col = next((c for c, a in enumerate(r) if a), None)
        if col is not None:
            pivots.append((col, r))
        yield r, col


def int_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the last pivot of its
    fraction-free echelon form, the determinant of m with its columns in
    pivot order, signed by that order; 0 at the first dependent row."""
    cols, last = [], 1
    for row, c in int_echelon(m):
        if c is None:
            return 0
        cols.append(c)
        last = row[c]
    return (-1) ** sum(a > b for i, a in enumerate(cols) for b in cols[i + 1 :]) * last


# ---------------------------------------------------------------------------
# Matrices over F_p, with one elimination core, fp_rref: entries are ints
# reduced into [0, p).


def fp_rref(m: MatFp, p: int) -> tuple[MatFp, list[int]]:
    """Reduced row echelon form over F_p and the pivot column indices."""
    m = [[x % p for x in row] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        pivot = m[r]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], pivot)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def fp_rank(m: MatFp, p: int) -> int:
    return len(fp_rref(m, p)[1])


def fp_kernel(m: MatFp, p: int) -> list[VecFp]:
    """Basis of {v : m v = 0} over F_p, one vector per free column."""
    cols = len(m[0]) if m else 0
    rref, pivots = fp_rref(m, p)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc] % p
        basis.append(v)
    return basis


def fp_solve(a: MatFp, b: VecFp, p: int) -> VecFp | None:
    """One solution of a x = b, or None when inconsistent.

    Free variables, if any, are set to zero.
    """
    cols = len(a[0]) if a else 0
    rref, pivots = fp_rref([row + [y] for row, y in zip(a, b)], p)
    if cols in pivots:
        return None
    x = [0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][cols]
    return x


def fp_vec(v, p: int) -> VecFp:
    """Integer entries (an int, or a Fraction with denominator 1) reduced
    into [0, p). An entry that int() would change, such as 1/2, raises
    ValueError: it is refused, not truncated."""
    ints = [int(x) for x in v]
    if ints != [*v]:
        raise ValueError("F_p coordinates must be integers")
    return [x % p for x in ints]


def fp_identity(n: int) -> MatFp:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def fp_matvec(m: MatFp, v: VecFp, p: int) -> VecFp:
    return [sum(map(mul, row, v)) % p for row in m]


def fp_matmul(a: MatFp, b: MatFp, p: int) -> MatFp:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in a]


# ---------------------------------------------------------------------------
# Z_(p)-lattices: finitely generated submodules of Q^n over the localization
# of Z at p. Integers coprime to p are units, so a full-rank lattice has a
# unique lower-triangular basis with p-power pivots and the entries of each
# row reduced modulo its pivot. Round 2 reads a triangular basis of each of
# its lattices off an F_p echelon form, with Z[1/p] entries and p-power
# pivots, so nothing is eliminated over Z_(p): scaled to integers by its
# common denominator, a power of p, the basis is reduced by floor division.


def _is_p_power(n: int, p: int) -> bool:
    """True iff the nonzero integer n is p^k for some k >= 0."""
    while n % p == 0:
        n //= p
    return n == 1


def lattice_canonical(basis: list[list[int]], p: int) -> list[list[int]]:
    """Canonical basis of the Z_(p)-lattice spanned by a lower-triangular
    basis (see require_triangular) with integer entries and pivots p^k,
    k >= 0; any other basis raises ValueError. A lattice with Z[1/p] entries
    is passed scaled by its common denominator, a power of p.

    The entries of each column below its pivot are reduced modulo the later
    pivots by floor division, in increasing row order, which is stable
    because a later column vanishes above its own pivot. The result, in
    ints, is unique for the lattice, and the map is idempotent.
    """
    require_triangular(basis)
    cols = [[int(x) for x in col] for col in basis]
    if cols != basis or not all(_is_p_power(col[k], p) for k, col in enumerate(cols)):
        raise ValueError(f"basis needs integer entries and powers of {p} as pivots")
    for bi, col in enumerate(cols):
        for j in range(bi + 1, len(cols)):
            f = col[j] // cols[j][j]
            if f:
                for r in range(j, len(col)):
                    col[r] -= f * cols[j][r]
    return cols


def require_triangular(basis: list[list[int]]) -> None:
    """ValueError unless basis[k] is zero above row k and nonzero at row k."""
    for k, col in enumerate(basis):
        if len(col) != len(basis) or not col[k] or any(col[:k]):
            raise ValueError("basis is not lower triangular with nonzero diagonal")


def lattice_solve(basis: list[list[int]], m: list[list[int]]) -> list[list[int]]:
    """The integer matrix C with m = B C, where column k of B is basis[k],
    for an integer basis of the shape lattice_canonical returns: forward
    substitution on whole rows, C[i] = (m[i] - sum_{k<i} B[i][k] C[k]) / B[i][i].
    An entry of C outside Z raises ValueError, so the same solve decides
    whether every column of m lies in the Z-span of the basis. The basis
    must already have passed require_triangular: it is not checked again
    here, since every caller solves many columns against one basis.
    Zero B[i][k] are skipped: most entries of a canonical basis are zero.
    """
    sol: list[list[int]] = []
    for row, coeffs in zip(m, columns(basis)):
        for c, prev in zip(coeffs, sol):
            if c:
                row = [x - c * y for x, y in zip(row, prev)]
        d = coeffs[len(sol)]
        if d != 1:
            if any(map(d.__rmod__, row)):
                raise ValueError(f"{d} does not divide every entry of {row}")
            row = list(map(d.__rfloordiv__, row))
        sol.append(row)
    return sol


def lattice_coords(basis: list[list[int]], v: list[int]) -> list[int]:
    """Coordinates c of v = sum_k c_k basis[k]: lattice_solve on one column."""
    return [c for c, in lattice_solve(basis, [[x] for x in v])]
