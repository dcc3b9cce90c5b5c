"""Exact dense linear algebra over Q, F_p and Z, and Z_(p)-lattice bases.

Matrices are lists of rows; vectors are flat lists. Everything over Q uses
fractions.Fraction, everything over F_p uses ints reduced into [0, p), and
integer determinants stay in ints. Sizes here are desk scale (the dimension
is the field degree), so plain Gaussian elimination is the right tool.
"""

from __future__ import annotations

from fractions import Fraction

VecQ = list[Fraction]
MatQ = list[list[Fraction]]
VecFp = list[int]
MatFp = list[list[int]]


def pval(x: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("pval of zero")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


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


def int_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination (Cohen, GTM 138, §2.2): every entry it leaves is a minor of
    m, so each division is exact and no rational is formed.
    A zero pivot is swapped with a lower row, which flips the sign."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            pr = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for i in range(k + 1, n):
            c = m[i][k]
            tail = zip(m[i][k + 1 :], top[k + 1 :])
            m[i] = [0] * (k + 1) + [(pivot * x - c * y) // prev for x, y in tail]
        prev = pivot
    return sign * m[-1][-1] if n else 1


# ---------------------------------------------------------------------------
# One elimination core for both fields: p is None for Q (Fraction entries),
# otherwise entries are ints reduced into [0, p).


def _rref(m: list[list], p: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    m = [row[:] for row in m] if p is None else [[x % p for x in row] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if p is None:
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
        else:
            inv = pow(m[r][c], -1, p)
            m[r] = [x * inv % p for x in m[r]]
        pivot = m[r]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                if p is None:
                    m[i] = [x - f * y for x, y in zip(m[i], pivot)]
                else:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], pivot)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _kernel(m: list[list], p: int | None = None) -> list[list]:
    """Basis of {v : m v = 0}, one vector per free column."""
    cols = len(m[0]) if m else 0
    rref, pivots = _rref(m, p)
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc] if p is None else -rref[r][fc] % p
        basis.append(v)
    return basis


def min_relation(powers: list[list], p: int | None = None) -> list:
    """Monic least relation c_0..c_k, sum c_i x^i = 0, among the coordinate
    vectors of x^0, ..., x^m: the kernel vector of the first free column k
    of one elimination, which has 1 at k and zero beyond. The columns before
    k are independent, so no relation of lower degree exists."""
    kernel = _kernel(columns(powers), p)
    if not kernel:
        raise AssertionError("no relation among the given powers")
    rel = kernel[0]
    while not rel[-1]:
        rel.pop()
    return rel


# ---------------------------------------------------------------------------
# Rational matrices


def q_identity(n: int) -> MatQ:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def q_rank(m: MatQ) -> int:
    return len(_rref(m)[1])


# ---------------------------------------------------------------------------
# Matrices over F_p


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
    return [sum(row[j] * v[j] for j in range(len(v))) % p for row in m]


def fp_matmul(a: MatFp, b: MatFp, p: int) -> MatFp:
    cols = len(b[0])
    inner = len(b)
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) % p for j in range(cols)]
        for i in range(len(a))
    ]


def fp_matpow(m: MatFp, e: int, p: int) -> MatFp:
    result = fp_identity(len(m))
    base = [row[:] for row in m]
    while e:
        if e & 1:
            result = fp_matmul(result, base, p)
        base = fp_matmul(base, base, p)
        e >>= 1
    return result


def fp_rref(m: MatFp, p: int) -> tuple[MatFp, list[int]]:
    return _rref(m, p)


def fp_rank(m: MatFp, p: int) -> int:
    # Through fp_rref, not the core, so a traced run times rank probes as fp_rref.
    return len(fp_rref(m, p)[1])


def fp_kernel(m: MatFp, p: int) -> list[VecFp]:
    return _kernel(m, p)


def fp_solve(a: MatFp, b: VecFp, p: int) -> VecFp | None:
    """One solution of a x = b, or None when inconsistent.

    Free variables, if any, are set to zero.
    """
    cols = len(a[0]) if a else 0
    rref, pivots = _rref([row + [y] for row, y in zip(a, b)], p)
    if cols in pivots:
        return None
    x = [0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][cols]
    return x


# ---------------------------------------------------------------------------
# Z_(p)-lattices: finitely generated submodules of Q^n over the localization
# of Z at p. Integers coprime to p are units, so a full-rank lattice has a
# unique lower-triangular basis with p-power pivots and the entries of each
# row reduced modulo its pivot. Round 2 reads a triangular basis of each of
# its lattices off an F_p echelon form, with Z[1/p] entries and p-power
# pivots, so nothing is eliminated over Z_(p) and the reduction is floor
# division.


def _is_p_power(n: int, p: int) -> bool:
    """True iff the nonzero integer n is p^k for some k >= 0."""
    while n % p == 0:
        n //= p
    return n == 1


def lattice_canonical(basis: list[VecQ], p: int) -> list[VecQ]:
    """Canonical basis of the Z_(p)-lattice spanned by a lower-triangular
    basis (see require_triangular) with Z[1/p] entries and pivots p^k,
    k in Z; any other basis raises ValueError.

    The entries of each column below its pivot are reduced modulo the later
    pivots by floor division, in increasing row order, which is stable
    because a later column vanishes above its own pivot. The result is
    unique for the lattice, and the map is idempotent.
    """
    require_triangular(basis)
    if not all(_is_p_power(x.denominator, p) for col in basis for x in col) or not all(
        _is_p_power(col[k].numerator, p) for k, col in enumerate(basis)
    ):
        raise ValueError(f"basis needs Z[1/{p}] entries and powers of {p} as pivots")
    cols = [col[:] for col in basis]
    for bi, col in enumerate(cols):
        for j in range(bi + 1, len(cols)):
            f = col[j] // cols[j][j]
            if f:
                for r in range(j, len(col)):
                    col[r] -= f * cols[j][r]
    return cols


def require_triangular(basis: list[VecQ]) -> None:
    """ValueError unless basis[k] is zero above row k and nonzero at row k."""
    for k, col in enumerate(basis):
        if len(col) != len(basis) or not col[k] or any(col[:k]):
            raise ValueError("basis is not lower triangular with nonzero diagonal")


def _exact_div(a, b):
    """a / b over Q; for two ints, their integer quotient, and ValueError
    when b does not divide a."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError(f"{b} does not divide {a}")
        return q
    return a / b


def lattice_coords(basis: list[VecQ], v: VecQ) -> VecQ:
    """Coordinates c of v = sum_k c_k basis[k] by forward substitution, for a
    basis of the shape lattice_canonical returns. The basis must already have
    passed require_triangular: it is not checked again here, since every
    caller solves many vectors against one basis.

    With Fraction entries the coordinates are rationals. With int entries
    throughout they are ints, and a coordinate outside Z raises ValueError,
    so the same solve decides membership in the Z-span of the basis.
    Zero terms are skipped: most entries of a canonical basis are zero, and
    every Fraction product costs a gcd.
    """
    coords: VecQ = []
    for i, row in enumerate(basis):
        x = v[i]
        for c, col in zip(coords, basis):
            if c and col[i]:
                x -= c * col[i]
        coords.append(_exact_div(x, row[i]) if x else x)
    return coords
