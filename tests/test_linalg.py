import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from valext.linalg import (
    fp_kernel,
    fp_matmul,
    fp_matvec,
    fp_rank,
    fp_rref,
    fp_solve,
    int_det,
    int_echelon,
    lattice_canonical,
    lattice_coords,
    pval,
    require_triangular,
)

from conftest import canonical_basis, lattice_contains, rep_mod_ppow, scaled_to_integers
from conftest import pval as plain_pval


def q_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_pval():
    assert pval(Fraction(8), 2) == 3
    assert pval(Fraction(3, 10), 2) == -1
    assert pval(Fraction(9, 5), 3) == 2
    with pytest.raises(ValueError):
        pval(Fraction(0), 2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 10**9 + 7]), st.integers(0, 300), st.integers(0, 300),
       st.integers(1, 10**6), st.integers(1, 10**6), st.booleans(), st.booleans())
@example(2, 0, 0, 3, 1, False, False)  # v = 0
@example(10**9 + 7, 300, 0, 1, 1, True, False)
@example(3, 0, 257, 1, 9, False, True)  # 3^-259
def test_pval_matches_the_plain_loop(p, a, b, u, w, negative, fraction):
    """pval, which divides by p, p^2, p^4, ... and back down, against one
    division by p at a time (conftest's pval), on the int -u p^a or u p^a,
    or that over w p^b as a Fraction; u and w may carry p too."""
    x = (-1 if negative else 1) * u * p**a
    if fraction:
        x = Fraction(x, w * p**b)
    v = pval(x, p)
    assert v == plain_pval(x, p) and type(v) is int


# -- F_p kernels ------------------------------------------------------------


def brute_kernel(m, p):
    cols = len(m[0])
    return [
        list(v)
        for v in itertools.product(range(p), repeat=cols)
        if all(x == 0 for x in fp_matvec(m, list(v), p))
    ]


def span_fp(basis, p, cols):
    if not basis:
        return {(0,) * cols}
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = [0] * cols
        for c, b in zip(coeffs, basis):
            for i in range(cols):
                v[i] = (v[i] + c * b[i]) % p
        out.add(tuple(v))
    return out


def test_kernel_identity_is_trivial():
    assert fp_kernel([[1, 0], [0, 1]], 2) == []


def test_kernel_zero_map_is_everything():
    basis = fp_kernel([[0, 0], [0, 0]], 2)
    assert span_fp(basis, 2, 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_kernel_all_ones_f2():
    m = [[1, 1], [1, 1]]
    basis = fp_kernel(m, 2)
    # oracle: exhaustive check of all 4 vectors
    assert span_fp(basis, 2, 2) == set(map(tuple, brute_kernel(m, 2)))
    assert len(basis) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_matches_brute_force(p):
    rng = random.Random(p)
    for _ in range(10):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        basis = fp_kernel(m, p)
        assert span_fp(basis, p, cols) == set(map(tuple, brute_kernel(m, p)))
        for v in basis:
            assert all(x == 0 for x in fp_matvec(m, v, p))
        assert fp_rank(basis, p) == len(basis)


# -- the elimination core over F_p --------------------------------------------


@st.composite
def linear_systems(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entry = st.integers(-6, 6)
    a = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    b = draw(st.lists(entry, min_size=rows, max_size=rows))
    return a, b


@pytest.mark.parametrize("p", [2, 3, 7])
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(system=linear_systems())
def test_elimination_core(p, system):
    a, b = system

    def dot(row, v):
        return sum(x * y for x, y in zip(row, v)) % p

    rank = len(fp_rref(a, p)[1])
    kernel = fp_kernel(a, p)
    assert rank + len(kernel) == len(a[0])
    for v in kernel:
        assert all(dot(row, v) == 0 for row in a)
    x = fp_solve(a, b, p)
    augmented_rank = len(fp_rref([row + [y] for row, y in zip(a, b)], p)[1])
    if x is None:
        assert rank < augmented_rank
    else:
        assert rank == augmented_rank
        assert [dot(row, x) for row in a] == [y % p for y in b]


# -- lattices over Z_(p) ------------------------------------------------------


def solve2(g1, g2, v):
    """Cramer 2x2 solve, independent of the library elimination."""
    det = g1[0] * g2[1] - g1[1] * g2[0]
    if det == 0:
        return None
    a = (v[0] * g2[1] - v[1] * g2[0]) / det
    b = (g1[0] * v[1] - g1[1] * v[0]) / det
    return a, b


def in_lattice2(gens, v, p):
    sol = solve2(gens[0], gens[1], v)
    if sol is None:
        return False
    return all(c == 0 or pval(c, p) >= 0 for c in sol)


def test_lattice_standard_basis_fixed():
    std = [[1, 0], [0, 1]]
    for p in (2, 3, 5):
        assert lattice_canonical(std, p) == std


def test_lattice_canonical_example_p2():
    gens = q_mat([[2, 0], [1, 1]])
    basis = canonical_basis(gens, 2)
    assert basis == q_mat([[1, 1], [0, 2]])
    assert lattice_canonical([[1, 1], [0, 2]], 2) == basis
    # oracle: same membership on a small grid, via independent 2x2 solves
    for x in range(-4, 5):
        for y in range(-4, 5):
            v = [Fraction(x), Fraction(y)]
            assert in_lattice2(gens, v, 2) == in_lattice2(basis, v, 2)


@pytest.mark.parametrize(
    "basis",
    [
        [[3, 0], [0, 1]],  # pivot 3 is a unit at 2, not a power of 2
        [[-2, 0], [0, 1]],  # negative pivot
        [[1, Fraction(1, 3)], [0, 1]],  # 1/3 lies in Z_(2) but not in Z[1/2]
        [[1, Fraction(1, 2)], [0, 1]],  # in Z[1/2]: passed scaled by 2, not as is
        [[Fraction(1, 2), 0], [0, 1]],  # pivot 2^-1
    ],
    ids=["unit-pivot", "negative-pivot", "entry-1/3", "entry-1/2", "pivot-1/2"],
)
def test_lattice_canonical_refuses_bases_outside_z_1_over_p(basis):
    """lattice_canonical normalizes only what Round 2 forms: a Z[1/p] basis
    with pivots p^k, scaled by its common denominator to integer entries and
    pivots p^k, k >= 0. Any other basis is refused, not normalized."""
    with pytest.raises(ValueError, match="integer entries and powers of 2"):
        lattice_canonical(basis, 2)


def test_lattice_canonical_idempotent():
    rng = random.Random(7)
    for p in (2, 5):
        for _ in range(10):
            gens = [
                [Fraction(rng.randint(-8, 8), rng.choice([1, 1, 3])) for _ in range(3)]
                for _ in range(4)
            ]
            try:
                basis = canonical_basis(gens, p)
            except ValueError:
                continue
            assert canonical_basis(basis, p) == basis
            scaled = scaled_to_integers(basis, p)
            assert lattice_canonical(scaled, p) == scaled


def test_lattice_rank_deficiency_detected():
    with pytest.raises(ValueError):
        canonical_basis(q_mat([[1, 1], [2, 2]]), 3)


@pytest.mark.parametrize(
    "basis",
    [
        [[2, 0], [1, 1]],  # full rank, but an entry above the diagonal
        [[0, 1], [1, 0]],  # full rank, zero pivot at row 0
        [[1, 1], [0, 0]],  # singular
        [[1, 0, 0], [0, 1, 0]],  # too few vectors
    ],
)
def test_lattice_canonical_refuses_non_triangular_basis(basis):
    with pytest.raises(ValueError, match="not lower triangular"):
        lattice_canonical(q_mat(basis), 2)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_lattice_canonical_of_triangular_basis_matches_general_elimination(data):
    """On a lower-triangular basis with pivots p^k, k in -2..3, and Z[1/p]
    entries below them, scaled to integers by its common denominator,
    lattice_canonical gives the canonical basis of the general Z_(p)
    elimination, leaves its input alone and fixes its output."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 5))
    entry = st.builds(lambda a, k: Fraction(a, p**k), st.integers(-p**3, p**3), st.integers(0, 2))
    basis = [
        [Fraction(0)] * k + [Fraction(p) ** data.draw(st.integers(-2, 3))]
        + data.draw(st.lists(entry, min_size=n - k - 1, max_size=n - k - 1))
        for k in range(n)
    ]
    basis = scaled_to_integers(basis, p)
    before = [col[:] for col in basis]
    canonical = lattice_canonical(basis, p)
    assert basis == before
    assert canonical == canonical_basis(basis, p)
    assert lattice_canonical(canonical, p) == canonical


def test_lattice_contains():
    basis = canonical_basis(q_mat([[2, 0], [1, 1]]), 2)
    assert lattice_contains(basis, q_mat([[2, 0]])[0], 2)
    assert lattice_contains(basis, q_mat([[3, 1]])[0], 2)
    assert not lattice_contains(basis, q_mat([[1, 0]])[0], 2)


def test_rep_mod_ppow():
    """The oracle's representative modulo p^k Z_(p), on any rational."""
    assert rep_mod_ppow(Fraction(7), 2, 1) == Fraction(1)
    assert rep_mod_ppow(Fraction(4), 2, 2) == Fraction(0)
    assert rep_mod_ppow(Fraction(1, 3), 5, 1) == Fraction(2)  # 1/3 = 2 mod 5
    assert rep_mod_ppow(Fraction(1, 2), 2, 0) == Fraction(1, 2)
    # difference from the representative is in p^k Z_(p)
    for x in [Fraction(17, 6), Fraction(-3, 4), Fraction(5, 7)]:
        for k in range(-2, 3):
            r = rep_mod_ppow(x, 2, k)
            if x != r:
                assert pval(x - r, 2) >= k


@st.composite
def lattices_with_coords(draw):
    """(p, basis, c): the canonical basis of a random full-rank Z_(p)-lattice
    in Q^n, n = 1..5, p in {2, 3, 5}, scaled to integers by its common
    denominator, and random integer coordinates c."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-p**3, max_value=p**3, max_denominator=p**2)
    vector = st.lists(entry, min_size=n, max_size=n)
    gens = draw(st.lists(vector, min_size=n, max_size=n + 2))
    try:
        basis = canonical_basis(gens, p)
    except ValueError:
        assume(False)
    coords = st.lists(st.integers(-(p**3), p**3), min_size=n, max_size=n)
    return p, scaled_to_integers(basis, p), draw(coords)


def test_lattice_coords_over_z_is_exact():
    """The solve stays in Z and refuses a coordinate outside it."""
    basis = [[2, 1], [0, 4]]  # 2 + theta, 4 theta
    assert lattice_coords(basis, [6, 7]) == [3, 1]
    assert all(type(c) is int for c in lattice_coords(basis, [6, 7]))
    with pytest.raises(ValueError):
        lattice_coords(basis, [6, 5])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lattices_with_coords(), st.data())
def test_lattice_coords_round_trip(instance, data):
    """lattice_coords inverts v = sum_k c_k basis[k] on canonical bases in
    integers, and require_triangular refuses a basis with an entry above the
    diagonal or a zero pivot, which lattice_coords leaves to its callers."""
    p, basis, c = instance
    n = len(basis)
    assert all(basis[k][k] == p ** pval(basis[k][k], p) for k in range(n))
    v = [sum(ck * b[i] for ck, b in zip(c, basis)) for i in range(n)]
    assert lattice_coords(basis, v) == c
    k = data.draw(st.integers(0, n - 1))
    zero_pivot = [col[:] for col in basis]
    zero_pivot[k][k] = 0
    with pytest.raises(ValueError):
        require_triangular(zero_pivot)
    if n > 1:
        k = data.draw(st.integers(1, n - 1))
        above = [col[:] for col in basis]
        above[k][data.draw(st.integers(0, k - 1))] = data.draw(st.integers(1, 9))
        with pytest.raises(ValueError):
            require_triangular(above)


@st.composite
def int_square_matrices(draw):
    """A square integer matrix of size 0..6: as drawn, made singular by a
    last row that combines two others, or with a zero leading entry, which
    forces a row swap when the first column has another nonzero entry."""
    n = draw(st.integers(0, 6))
    row = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
    m = draw(st.lists(row, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["drawn", "singular", "zero lead"]))
    if n and kind == "singular":
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[min(1, n - 2)])] if n > 1 else [0]
    elif n and kind == "zero lead":
        m[0][0] = 0
    return m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(int_square_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])  # a zero pivot at the second step
@example([[0, 2], [0, 3]])
def test_int_det_matches_sympy(m):
    """int_det is sympy's determinant, an int, and leaves its input alone."""
    before = [row[:] for row in m]
    det = int_det(m)
    assert type(det) is int
    assert det == sympy.Matrix(len(m), len(m), [x for row in m for x in row]).det()
    assert m == before


@st.composite
def int_matrices(draw):
    """A rectangular integer matrix of 1..7 rows and 1..5 columns, so rows
    often outnumber columns, with some rows replaced by zero rows or by
    combinations of two earlier rows."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    m = draw(st.lists(st.lists(st.integers(-20, 20), min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    for i in range(rows):
        kind = draw(st.sampled_from(["drawn", "zero", "dependent"]))
        if kind == "zero":
            m[i] = [0] * cols
        elif kind == "dependent" and i >= 1:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(int_matrices())
@example([[0, 0], [0, 0], [0, 0]])
@example([[1, 2], [2, 4], [0, 1], [3, 7]])
def test_int_echelon_rank_matches_sympy(m):
    """The pivots of the fraction-free echelon form count sympy's rank; a
    row is dependent exactly when it adds nothing to the rank of the rows
    before it, and it then reduces to zero. Rows stay integers, and the
    input is left alone."""
    def rank(rows):
        return sympy.Matrix(len(rows), len(m[0]), [x for row in rows for x in row]).rank()

    before = [row[:] for row in m]
    out = list(int_echelon(m))
    assert m == before
    assert sum(c is not None for _, c in out) == rank(m)
    for i, (row, c) in enumerate(out):
        assert all(type(x) is int for x in row)
        assert (c is not None) == (rank(m[: i + 1]) > rank(m[:i]))
        if c is None:
            assert not any(row)
        else:
            assert row[c] and not any(row[:c])


def naive_matmul(a, b, p):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(cols)]
            for i in range(len(a))]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 5, 10**9 + 7]), st.integers(0, 6), st.integers(1, 6),
       st.integers(0, 6), st.data())
def test_fp_matmul_and_matvec_match_the_triple_loop(p, rows, inner, cols, data):
    """fp_matmul and fp_matvec equal the naive triple loop, on empty shapes
    and on 1 x n and n x 1 ones too."""
    entries = st.integers(0, p - 1)
    a = data.draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                           min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                           min_size=inner, max_size=inner))
    v = data.draw(st.lists(entries, min_size=inner, max_size=inner))
    assert fp_matmul(a, b, p) == naive_matmul(a, b, p)
    assert fp_matvec(a, v, p) == [row[0] for row in naive_matmul(a, [[x] for x in v], p)]


def test_fp_matmul_and_matvec_on_edge_shapes():
    assert fp_matmul([], [[1, 2]], 5) == [] and fp_matvec([], [1, 2], 5) == []
    assert fp_matmul([[1, 2, 3]], [[1], [2], [3]], 5) == [[4]]
    assert fp_matmul([[1], [2]], [[3, 4]], 5) == [[3, 4], [1, 3]]
    assert fp_matvec([[1, 2, 3]], [4, 5, 6], 7) == [32 % 7]
