"""Property tests of the extensions and their values against oracles that
share no code with the pipeline: Ore's theorem on Newton polygons, sympy's
prime decomposition and resultant, and the product formula
sum e_i f_i w_i(x) = v_p(N(x)). There is one route to w_i(x), the
anti-uniformizer count; value_by_count returns it alone, and value returns
it certified by one reverse-induction walk. Both are held to the oracles.

The strategy draws monic f of degree 2..5 with small integer coefficients,
irreducible over Q by sympy, and p in {2, 3, 5, 7}, so that ramified and
index-divisible cases both occur.

Ore's theorem decides (e_i, f_i) for every p-regular f, and sympy's
prime_decomp the rest. sympy 1.14 is not the first oracle because where p
divides the index [O_K : Z[theta]] it gives wrong answers, raises, or does
not return (test_ore_settles_known_sympy_failures and ROADMAP item 2 list
cases). No draw is filtered out on either account.

Single values are checked one extension at a time at primes that do not
divide disc f: w_i(h(theta)) = v_p(Res(F_i, h)) / deg F_i, for F_i the
factor of f over Q_p that belongs to w_i, lifted from f mod p by Hensel's
lemma (ROADMAP item 18, stage 1).
"""

from fractions import Fraction
from math import gcd

import sympy
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_zz_hensel_lift
from sympy.polys.galoistools import gf_factor_sqf
from sympy.polys.numberfields.primes import prime_decomp

from valext import NumberField, extensions_of, value, value_by_count

from conftest import lattice_contains


T = sympy.Symbol("t")


def vp(r, p: int) -> int:
    """v_p of a nonzero rational, by sympy."""
    return sympy.multiplicity(p, sympy.Rational(r))


def lower_hull(points):
    """Lower convex hull of points sorted by abscissa, collinear points dropped."""
    hull = []
    for x, y in points:
        while len(hull) >= 2 and (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1]) <= (
            hull[-1][1] - hull[-2][1]
        ) * (x - hull[-2][0]):
            hull.pop()
        hull.append((x, y))
    return hull


def ore_ef(f, p: int):
    """Sorted (e_i, f_i) by Ore's theorem, or None where f is not p-regular
    in the cases handled here (Montes, "Newton polygons of higher order",
    order 1). For each irreducible factor phi of f mod p, of multiplicity m,
    the phi-adic digits f = sum a_i phi^i give the Newton polygon of the
    points (i, v_p(a_i)), i <= m. A side of slope -h/e and degree d adds
    one prime of ramification e per irreducible factor of its residual
    polynomial, of residue degree deg(phi) times that factor's degree;
    regularity asks that the residual polynomial be squarefree. A residual
    polynomial of degree d > 1 over phi of degree > 1 would have to be
    factored over F_(p^deg phi), which is not done: the answer is None."""
    big_f = sympy.Poly(f[::-1], T)
    out = []
    for phi_mod_p, m in sympy.Poly(f[::-1], T, modulus=p).factor_list()[1]:
        deg = phi_mod_p.degree()
        if m == 1:
            out.append((1, deg))
            continue
        phi = sympy.Poly(phi_mod_p.as_expr(), T)
        digits, rest = [], big_f
        for _ in range(m + 1):
            rest, digit = sympy.div(rest, phi)
            digits.append(digit)
        vals = [min(vp(c, p) for c in a.coeffs()) if not a.is_zero else None for a in digits]
        hull = lower_hull([(i, v) for i, v in enumerate(vals) if v is not None])
        for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
            d = gcd(i1 - i0, v0 - v1)
            e, h = (i1 - i0) // d, (v0 - v1) // d
            if d == 1:
                out.append((e, deg))
                continue
            if deg > 1:
                return None
            residual = [
                int(digits[i0 + j * e].as_expr()) // p ** (v0 - j * h) % p
                if vals[i0 + j * e] == v0 - j * h
                else 0
                for j in range(d + 1)
            ]
            factors = sympy.Poly(residual[::-1], T, modulus=p).factor_list()[1]
            if any(mult > 1 for _, mult in factors):
                return None
            out += [(e, g.degree()) for g, _ in factors]
    return sorted(out)


def test_ore_settles_known_sympy_failures():
    """Where sympy 1.14's prime_decomp fails. It is wrong on the first two
    (it gives [(1, 2), (2, 1)] and [(3, 2), (6, 1)]); its round_two raises
    ClosureFailure on the third; an assertion in its
    _prime_decomp_compute_kernel fails on the fourth; and it had not
    returned after 30 s on the fifth."""
    cases = [
        ([9, 5, 2, -9, 1], 2, [(1, 1), (1, 1), (1, 2)]),
        ([9] + [0] * 5 + [1] + [0] * 5 + [1], 3, [(1, 2), (2, 2), (3, 2)]),
        ([6, -3, 1, 2, 9, 1], 2, [(1, 1), (1, 1), (1, 1), (1, 2)]),
        ([-162] + [0] * 11 + [1], 3, [(3, 2), (3, 2)]),
        ([8, -2, 0, 0, 1], 2, [(1, 1), (3, 1)]),
    ]
    for f, p, ef in cases:
        assert ore_ef(f, p) == ef
        assert sorted((w.e, w.f) for w in extensions_of(NumberField(f), p)) == ef


@st.composite
def instances(draw):
    """(f, p, coords, k, q): the field, the prime, a nonzero element's
    coordinates with p in some denominators, and a scalar p^k * q."""
    n = draw(st.integers(2, 5))
    f = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) + [1]
    assume(sympy.Poly(f[::-1], T).is_irreducible)
    p = draw(st.sampled_from([2, 3, 5, 7]))
    coords = draw(
        st.lists(
            st.builds(
                lambda a, b, j: Fraction(a, b) * Fraction(p) ** j,
                st.integers(-20, 20),
                st.integers(1, 20),
                st.integers(-2, 2),
            ),
            min_size=n,
            max_size=n,
        )
    )
    assume(any(coords))
    k = draw(st.integers(-3, 3))
    q = draw(st.fractions(max_denominator=50).filter(lambda r: r != 0))
    return f, p, coords, k, q


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(instances())
def test_extensions_and_values_against_oracles(case):
    """(e_i, f_i) as Ore's theorem gives them, or sympy's prime_decomp
    where f is not p-regular; the product formula with N(x) from sympy's
    resultant; and w(p^k q x) = k + v_p(q) + w(x). The count without the
    walk's certificate gives the same values and meets the same two
    formulas on its own."""
    f, p, coords, k, q = case
    exts = extensions_of(NumberField(f), p)
    expected = ore_ef(f, p)
    if expected is None:
        event("not p-regular: sympy's prime_decomp decided")
        expected = sorted((P.e, P.f) for P in prime_decomp(p, sympy.Poly(f[::-1], T)))
    assert sorted((w.e, w.f) for w in exts) == expected

    x = exts[0].field.element(coords)
    norm = sympy.resultant(
        sympy.Poly(f[::-1], T, domain="QQ"), sympy.Poly(coords[::-1], T, domain="QQ")
    )
    vals = [value(w, x) for w in exts]
    assert sum((w.e * w.f * v for w, v in zip(exts, vals)), Fraction(0)) == vp(norm, p)

    y = x * (Fraction(p) ** k * q)
    shift = k + vp(q, p)
    assert [value(w, y) for w in exts] == [v + shift for v in vals]

    counts = [value_by_count(w, x) for w in exts]
    assert counts == vals
    assert sum((w.e * w.f * v for w, v in zip(exts, counts)), Fraction(0)) == vp(norm, p)
    assert [value_by_count(w, y) for w in exts] == [v + shift for v in counts]


K_LIFT = 30  # the local factors are known modulo p^K_LIFT


def local_factors(f, p: int) -> list[sympy.Poly]:
    """The monic factors of f over Z_p, modulo p^K_LIFT, for p not dividing
    disc f: the irreducible factors of f mod p, squarefree there, lifted by
    Hensel's lemma."""
    high = [ZZ(c) for c in f[::-1]]
    _, gs = gf_factor_sqf(high, p, ZZ)
    lifts = dup_zz_hensel_lift(ZZ(p), high, gs, K_LIFT, ZZ)
    return [sympy.Poly([int(c) for c in F], T) for F in lifts]


def irreducible(f) -> bool:
    _, factors = sympy.factor_list(sympy.Poly(f[::-1], T))
    return len(factors) == 1 and factors[0][1] == 1


@st.composite
def unramified_instances(draw):
    """(f, p, factors, hs): monic f of degree 2..8, irreducible over Q; the
    first prime p at or above a drawn start that does not divide disc f;
    f's local factors at p; and integer polynomials h = c g^m + p^j r, for
    g one of those factors taken mod p, so that positive values occur at
    every extension."""
    n = draw(st.integers(2, 8))
    coeffs = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    f = draw(coeffs.map(lambda c: c + [1]).filter(irreducible))
    disc = sympy.discriminant(sympy.Poly(f[::-1], T))
    p = sympy.nextprime(draw(st.integers(2, 40)) - 1)
    while disc % p == 0:
        p = sympy.nextprime(p)
    factors = local_factors(f, p)
    hs = []
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.sampled_from(factors)).trunc(p)
        c = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        m, j = draw(st.integers(0, 2)), draw(st.integers(0, 3))
        r = sympy.Poly(draw(st.lists(st.integers(-p, p), min_size=1, max_size=n)), T)
        hs.append(c * g**m + p**j * r)
    return f, p, factors, hs


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(unramified_instances())
def test_each_value_against_its_local_factor(case):
    """Each w_i is matched to the one local factor F_i with g_i(theta) in
    P_i, for g_i = F_i mod p, by lattice membership and not by value, and
    the match is a bijection; w_i is unramified with f_i = deg F_i. For each
    h with h(theta) != 0, w_i(h(theta)) = v_p(Res(F_i, h)) / deg F_i wherever
    v_p(Res) < K_LIFT, where the lift makes the resultant exact enough."""
    f, p, factors, hs = case
    exts = extensions_of(NumberField(f), p)
    field = exts[0].field

    def at_theta(h):
        return field.from_poly([int(c) for c in h.all_coeffs()[::-1]])

    match = {}
    for w in exts:
        owners = [
            F for F in factors
            if lattice_contains(w.prime_basis, at_theta(F.trunc(p)).coords, p)
        ]
        assert len(owners) == 1, f"w_{w.index} lies over {len(owners)} factors"
        match[w.index] = owners[0]
        assert (w.e, w.f) == (1, owners[0].degree())
    assert len(set(match.values())) == len(factors) == len(exts)

    for h in hs:
        x = at_theta(h)
        if x == field.zero():  # f divides h: value inf at every w_i
            continue
        for w in exts:
            res = sympy.resultant(match[w.index], h)
            v = vp(res, p) if res else K_LIFT
            if v < K_LIFT:
                assert value(w, x) == Fraction(v, match[w.index].degree())
            else:
                event("v_p(Res) reaches the lift's precision: not checked")
