"""Pinned instances and the seeded op generators of the three workloads.

Every expected answer here was computed once, outside the benchmark, with
sympy (prime_decomp, round_two, resultant); test_perfbench.py recomputes
them with sympy. Nothing in this file calls valext, and nothing here is
recomputed while ops are timed.

Expectations are stated so that they survive legitimate refactors: the
extensions are compared as a multiset of (e, f), never by index, and
residues are judged by whether they vanish, never by their coordinates in
a particular residue-field basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

@dataclass(frozen=True)
class Instance:
    poly: str
    p: int
    ef: tuple[tuple[int, int], ...]  # sorted multiset of (e_i, f_i)
    index_val: int | None = None  # v_p([O_max : Z[x]]), pinned where `order` runs
    # Elements of Z[x] as integer coefficients low to high, with v_p(N(u)).
    pool: tuple[tuple[tuple[int, ...], int], ...] = ()

    @property
    def n(self) -> int:
        return sum(e * f for e, f in self.ef)


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must satisfy."""

    argv: tuple[str, ...]
    inst: Instance
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def command(self) -> str:
        return self.argv[0]


def _inst(poly, p, ef, index_val=None, pool=()):
    return Instance(poly, p, tuple(sorted(ef)), index_val, tuple((tuple(u), v) for u, v in pool))


# Every f_i <= 2 and p <= 31, n from 2 to 12: Round-2 and Q-side linear
# algebra dominate, the splitting search is trivial and values never run.
DECOMPOSE = (
    # split
    _inst("x^2+1", 5, [(1, 1), (1, 1)], 0),
    _inst("x^2-2", 7, [(1, 1), (1, 1)], 0),
    _inst("x^3-2", 31, [(1, 1), (1, 1), (1, 1)], 0),
    _inst("x^4+1", 17, [(1, 1)] * 4, 0),
    # inert or residue degree 2
    _inst("x^2+1", 3, [(1, 2)], 0),
    _inst("x^4+1", 3, [(1, 2), (1, 2)], 0),
    _inst("x^6+x^3+1", 17, [(1, 2)] * 3, 0),
    # tame totally ramified
    _inst("x^2-5", 5, [(2, 1)], 0),
    _inst("x^3-5", 5, [(3, 1)], 0),
    _inst("x^4-7", 7, [(4, 1)], 0),
    _inst("x^6-13", 13, [(6, 1)], 0),
    # wild totally ramified
    _inst("x^2+1", 2, [(2, 1)], 0),
    _inst("x^4-2", 2, [(4, 1)], 0),
    _inst("x^5-5", 5, [(5, 1)], 0),
    _inst("x^7-7", 7, [(7, 1)], 0),
    _inst("x^9-3", 3, [(9, 1)], 0),
    _inst("x^10-2", 2, [(10, 1)], 0),
    _inst("x^12-2", 2, [(12, 1)], 0),
    # mixed, and p dividing the index of Z[x]
    _inst("x^3-x-1", 23, [(1, 1), (2, 1)], 0),
    _inst("x^3+x^2-2x+8", 2, [(1, 1)] * 3, 1),
    # Round-2 heavy equation orders
    _inst("x^8+4096", 2, [(8, 1)], 42),
    _inst("x^6-2187", 3, [(6, 1)], 15),
    _inst("x^4-1536", 2, [(4, 1)], 12),
    _inst("x^12+x^6+4", 2, [(2, 1), (2, 2), (6, 1)], 4),
)

# Some f_i >= 3, or f_i = 2 with p >= 100: the equation orders are already
# p-maximal, so nearly all the time goes to the search in split_reduced.
SPLITTING = (
    _inst("x^3+x+1", 2, [(1, 3)]),
    _inst("x^4+x+1", 2, [(1, 4)]),
    _inst("x^3-x-1", 3, [(1, 3)]),
    _inst("x^3-3", 7, [(1, 3)]),
    _inst("x^3-2", 7, [(1, 3)]),
    _inst("x^3-2", 13, [(1, 3)]),
    _inst("x^3-2", 19, [(1, 3)]),
    _inst("x^4-x-1", 7, [(1, 1), (1, 3)]),
    _inst("x^4-x-1", 13, [(1, 1), (1, 3)]),
    _inst("x^5-2", 3, [(1, 1), (1, 4)]),
    _inst("x^5-2", 7, [(1, 1), (1, 4)]),
    _inst("x^5-x-1", 3, [(1, 5)]),
    _inst("x^5-x-1", 5, [(1, 5)]),
    _inst("x^6+x^3+1", 2, [(1, 6)]),
    _inst("x^6+x^3+1", 5, [(1, 6)]),
    _inst("x^6-x-1", 2, [(1, 6)]),
    _inst("x^7-x-1", 2, [(1, 7)]),
    _inst("x^8+1", 3, [(1, 4), (1, 4)]),
    _inst("x^8+x+3", 2, [(1, 2), (1, 6)]),
    _inst("x^10+x+1", 2, [(1, 3), (1, 7)]),
    _inst("x^4+x^3+x^2+x+1", 3, [(1, 4)]),
    _inst("x^6+x^5+x^4+x^3+x^2+x+1", 3, [(1, 6)]),
    _inst("x^2+1", 103, [(1, 2)]),
    _inst("x^2+2", 101, [(1, 2)]),
    _inst("x^2+1", 127, [(1, 2)]),
    _inst("x^2+1", 211, [(1, 2)]),
)

# Cheap to decompose (n <= 6, f_i <= 2) and every f_i equal, so residue
# targets do not depend on the order in which extensions are listed.
ARITH = (
    _inst("x^2+1", 2, [(2, 1)], pool=[
        ([1], 0), ([0, 1], 0), ([1, 1], 1), ([2, -1], 0), ([3], 0), ([-5, 2], 0),
        ([7, -3], 1), ([2, 1], 0), ([1, 2], 0), ([4], 4), ([-2, 1], 0)]),
    _inst("x^2+1", 5, [(1, 1), (1, 1)], pool=[
        ([1], 0), ([0, 1], 0), ([1, 1], 0), ([2, -1], 1), ([3], 0), ([-5, 2], 0),
        ([7, -3], 0), ([5, 1], 0), ([1, 5], 0), ([4], 0), ([-2, 1], 1)]),
    _inst("x^2+1", 7, [(1, 2)], pool=[
        ([1], 0), ([0, 1], 0), ([1, 1], 0), ([2, -1], 0), ([3], 0), ([-5, 2], 0),
        ([7, -3], 0), ([7, 1], 0), ([1, 7], 0), ([4], 0), ([-2, 1], 0)]),
    _inst("x^3-x-1", 23, [(1, 1), (2, 1)], pool=[
        ([1], 0), ([0, 1], 0), ([1, 1], 0), ([2, -1], 0), ([3, 0, 1], 0), ([-5, 2, 1], 1),
        ([7, -3], 1), ([1, 1, 1], 0), ([23, 1], 0), ([1, 23], 0), ([4, 0, -1], 0), ([-2, 1], 0)]),
    _inst("x^4+1", 2, [(4, 1)], pool=[
        ([1], 0), ([0, 1], 0), ([1, 1], 1), ([2, -1], 0), ([3, 0, 1], 2), ([-5, 2, 1], 2),
        ([7, -3, 0, 1], 0), ([1, 1, 1, 1], 3), ([2, 1], 0), ([1, 2], 0), ([4, 0, -1], 0),
        ([-2, 1], 0)]),
    _inst("x^4+1", 3, [(1, 2), (1, 2)], pool=[
        ([1], 0), ([0, 1], 0), ([1, 1], 0), ([2, -1], 0), ([3, 0, 1], 0), ([-5, 2, 1], 0),
        ([7, -3, 0, 1], 0), ([1, 1, 1, 1], 0), ([3, 1], 0), ([1, 3], 0), ([4, 0, -1], 0),
        ([-2, 1], 0)]),
    _inst("x^4+1", 17, [(1, 1)] * 4, pool=[
        ([1], 0), ([0, 1], 0), ([1, 1], 0), ([2, -1], 1), ([3, 0, 1], 0), ([-5, 2, 1], 0),
        ([7, -3, 0, 1], 0), ([1, 1, 1, 1], 0), ([17, 1], 0), ([1, 17], 0), ([4, 0, -1], 2),
        ([-2, 1], 1)]),
    _inst("x^4-2", 2, [(4, 1)], pool=[
        ([1], 0), ([0, 1], 1), ([1, 1], 0), ([2, -1], 1), ([3, 0, 1], 0), ([-5, 2, 1], 0),
        ([7, -3, 0, 1], 0), ([1, 1, 1, 1], 0), ([2, 1], 1), ([1, 2], 0), ([4, 0, -1], 2),
        ([-2, 1], 1)]),
    _inst("x^5-5", 5, [(5, 1)], pool=[
        ([1], 0), ([0, 1], 1), ([1, 1], 0), ([2, -1], 0), ([3, 0, 1], 0), ([-5, 2, 1], 1),
        ([7, -3, 0, 1], 0), ([1, 1, 1, 1], 0), ([5, 1], 1), ([1, 5], 0), ([4, 0, -1, 0, 2], 0),
        ([-2, 1], 0)]),
)

INSTANCES = {"decompose": DECOMPOSE, "splitting": SPLITTING, "arith": ARITH}

# One arith pass runs, per instance, one value op at each p-part in VALUE_K,
# one residue op at each p-part in RESIDUE_K, one weak-approx, one approx at
# a gamma below 1 and one at a gamma in [1, GAMMA_MAX), approx at GAMMA_MAX at
# every extension index, and one verify. Heights cycle through HEIGHT_BITS.
# These strata are the same for every seed, so that seeds differ in their
# inputs but not much in their cost; the seed draws the pool elements, the
# digits, the extension indices, the targets and the verify seeds.
VALUE_K = (-2, -1, 0, 1, 2, 3)
RESIDUE_K = (0, 1)
HEIGHT_BITS = (4, 12, 24)  # bit size of numerator and denominator of the scalars
GAMMA_MAX = 2
VERIFY_TRIALS = 2


def _argv(command: str, inst: Instance, *extra: str) -> tuple[str, ...]:
    # Values that may start with '-' are passed as --flag=value: argparse
    # would read a separate "-3/4*a" as an option.
    return (command, "--prime", str(inst.p), "--poly", inst.poly, "--output", "json", *extra)


def format_element(coeffs) -> str:
    """Polynomial in `a` from rational coefficients, low to high."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if k == 0 else (
            ("" if mag == 1 else f"{mag}*") + ("a" if k == 1 else f"a^{k}")
        )
        terms.append(("-" if c < 0 else "+") + body)
    if not terms:
        return "0"
    out = "".join(terms)
    return out[1:] if out[0] == "+" else out


def _scalar(rng: random.Random, p: int, k: int, bits: int) -> Fraction:
    """± p^k * a/b with a, b coprime to p and below 2^bits."""

    def unit() -> int:
        while True:
            x = rng.randint(1, 1 << bits)
            if x % p:
                return x

    return rng.choice((1, -1)) * Fraction(p) ** k * Fraction(unit(), unit())


def _arith_ops(inst: Instance, rng: random.Random) -> list[Op]:
    ops = []
    n, p = inst.n, inst.p
    k_ext = len(inst.ef)
    f = inst.ef[0][1]
    g = gcd(*(e for e, _ in inst.ef))
    shift = rng.randrange(len(HEIGHT_BITS))
    pool = rng.sample(inst.pool, len(VALUE_K))
    for j, (k, (u, vnorm)) in enumerate(zip(VALUE_K, pool)):
        r = _scalar(rng, p, k, HEIGHT_BITS[(j + shift) % len(HEIGHT_BITS)])
        ops.append(Op(_argv("value", inst, f"--elem={format_element([r * c for c in u])}"),
                      inst, {"vnorm": n * k + vnorm}))
    units = rng.sample([u for u, v in inst.pool if v == 0], len(RESIDUE_K))
    for j, (k, u) in enumerate(zip(RESIDUE_K, units)):
        r = _scalar(rng, p, k, HEIGHT_BITS[(j + shift) % len(HEIGHT_BITS)])
        ops.append(Op(_argv("residue", inst, f"--elem={format_element([r * c for c in u])}",
                            "--extension", str(rng.randint(1, k_ext))),
                      inst, {"zero": k > 0}))
    targets = [[rng.randrange(p) for _ in range(f)] for _ in range(k_ext)]
    text = ";".join(",".join(map(str, t)) for t in targets)
    ops.append(Op(_argv("weak-approx", inst, "--targets", text), inst, {"targets": targets}))
    # gamma in (1/g)Z with g = gcd of the e_i lies in every value group, so
    # an op stays legal whatever extension its index names. Outputs grow
    # with gamma: the top of the range runs at every index in every pass,
    # so that output_bits_max does not depend on the seed.
    approx = [(rng.randint(1, k_ext), Fraction(rng.randint(-g, g - 1), g)),
              (rng.randint(1, k_ext), Fraction(rng.randint(g, GAMMA_MAX * g - 1), g))]
    approx += [(i, Fraction(GAMMA_MAX)) for i in range(1, k_ext + 1)]
    for i, gamma in approx:
        ops.append(Op(_argv("approx", inst, "--extension", str(i), "--gamma", str(gamma)),
                      inst, {"index": i, "gamma": gamma}))
    seed = rng.randrange(1 << 16)
    ops.append(Op(_argv("verify", inst, "--trials", str(VERIFY_TRIALS), "--seed", str(seed)), inst))
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    """One pass of a workload: the same seed gives the same ops in the same order.

    decompose and splitting run a fixed corpus, so the seed only fixes the
    order; arith draws its elements, targets, gammas and verify seeds from it.
    """
    if workload not in INSTANCES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    ops: list[Op] = []
    for inst in INSTANCES[workload]:
        if workload == "decompose":
            ops += [Op(_argv("extensions", inst), inst), Op(_argv("order", inst), inst)]
        elif workload == "splitting":
            ops.append(Op(_argv("extensions", inst), inst))
        else:
            ops += _arith_ops(inst, rng)
    rng.shuffle(ops)
    return ops
