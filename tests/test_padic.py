import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from valext import INFINITY, is_prime
from valext.linalg import pval
from valext.padic import PRIME_BOUND


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(-7)


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael number
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        2**61 - 1,  # Mersenne prime
        318665857834031151167461,  # strong pseudoprime to every prime base up to 37
        PRIME_BOUND - 2,
    ],
)
def test_is_prime_on_pseudoprimes(n):
    assert is_prime(n) == sympy.isprime(n)


_ints = st.one_of(
    st.integers(-10, 10**5),
    st.integers(0, PRIME_BOUND - 1),
    st.integers(2, 10**24).map(sympy.nextprime),
    st.tuples(st.integers(2, 10**12), st.integers(2, 10**12)).map(
        lambda ab: sympy.nextprime(ab[0]) * sympy.nextprime(ab[1])
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ints)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_refuses_beyond_bound():
    with pytest.raises(ValueError):
        is_prime(PRIME_BOUND)


def test_value_examples():
    with pytest.raises(ValueError):
        pval(0, 2)
    assert pval(1, 2) == 0
    assert pval(Fraction(3, 10), 2) == -1
    assert pval(Fraction(50), 5) == 2
    assert pval(Fraction(1, 25), 5) == -2


def test_value_axioms_randomized():
    """pval, with pval(0) = inf, is a valuation on Q."""

    def vp(q, p):
        return INFINITY if q == 0 else pval(q, p)

    rng = random.Random(0)
    for p in (2, 5, 13):
        for _ in range(100):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            y = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            if x * y == 0:
                assert vp(x * y, p) is INFINITY
            else:
                assert vp(x * y, p) == vp(x, p) + vp(y, p)
            assert vp(x + y, p) >= min(vp(x, p), vp(y, p))
