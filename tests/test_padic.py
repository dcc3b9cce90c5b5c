import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from valext import INFINITY, PAdicValuation, Val, is_prime
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
    with pytest.raises(ValueError):
        PAdicValuation(PRIME_BOUND + 2)


def test_rejects_composite():
    with pytest.raises(ValueError):
        PAdicValuation(6)


def test_value_examples():
    v2 = PAdicValuation(2)
    assert v2.value(0) == INFINITY
    assert v2.value(1) == Val(0)
    assert v2.value(Fraction(3, 10)) == Val(-1)
    v5 = PAdicValuation(5)
    assert v5.value(Fraction(50)) == Val(2)
    assert v5.value(Fraction(1, 25)) == Val(-2)


def test_value_axioms_randomized():
    rng = random.Random(0)
    for p in (2, 5, 13):
        vp = PAdicValuation(p)
        for _ in range(100):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            y = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            assert vp.value(x * y) == vp.value(x) + vp.value(y)
            assert vp.value(x + y) >= min(vp.value(x), vp.value(y))

