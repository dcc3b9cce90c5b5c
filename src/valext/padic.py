"""The exact primality test that admits p as the prime of (Q, v_p)."""

from __future__ import annotations


# The least strong pseudoprime to every base in _MR_BASES (Sorenson and
# Webster, Math. Comp. 2017); below it Miller-Rabin on these bases is exact.
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND (about 3.3e24).

    Larger n are refused with ValueError rather than guessed.
    """
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is only decided below {PRIME_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor up to 41, so none at all
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

