"""The base valued field (Q, v_p): valuation, valuation ring, residue map.

Normalized so v_p(p) = 1, making the value group exactly Z and the residue
field F_p.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NegativeValue
from .linalg import pval
from .values import INFINITY, Val


def is_prime(n: int) -> bool:
    """Trial division; inputs here are desk scale."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PAdicValuation:
    """v_p on Q with valuation ring Z_(p) and residue field F_p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def value(self, q) -> Val:
        q = Fraction(q)
        if q == 0:
            return INFINITY
        return Val(pval(q, self.p))

    def residue(self, q) -> int:
        """Image of q in F_p = Z_(p)/pZ_(p); requires value(q) >= 0."""
        q = Fraction(q)
        if q != 0 and pval(q, self.p) < 0:
            raise NegativeValue(f"v_{self.p}({q}) < 0 has no residue")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def __repr__(self):
        return f"PAdicValuation({self.p})"

    def __eq__(self, other):
        return isinstance(other, PAdicValuation) and other.p == self.p

    def __hash__(self):
        return hash(("PAdicValuation", self.p))
