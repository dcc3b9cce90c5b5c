"""Extended values: elements of Q together with +infinity.

Valuations take values in the divisible closure of the base value group Z,
so every finite value is an exact rational; infinity is a distinct variant,
never a sentinel number.
"""

from __future__ import annotations

from fractions import Fraction


class Val:
    """A value in Q or +inf, totally ordered, with valuation arithmetic."""

    __slots__ = ("_q",)

    def __init__(self, q: Fraction | int | None):
        self._q = None if q is None else Fraction(q)

    def __add__(self, other) -> "Val":
        other = _coerce(other)
        if self._q is None or other._q is None:
            return INFINITY
        return Val(self._q + other._q)

    __radd__ = __add__

    def __mul__(self, k: int) -> "Val":
        """Scale by an integer; k*inf = inf (k > 0 in all uses here)."""
        if not isinstance(k, int):
            return NotImplemented
        if self._q is None:
            return INFINITY
        return Val(self._q * k)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Val):
            return self._q == other._q
        if isinstance(other, (int, Fraction)):
            return self._q == Fraction(other)
        return NotImplemented

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if self._q is None:
            return False
        if other._q is None:
            return True
        return self._q < other._q

    def __le__(self, other) -> bool:
        other = _coerce(other)
        return self == other or self < other

    def __gt__(self, other) -> bool:
        return _coerce(other) < self

    def __ge__(self, other) -> bool:
        return _coerce(other) <= self

    def __hash__(self):
        return hash(self._q)

    def __repr__(self):
        return f"Val({str(self)!r})"

    def __str__(self):
        """Reduced "m/e" (plain "m" for integers), "inf" for infinity."""
        if self._q is None:
            return "inf"
        return str(self._q)


INFINITY = Val(None)


def _coerce(x) -> Val:
    if isinstance(x, Val):
        return x
    if isinstance(x, (int, Fraction)):
        return Val(x)
    raise TypeError(f"cannot compare Val with {type(x).__name__}")
