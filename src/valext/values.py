"""The value of 0: +infinity, the one value that is not a Fraction.

Every value group here is (1/e)Z inside Q, so a finite value is a
fractions.Fraction. INFINITY is equal only to itself, above every rational
(Fraction and int return NotImplemented when compared with it, so Python
takes its reflected operator), hashable, and prints "inf". It has no
arithmetic, and it is not a float.
"""

import functools
import numbers


@functools.total_ordering
class _Infinity:
    __hash__ = object.__hash__

    def __eq__(self, other) -> bool:
        return other is self

    def __lt__(self, other) -> bool:
        return False if other is self or isinstance(other, numbers.Rational) else NotImplemented

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()
