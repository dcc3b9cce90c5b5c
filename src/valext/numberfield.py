"""Arithmetic in L = Q[x]/(f) for monic integer f, in the power basis.

An element is num / den: integer coordinates num over 1, theta, ...,
theta^(n-1) and one denominator den > 0 with gcd(den, *num) = 1, a form
unique to the element, so equality and hashing compare it directly. Sums
work over a common denominator; a product is a convolution of the
numerators reduced mod f by theta^m = theta^(m-n) (theta^n - f), with no
division since f is monic, over the product of the denominators; the same
product gives the integer structure constants of orders. Fractions appear
only in coords, which the CLI prints. The norm and the minimal polynomial
are read off integer matrices of num by one fraction-free elimination
(linalg.int_echelon): the norm is the determinant of multiplication by num,
and the minimal polynomial the first relation among the powers of num. An
element computes each at most once, and a nonzero rational multiple
inherits the relation rescaled, so the walk that certifies a value at
x^e p^-m reuses the elimination of x^e.
No inverse is formed: the library never divides one element by another.
Irreducibility of f is assumed, never verified eagerly: a zero divisor met
during value or position work surfaces as NotIrreducible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .linalg import int_det, int_echelon
from .polynomials import PolyQ, poly_deg, poly_q


def over_one_den(values) -> tuple[list[int], int]:
    """(num, d): ints or Fractions as integers num over d, the lcm of their
    denominators, with no Fraction formed."""
    d = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (d // c.denominator) for c in values], d


class NumberField:
    """L = Q[x]/(f), f monic with integer coefficients, degree >= 1."""

    def __init__(self, f):
        f = poly_q(f)
        n = poly_deg(f)
        if n < 1:
            raise ValueError("defining polynomial must have degree >= 1")
        if f[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if any(c.denominator != 1 for c in f):
            raise ValueError("defining polynomial must have integer coefficients")
        self.f = f
        self.n = n
        self._low = [int(c) for c in f[:n]]  # f - theta^n, as ints

    def element(self, coords) -> "NFElem":
        """Element from power-basis coordinates, each anything Fraction takes."""
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        return NFElem(self, *over_one_den([Fraction(c) for c in coords]))

    def from_poly(self, coeffs) -> "NFElem":
        """Element from a polynomial in the generator, reduced mod f."""
        num, d = over_one_den(poly_q(coeffs))
        return NFElem(self, self._reduce(num + [0] * self.n), d)

    def _reduce(self, g: list[int]) -> list[int]:
        """g(theta) over the power basis, for integer coefficients g,
        len(g) >= n, in place: each top term c theta^m becomes
        -c theta^(m-n) (f - theta^n)."""
        n = self.n
        for m in range(len(g) - 1, n - 1, -1):
            c = g[m]
            if c:
                for k, fk in enumerate(self._low):
                    if fk:  # a sparse f such as x^8 + 1 is mostly zeros
                        g[m - n + k] -= c * fk
        del g[n:]
        return g

    def _mul(self, a: list[int], b: list[int]) -> list[int]:
        """a(theta) b(theta) for integer coordinate vectors."""
        prod = [0] * (2 * self.n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return self._reduce(prod)

    def zero(self) -> "NFElem":
        return NFElem(self, [0] * self.n)

    def one(self) -> "NFElem":
        return NFElem(self, [1] + [0] * (self.n - 1))

    def from_rational(self, q) -> "NFElem":
        """q as an element, for an int or a Fraction q."""
        return NFElem(self, [q.numerator] + [0] * (self.n - 1), q.denominator)

    def __eq__(self, other):
        return isinstance(other, NumberField) and other.f == self.f

    def __hash__(self):
        return hash(tuple(self.f))

    def __repr__(self):
        return f"NumberField({[str(c) for c in self.f]})"


class NFElem:
    """Element num / den of a NumberField over the power basis: num the
    integer coordinates, den > 0, divided by their gcd on construction."""

    __slots__ = ("field", "num", "den", "_min_poly", "_norm")

    def __init__(self, field: NumberField, num: list[int], den: int = 1):
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self.field = field
        self.num = num
        self.den = den
        self._min_poly: PolyQ | None = None
        self._norm: Fraction | None = None

    @property
    def coords(self) -> list[Fraction]:
        """The power-basis coordinates as Fractions."""
        return [Fraction(c, self.den) for c in self.num]

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def _aligned(self, other: "NFElem") -> tuple[list[int], list[int], int]:
        """Both numerators over one common denominator, and that denominator."""
        if self.den == other.den:
            return self.num, other.num, self.den
        return ([a * other.den for a in self.num], [b * self.den for b in other.num],
                self.den * other.den)

    def __add__(self, other):
        a, b, d = self._aligned(self._coerce(other))
        return NFElem(self.field, [x + y for x, y in zip(a, b)], d)

    def __sub__(self, other):
        a, b, d = self._aligned(self._coerce(other))
        return NFElem(self.field, [x - y for x, y in zip(a, b)], d)

    def __neg__(self):
        return NFElem(self.field, [-a for a in self.num], self.den)

    def _coerce(self, other) -> "NFElem":
        if isinstance(other, NFElem):
            if self.field != other.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        raise TypeError(f"cannot combine NFElem with {type(other).__name__}")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = NFElem(self.field, [a * other.numerator for a in self.num],
                         self.den * other.denominator)
            mp = self._min_poly
            if mp is not None and other != 0:
                # sum c_i t^i kills x, so sum c_i q^(d-i) t^i kills q*x; both
                # are monic of degree d, and no lower relation exists for q*x.
                d = len(mp) - 1
                out._min_poly = [c * other ** (d - i) for i, c in enumerate(mp)]
            return out
        other = self._coerce(other)
        return NFElem(self.field, self.field._mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, e: int):
        """x^e from the top bit: bit_length(e) - 1 squarings, popcount(e) - 1 products."""
        if e < 0:
            raise ValueError("negative powers are not supported")
        if e == 0:
            return self.field.one()
        result = NFElem(self.field, self.num[:], self.den)
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return (isinstance(other, NFElem) and self.field == other.field
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.den, *self.num))

    def norm(self) -> Fraction:
        """N(x) = det(M) / den^n, with M the integer matrix whose column j is
        num theta^j; 0 for a zero divisor. It is computed once per element."""
        if self._norm is None:
            col = self.num
            cols = [col]
            for _ in range(self.field.n - 1):
                col = self.field._reduce([0] + col)
                cols.append(col)
            self._norm = Fraction(int_det(cols), self.den**self.field.n)  # det M^T = det M
        return self._norm

    def min_poly(self) -> PolyQ:
        """Monic minimal polynomial, from the first dependent power of y = num.

        Row k is y^k followed by the unit vector e_k, and the rows enter one
        fraction-free elimination one at a time, powers formed lazily. At the
        first k whose coordinate part reduces to zero, the rest of the row
        holds sum c_i y^i = 0 with c_k != 0, and the monic relation of
        x = y / den is c_i / (c_k den^(k-i)): unique, as y^0, ..., y^(k-1)
        are independent. It is computed once per element; each call returns
        a fresh copy."""
        if self._min_poly is None:
            n = self.field.n
            d, y = self.den, self.num
            one = [1] + [0] * (n - 1)
            powers = accumulate(range(n), lambda power, _: self.field._mul(power, y), initial=one)
            rows = (power + [int(i == k) for i in range(n + 1)] for k, power in enumerate(powers))
            for k, (row, col) in enumerate(int_echelon(rows)):
                if col >= n:  # the coordinate part reduced to zero
                    break
            rel, ck = row[n : n + k + 1], row[n + k]
            self._min_poly = [Fraction(c, ck * d ** (k - i)) for i, c in enumerate(rel)]
        return self._min_poly[:]

    def __repr__(self):
        return f"NFElem({[str(c) for c in self.coords]})"
