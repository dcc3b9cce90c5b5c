"""Arithmetic in L = Q[x]/(f) for monic integer f, in the power basis.

Elements are length-n rational coordinate vectors over 1, theta, ...,
theta^(n-1). A product is a convolution reduced mod f by
theta^m = theta^(m-n) (theta^n - f), with no division since f is monic;
the same product gives the integer structure constants of orders. The norm
and the minimal polynomial are read off integer matrices of y = d x, with d
clearing the denominators of x, by one fraction-free elimination
(linalg.int_echelon): the norm is the determinant of multiplication by y,
and the minimal polynomial the first relation among the powers of y. An
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
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        return NFElem(self, coords)

    def from_poly(self, coeffs) -> "NFElem":
        """Element from a polynomial in the generator, reduced mod f."""
        return NFElem(self, self._reduce(poly_q(coeffs) + [Fraction(0)] * self.n))

    def _reduce(self, g: list) -> list:
        """g(theta) over the power basis, for int or Fraction coefficients g,
        len(g) >= n, in place: each top term c theta^m becomes
        -c theta^(m-n) (f - theta^n), and entries keep their type."""
        n = self.n
        for m in range(len(g) - 1, n - 1, -1):
            c = g[m]
            if c:
                for k, fk in enumerate(self._low):
                    if fk:  # a sparse f such as x^8 + 1 is mostly zeros
                        g[m - n + k] -= c * fk
        del g[n:]
        return g

    def _mul(self, a: list, b: list) -> list:
        """a(theta) b(theta) for coordinate vectors of ints or Fractions."""
        prod = [0 * a[0]] * (2 * self.n - 1)  # zero of the entries' type
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return self._reduce(prod)

    def zero(self) -> "NFElem":
        return self.element([0] * self.n)

    def one(self) -> "NFElem":
        return self.element([1] + [0] * (self.n - 1))

    def from_rational(self, q) -> "NFElem":
        return self.element([Fraction(q)] + [0] * (self.n - 1))

    def __eq__(self, other):
        return isinstance(other, NumberField) and other.f == self.f

    def __hash__(self):
        return hash(tuple(self.f))

    def __repr__(self):
        return f"NumberField({[str(c) for c in self.f]})"


class NFElem:
    """Element of a NumberField as power-basis coordinates."""

    __slots__ = ("field", "coords", "_min_poly", "_norm")

    def __init__(self, field: NumberField, coords: list[Fraction]):
        self.field = field
        self.coords = coords
        self._min_poly: PolyQ | None = None
        self._norm: Fraction | None = None

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check_same(self, other: "NFElem"):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        other = self._coerce(other)
        return NFElem(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        other = self._coerce(other)
        return NFElem(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return NFElem(self.field, [-a for a in self.coords])

    def _coerce(self, other) -> "NFElem":
        if isinstance(other, NFElem):
            self._check_same(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        raise TypeError(f"cannot combine NFElem with {type(other).__name__}")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            out = NFElem(self.field, [a * q for a in self.coords])
            mp = self._min_poly
            if mp is not None and q != 0:
                # sum c_i t^i kills x, so sum c_i q^(d-i) t^i kills q*x; both
                # are monic of degree d, and no lower relation exists for q*x.
                d = len(mp) - 1
                out._min_poly = [c * q ** (d - i) for i, c in enumerate(mp)]
            return out
        other = self._coerce(other)
        return NFElem(self.field, self.field._mul(self.coords, other.coords))

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
        result = NFElem(self.field, self.coords[:])
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return isinstance(other, NFElem) and self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash(tuple(self.coords))

    def _integral(self) -> tuple[int, list[int]]:
        """(d, y): d the lcm of the coordinate denominators, y = d x in ints."""
        d = math.lcm(*(c.denominator for c in self.coords))
        return d, [c.numerator * (d // c.denominator) for c in self.coords]

    def norm(self) -> Fraction:
        """N(x) = det(M) / d^n, with M the integer matrix whose column j is
        y theta^j, y = d x; 0 for a zero divisor. It is computed once per
        element."""
        if self._norm is None:
            d, col = self._integral()
            cols = [col]
            for _ in range(self.field.n - 1):
                col = self.field._reduce([0] + col)
                cols.append(col)
            self._norm = Fraction(int_det(cols), d**self.field.n)  # det M^T = det M
        return self._norm

    def min_poly(self) -> PolyQ:
        """Monic minimal polynomial, from the first dependent power of y = d x.

        Row k is y^k followed by the unit vector e_k, and the rows enter one
        fraction-free elimination one at a time, powers formed lazily. At the
        first k whose coordinate part reduces to zero, the rest of the row
        holds sum c_i y^i = 0 with c_k != 0, and the monic relation of x is
        c_i / (c_k d^(k-i)): unique, as y^0, ..., y^(k-1) are independent.
        It is computed once per element; each call returns a fresh copy."""
        if self._min_poly is None:
            n = self.field.n
            d, y = self._integral()
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
