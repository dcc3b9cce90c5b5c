"""Arithmetic in L = Q[x]/(f) for monic integer f, in the power basis.

Elements are length-n rational coordinate vectors over 1, theta, ...,
theta^(n-1). Irreducibility of f is assumed, never verified eagerly: any
zero divisor met during inversion or minimal-polynomial work surfaces as
NotIrreducible.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotIrreducible, ZeroInversion
from .linalg import q_det, q_solve
from .polynomials import PolyQ, poly_deg, poly_divmod, poly_q, poly_trim, poly_xgcd


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
        # Power-basis coordinates of theta^k for k < 2n-1; products of two
        # degree < n polynomials reduce against these.
        self._theta_pows = self._power_table()

    def _power_table(self) -> list[list[Fraction]]:
        n = self.n
        pows = []
        cur = [Fraction(0)] * n
        cur[0] = Fraction(1)
        for _ in range(2 * n - 1):
            pows.append(cur[:])
            # multiply by theta: shift, then reduce theta^n = -(f - x^n)
            top = cur[n - 1]
            cur = [Fraction(0)] + cur[: n - 1]
            if top != 0:
                for i in range(n):
                    cur[i] -= top * self.f[i]
        return pows

    def element(self, coords) -> "NFElem":
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        return NFElem(self, coords)

    def from_poly(self, coeffs) -> "NFElem":
        """Element from a polynomial in the generator, reduced mod f."""
        coords = [Fraction(0)] * self.n
        for k, c in enumerate(poly_q(coeffs)):
            if c != 0:
                pw = self._pow_coords(k)
                for i in range(self.n):
                    coords[i] += c * pw[i]
        return NFElem(self, coords)

    def _pow_coords(self, k: int) -> list[Fraction]:
        if k < len(self._theta_pows):
            return self._theta_pows[k]
        # rare: degrees beyond 2n-2, reduce by polynomial division
        xs = [Fraction(0)] * k + [Fraction(1)]
        _, rem = poly_divmod(xs, self.f)
        return list(rem) + [Fraction(0)] * (self.n - len(rem))

    def zero(self) -> "NFElem":
        return self.element([0] * self.n)

    def one(self) -> "NFElem":
        return self.element([1] + [0] * (self.n - 1))

    def gen(self) -> "NFElem":
        if self.n == 1:
            return self.from_poly([0, 1])
        return self.element([0, 1] + [0] * (self.n - 2))

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

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: list[Fraction]):
        self.field = field
        self.coords = coords

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
            return NFElem(self.field, [a * q for a in self.coords])
        other = self._coerce(other)
        n = self.field.n
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b != 0:
                    prod[i + j] += a * b
        out = [Fraction(0)] * n
        pows = self.field._theta_pows
        for k, c in enumerate(prod):
            if c != 0:
                pw = pows[k]
                for i in range(n):
                    out[i] += c * pw[i]
        return NFElem(self.field, out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * self._coerce(other).inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return isinstance(other, NFElem) and self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash(tuple(self.coords))

    def inv(self) -> "NFElem":
        """Inverse via the extended Euclid of the coordinate polynomial and f."""
        if self.is_zero:
            raise ZeroInversion("cannot invert 0")
        g = poly_trim(list(self.coords))
        d, s, _ = poly_xgcd(g, self.field.f)
        if poly_deg(d) != 0:
            raise NotIrreducible(
                f"gcd of degree {poly_deg(d)} found: defining polynomial is reducible"
            )
        # d == 1 after normalization, so s*g == 1 mod f
        return self.field.from_poly(s)

    def mult_matrix(self) -> list[list[Fraction]]:
        """Matrix of multiplication by self on the power basis (columns are
        images of 1, theta, ...)."""
        n = self.field.n
        cols = []
        cur = self
        gen = self.field.gen()
        for _ in range(n):
            cols.append(cur.coords)
            cur = cur * gen
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def norm_trace(self) -> tuple[Fraction, Fraction]:
        m = self.mult_matrix()
        tr = sum((m[i][i] for i in range(self.field.n)), Fraction(0))
        return q_det(m), tr

    def min_poly(self) -> PolyQ:
        """Monic minimal polynomial, via the first linear dependence among
        the powers 1, self, self^2, ..."""
        n = self.field.n
        pows = [self.field.one().coords]
        cur = self
        for k in range(1, n + 1):
            # is cur in the span of the earlier powers?
            rows = [[pows[j][i] for j in range(k)] for i in range(n)]
            sol = q_solve(rows, list(cur.coords))
            if sol is not None:
                coeffs = [-c for c in sol] + [Fraction(1)]
                return poly_q(coeffs)
            pows.append(cur.coords)
            cur = cur * self
        raise AssertionError("no relation among n+1 powers")

    def __repr__(self):
        return f"NFElem({[str(c) for c in self.coords]})"
