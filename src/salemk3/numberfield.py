"""Real algebraic number fields with certified sign determination.

A field is Q[x]/(m(x)) for an irreducible monic m together with an isolating
interval pinning down one real root. Elements are Fraction-coefficient
polynomials of degree < deg m. The inverse of a nonzero element a solves
the linear system of multiplication by a against 1 by exact Gauss-Jordan
elimination (``linalg.rat_row_reduce``). Signs and enclosures are decided
by interval evaluation, refining the isolating interval by exact bisection
until the enclosure excludes zero; this terminates for every nonzero
element because m is irreducible.
"""

from fractions import Fraction

from . import linalg
from .polynomials import IntPolynomial, refine_interval

# intervals are (lo, hi) Fraction pairs


def iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def iv_mul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def iv_contains_zero(a):
    return a[0] <= 0 <= a[1]


def iv_width(a):
    return a[1] - a[0]


class RealAlgebraicField:
    """Q[x]/(min_poly) embedded in R at the root isolated by ``interval``."""

    def __init__(self, min_poly: IntPolynomial, interval):
        if not min_poly.is_monic() or min_poly.degree < 1:
            raise ValueError("field modulus must be monic of degree >= 1")
        self.min_poly = min_poly
        self.degree = min_poly.degree
        self._interval = (Fraction(interval[0]), Fraction(interval[1]))
        self._modulus = [Fraction(c) for c in min_poly.coeffs]

    # --- element constructors ---

    def element(self, coeffs):
        """Element from a scalar or coefficient sequence (reduced mod min_poly)."""
        if isinstance(coeffs, (int, Fraction)):
            vec = [Fraction(coeffs)] + [Fraction(0)] * (self.degree - 1)
            return tuple(vec)
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            vec = self._reduce(vec)
        vec += [Fraction(0)] * (self.degree - len(vec))
        return tuple(vec[: self.degree])

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def generator(self):
        if self.degree == 1:
            # x is congruent to the rational root
            return self.element(-self._modulus[0])
        return self.element([0, 1])

    # --- arithmetic ---

    def _reduce(self, vec):
        vec = vec[:]
        d = self.degree
        for k in range(len(vec) - 1, d - 1, -1):
            c = vec[k]
            if c:
                for i in range(d + 1):
                    vec[k - d + i] -= c * self._modulus[i]
        del vec[d:]
        return vec

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        vec = self._reduce(out)
        vec += [Fraction(0)] * (self.degree - len(vec))
        return tuple(vec)

    def scale(self, c, a):
        c = Fraction(c)
        return tuple(c * x for x in a)

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def inv(self, a):
        """Inverse by solving M c = e_0, where column j of M is a x^j.

        M is the matrix of multiplication by a, invertible for a != 0
        because the modulus is irreducible, so the reduced echelon form of
        [M | e_0] has pivots 0 .. d-1 and its last column is 1/a.
        """
        if self.is_zero(a):
            raise ZeroDivisionError("inverting zero field element")
        d = self.degree
        cols = [a]
        for _ in range(d - 1):
            cols.append(self.element((0,) + cols[-1]))
        one = self.one()
        R, pivots = linalg.rat_row_reduce([[col[i] for col in cols] + [one[i]] for i in range(d)])
        if pivots != tuple(range(d)):
            raise ArithmeticError("element not invertible; modulus not irreducible?")
        return tuple(row[d] for row in R)

    # --- certified real data ---

    def refine(self, max_width):
        if self._interval[0] != self._interval[1]:
            self._interval = refine_interval(self.min_poly, self._interval, max_width)
        return self._interval

    def enclosure(self, a, max_width=None):
        """Rational interval certified to contain the real value of a."""
        iv = self._eval_interval(a)
        if max_width is None:
            return iv
        width = self._interval[1] - self._interval[0]
        while iv_width(iv) > max_width:
            if width == 0:
                return iv  # exact rational value
            width /= 2
            self.refine(width)
            iv = self._eval_interval(a)
        return iv

    def _eval_interval(self, a):
        x = self._interval
        acc = (Fraction(0), Fraction(0))
        for c in reversed(a):
            acc = iv_add(iv_mul(acc, x), (c, c))
        return acc

    def sign(self, a):
        """Exact sign of the real value of a: -1, 0 or +1."""
        if self.is_zero(a):
            return 0
        iv = self._eval_interval(a)
        width = self._interval[1] - self._interval[0]
        while iv_contains_zero(iv):
            if width == 0:
                v = iv[0]
                return (v > 0) - (v < 0)
            width /= 2
            self.refine(width)
            iv = self._eval_interval(a)
        return 1 if iv[0] > 0 else -1
