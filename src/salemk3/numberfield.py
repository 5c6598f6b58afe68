"""Real algebraic number fields with certified sign determination.

A field is Q[x]/(m(x)) for an irreducible monic integer m together with an
isolating interval pinning down one real root. An element is a pair
``(nums, den)``: integer coefficients of a polynomial of degree < deg m,
constant first, over one positive denominator, with gcd(den, nums) = 1, so
equal elements are equal pairs. Every reduction modulo m, in products, in
element construction and in the matrix of multiplication by a, is the one
integer product ``polynomials.mulmod``; numerators stay integral because m
is monic. The inverse of a nonzero element a solves the linear system of
multiplication by a against 1 by fraction-free Gauss-Jordan elimination
(``linalg.gauss_jordan``). Signs and enclosures are decided by interval
Horner evaluation on the integer numerators over the interval's common
denominator, refining the isolating interval by exact bisection until the
enclosure excludes zero. An element whose first enclosure contains zero is
first tested for vanishing at the root through gcd(a, m), so the bisection
only runs on nonzero values and ends, even when m is reducible. When a
bisection lands on a rational root, the interval becomes that point and
the enclosure the exact value.
"""

from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .polynomials import IntPolynomial, count_real_roots, mulmod, poly_gcd, refine_interval


def _canonical(nums, den):
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


class RealAlgebraicField:
    """Q[x]/(min_poly) embedded in R at the root isolated by ``interval``.

    Elements are ``(nums, den)`` pairs; see the module docstring.
    """

    def __init__(self, min_poly: IntPolynomial, interval):
        if not min_poly.is_monic() or min_poly.degree < 1:
            raise ValueError("field modulus must be monic of degree >= 1")
        self.min_poly = min_poly
        self.degree = min_poly.degree
        self._interval = (Fraction(interval[0]), Fraction(interval[1]))

    # --- element constructors ---

    def element(self, coeffs):
        """Element from a rational scalar or coefficient sequence (reduced mod min_poly)."""
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        return _canonical(mulmod(nums, [1], self.min_poly.coeffs), den)

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def generator(self):
        if self.degree == 1:
            # x is congruent to the rational root
            return self.element(-self.min_poly.coeffs[0])
        return self.element([0, 1])

    # --- arithmetic ---

    def add(self, a, b):
        (an, ad), (bn, bd) = a, b
        g = gcd(ad, bd)
        sa, sb = bd // g, ad // g
        return _canonical([x * sa + y * sb for x, y in zip(an, bn)], ad * sa)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return tuple(-x for x in a[0]), a[1]

    def mul(self, a, b):
        (an, ad), (bn, bd) = a, b
        return _canonical(mulmod(an, bn, self.min_poly.coeffs), ad * bd)

    def scale(self, c, a):
        c = Fraction(c)
        return _canonical([c.numerator * x for x in a[0]], c.denominator * a[1])

    def is_zero(self, a):
        return not any(a[0])

    def inv(self, a):
        """Inverse by solving M c = e_0, where column j of M is N x^j for a = N / den.

        M is the matrix of multiplication by N, invertible for a != 0
        because the modulus is irreducible, so the reduced echelon form R / e
        of [M | e_0] has pivots 0 .. d-1 and its last column is 1/N; then
        1/a = den R[:, d] / e.
        """
        if self.is_zero(a):
            raise ZeroDivisionError("inverting zero field element")
        nums, den = a
        d = self.degree
        cols = [list(nums)]
        for _ in range(d - 1):
            cols.append(mulmod(cols[-1], [0, 1], self.min_poly.coeffs))
        R, e, pivots = linalg.gauss_jordan([[col[i] for col in cols] + [int(i == 0)] for i in range(d)])
        if pivots != tuple(range(d)):
            raise ArithmeticError("element not invertible; modulus not irreducible?")
        return _canonical([den * row[d] for row in R], e)

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
        while iv[1] - iv[0] > max_width:
            width /= 2
            self.refine(width)
            iv = self._eval_interval(a)
        return iv

    def _eval_interval(self, a):
        """Interval Horner evaluation of a on the isolating interval.

        With the interval as (L, H) / q over one denominator q, the
        accumulator after k steps is an integer pair over den * q^k, so the
        endpoints are the exact values of the Fraction interval Horner
        scheme, and each is divided out once at the end.
        """
        nums, den = a
        lo, hi = self._interval
        q = lcm(lo.denominator, hi.denominator)
        L, H = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
        acc_lo = acc_hi = nums[-1]
        scale = 1
        for c in reversed(nums[:-1]):
            scale *= q
            products = (acc_lo * L, acc_lo * H, acc_hi * L, acc_hi * H)
            acc_lo, acc_hi = min(products) + c * scale, max(products) + c * scale
        return Fraction(acc_lo, den * scale), Fraction(acc_hi, den * scale)

    def sign(self, a):
        """Exact sign of the real value of a: -1, 0 or +1.

        When the first enclosure contains 0, a(theta) = 0 exactly when
        gcd(a, m) has a root in (lo, hi], whose only root of m is theta.
        """
        if self.is_zero(a):
            return 0
        iv = self._eval_interval(a)
        if iv[0] <= 0 <= iv[1]:
            lo, hi = self._interval
            if lo == hi:
                return 0
            g = poly_gcd(IntPolynomial(a[0]), self.min_poly)
            if g.degree and count_real_roots(g, lo, hi):
                return 0
            width = hi - lo
            while iv[0] <= 0 <= iv[1]:
                width /= 2
                self.refine(width)
                iv = self._eval_interval(a)
        return 1 if iv[0] > 0 else -1
