"""The real embedding of a certified Salem number lambda, with exact signs.

The field is Q(lambda) = Q[x]/(m(x)) for the Salem polynomial m of a
``SalemCertificate``, embedded in R by the certificate's interval, which
isolates lambda > 1. m is monic and irreducible of degree >= 2, so lambda
is irrational. An element is a pair ``(nums, den)``: integer coefficients
of a polynomial of degree < deg m, constant first, over one positive
denominator, with gcd(den, nums) = 1 (``canonical``), so equal elements are
equal pairs. Callers do their ring arithmetic on the integer numerators with
``polynomials.mulmod``, which keeps them integral because m is monic; the
field holds only what needs lambda's embedding, and the one inverse.

The inverse of a nonzero element a solves the linear system of
multiplication by a against 1 by fraction-free Gauss-Jordan elimination
(``linalg.gauss_jordan``). Signs and enclosures are decided by interval
Horner evaluation on the integer numerators over the interval's common
denominator, refining the isolating interval by exact bisection until the
enclosure is narrow enough or excludes zero. That bisection ends: a nonzero
element is a polynomial of degree < deg m, which does not vanish at lambda
because m is irreducible.
"""

from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .polynomials import SalemCertificate, mulmod, refine_interval


def canonical(nums, den):
    """The canonical pair of the element nums / den, for den > 0."""
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


class RealAlgebraicField:
    """Q(lambda) for the Salem number lambda of ``cert``: Q[x]/(cert.polynomial)
    embedded in R at the root isolated by ``interval``, which starts as
    ``cert.lambda_interval`` and only narrows.

    Elements are ``(nums, den)`` pairs; see the module docstring.
    """

    def __init__(self, cert: SalemCertificate):
        self.min_poly = cert.polynomial
        self.degree = cert.degree
        self.interval = cert.lambda_interval

    def is_zero(self, a):
        return not any(a[0])

    def inv(self, a):
        """Inverse by solving M c = e_0, where column j of M is N x^j for a = N / den.

        M is the matrix of multiplication by N, invertible for a != 0
        because the modulus is irreducible (certified Salem), so the reduced
        echelon form R / e of [M | e_0] has pivots 0 .. d-1 and its last
        column is 1/N; then 1/a = den R[:, d] / e.
        """
        if self.is_zero(a):
            raise ZeroDivisionError("inverting zero field element")
        nums, den = a
        d = self.degree
        cols = [list(nums)]
        for _ in range(d - 1):
            cols.append(mulmod(cols[-1], [0, 1], self.min_poly.coeffs))
        R, e, _ = linalg.gauss_jordan([[col[i] for col in cols] + [int(i == 0)] for i in range(d)])
        return canonical([den * row[d] for row in R], e)

    # --- certified real data ---

    def refine(self, max_width):
        self.interval = refine_interval(self.min_poly, self.interval, max_width)

    def enclosure(self, a, max_width=None):
        """Rational interval certified to contain the real value of a."""
        if max_width is None:
            return self._eval_interval(a)
        return self._refine_until(a, lambda iv: iv[1] - iv[0] <= max_width)

    def sign(self, a):
        """Exact sign of the real value of a: -1, 0 or +1."""
        if self.is_zero(a):
            return 0
        iv = self._refine_until(a, lambda iv: not iv[0] <= 0 <= iv[1])
        return 1 if iv[0] > 0 else -1

    def _refine_until(self, a, done):
        """The enclosure of a once ``done`` accepts it, halving the width
        of the isolating interval, from its current width, until then."""
        iv = self._eval_interval(a)
        width = self.interval[1] - self.interval[0]
        while not done(iv):
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
        lo, hi = self.interval
        q = lcm(lo.denominator, hi.denominator)
        L, H = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
        acc_lo = acc_hi = nums[-1]
        scale = 1
        for c in reversed(nums[:-1]):
            scale *= q
            products = (acc_lo * L, acc_lo * H, acc_hi * L, acc_hi * H)
            acc_lo, acc_hi = min(products) + c * scale, max(products) + c * scale
        return Fraction(acc_lo, den * scale), Fraction(acc_hi, den * scale)
