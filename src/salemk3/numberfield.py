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
(``linalg.gauss_jordan``). The isolating interval is held as integers
(q, L, H): it is (L/q, H/q], and m changes sign there from negative to
positive. It narrows by ``polynomials._halve``, the dyadic bisection step
that also isolated lambda in ``is_salem``. Signs and enclosures are decided
by interval Horner evaluation on the integer numerators over q, halving
the interval until the enclosure is narrow enough or excludes zero (one
loop, ``_refine_until``). The endpoints come out as integers over one
denominator, the width and sign tests are made on those integers, and only
``enclosure`` and ``interval`` turn them into Fractions; ``endpoints``
hands them on as they are. That bisection ends: a nonzero element is a
polynomial of degree < deg m, which does not vanish at lambda because m is
irreducible.
"""

from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .polynomials import SalemCertificate, _halve, _sign_at, mulmod


def canonical(nums, den):
    """The canonical pair of the element nums / den, for den > 0."""
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


class RealAlgebraicField:
    """Q(lambda) for the Salem number lambda of ``cert``: Q[x]/(cert.polynomial)
    embedded in R at the root isolated by ``interval``, which starts as
    ``cert.lambda_interval`` and only narrows. An interval whose ends do not
    straddle lambda (m < 0 at the left end, m > 0 at the right) is refused.

    Elements are ``(nums, den)`` pairs; see the module docstring.
    """

    def __init__(self, cert: SalemCertificate):
        self.min_poly = cert.polynomial
        self.degree = cert.degree
        lo, hi = cert.lambda_interval
        q = lcm(lo.denominator, hi.denominator)
        L, H = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
        if not _sign_at(self.min_poly.coeffs, (L, q)) < 0 < _sign_at(self.min_poly.coeffs, (H, q)):
            raise ValueError("interval endpoints must straddle the root")
        self._grid = q, L, H

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

    @property
    def interval(self):
        """The isolating interval (lo, hi] as Fractions."""
        q, L, H = self._grid
        return Fraction(L, q), Fraction(H, q)

    def refine(self, max_width):
        """Halve the isolating interval until its width is at most max_width,
        a positive rational."""
        w, v = max_width.numerator, max_width.denominator
        q, L, H = self._grid
        while (H - L) * v > w * q:
            L, H, q = _halve(self.min_poly.coeffs, L, H, q)
        self._grid = q, L, H

    def enclosure(self, a, max_width=None):
        """Rational interval (Fractions) certified to contain the real value
        of a, of width at most max_width when one is given: the endpoints
        of ``endpoints``, or of one evaluation on the current interval."""
        lo, hi, D = self._eval_interval(a) if max_width is None else self.endpoints(a, max_width)
        return Fraction(lo, D), Fraction(hi, D)

    def endpoints(self, a, max_width):
        """(lo, hi, D): integers with D > 0 such that [lo / D, hi / D] is the
        enclosure of a of width at most max_width, a positive rational, that
        ``enclosure(a, max_width)`` gives, with the same refinement."""
        w, v = max_width.numerator, max_width.denominator
        return self._refine_until(a, lambda lo, hi, D: (hi - lo) * v <= w * D)

    def sign(self, a):
        """Exact sign of the real value of a: -1, 0 or +1."""
        if self.is_zero(a):
            return 0
        lo, _, _ = self._refine_until(a, lambda lo, hi, D: not lo <= 0 <= hi)
        return 1 if lo > 0 else -1

    def _refine_until(self, a, done):
        """The endpoints of a (``_eval_interval``) once ``done`` accepts
        them, halving the isolating interval until then."""
        ends = self._eval_interval(a)
        while not done(*ends):
            q, L, H = self._grid
            self.refine(Fraction(H - L, 2 * q))
            ends = self._eval_interval(a)
        return ends

    def _eval_interval(self, a):
        """Interval Horner evaluation of a on the isolating interval, as
        integer endpoints (lo, hi) over a denominator D > 0.

        With the interval as (L, H) / q, the accumulator after k steps is an
        integer pair over den * q^k, so lo / D and hi / D with D = den * q^k
        at the end are the exact values of the Fraction interval Horner
        scheme.
        """
        nums, den = a
        q, L, H = self._grid
        acc_lo = acc_hi = nums[-1]
        scale = 1
        for c in reversed(nums[:-1]):
            scale *= q
            products = (acc_lo * L, acc_lo * H, acc_hi * L, acc_hi * H)
            acc_lo, acc_hi = min(products) + c * scale, max(products) + c * scale
        return acc_lo, acc_hi, den * scale
