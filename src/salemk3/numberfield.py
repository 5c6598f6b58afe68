"""Real algebraic number fields with certified sign determination.

A field is Q[x]/(m(x)) for an irreducible monic m together with an isolating
interval pinning down one real root. Elements are Fraction-coefficient
polynomials of degree < deg m. Signs and enclosures are decided by interval
evaluation, refining the isolating interval by exact bisection until the
enclosure excludes zero; this terminates for every nonzero element because
m is irreducible.
"""

from fractions import Fraction

from .polynomials import IntPolynomial, refine_interval

# intervals are (lo, hi) Fraction pairs


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _fp_divmod(a, b):
    """Quotient and remainder of Fraction coefficient lists (ascending)."""
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        _trim(a)
    return q, a


def _polymul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim(out)


def _polysub(f, g):
    out = [Fraction(0)] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] += a
    for i, b in enumerate(g):
        out[i] -= b
    return _trim(out)


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
        """Inverse via the extended Euclidean algorithm on polynomials.

        Tracks s with s * a = r (mod min_poly); the loop ends with r a
        nonzero constant because the modulus is irreducible.
        """
        if self.is_zero(a):
            raise ZeroDivisionError("inverting zero field element")
        r0, r1 = self._modulus[:], _trim(list(a))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while r1:
            q, rem = _fp_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        if len(r0) != 1:
            raise ArithmeticError("element not invertible; modulus not irreducible?")
        c = r0[0]
        return self.element([x / c for x in s0])

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
