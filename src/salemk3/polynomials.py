"""Exact univariate integer polynomials.

Coefficients are arbitrary-precision ints in ascending degree order.
Everything here is exact: resultants and determinants are integer
computations, root counting and isolation go through Sturm chains over
the rationals, and no floating point ever enters a decision.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from . import linalg
from .numbertheory import factorize, is_perfect_square


class NotSalemError(ValueError):
    """Raised when a polynomial fails Salem certification; carries a reason."""

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; ``coeffs[i]`` multiplies x^i, trailing zeros trimmed."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError("IntPolynomial coefficients must be ints")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return not self.is_zero() and self.coeffs[-1] == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            [_at(self.coeffs, i) + _at(other.coeffs, i) for i in range(n)]
        )

    def __sub__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            [_at(self.coeffs, i) - _at(other.coeffs, i) for i in range(n)]
        )

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = IntPolynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self):
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def is_reciprocal(self):
        return not self.is_zero() and self.coeffs == tuple(reversed(self.coeffs))

    def shift_mul_x(self, k):
        return IntPolynomial([0] * k + list(self.coeffs))

    def content(self):
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive_part(self):
        c = self.content()
        if c == 0:
            return self
        sign = 1 if self.leading > 0 else -1
        return IntPolynomial([x // (sign * c) for x in self.coeffs])

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            mag = "" if (abs(c) == 1 and i > 0) else str(abs(c))
            if not parts:
                parts.append(("-" if c < 0 else "") + mag + term)
            else:
                parts.append((" - " if c < 0 else " + ") + mag + term)
        return "".join(parts)


def _coerce(x):
    if isinstance(x, IntPolynomial):
        return x
    if isinstance(x, int):
        return IntPolynomial([x])
    raise TypeError(f"cannot coerce {x!r} to IntPolynomial")


def _at(t, i):
    return t[i] if i < len(t) else 0


X = IntPolynomial([0, 1])


def poly_divmod_exact(p, d):
    """(q, r) with p = q d + r over Q; raises if the division is not int-exact.

    Divides in integers and stops at the first quotient coefficient that is
    not an integer; once every quotient coefficient is, so is the remainder.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(p.coeffs)
    quo = [0] * max(0, len(rem) - len(d.coeffs) + 1)
    dlead = d.leading
    while len(rem) >= len(d.coeffs):
        c, r = divmod(rem[-1], dlead)
        if r:
            raise ArithmeticError("polynomial division is not integral")
        k = len(rem) - len(d.coeffs)
        quo[k] = c
        for i, dc in enumerate(d.coeffs):
            rem[k + i] -= c * dc
        while rem and rem[-1] == 0:
            rem.pop()
    return IntPolynomial(quo), IntPolynomial(rem)


def divides(d, p):
    try:
        _, r = poly_divmod_exact(p, d)
    except ArithmeticError:
        return False
    return r.is_zero()


def poly_gcd(p, q):
    """Primitive gcd over Z with positive leading coefficient."""
    a, b = p.primitive_part(), q.primitive_part()
    if a.is_zero():
        return b
    while not b.is_zero():
        # pseudo-remainder keeps everything integral
        lead = b.leading
        shift = a.degree - b.degree
        if shift < 0:
            a, b = b, a
            continue
        r = IntPolynomial([lead * c for c in a.coeffs]) - b.shift_mul_x(shift) * a.leading
        a, b = b, r.primitive_part() if not r.is_zero() else IntPolynomial([])
    return a.primitive_part() if not a.is_zero() else a


def squarefree_part(p):
    """p divided by gcd(p, p'); primitive, same sign of leading coefficient."""
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.primitive_part()
    q, _ = poly_divmod_exact(p, g)
    return q.primitive_part()


def sylvester_matrix(p, q):
    """Sylvester block matrix with the q-coefficient rows stacked on top."""
    m, n = p.degree, q.degree
    size = m + n
    rows = []
    qdesc = list(reversed(q.coeffs))
    pdesc = list(reversed(p.coeffs))
    for i in range(m):
        rows.append(tuple([0] * i + qdesc + [0] * (size - n - 1 - i)))
    for i in range(n):
        rows.append(tuple([0] * i + pdesc + [0] * (size - m - 1 - i)))
    return tuple(rows)


def resultant(p, q):
    """Resultant with the convention res(p, q) = lc(q)^deg p * prod p(beta) over roots of q.

    Satisfies res(p, q) = (-1)^(deg p * deg q) res(q, p).
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    if p.degree == 0:
        return p.coeffs[0] ** q.degree
    if q.degree == 0:
        return q.coeffs[0] ** p.degree
    return linalg.bareiss_det(sylvester_matrix(p, q))


def discriminant(p):
    """(-1)^(d(d-1)/2) res(p, p') for monic p of degree >= 1."""
    if p.is_zero() or p.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    if not p.is_monic():
        raise ValueError("discriminant implemented for monic polynomials only")
    d = p.degree
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    if p.derivative().is_zero():
        return 0
    return sign * resultant(p, p.derivative())


def companion_matrix(p):
    """Companion matrix (column convention) of a monic polynomial."""
    if not p.is_monic() or p.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    d = p.degree
    return tuple(
        tuple(
            (1 if i == j + 1 else 0) if j < d - 1 else -p.coeffs[i]
            for j in range(d)
        )
        for i in range(d)
    )


def trace_polynomial(p):
    """r with p(x) = x^m r(x + 1/x), for monic reciprocal p of degree 2m."""
    if not p.is_monic():
        raise NotSalemError("not_monic", str(p))
    if p.degree % 2 != 0:
        raise NotSalemError("odd_degree", str(p))
    if not p.is_reciprocal():
        raise NotSalemError("not_reciprocal", str(p))
    m = p.degree // 2
    work = list(p.coeffs)
    r = [0] * (m + 1)
    for i in range(m, -1, -1):
        c = work[m + i]
        r[i] = c
        if c:
            # subtract c * x^(m-i) (x^2+1)^i
            for k in range(i + 1):
                work[m - i + 2 * k] -= c * comb(i, k)
    if any(work):
        raise NotSalemError("not_reciprocal", str(p))
    return IntPolynomial(r)


def expand_trace_polynomial(r):
    """x^m r(x + 1/x) as an IntPolynomial (round-trip check for trace_polynomial)."""
    m = r.degree
    out = IntPolynomial([])
    for i, c in enumerate(r.coeffs):
        # c * x^(m-i) * (x^2+1)^i
        term = IntPolynomial([1])
        for _ in range(i):
            term = term * IntPolynomial([1, 0, 1])
        out = out + c * term.shift_mul_x(m - i)
    return out


# --- Sturm chains, root counting, isolation ---------------------------------


def _frac_poly(p):
    return [Fraction(c) for c in p.coeffs]


def _fp_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _fp_divmod(a, b):
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        while a and a[-1] == 0:
            a.pop()
    return q, a


def sturm_chain(p):
    """Sturm chain of p as lists of Fraction coefficients."""
    f0 = _frac_poly(p)
    f1 = _frac_poly(p.derivative())
    chain = [f0]
    if f1:
        chain.append(f1)
    while len(chain[-1]) > 1:
        _, r = _fp_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _sign_at(coeffs, x):
    if x == "inf":
        v = coeffs[-1]
    elif x == "-inf":
        v = coeffs[-1] * (-1) ** (len(coeffs) - 1)
    else:
        v = _fp_eval(coeffs, x)
    return (v > 0) - (v < 0)


def _variations(chain, x):
    signs = [s for s in (_sign_at(c, x) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, a="-inf", b="inf", chain=None):
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    if p.is_zero():
        raise ValueError("root count of the zero polynomial")
    if chain is None:
        chain = sturm_chain(p)
    return _variations(chain, a) - _variations(chain, b)


def root_bound(p):
    """Cauchy bound: all real roots lie in (-M, M]."""
    lead = abs(p.leading)
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree > 0 else 0
    return Fraction(m, lead) + 1


@dataclass(frozen=True)
class RootIsolation:
    """Disjoint rational intervals, each containing exactly one real root.

    A degenerate pair (a, a) marks an exact rational root. For proper
    intervals the polynomial changes sign between the endpoints.
    """

    intervals: tuple
    multiplicity_free: bool


def isolate_real_roots(p):
    """Isolate all distinct real roots of p (via its squarefree part)."""
    q = squarefree_part(p)
    multiplicity_free = q.degree == p.degree
    chain = sturm_chain(q)
    M = root_bound(q)
    todo = [(-M, M)]
    found = []

    def split_point(a, b):
        for num, den in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4)):
            c = a + (b - a) * Fraction(num, den)
            if _fp_eval(chain[0], c) != 0:
                return c
        raise ArithmeticError("could not find a root-free split point")

    while todo:
        a, b = todo.pop()
        n = count_real_roots(q, a, b, chain)
        if n == 0:
            continue
        if n == 1:
            if _fp_eval(chain[0], b) == 0:
                found.append((b, b))
            else:
                # shrink the left end until the sign change is witnessed
                aa = a
                while _fp_eval(chain[0], aa) == 0 or (
                    _sign_at(chain[0], aa) == _sign_at(chain[0], b)
                ):
                    aa = split_point(aa, b)
                    if count_real_roots(q, aa, b, chain) != 1:
                        raise ArithmeticError("isolation lost its root")
                found.append((aa, b))
            continue
        c = split_point(a, b)
        todo.append((a, c))
        todo.append((c, b))
    found.sort(key=lambda iv: iv[0])
    return RootIsolation(intervals=tuple(found), multiplicity_free=multiplicity_free)


def refine_interval(p, interval, max_width):
    """Bisect an isolating interval of squarefree p down to the given width."""
    a, b = interval
    if a == b:
        return a, b
    fa = _fp_eval(_frac_poly(p), a)
    fb = _fp_eval(_frac_poly(p), b)
    if fa == 0 or fb == 0 or (fa > 0) == (fb > 0):
        raise ValueError("interval endpoints must straddle the root")
    coeffs = _frac_poly(p)
    while b - a > max_width:
        mid = (a + b) / 2
        fm = _fp_eval(coeffs, mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == (fb > 0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return a, b


# --- Salem certification -----------------------------------------------------


@dataclass(frozen=True)
class SalemCertificate:
    polynomial: IntPolynomial
    degree: int
    trace_polynomial: IntPolynomial
    lambda_interval: tuple
    quadratic_degenerate: bool


def is_salem(p):
    """Certify p as a Salem polynomial or raise NotSalemError with a reason.

    Accepts monic irreducible reciprocal polynomials whose trace polynomial
    has exactly one real root of absolute value > 2, that root positive, and
    all remaining roots real inside (-2, 2). Degree-2 polynomials (no
    conjugates on the unit circle) are flagged quadratic_degenerate.

    Irreducibility needs no factoring. Once p is squarefree and has this
    root pattern, every irreducible factor other than the minimal polynomial
    of lambda has all its roots on the unit circle, so it is cyclotomic by
    Kronecker's theorem: p is irreducible iff it has no cyclotomic factor.
    Hence a squarefree reducible p with the wrong pattern reports
    wrong_root_pattern, not reducible.
    """
    if p.is_zero() or p.degree < 2:
        raise NotSalemError("wrong_degree", str(p))
    if not p.is_monic():
        raise NotSalemError("not_monic", str(p))
    if p.degree % 2 != 0:
        raise NotSalemError("odd_degree", str(p))
    if not p.is_reciprocal():
        raise NotSalemError("not_reciprocal", str(p))
    if poly_gcd(p, p.derivative()).degree > 0:
        raise NotSalemError("reducible", str(p))
    r = trace_polynomial(p)
    m = r.degree
    total_real = count_real_roots(r)
    if total_real != m:
        raise NotSalemError("wrong_root_pattern", "trace polynomial has non-real roots")
    above_two = count_real_roots(r, Fraction(2), "inf")
    below_minus_two = count_real_roots(r, "-inf", Fraction(-2))
    if above_two != 1 or below_minus_two != 0:
        raise NotSalemError(
            "wrong_root_pattern",
            f"{above_two} trace roots above 2, {below_minus_two} at or below -2",
        )
    if cyclotomic_factors(p):
        raise NotSalemError("reducible", str(p))
    # lambda is the largest real root of p; isolate it and push the interval above 1
    iso = isolate_real_roots(p)
    a, b = iso.intervals[-1]
    while not a > 1:
        a, b = refine_interval(p, (a, b), (b - a) / 4)
    return SalemCertificate(
        polynomial=p,
        degree=p.degree,
        trace_polynomial=r,
        lambda_interval=(a, b),
        quadratic_degenerate=p.degree == 2,
    )


def power_min_poly(s, n):
    """Monic minimal polynomial of lambda^n for a Salem polynomial s.

    The characteristic polynomial of the n-th power of the companion matrix
    is a perfect power of the wanted minimal polynomial; its squarefree part
    is returned and re-certified.
    """
    if n <= 0:
        raise ValueError("power must be a positive integer")
    is_salem(s)
    if n == 1:
        return s
    C = companion_matrix(s)
    Cn = linalg.mat_pow(C, n)
    ch = IntPolynomial(linalg.charpoly(Cn))
    result = squarefree_part(ch)
    if not result.is_monic():
        result = IntPolynomial([-c for c in result.coeffs])
    is_salem(result)  # lambda^n is again a Salem (or quadratic Pisot unit) number
    return result


def square_class_test(s):
    """True iff -s(1) s(-1) is a nonzero perfect square (rational square class).

    Raises ValueError when s(1) s(-1) = 0, since 0 carries no square class.
    """
    v1 = s(1)
    v2 = s(-1)
    if v1 == 0 or v2 == 0:
        raise ValueError("square class undefined: polynomial vanishes at 1 or -1")
    val = -v1 * v2
    return val > 0 and is_perfect_square(val)


def graeffe(p):
    """Monic polynomial whose roots are the squares of the roots of monic p."""
    even = p.coeffs[0::2]
    odd = p.coeffs[1::2]
    e = IntPolynomial(even)
    o = IntPolynomial(odd)
    q = e * e - (o * o).shift_mul_x(1)
    if q.leading < 0:
        q = -q
    return q


@lru_cache(maxsize=None)
def _orders_of_degree_at_most(d):
    """Ascending n <= 2 d^2 + 6 with phi(n) <= d: the orders of the roots of
    unity of degree at most d (phi(n) >= sqrt(n / 2) bounds n by 2 d^2)."""
    out = []
    for n in range(1, 2 * d * d + 7):
        phi = n
        for q in factorize(n):
            phi = phi // q * (q - 1)
        if phi <= d:
            out.append(n)
    return tuple(out)


def is_cyclotomic_product(c):
    """True iff every irreducible factor of c is cyclotomic.

    Kronecker criterion: iterate the root-squaring (Graeffe) map on the
    squarefree part; roots of unity cycle among finitely many polynomials,
    anything off the unit circle blows past the binomial coefficient bound.
    """
    if c.is_zero() or not c.is_monic():
        raise ValueError("cyclotomic-product test needs a monic polynomial")
    if c.coeffs[0] == 0:
        raise ValueError("cyclotomic-product test needs a nonzero constant term")
    cur = squarefree_part(c)
    if cur.degree == 0:
        return True
    cap = _orders_of_degree_at_most(cur.degree)[-1] + 16
    seen = {cur.coeffs}
    for _ in range(cap):
        cur = squarefree_part(graeffe(cur))
        d = cur.degree
        if any(abs(cur.coeffs[i]) > comb(d, i) for i in range(d + 1)):
            return False
        if cur.coeffs in seen:
            return True
        seen.add(cur.coeffs)
    raise ArithmeticError("cyclotomic-product iteration exceeded its cap")


@lru_cache(maxsize=None)
def cyclotomic(n):
    """The n-th cyclotomic polynomial."""
    p = IntPolynomial([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            p, _ = poly_divmod_exact(p, cyclotomic(d))
    return p


def cyclotomic_factors(p, exclude_x_minus_one=False):
    """(n, cyclotomic(n)) for every cyclotomic polynomial dividing p."""
    out = []
    for n in _orders_of_degree_at_most(p.degree):
        if n == 1 and exclude_x_minus_one:
            continue
        cyc = cyclotomic(n)
        if divides(cyc, p):
            out.append((n, cyc))
    return out
