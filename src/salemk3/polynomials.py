"""Exact univariate integer polynomials.

Coefficients are arbitrary-precision ints in ascending degree order.
Everything here is exact and fraction-free in its loops: resultants and
determinants are integer computations; Sturm chains come from one primitive
integer pseudo-remainder kernel, each member a positive multiple of the
rational one; the cyclotomic-product test divides out, by exact integer
division, the cyclotomic factors that ``cyclotomic_factors`` lists; and signs
at a rational a/b (b > 0) are read from the homogeneous integer sum of
c_i a^i b^(d-i), with b a power of two along lambda's bisection walk. Salem
certification builds one Sturm chain, that of the trace polynomial of half the
degree, and reads it at four points only (-inf, -2, 2, +inf); it screens that
polynomial for cyclotomic factors with one evaluation modulo a product of
primes per pack of orders (CRT), and isolates lambda by one bisection walk on
the sign of the polynomial itself, on integer numerators over 2^k. That walk's
step, ``_halve``, is the one dyadic bisection step of the package: it also
refines lambda's interval for ``numberfield``.
One product modulo a monic polynomial (``mulmod``, with ``powmod`` on top)
serves the exact residue rings Z[x]/(m) and the rings (Z/m)[x]/(f) alike;
norms in Z[x]/(r) for a monic r are determinants of multiplication on that
ring, and the discriminant is one of them.
No floating point enters a decision.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from . import linalg
from .numbertheory import factorize, is_perfect_square, is_prime


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
        return IntPolynomial(poly_mul(self.coeffs, other.coeffs))

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


def _neg_prem(a, b):
    """-(a mod b) times a positive factor, made primitive (ascending int lists).

    Each step scales by |lc b| and subtracts sign(lc b) * c * x^k * b, so the
    result is a positive multiple of minus the remainder over the rationals.
    """
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    a = list(a)
    nb = len(b)
    while len(a) >= nb:
        c = sign * a[-1]
        k = len(a) - nb
        if scale != 1:
            a = [scale * x for x in a]
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        while a and a[-1] == 0:
            a.pop()
    g = gcd(*a)
    return [-(x // g) for x in a]


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


def _norm(t, r):
    """N(t) in Z[x]/(r) for a coefficient sequence t and a monic r of degree
    n: the n x n determinant of multiplication by t, whose column j is
    t x^j mod r. It equals the product of t over the roots of r, that is
    res(t, r), from a matrix of side n instead of the Sylvester side
    n + deg t."""
    cols, col = [], list(t)
    for _ in range(len(r) - 1):
        col = reduce_mod(col, r)
        cols.append(col)
        col = [0] + col
    return linalg.bareiss_det(cols)  # the transpose: columns as rows


def discriminant(p):
    """(-1)^(d(d-1)/2) N(p') in Z[x]/(p) for monic p of degree >= 1, which is
    (-1)^(d(d-1)/2) res(p, p')."""
    if p.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    if not p.is_monic():
        raise ValueError("discriminant implemented for monic polynomials only")
    d = p.degree
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * _norm(p.derivative().coeffs, p.coeffs)


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
    """r with p(x) = x^m r(x + 1/x), for monic reciprocal p of degree 2m; each
    step clears two coefficients of the palindromic remainder, which ends 0."""
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
    return IntPolynomial(r)


# --- Sturm chains, root counting, bisection ---------------------------------


def sturm_chain(p):
    """Sturm chain of p as integer coefficient lists.

    Member k is a positive multiple of the k-th member of the chain over the
    rationals, so sign variations and root counts are the same.
    """
    chain = [list(p.coeffs)]
    f1 = list(p.derivative().coeffs)
    if f1:
        chain.append(f1)
    while len(chain[-1]) > 1:
        r = _neg_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _sign_at(coeffs, x):
    """Sign of the polynomial at x = (a, b) with b > 0: the sign of the
    homogeneous sum of c_i a^i b^(d-i), which is b^d times the value there."""
    a, b = x
    v, bp = 0, 1
    for c in reversed(coeffs):
        v = v * a + c * bp
        bp *= b
    return (v > 0) - (v < 0)


def _halve(coeffs, a, b, q):
    """One bisection step on an interval (a/q, b/q] where the polynomial
    changes sign from negative to positive: (a, b, 2q) for the half that
    keeps that change. p(c) > 0 at the midpoint c = (a + b) / 2q puts the
    change at or below c, so b becomes c; otherwise a does."""
    c, q = a + b, 2 * q
    return (2 * a, c, q) if _sign_at(coeffs, (c, q)) > 0 else (c, 2 * b, q)


def _sign_changes(values):
    """Sign changes along a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _trace_chain_reads(chain):
    """Sign changes of a Sturm chain at -inf, -2, 2 and +inf, in that order,
    and the values of its first member at -2 and at 2.

    At +-inf a member has the sign of its leading coefficient, times
    (-1)^degree at -inf; at +-2 its value comes from integer Horner. The
    first member has V(a) - V(b) distinct real roots in (a, b].
    """
    at_minus_inf, at_minus_two, at_two, at_inf = [], [], [], []
    for f in chain:
        u = v = 0
        for c in reversed(f):
            u = c - 2 * u
            v = 2 * v + c
        at_minus_two.append(u)
        at_two.append(v)
        at_inf.append(f[-1])
        at_minus_inf.append(f[-1] if len(f) % 2 else -f[-1])
    reads = (at_minus_inf, at_minus_two, at_two, at_inf)
    return tuple(_sign_changes(x) for x in reads), at_minus_two[0], at_two[0]


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
    r (p(x) = x^m r(x + 1/x)) has exactly one real root of absolute value
    > 2, that root positive, and all remaining roots real inside (-2, 2).
    Degree-2 polynomials (no conjugates on the unit circle) are flagged
    quadratic_degenerate.

    The tests read the one Sturm chain of r, of half the degree, at four
    points: -inf, -2, 2 and +inf, each member's sign at +-inf from its
    leading coefficient and at +-2 from integer Horner. A root y of r gives
    the two roots of x^2 - yx + 1, which coincide only at y = +-2, so p is
    squarefree iff the chain ends in a constant and r(2) r(-2) != 0, the
    first member's values at 2 and -2. The differences of the four sign
    change counts give r's real roots, those in (2, +inf] and those in
    (-inf, -2].

    Irreducibility needs no factoring. Once p is squarefree and has this
    root pattern, every irreducible factor other than the minimal polynomial
    of lambda has all its roots on the unit circle, so it is cyclotomic by
    Kronecker's theorem: p is irreducible iff it has no cyclotomic factor.
    Hence a squarefree reducible p with the wrong pattern reports
    wrong_root_pattern, not reducible.

    The cyclotomic screen runs on r too, at half the degree. r(2) r(-2) != 0
    already rules out cyclotomic(1) and cyclotomic(2). For n >= 3, with
    (l, w) from ``_cyclotomic_root(n)``, p(w) = w^m r(w + 1/w) and w is a
    unit mod l, so cyclotomic(n) | p forces r(w + 1/w) = 0 mod l. The orders
    come in the few packs of ``_cyclotomic_packs``, each with one point Y
    that is w + 1/w modulo each of its primes (CRT), so one value r(Y) mod L
    per pack screens all of its orders. A hit l | r(Y) is confirmed at the
    next prime l' = 1 mod n, with (l', w') from ``_cyclotomic_root(n, l)``,
    and only the n that pass both go through exact division.
    """
    if p.is_zero() or p.degree < 2:
        raise NotSalemError("wrong_degree", str(p))
    r = trace_polynomial(p)  # refuses p unless it is monic, of even degree and reciprocal
    chain = sturm_chain(r)
    (minus_inf, minus_two, two, inf), r_minus_two, r_two = _trace_chain_reads(chain)
    if len(chain[-1]) > 1 or r_two == 0 or r_minus_two == 0:
        raise NotSalemError("reducible", str(p))
    if minus_inf - inf != r.degree:
        raise NotSalemError("wrong_root_pattern", "trace polynomial has non-real roots")
    above_two, below_minus_two = two - inf, minus_inf - minus_two
    if above_two != 1 or below_minus_two != 0:
        raise NotSalemError(
            "wrong_root_pattern",
            f"{above_two} trace roots above 2, {below_minus_two} at or below -2",
        )
    for L, Y, orders in _cyclotomic_packs(p.degree):
        v = polyval_mod(r.coeffs, Y, L)
        for n, l in orders:
            if v % l:
                continue
            l2, w2 = _cyclotomic_root(n, l)
            if polyval_mod(r.coeffs, (w2 + pow(w2, -1, l2)) % l2, l2) == 0 and divides(cyclotomic(n), p):
                raise NotSalemError("reducible", str(p))
    # p's only real roots are 1/lambda < 1 < lambda, both irrational, so p < 0
    # exactly between them. Bisect (-M, M], M = 1 + max |p_i| (Cauchy; p is
    # monic), on numerators a, b over q = 2^k until (a/q, b/q] holds lambda
    # alone: p(c/q) < 0 leaves only lambda in (c/q, b/q]; otherwise c/q lies
    # below both roots (c < q) or above both. Then halve toward lambda
    # (``_halve``), two halvings a round, until a/q > 1
    coeffs = p.coeffs
    b = max(map(abs, coeffs[:-1])) + 1
    a, q = -b, 1
    while True:
        c, a, b, q = a + b, 2 * a, 2 * b, 2 * q  # c / q is the midpoint
        if _sign_at(coeffs, (c, q)) <= 0:
            a = c
            break
        if c < q:
            a = c
        else:
            b = c
    while a <= q:
        for _ in range(2):
            a, b, q = _halve(coeffs, a, b, q)
    return SalemCertificate(
        polynomial=p,
        degree=p.degree,
        trace_polynomial=r,
        lambda_interval=(Fraction(a, q), Fraction(b, q)),
        quadratic_degenerate=p.degree == 2,
    )


def power_min_poly(s, n):
    """Monic minimal polynomial of lambda^n for a Salem polynomial s.

    It is the characteristic polynomial of y = x^n in Z[x]/(s), monic by
    construction. That polynomial is already the minimal one: lambda^n has
    degree d = deg s, because z^n = w^n for two distinct conjugates would,
    after a Galois map sending z to lambda, give a second conjugate of
    modulus lambda. It comes from traces: y by square and multiply mod s,
    the power sums p_0 .. p_(d-1) of the roots of s by Newton's identities,
    P_j = Tr(y^j) = sum_i (y^j)_i p_i for j <= d/2, and the top coefficients
    ch_(d-1) .. ch_(d/2) back from P_1 .. P_(d/2) by Newton's identities with
    exact integer division (ch_(d-k) needs P_1 .. P_k alone). The roots of
    lambda^n come in pairs z, 1/z, as those of s do, so the result is
    palindromic and ch_k = ch_(d-k) fills in the rest.
    s is certified once, on entry; lambda^n is again a Salem number (or a
    quadratic Pisot unit), so the result is not certified again.
    """
    if n <= 0:
        raise ValueError("power must be a positive integer")
    return _power_min_poly(is_salem(s), n)


def _power_min_poly(cert, n):
    """``power_min_poly`` for n >= 1 on the Salem certificate of s, which the caller holds."""
    c, d = cert.polynomial.coeffs, cert.degree
    # power sums of the roots of s: p_k = -(k c_(d-k) + sum_(i<k) c_(d-k+i) p_i)
    sums = [d]
    for k in range(1, d):
        sums.append(-(k * c[d - k] + sum(c[d - k + i] * sums[i] for i in range(1, k))))

    y = powmod([0, 1], n, c)
    traces, yj = [], [1]
    for _ in range(d // 2):
        yj = mulmod(yj, y, c)
        traces.append(sum(a * b for a, b in zip(yj, sums)))
    ch = [0] * d + [1]
    ch[d - d // 2 : d] = reversed(_top_coefficients(traces))
    for k in range(d // 2):
        ch[k] = ch[d - k]
    return IntPolynomial(ch)


def _top_coefficients(sums):
    """[c_(d-1), ..., c_(d-k)] for the monic c of degree d >= k whose roots
    have the power sums sums = [P_1, ..., P_k], all integers, by Newton's
    identities k c_(d-k) = -(P_k + sum_(i<k) c_(d-k+i) P_i): exact integer
    divisions when c is integral, as for the characteristic polynomial of an
    integer matrix or of an algebraic integer."""
    top = [1]  # top[j] = c_(d-j)
    for k in range(1, len(sums) + 1):
        q, r = divmod(-sums[k - 1] - sum(top[k - i] * sums[i - 1] for i in range(1, k)), k)
        assert r == 0
        top.append(q)
    return top[1:]


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


@lru_cache(maxsize=None)
def _orders_of_degree_at_most(d):
    """Ascending n with phi(n) <= d: the orders of the roots of unity of
    degree at most d. Built prime by prime: each n found so far, with phi(n),
    is multiplied by p, p^2, ... while phi(n) p^(e-1) (p - 1) <= d, so only
    primes p <= d + 1 enter and every n is reached once."""
    phi = {1: 1} if d >= 1 else {}
    for p in range(2, d + 2):
        if is_prime(p):
            for n, f in list(phi.items()):
                n, f = n * p, f * (p - 1)
                while f <= d:
                    phi[n] = f
                    n, f = n * p, f * p
    return tuple(sorted(phi))


def is_cyclotomic_product(c):
    """True iff every irreducible factor of c is cyclotomic.

    Reads the cyclotomic factor list (Kronecker): dividing each listed
    factor out of c as often as it goes leaves 1 exactly when c is a
    product of cyclotomic polynomials.
    """
    if c.is_zero() or not c.is_monic():
        raise ValueError("cyclotomic-product test needs a monic polynomial")
    if c.coeffs[0] == 0:
        raise ValueError("cyclotomic-product test needs a nonzero constant term")
    for _, phi in cyclotomic_factors(c):
        q, r = poly_divmod_exact(c, phi)
        while r.is_zero():
            c = q
            q, r = poly_divmod_exact(c, phi)
    return c.degree == 0


@lru_cache(maxsize=None)
def cyclotomic(n):
    """The n-th cyclotomic polynomial."""
    p = IntPolynomial([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            p, _ = poly_divmod_exact(p, cyclotomic(d))
    return p


@lru_cache(maxsize=None)
def _cyclotomic_root(n, above=0):
    """(l, w): the least prime l = 1 mod n above ``above`` and a root w of
    cyclotomic(n) mod l, that is an element of order exactly n in (Z/l)^*."""
    l = n + 1
    while l <= above or not is_prime(l):
        l += n
    for a in range(1, l):
        w = pow(a, (l - 1) // n, l)
        if all(pow(w, n // q, l) != 1 for q in factorize(n)):
            return l, w


@lru_cache(maxsize=None)
def _cyclotomic_packs(d):
    """The cyclotomic screen of ``is_salem`` at degree d, as packs
    (L, Y, ((n, l), ...)) that hold each order n >= 3 of
    ``_orders_of_degree_at_most(d)`` once, with (l, w) from
    ``_cyclotomic_root(n)``. The primes l of a pack are distinct, L is their
    product and Y = w + 1/w mod each l (CRT). Orders that share their prime,
    such as n and 2n for odd n, go to different packs: each order goes to
    the first pack without its prime."""
    packs = []
    for n in _orders_of_degree_at_most(d)[2:]:
        l = _cyclotomic_root(n)[0]
        pack = next((pack for pack in packs if all(q != l for _, q in pack)), None)
        if pack is None:
            packs.append(pack := [])
        pack.append((n, l))
    out = []
    for pack in packs:
        L, Y = 1, 0
        for n, l in pack:
            w = _cyclotomic_root(n)[1]
            Y += L * ((w + pow(w, -1, l) - Y) * pow(L, -1, l) % l)  # now Y = w + 1/w mod l
            L *= l
        out.append((L, Y, tuple(pack)))
    return tuple(out)


def cyclotomic_factors(p):
    """(n, cyclotomic(n)) for every cyclotomic polynomial dividing p.

    Each candidate is tested mod a prime first: with (l, w) from
    ``_cyclotomic_root(n)``, cyclotomic(n) | p forces p(w) = 0 mod l, so
    p(w) != 0 mod l rules it out. Only the n that pass go through exact
    division. ``is_salem`` runs its own screen on the trace polynomial,
    which only asks whether a factor exists.
    """
    out = []
    for n in _orders_of_degree_at_most(p.degree):
        l, w = _cyclotomic_root(n)
        if polyval_mod(p.coeffs, w, l) == 0 and divides(cyclotomic(n), p):
            out.append((n, cyclotomic(n)))
    return out


# --- polynomials mod p, and products modulo a monic polynomial ---------------
# Coefficient lists, constant term first, over the integers mod a prime p;
# products modulo a monic polynomial are exact over Z (m = 0) or mod any m > 1.


def polyval_mod(coeffs, x, p):
    """The polynomial with the given coefficients evaluated at x, mod p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_gcd_mod(f, g, p):
    """A gcd of f and g mod the prime p, as a list without leading zeros: its
    length is the degree plus one, and it is empty when f = g = 0 mod p."""

    def reduced(h):
        h = [c % p for c in h]
        while h and h[-1] == 0:
            h.pop()
        return h

    f, g = reduced(f), reduced(g)
    while g:
        inv = pow(g[-1], -1, p)
        while len(f) >= len(g):
            factor = f[-1] * inv % p
            shift = len(f) - len(g)
            f = reduced(f[:shift] + [a - factor * c for a, c in zip(f[shift:], g)])
        f, g = g, f
    return f


def poly_mul(f, g):
    """The coefficient list of f g, for coefficient lists f and g."""
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] += a * b
    return prod


def reduce_mod(p, modulus, m=0):
    """p mod a monic modulus of degree n >= 1, for a coefficient list p that
    it may overwrite, as a list of exactly n coefficients: exact integers for
    m = 0, otherwise reduced into [0, m)."""
    n = len(modulus) - 1
    if len(p) < n:
        p = p + [0] * (n - len(p))
    for k in range(len(p) - 1, n - 1, -1):
        c = p[k] % m if m else p[k]
        if c:  # x^k = x^(k-n) (x^n - modulus)
            for i in range(n):
                p[k - n + i] -= c * modulus[i]
    return [c % m for c in p[:n]] if m else p[:n]


def mulmod(f, g, modulus, m=0):
    """f g mod a monic modulus (coefficient lists), as for ``reduce_mod``."""
    return reduce_mod(poly_mul(f, g), modulus, m)


def powmod(base, e, modulus, m=0):
    """base^e mod a monic modulus by square and multiply, for e >= 0 (a
    negative e raises ValueError); the result is as for ``mulmod``. With the
    characteristic polynomial of F as the modulus, (x^e mod it)(F) = F^e."""
    if e < 0:
        raise ValueError(f"powmod needs an exponent e >= 0, got {e}")
    result, base = mulmod([1], [1], modulus, m), mulmod(base, [1], modulus, m)
    while e:
        if e & 1:
            result = mulmod(result, base, modulus, m)
        e >>= 1
        if e:
            base = mulmod(base, base, modulus, m)
    return result


def distinct_degrees_mod(f, p):
    """(degrees, squarefree) for a monic f mod the prime p: the set of the
    degrees of the irreducible factors of f mod p, and whether f is
    squarefree mod p.

    Distinct-degree factorization (Lidl-Niederreiter, ch. 3): with
    g = x^(p^k) mod f, gcd(f, g - x) is the product of the distinct
    irreducible factors of f of degree dividing k, of which those of degree
    below k are already divided out. Dividing it out again until it is 1
    removes every copy, and a second division at some k is a repeated
    factor. The loop stops once f has degree below 2(k + 1): what is left
    is 1 or one irreducible factor.
    """
    f = [c % p for c in f]
    degrees, squarefree = set(), True
    g, k = [0, 1], 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        g = powmod(g, p, f, p)
        g_minus_x = [g[0], g[1] - 1] + g[2:]
        divisions = 0
        while len(h := poly_gcd_mod(f, g_minus_x, p)) > 1:
            inv = pow(h[-1], -1, p)
            h = [c * inv % p for c in h]
            quotient = [0] * (len(f) - len(h) + 1)
            for i in reversed(range(len(quotient))):
                quotient[i] = c = f[i + len(h) - 1]
                for j, b in enumerate(h):
                    f[i + j] = (f[i + j] - c * b) % p
            f = quotient
            divisions += 1
        if divisions:
            degrees.add(k)
            squarefree = squarefree and divisions == 1
    if len(f) > 1:
        degrees.add(len(f) - 1)
    return degrees, squarefree
