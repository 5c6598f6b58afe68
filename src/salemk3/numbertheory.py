"""Primes and local invariants of quadratic forms over Q.

Legendre / Hilbert / Hasse symbols follow the classical closed formulas;
the Legendre symbol is computed by quadratic reciprocity (Jacobi-style),
so the Euler-criterion powering stays available as an independent check.
"""

from fractions import Fraction
from math import gcd

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # the least strong pseudoprime to every base of _MR_BASES


def is_prime(n):
    """Deterministic Miller-Rabin to the 13 prime bases 2 .. 41.

    The answer is proven for n < psi_13 = 3317044064679887385961981
    (Sorenson and Webster, 2017). From psi_13 on, a composite that fails a
    base is still reported, but an n that passes every base raises
    ValueError: its primality is unproven, and a yes could be wrong.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise ValueError(f"primality of {n} is unproven: it is >= psi_13 and passes every base 2 .. 41")
    return True


def _pollard_rho(n):
    """A divisor 1 < d < n of an odd composite n."""
    x, c = 2, 1
    while True:
        y, d = x, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        x, c = x + 1, c + 1


def factorize(n):
    """Prime factorization {p: exponent} of n > 0; a factor that
    ``is_prime`` cannot decide raises its ValueError."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    factors = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()  # odd and > 1: 2 is stripped above, and rho splits m into 1 < d < m
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return dict(sorted(factors.items()))


def valuation(n, p):
    """Largest e with p^e | n, for n != 0."""
    if n == 0:
        raise ValueError("valuation of zero")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def is_perfect_square(n):
    if n < 0:
        return False
    from math import isqrt

    r = isqrt(n)
    return r * r == n


def legendre(a, p):
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError("legendre symbol needs an odd prime modulus")
    return _jacobi(a % p, p)


def _jacobi(a, n):
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a, p):
    """A square root of a modulo an odd prime p (Tonelli-Shanks); None if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _square_free_part(a):
    """Squarefree integer in the square class of the nonzero rational a."""
    a = Fraction(a)
    n = a.numerator * a.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return sign * out


def hilbert(a, b, p=None):
    """Hilbert symbol (a, b)_p in {1, -1}; p a prime or None for the real place."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    a = _square_free_part(a)
    b = _square_free_part(b)
    if p is None:
        return -1 if (a < 0 and b < 0) else 1
    if not is_prime(p):
        raise ValueError("hilbert symbol place must be prime or None")
    alpha = valuation(a, p)
    beta = valuation(b, p)
    u = a // p**alpha
    v = b // p**beta
    if p != 2:
        sign = -1 if (alpha * beta % 2) and (p % 4 == 3) else 1
        if beta % 2:
            sign *= legendre(u % p, p)
        if alpha % 2:
            sign *= legendre(v % p, p)
        return sign
    eps_u = (u - 1) // 2
    eps_v = (v - 1) // 2
    omega_u = (u * u - 1) // 8
    omega_v = (v * v - 1) // 8
    exponent = eps_u * eps_v + alpha * omega_v + beta * omega_u
    return -1 if exponent % 2 else 1


def hasse_invariant(diagonal, p=None):
    """Hasse invariant of a nondegenerate diagonal form: prod_{i<j} (a_i, a_j)_p."""
    entries = [Fraction(a) for a in diagonal]
    if any(a == 0 for a in entries):
        raise ValueError("diagonal form must be nondegenerate")
    out = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            out *= hilbert(entries[i], entries[j], p)
    return out


def relevant_places(a, b):
    """Finite places where (a, b)_p could be nontrivial, plus the real place (None)."""
    places = {2}
    for x in (a, b):
        x = Fraction(x)
        places.update(factorize(abs(x.numerator)))
        places.update(factorize(x.denominator))
    return sorted(places) + [None]
