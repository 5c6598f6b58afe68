"""Isometries of lattices: twisting, kernels, integral powering.

Matrices act on column vectors and are validated exactly against the Gram
matrix. Rational isometries are allowed throughout; integrality is a derived
property and several operations (twisting, discriminant actions) insist on it.
Orders are found by one climb on powers of x modulo the characteristic
polynomial chi (Cayley-Hamilton), which tests each exponent as a linear
combination of matrices formed once: the images under F^i of the dual basis
for the action on the discriminant group, and D F^i mod D for the least
integral power of F.
"""

from dataclasses import dataclass
from math import gcd, lcm

from . import linalg
from .lattices import Lattice, LatticeError, discriminant_form, forms_isomorphic, hyperbolic_p_form
from .numbertheory import factorize, is_prime, valuation
from .polynomials import (
    IntPolynomial,
    NotSalemError,
    discriminant,
    distinct_degrees_mod,
    divides,
    is_salem,
    powmod,
    resultant,
    trace_polynomial,
)


class IsometryError(ValueError):
    pass


def is_isometry(L: Lattice, M) -> bool:
    """Exact check M^T G M = G."""
    return _preserves_form(L, *linalg.clear_denominators(M))


def _preserves_form(L, den, N):
    """N^T G N = den^2 G in integers: the rational N / den is an isometry of L."""
    if len(N) != L.rank or any(len(row) != L.rank for row in N):
        return False
    NtGN = linalg.mat_mul(linalg.mat_mul(linalg.transpose(N), L.gram), N)
    return NtGN == linalg.mat_scale(den * den, L.gram)


@dataclass(frozen=True)
class Isometry:
    lattice: Lattice
    matrix: tuple  # ints and Fractions; the arithmetic runs on N = den * matrix

    def __init__(self, lattice, matrix):
        den, num = linalg.clear_denominators(matrix)
        if not _preserves_form(lattice, den, num):
            raise IsometryError("matrix does not preserve the bilinear form")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "matrix", linalg.divided(num, den))
        # not dataclass fields: equality, hash and repr read the matrix only
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @property
    def rank(self):
        return self.lattice.rank

    def is_integral(self):
        return self._den == 1

    def char_poly(self):
        """Characteristic polynomial; raises if it is not integral. For F = N / den its
        x^k coefficient is that of det(x I - N) divided by den^(n - k)."""
        n = self.rank
        coeffs = [divmod(c, self._den ** (n - k)) for k, c in enumerate(linalg.charpoly(self._num))]
        if any(r for _, r in coeffs):
            raise IsometryError("characteristic polynomial is not integral")
        return IntPolynomial([q for q, _ in coeffs])

    def inverse_matrix(self):
        """f^-1, with ints where it is integral, like ``matrix``."""
        return linalg.rat_inverse(self.matrix)

    def w_matrix(self):
        """f + f^-1, the self-adjoint generator used for twists, as (W, D):
        the integer matrix W over the denominator D."""
        D, W = linalg.clear_denominators(linalg.mat_add(self.matrix, self.inverse_matrix()))
        return W, D


def _check_pair(L, f):
    if f.lattice != L:
        raise IsometryError("the isometry is of another lattice than the one given")


@dataclass(frozen=True)
class TwistElement:
    """Element a of Z[f + f^-1], given as an integer polynomial in w."""

    poly: IntPolynomial

    def __init__(self, poly):
        if isinstance(poly, (list, tuple)):
            poly = IntPolynomial(poly)
        if isinstance(poly, int):
            poly = IntPolynomial([poly])
        object.__setattr__(self, "poly", poly)

    def matrix_for(self, f: Isometry):
        """a(f + f^-1) as (A, D): the integer matrix A over the denominator D."""
        W, e = f.w_matrix()
        return linalg.poly_at_matrix(self.poly.coeffs, W, e)

    def norm_against(self, trace_poly: IntPolynomial):
        """Field norm from Z[w]: resultant of the trace polynomial with a(w)."""
        if self.poly.is_zero():
            return 0
        return resultant(self.poly, trace_poly)


def twist(L: Lattice, f: Isometry, a: TwistElement):
    """Twisted lattice <x, y>_a = <a x, y> together with f acting on it.

    Requires f to be an isometry of L and a(f + f^-1), which is self-adjoint,
    integral; f remains an isometry of the twist verbatim. For an integral f
    the twist of an even lattice stays even; a rational one can make it odd,
    and that is refused.
    """
    _check_pair(L, f)
    A, den = a.matrix_for(f)
    if any(x % den for row in A for x in row):
        raise IsometryError("twist element does not act integrally on the lattice")
    A = tuple(tuple(x // den for x in row) for row in A)
    try:
        L2 = Lattice(linalg.mat_mul(linalg.transpose(A), L.gram))
    except LatticeError:
        raise IsometryError("twist is degenerate") from None
    if L.is_even() and not L2.is_even():
        raise IsometryError("the twist of an even lattice is odd")
    return L2, Isometry(L2, f.matrix)


@dataclass(frozen=True)
class KernelSublattice:
    lattice: Lattice
    basis: tuple  # rows, ambient coordinates
    isometry: Isometry


def kernel_sublattice(f: Isometry, p: IntPolynomial):
    """Saturated sublattice ker p(f) with its induced form and isometry."""
    char = f.char_poly()
    if not divides(p, char):
        raise IsometryError("polynomial does not divide the characteristic polynomial")
    P, _ = linalg.poly_at_matrix(p.coeffs, f._num, f._den)
    B = linalg.saturation(linalg.primitive_kernel(P, f.rank))  # a Z-basis of ker P
    if not B:
        raise IsometryError("kernel is trivial")
    try:
        sub = f.lattice.sublattice(B)
    except LatticeError:
        raise IsometryError("kernel sublattice is degenerate") from None
    restricted = _restrict_to_rows(f._den, f._num, B)
    return KernelSublattice(lattice=sub, basis=B, isometry=Isometry(sub, restricted))


def _restrict_to_rows(den, N, B):
    """Matrix of the action of F = N / den on row-span coordinates: rows b -> b F^T.

    Column convention: the Y with B^T Y = F B^T, held as den Y by the echelon
    form of [B^T | N B^T]. Raises IsometryError when the row span is not
    invariant, that is when a pivot lands in the right half.
    """
    k = len(B)
    Bt = linalg.transpose(B)
    R, d, pivots = linalg.gauss_jordan([b + fb for b, fb in zip(Bt, linalg.mat_mul(N, Bt))])
    if pivots != tuple(range(k)):
        raise IsometryError("row span is not invariant under the isometry")
    return linalg.divided(tuple(row[k:] for row in R[:k]), d * den)


def _least_power(chi, m, images, target):
    """Least d >= 1 with sum r_i images[i] = target mod m for r = x^d mod
    (chi, m), by one climb per prime.

    chi is a monic integer polynomial of degree n (ascending coefficients)
    and images[0 .. n-1] are matrices of one shape. For images[i] = A^i T
    with chi(A) = 0, Cayley-Hamilton makes the sum A^d T mod m. The
    exponents that pass must form a subgroup dZ of Z that contains the
    order of x in (Z/m)[x]/(chi), so x must be a unit there: chi(0) is
    prime to m. That order divides the lcm E over p^e exactly dividing m of
    p^(e-1) p^t lcm(p^k - 1 : k in K), where K holds the degrees of the
    irreducible factors of chi mod p, t = 0 when chi is squarefree mod p
    and p^t is otherwise the least power of p that is >= n (the unit group
    of F_p[x]/(f^a) has exponent (p^k - 1) p^t for f irreducible of degree
    k and p^t >= a). For each q^a exactly dividing E in turn, the running
    exponent drops its q-part and climbs back one factor q at a time until
    the test passes (Cohen, GTM 138, Algorithm 1.4.3). The primes already
    climbed hold their valuations in d and the rest hold at least theirs,
    so each climb stops exactly at v_q(d). Each test is one linear
    combination of the images, with no matrix product.
    """
    n = len(chi) - 1
    E = 1
    for p, e in factorize(m).items():
        if chi[0] % p == 0:  # chi(0) = det(-A)
            raise ArithmeticError("matrix is not invertible modulo p")
        degrees, squarefree = distinct_degrees_mod(chi, p)
        pt = 1
        if not squarefree:
            while pt < n:
                pt *= p
        E = lcm(E, p ** (e - 1) * pt, *(p**k - 1 for k in degrees))
    # one column of coefficients per entry: the entry of the sum is their dot product with r
    entries = list(zip(*([x for row in P for x in row] for P in images)))
    target = [x % m for row in target for x in row]

    def passes(r):
        return all(sum(c * x for c, x in zip(r, col)) % m == t for col, t in zip(entries, target))

    d = E
    for q, a in factorize(E).items():
        d //= q**a
        r = powmod([0, 1], d, chi, m)
        for _ in range(a):
            if passes(r):
                break
            r = powmod(r, q, chi, m)
            d *= q
    return d


def discriminant_order(L: Lattice, f: Isometry):
    """Order of the action of an integral isometry f on L^dual / L.

    With G^-1 = D / e in lowest terms (``L.dual_basis()``), e is the exponent
    of L^dual / L and f^d acts trivially exactly when F^d D = D mod e.
    The exponents that pass form a subgroup containing the order of F
    modulo e, so the climb of ``_least_power`` on the images F^i D mod e
    finds the least one.
    """
    _check_pair(L, f)
    if not f.is_integral():
        raise IsometryError("discriminant action needs an integral isometry")
    return _discriminant_order(L, f, f.char_poly().coeffs)


def _discriminant_order(L: Lattice, f: Isometry, chi):
    """``discriminant_order`` for an integral isometry f of L whose
    characteristic polynomial the caller already holds, as the coefficient
    list chi."""
    D, e = L.dual_basis()
    images = [linalg.mat_mod(D, e)]
    while len(images) < L.rank:
        images.append(linalg.mat_mod(linalg.mat_mul(f._num, images[-1]), e))
    return _least_power(chi, e, images, images[0])


def power_to_integral(L: Lattice, f: Isometry):
    """Minimal n >= 1 with f^n integral, plus the integral matrix f^n.

    Let F = N / d have rank n and characteristic polynomial chi, which must
    be integral, and let D be the least integer with D F^i integral for all
    i < n: d^(n-1) over its gcd with the entries of the d^(n-1-i) N^i.
    Then D F^i is integral for every i >= 0, since chi is monic and
    integral and so F^(i+n) = -sum_(j<n) c_j F^(i+j) (Cayley-Hamilton).
    For any k >= 0, r = x^k mod chi over Z gives F^k = sum r_i F^i, so F^k
    is integral exactly when sum r_i (D F^i) = 0 mod D, and that depends
    only on r mod D, that is on x^k mod (chi, D).

    The integral powers form a subgroup: F is an isometry of a
    nondegenerate form, so det F = +-1, and an integral F^k is then in
    GL_n(Z) with F^-k integral too. It contains the order E of x modulo
    (chi, D) (x is a unit there, as chi(0) = +-det F = +-1): x^E = 1 + D s
    mod chi over Z, so F^E = I + sum s_i (D F^i) is integral. So the climb
    of ``_least_power`` on the images D F^i mod D finds n, and the exact
    f^n is (sum r_i D F^i) / D for r = x^n mod chi over Z.
    """
    _check_pair(L, f)
    if f.is_integral():
        return 1, Isometry(L, f.matrix)
    chi = f.char_poly().coeffs
    N, d = f._num, f._den
    n = L.rank
    # d^(n-1) F^i = d^(n-1-i) N^i, each from the last as N times it over d
    scaled = [linalg.mat_scale(d ** (n - 1), linalg.identity(n))]
    while len(scaled) < n:
        scaled.append(tuple(tuple(x // d for x in row) for row in linalg.mat_mul(N, scaled[-1])))
    g = gcd(*(x for P in scaled for row in P for x in row))
    D = d ** (n - 1) // g
    exact = [tuple(tuple(x // g for x in row) for row in P) for P in scaled]  # D F^i
    m = _least_power(chi, D, [linalg.mat_mod(P, D) for P in exact], linalg.zeros(n, n))
    r = powmod([0, 1], m, chi)
    power = tuple(
        tuple(sum(c * P[i][j] for c, P in zip(r, exact)) // D for j in range(n)) for i in range(n)
    )
    return m, Isometry(L, power)


# --- invariant forms ----------------------------------------------------------


def invariant_symmetric_forms(F):
    """Basis of the space of symmetric rational G with F^T G F = G.

    F must be invertible over Q. Matrices are returned with integer primitive
    entries (denominators cleared).
    """
    n = len(F)
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {ij: k for k, ij in enumerate(idx)}
    rows = []
    for a in range(n):
        for b in range(a, n):
            # (F^T G F - G)[a][b] as a linear form in the g_ij
            row = [0] * len(idx)
            for i in range(n):
                for j in range(n):
                    key = (i, j) if i <= j else (j, i)
                    row[pos[key]] += F[i][a] * F[j][b]
            row[pos[(a, b)]] -= 1
            rows.append(tuple(row))
    _, rows = linalg.clear_denominators(rows)
    out = []
    for ints in linalg.primitive_kernel(rows, len(idx)):
        G = [[0] * n for _ in range(n)]
        for (i, j), k in pos.items():
            G[i][j] = ints[k]
            G[j][i] = ints[k]
        out.append(tuple(tuple(row) for row in G))
    return tuple(out)


def search_even_invariant_lattice(F, signature=None, determinant=None, box=10):
    """Even nondegenerate invariant lattice from small combinations of the basis.

    Deterministically scans integer coefficient vectors of sup-norm up to
    ``box``, shell by shell, and returns the first match; raises
    IsometryError naming the radius when the box is exhausted.
    """
    basis = invariant_symmetric_forms(F)
    if not basis:
        raise IsometryError("no invariant symmetric forms")
    n = len(F)
    for radius in range(1, box + 1):
        for coeffs in linalg.box_shell(len(basis), radius):
            G = linalg.zeros(n, n)
            for c, B in zip(coeffs, basis):
                if c:
                    G = linalg.mat_add(G, linalg.mat_scale(c, B))
            if any(G[i][i] % 2 for i in range(n)):
                continue
            try:
                cand = Lattice(G)
            except LatticeError:
                continue
            if signature is not None and cand.signature() != tuple(signature):
                continue
            if determinant is not None and cand.determinant() != determinant:
                continue
            return cand
    raise IsometryError(f"no even invariant lattice found up to radius {box}")


# --- twist by a split prime ----------------------------------------------------


@dataclass(frozen=True)
class TwistSplitReport:
    passed: bool
    problems: tuple
    twisted: Lattice
    p_valuation: int
    determinant: int
    p_part_orders: tuple
    form_matches_hyperbolic: bool


def twist_split_certificate(L: Lattice, f: Isometry, t: TwistElement, n: int, p: int):
    """Check the split-prime twist: twisting by t^n multiplies |det| by p^(2n)
    and the p-primary discriminant form becomes hyperbolic of scale 1/p^n.

    Raises IsometryError unless f is an isometry of L, n >= 1 and p is a
    prime. Hypotheses are verified first: the characteristic polynomial is
    an irreducible Salem polynomial, t has norm +-p, and p divides neither
    2, det L, nor disc s. Each violation is reported individually. Once they
    hold, |det| = |det L| N(t)^(2n) = |det L| p^(2n) follows, and the p-part
    is hyperbolic exactly when the prime (t) splits in Q(lambda).
    """
    _check_pair(L, f)
    if n < 1:
        raise IsometryError("twist exponent must be >= 1")
    if not is_prime(p):
        raise IsometryError(f"twist prime {p} is not a prime")
    problems = []
    s = f.char_poly()
    try:
        is_salem(s)
    except NotSalemError as exc:
        problems.append(f"characteristic polynomial is not Salem: {exc.reason}")
    try:
        r = trace_polynomial(s)
        norm = t.norm_against(r)
        if abs(norm) != p:
            problems.append(f"twist element has norm {norm}, expected +-{p}")
    except NotSalemError:
        problems.append("no trace polynomial available")
    excluded = 2 * L.determinant() * discriminant(s)
    if excluded % p == 0:
        problems.append(f"p = {p} divides 2 * det L * disc s = {excluded}")
    if problems:
        return TwistSplitReport(False, tuple(problems), L, 0, L.determinant(), (), False)
    element = TwistElement(t.poly**n)
    twisted, f2 = twist(L, f, element)
    det = twisted.determinant()
    q = discriminant_form(twisted)
    part = q.p_primary_part(p)
    reference = hyperbolic_p_form(p, n)
    form_ok = forms_isomorphic(part, reference)
    if not form_ok:
        problems.append("p-primary discriminant form is not hyperbolic of scale 1/p^n")
    return TwistSplitReport(
        passed=not problems,
        problems=tuple(problems),
        twisted=twisted,
        p_valuation=valuation(det, p),
        determinant=det,
        p_part_orders=part.orders,
        form_matches_hyperbolic=form_ok,
    )
