"""Isometries of lattices: twisting, kernels, integral powering.

Matrices act on column vectors and are validated exactly against the Gram
matrix. Rational isometries are allowed throughout; integrality is a derived
property and several operations (twisting, discriminant actions) insist on it.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .lattices import Lattice, LatticeError, discriminant_form, forms_isomorphic, hyperbolic_p_form
from .numbertheory import factorize, valuation
from .polynomials import (
    IntPolynomial,
    NotSalemError,
    discriminant,
    is_salem,
    resultant,
    trace_polynomial,
)


class IsometryError(ValueError):
    pass


def is_isometry(L: Lattice, M) -> bool:
    """Exact check M^T G M = G."""
    if len(M) != L.rank or any(len(row) != L.rank for row in M):
        return False
    return linalg.mat_mul(linalg.mat_mul(linalg.transpose(M), L.gram), M) == L.gram


@dataclass(frozen=True)
class Isometry:
    lattice: Lattice
    matrix: tuple

    def __init__(self, lattice, matrix):
        matrix = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        matrix = tuple(
            tuple(int(x) if x.denominator == 1 else x for x in row) for row in matrix
        )
        if not is_isometry(lattice, matrix):
            raise IsometryError("matrix does not preserve the bilinear form")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "matrix", matrix)

    @property
    def rank(self):
        return self.lattice.rank

    def is_integral(self):
        return linalg.is_integral(self.matrix)

    def char_poly(self):
        """Characteristic polynomial; raises if it is not integral."""
        coeffs = linalg.charpoly(self.matrix)
        fracs = [Fraction(c) for c in coeffs]
        if any(c.denominator != 1 for c in fracs):
            raise IsometryError("characteristic polynomial is not integral")
        return IntPolynomial([int(c) for c in fracs])

    def inverse_matrix(self):
        # F^-1 = G^-1 F^T G, exact and division-free in F
        Ginv = self.lattice.dual_basis()
        return linalg.mat_mul(
            linalg.mat_mul(Ginv, linalg.transpose(self.matrix)), self.lattice.gram
        )

    def w_matrix(self):
        """f + f^-1, the self-adjoint generator used for twists."""
        return linalg.mat_add(self.matrix, self.inverse_matrix())

    def apply(self, v):
        return linalg.mat_vec(self.matrix, v)


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
        return linalg.poly_at_matrix(self.poly.coeffs, f.w_matrix())

    def norm_against(self, trace_poly: IntPolynomial):
        """Field norm from Z[w]: resultant of the trace polynomial with a(w)."""
        if self.poly.is_zero():
            return 0
        return resultant(self.poly, trace_poly)


def twist(L: Lattice, f: Isometry, a: TwistElement):
    """Twisted lattice <x, y>_a = <a x, y> together with f acting on it.

    Requires a(f + f^-1) integral; the twist of an even lattice stays even
    and f remains an isometry of the twist verbatim.
    """
    A = a.matrix_for(f)
    if not linalg.is_integral(A):
        raise IsometryError("twist element does not act integrally on the lattice")
    A = linalg.mat_to_int(A)
    gram2 = linalg.mat_mul(linalg.transpose(A), L.gram)
    if not linalg.is_symmetric(gram2):
        raise AssertionError("twisted form is not symmetric; a is not self-adjoint")
    try:
        L2 = Lattice(gram2)
    except LatticeError:
        raise IsometryError("twist is degenerate") from None
    if L.is_even() and not L2.is_even():
        raise AssertionError("twist of an even lattice must stay even")
    return L2, Isometry(L2, f.matrix)


@dataclass(frozen=True)
class KernelSublattice:
    lattice: Lattice
    basis: tuple  # rows, ambient coordinates
    isometry: Isometry


def kernel_sublattice(f: Isometry, p: IntPolynomial):
    """Saturated sublattice ker p(f) with its induced form and isometry."""
    char = f.char_poly()
    from .polynomials import divides

    if not divides(p, char):
        raise IsometryError("polynomial does not divide the characteristic polynomial")
    _, P = linalg.clear_denominators(linalg.poly_at_matrix(p.coeffs, f.matrix))
    B = linalg.int_row_kernel(linalg.transpose(P))  # saturated: rows of a unimodular U
    if not B:
        raise IsometryError("kernel is trivial")
    try:
        sub = f.lattice.sublattice(B)
    except LatticeError:
        raise IsometryError("kernel sublattice is degenerate") from None
    restricted = _restrict_to_rows(f.matrix, B)
    return KernelSublattice(lattice=sub, basis=B, isometry=Isometry(sub, restricted))


def _restrict_to_rows(F, B):
    """Matrix of the action on row-span coordinates: rows b -> b F^T.

    Column convention; raises IsometryError when the row span is not invariant.
    """
    image = linalg.mat_mul(B, linalg.transpose(F))
    # solve X B = image; pick an invertible column set of B
    _, pivots = linalg.rat_row_reduce(B)
    Bp = tuple(tuple(row[j] for j in pivots) for row in B)
    Ip = tuple(tuple(row[j] for j in pivots) for row in image)
    X = linalg.mat_mul(Ip, linalg.rat_inverse(Bp))
    if linalg.mat_mul(X, B) != image:
        raise IsometryError("row span is not invariant under the isometry")
    return linalg.transpose(X)


def _least_power(A, m, test):
    """Least d >= 1 with test(A^d mod m), by one climb per prime.

    The exponents that pass must form a subgroup dZ of Z that contains the
    order of A modulo m, so d divides the exponent E of GL_n(Z/m): the lcm
    over p^e exactly dividing m of p^(e-1) p^t lcm(p^i - 1 : i <= n), with
    p^t the least power of p that is >= n. For each q^a exactly dividing E
    in turn, the running exponent drops its q-part and climbs back one
    factor q at a time until the test passes (Cohen, GTM 138, Algorithm
    1.4.3). The primes already climbed hold their valuations in d and the
    rest hold at least theirs, so each climb stops exactly at v_q(d).
    """
    n = len(A)
    E = 1
    for p, e in factorize(m).items():
        if linalg.bareiss_det(linalg.mat_mod(A, p)) % p == 0:
            raise ArithmeticError("matrix is not invertible modulo p")
        pt = 1
        while pt < n:
            pt *= p
        E = lcm(E, p ** (e - 1) * pt, *(p**i - 1 for i in range(1, n + 1)))
    d = E
    for q, a in factorize(E).items():
        d //= q**a
        B = linalg.mat_pow_mod(A, d, m)
        for _ in range(a):
            if test(B):
                break
            B = linalg.mat_pow_mod(B, q, m)
            d *= q
    return d


def discriminant_order(L: Lattice, f: Isometry):
    """Order of the action of an integral isometry f on L^dual / L.

    With e the exponent of L^dual / L and D = e G^-1 (an integer matrix),
    f^d acts trivially exactly when (F^d - I) D = 0 mod e. The exponents
    that pass form a subgroup containing the order of F modulo e, so the
    climb of ``_least_power`` finds the least one.
    """
    if not f.is_integral():
        raise IsometryError("discriminant action needs an integral isometry")
    e, D = linalg.clear_denominators(L.dual_basis())
    D = linalg.mat_mod(D, e)
    return _least_power(f.matrix, e, lambda P: linalg.mat_mod(linalg.mat_mul(P, D), e) == D)


def power_to_integral(L: Lattice, f: Isometry):
    """Minimal n >= 1 with f^n integral, plus the integral matrix f^n.

    Computes the module M = Z[f] L by Hermite reduction, the index
    k = [M : L] and the integral action Psi of f on M, so that
    F = X^-1 Psi X for the integer matrix X of L inside M, det X = +-k.
    The exponents d with f^d(L) in L form a subgroup nZ (an inclusion of
    equal covolume is an equality), and n divides the order n0 of Psi
    modulo k, so the climb of ``_least_power`` finds n. Each test runs in
    integers mod k: f^d is integral iff adj(X) (Psi^d mod k) X = 0 mod k.
    The exact f^n is formed once, at the end. Psi is integral exactly when
    the characteristic polynomial of f is (Cayley-Hamilton one way, F
    conjugate to Psi over Q the other), so that is the integrality test.
    """
    F = f.matrix
    n = L.rank
    if linalg.is_integral(F):
        return 1, Isometry(L, linalg.mat_to_int(F))
    rows = []
    power = linalg.identity(n)
    for _ in range(n):
        rows.extend(linalg.transpose(power))
        power = linalg.mat_mul(F, power)
    den, int_rows = linalg.clear_denominators(rows)
    H = linalg.hnf(int_rows)
    BM = tuple(tuple(Fraction(x, den) for x in row) for row in H)  # rows: basis of M
    C = linalg.rat_inverse(BM)  # rows: coordinates of Z^n inside M
    if not linalg.is_integral(C):
        raise AssertionError("L is not contained in Z[f]L")
    X = linalg.mat_to_int(linalg.transpose(C))
    det = linalg.bareiss_det(X)
    k = abs(det)
    if k == 1:
        raise AssertionError("index 1 but f not integral")
    adj = linalg.mat_to_int(linalg.mat_scale(det, linalg.transpose(BM)))  # det * X^-1
    # action of f in M-coordinates (column convention)
    Psi = linalg.mat_mul(linalg.mat_mul(X, F), linalg.transpose(BM))
    if not linalg.is_integral(Psi):
        raise IsometryError("characteristic polynomial is not integral")
    Psi = linalg.mat_to_int(Psi)

    def integral(Pd):
        P = linalg.mat_mul(linalg.mat_mul(adj, Pd), X)
        return all(x % k == 0 for row in P for x in row)

    m = _least_power(Psi, k, integral)
    P = linalg.mat_mul(linalg.mat_mul(adj, linalg.mat_pow(Psi, m)), X)
    if any(x % k for row in P for x in row):
        raise AssertionError("the least exponent does not give an integral power")
    return m, Isometry(L, tuple(tuple(x // det for x in row) for row in P))


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
    kernel = linalg.rat_kernel(tuple(rows))
    out = []
    for vec in kernel:
        _, (ints,) = linalg.clear_denominators((vec,))
        g = gcd(*ints)
        if g:
            ints = [x // g for x in ints]
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

    Hypotheses are verified first: the characteristic polynomial is an
    irreducible Salem polynomial, t has norm +-p, and p divides neither 2,
    det L, nor disc s. Each violation is reported individually.
    """
    if n < 1:
        raise IsometryError("twist exponent must be >= 1")
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
    val = valuation(det, p)
    det_ok = val == 2 * n and abs(det) == abs(L.determinant()) * p ** (2 * n)
    if not det_ok:
        problems.append(
            f"determinant {det} does not carry exactly the p-part p^{2 * n}"
        )
    q = discriminant_form(twisted)
    part = q.p_primary_part(p)
    reference = hyperbolic_p_form(p, n)
    form_ok = part.orders == reference.orders and forms_isomorphic(part, reference)
    if not form_ok:
        problems.append("p-primary discriminant form is not hyperbolic of scale 1/p^n")
    return TwistSplitReport(
        passed=not problems,
        problems=tuple(problems),
        twisted=twisted,
        p_valuation=val,
        determinant=det,
        p_part_orders=part.orders,
        form_matches_hyperbolic=form_ok,
    )
