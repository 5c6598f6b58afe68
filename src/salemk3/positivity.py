"""Chamber preservation for isometries of hyperbolic and definite lattices.

Positivity (preservation of a chamber of the positive cone) is decided
through obstructing roots. On a definite lattice the obstructions are the
cyclic roots, the roots whose orbit sum under f vanishes: exactly the roots
of ker c(f), where c is the product of the cyclotomic factors of the
characteristic polynomial other than x - 1 (f has finite order there, and an
orbit sum is a multiple of the projection onto ker(f - 1)). For a hyperbolic
lattice whose isometry has an irreducible Salem characteristic polynomial,
the obstructions are roots whose orthogonal hyperplane crosses the invariant
geodesic plane, and those admit a complete search over a compact set of
eigencoordinates. The plane is spanned by the lambda and 1/lambda
eigenvectors u1 and u2. Both are isotropic, so the projection pi(z) of z onto
the plane has pi(z)^2 = 2 <z, u1> <z, u2> / <u1, u2>, and a root z crosses
exactly when this is negative: when the signs of <z, u1>, <z, u2> and
<u1, u2> multiply to -1.

The search box is certified: eigenvector data is carried in Q[x]/(s(x)),
the integer enumeration runs on a rational positive definite minorant of
the exact majorant form, and every candidate is confirmed or discarded by
exact signs. Floating point appears nowhere.

The search does its arithmetic in Q[x]/(s) on integer numerators, every
product reduced by ``polynomials.mulmod`` (an entry of the majorant form,
a sum of two products, is reduced once, by ``polynomials.reduce_mod``),
with canonical pairs (``numberfield.canonical``) where a denominator
appears. The field K (``numberfield.RealAlgebraicField``) holds only
lambda's embedding, for enclosures and signs refined on demand, and the one
inverse 1 / <u1, u2>. The minorant is formed on integers from K's integer
enclosure endpoints (``RealAlgebraicField.endpoints``), one integer matrix
over one denominator, which is the form the walk takes.

u1 is a column of adj(lambda I - f), read off the integer coefficients of
adj(x I - f), so G u1 is one integer n x d matrix over the denominator 1,
and a candidate's <z, u1> is one integer vector-matrix product. The
1/lambda side is its Galois conjugate under tau: x -> 1/x, an integral
automorphism of Z[x]/(s) (s is monic and reciprocal, so s(0) = 1): u2, G u2
and <z, u2> are tau of u1, G u1 and <z, u1>, one d x d unimodular integer
matrix apart. The majorant form's entries share the one denominator of
1 / <u1, u2> squared. The search reads the Fincke-Pohst half walk
(``linalg.qf_half_walk``), one vector of each +- pair, and tests its norm
in integers. f^-1 is -adj_0, the constant coefficient of adj(x I - f).

Each public entry certifies s = char f once, read with adj(x I - f) from one
Faddeev-LeVerrier pass; ``_hyperbolic_report`` takes both from a caller that
holds them (``realize``), so nothing below a public entry certifies s again.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import add, mul

from . import linalg
from .isometries import Isometry, kernel_sublattice
from .lattices import Lattice, enumerate_vectors_of_norm
from .numberfield import RealAlgebraicField, canonical
from .polynomials import (
    IntPolynomial,
    NotSalemError,
    cyclotomic_factors,
    discriminant,
    is_salem,
    mulmod,
    poly_mul,
    reduce_mod,
)


class PositivityError(ValueError):
    pass


@dataclass(frozen=True)
class ObstructionReport:
    status: str  # "positive" | "not_positive" | "inconclusive"
    witnesses: tuple  # ((vector, kind), ...) with kind "cyclic" or "geodesic"
    method: str  # "determinant_bound" | "exhaustive_search" | "cyclic_only"
    search_bound: object = None  # rational bound used by the exhaustive search
    candidate_count: object = None

    def is_positive(self):
        return self.status == "positive"


def _check_pair(S, f):
    if f.lattice != S:
        raise PositivityError("the isometry is of another lattice than the one given")


def cyclic_roots(L: Lattice, f: Isometry):
    """All roots of L whose orbit sum under f vanishes, sorted.

    Let c be the product of the cyclotomic factors of char f other than
    x - 1. On a definite lattice f has finite order N and is semisimple, and
    the sum of f^k(r) over k < N is N times the projection of r onto
    ker(f - 1). So the orbit sum of a root vanishes exactly when the root lies
    in ker c(f), and the answer is every root of that kernel. When char f has
    no such factor the answer is empty with no enumeration at all.
    """
    _check_pair(L, f)
    if not f.is_integral():
        raise PositivityError("cyclic-root search needs an integral isometry")
    factors = [phi for n, phi in cyclotomic_factors(f.char_poly()) if n > 1]
    if not factors:
        return []
    ker = kernel_sublattice(f, prod(factors, start=IntPolynomial([1])))
    s_plus, s_minus = ker.lattice.signature()
    if s_plus and s_minus:
        raise PositivityError("indefinite cyclotomic kernel; cyclic-root enumeration unsupported")
    return sorted(
        tuple(linalg.vec_mat(v, ker.basis))
        for v in enumerate_vectors_of_norm(ker.lattice, -2)
    )


def determinant_bound_test(S: Lattice, f: Isometry):
    """Sufficient chamber-preservation test: |det S| > 4 |disc s|.

    Returns "positive" or "inconclusive"; it never asserts non-positivity.
    """
    return "positive" if _bound_holds(S, _hyperbolic_salem(S, f)[0]) else "inconclusive"


def _hyperbolic_salem(S, f):
    """``_salem_char_and_adjugate(f)`` for an isometry f of a hyperbolic S."""
    _check_pair(S, f)
    if not S.is_hyperbolic():
        raise PositivityError("determinant bound applies to hyperbolic lattices")
    return _salem_char_and_adjugate(f)


def _bound_holds(S, cert):
    return abs(S.determinant()) > 4 * abs(discriminant(cert.polynomial))


def _hyperbolic_report(S, f, cert, adj_mats):
    """``is_positive`` on a hyperbolic S, from the Salem certificate of
    char f and the coefficients of adj(x I - f), None for a rational f."""
    if _bound_holds(S, cert):
        return ObstructionReport(status="positive", witnesses=(), method="determinant_bound")
    if adj_mats is None:
        raise PositivityError("obstructing-root search needs an integral isometry")
    return _search(S, f, cert, adj_mats)


def obstructing_root_search(S: Lattice, f: Isometry):
    """Complete search for obstructing roots of a Salem isometry.

    Enumerates every root that could, up to the f-action, have bounded
    eigencoordinates (the compact fundamental set), tests the geodesic
    crossing exactly over K = Q[x]/(s), and lists one witness per f-orbit:
    the orbit's least element by (max |x_i|, then lex), over the whole orbit
    (``_orbit_reduce``). The enumeration is closed under negation, and z
    crosses exactly when -z does, so only its half walk, one vector of each
    +- pair, is tested (``candidate_count`` counts both), and the reducer
    lists the orbits of both z and -z. With an irreducible Salem
    characteristic polynomial there are no cyclic roots, so every witness is
    a geodesic crossing.
    """
    _check_pair(S, f)
    if not S.is_hyperbolic():
        raise PositivityError("obstructing-root search needs a hyperbolic lattice")
    if not f.is_integral():
        raise PositivityError("obstructing-root search needs an integral isometry")
    return _search(S, f, *_salem_char_and_adjugate(f))


def _salem_char_and_adjugate(f):
    """(cert, adj) for an isometry f of S: the Salem certificate of
    s = char f and, for an integral f, the matrix coefficients of
    adj(x I - f) from the same Faddeev-LeVerrier pass (None otherwise)."""
    adj_mats = None
    if f.is_integral():
        coeffs, adj_mats = linalg.charpoly_and_adjugate(f.matrix)
        s = IntPolynomial(coeffs)
    else:
        s = f.char_poly()
    try:
        return is_salem(s), adj_mats
    except NotSalemError as exc:
        raise PositivityError(
            f"characteristic polynomial is not an irreducible Salem polynomial ({exc.reason})"
        )


def _search(S, f, cert, adj_mats):
    """``obstructing_root_search`` on the certificate and adjugate of f.

    The majorant form T is exact in Q[x]/(s). Its rational positive definite
    minorant is T' = T_mid - (n delta / 2) I, with T_mid the midpoints of
    enclosures of the entries of T of width at most delta = 1/16, 1/64, ...:
    each entry of T - T_mid is at most delta / 2 in absolute value, so by
    Gershgorin no eigenvalue of T - T_mid is below -n delta / 2, and
    T - T' is positive semidefinite. The walk refuses T' until it is
    positive definite. The entries are enclosed in a fixed order, each
    refining K's interval only as far as its own width needs. An enclosure
    is [lo / D, hi / D] with integers lo, hi, D, so 2 T' is one integer
    matrix over den, a common multiple of the D and of 1 / delta, and the
    walk takes (2 den, 2 den T'): no Fraction is formed per entry.
    """
    K, tau, gu1, gu2, sigma = _geodesic_plane(S, cert, adj_mats)
    n, s = S.rank, cert.polynomial.coeffs
    # majorant form T = (Gu1 Gu1^T + Gu2 Gu2^T) / sigma^2 + (Gu1 Gu2^T + Gu2 Gu1^T) / sigma - G,
    # computed as a a^T + (1 - sigma^2) h h^T - G with h = Gu2 / sigma and
    # a = Gu1 / sigma + Gu2, all over the one denominator e^2 of 1 / sigma = N / e;
    # its fundamental-domain bound is 2 lambda / |sigma| + 2 = (2 sign(sigma) x N + 2 e) / e
    N, e = K.inv(sigma)
    h = [mulmod(x, N, s) for x in gu2]
    a = [[x + e * y for x, y in zip(mulmod(x1, N, s), x2)] for x1, x2 in zip(gu1, gu2)]
    c = [-x for x in mulmod(sigma[0], sigma[0], s)]  # 1 - sigma^2, integral as sigma is
    c[0] += 1
    ch = [mulmod(c, x, s) for x in h]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    T = []  # the entries T_ij, i <= j, in the order of pairs
    for i, j in pairs:
        entry = reduce_mod(list(map(add, poly_mul(a[i], a[j]), poly_mul(ch[i], h[j]))), s)
        entry[0] -= e * e * S.gram[i][j]
        T.append(canonical(entry, e * e))
    sigma_sign = K.sign(sigma)
    bound_nums = [2 * sigma_sign * x for x in mulmod(N, [0, 1], s)]
    bound_nums[0] += 2 * e
    bound_iv = K.enclosure(canonical(bound_nums, e), Fraction(1, 8))
    bound_up = bound_iv[1]
    # the minorant T' over 2 den: entry (i, j) is (lo + hi) den / D, less
    # n den delta on the diagonal, an integer as 1 / delta = 4^r divides den
    delta = Fraction(1, 4)
    for _ in range(80):
        delta /= 4
        ends = [K.endpoints(t, delta) for t in T]
        den = lcm(delta.denominator, *(D for _, _, D in ends))
        T_prime = [[0] * n for _ in range(n)]
        for (i, j), (lo, hi, D) in zip(pairs, ends):
            T_prime[i][j] = T_prime[j][i] = (lo + hi) * (den // D)
        for i in range(n):
            T_prime[i][i] -= n * den // delta.denominator
        try:
            half = linalg.qf_half_walk(2 * den, T_prime, bound_up)
            break
        except ValueError:  # T_prime is not positive definite yet
            pass
    else:
        raise PositivityError(
            f"interval refinement failed to certify the search form in 80 rounds (last delta = {delta})"
        )
    # u1, u2 are isotropic, so pi(z)^2 = 2 <z, u1> <z, u2> / sigma
    witnesses = []
    for z in half:
        if sum(x * sum(map(mul, row, z)) for x, row in zip(z, S.gram) if x) != -2:  # z^T G z
            continue
        p1, p2 = _pairings(tau, gu1, z)
        if K.sign(p1) * K.sign(p2) * sigma_sign < 0:
            witnesses.append((z, p1, p2))
    finv = linalg.mat_scale(-1, adj_mats[0])
    classified = tuple((w, "geodesic") for w in _orbit_reduce(K, f.matrix, finv, gu1, gu2, witnesses))
    return ObstructionReport(
        status="not_positive" if classified else "positive",
        witnesses=classified,
        method="exhaustive_search",
        search_bound=bound_up,
        candidate_count=2 * len(half),
    )


def _geodesic_plane(S, cert, adj_mats):
    """(K, tau, Gu1, Gu2, sigma) for a Salem isometry f of S, from the Salem
    certificate of s = char f and the matrix coefficients of adj(x I - f):
    the field K = Q[x]/(s) at lambda, the matrix tau of x -> 1/x
    (``_inversion_matrix``), G u1 and G u2 for the lambda and 1/lambda
    eigenvectors u1 and u2, and sigma = <u1, u2>.

    u1 is the first nonzero column of adj(lambda I - f), the sum of
    adj_k lambda^k over the coefficients adj_k of adj(x I - f). These have
    degree k < n = d, so the numerators of u1_i are the integers adj_k[i][col]
    over the denominator 1, and G u1 is one integer n x d matrix (row i the
    numerators of (G u1)_i).
    tau fixes Z and f and sends lambda to 1/lambda, so u2 = tau(u1) is the
    same column of adj(lambda^-1 I - f), nonzero because tau is bijective,
    and G u2 = tau(G u1) row by row. sigma is nonzero: u1 is orthogonal to
    every eigenvector of f but u2, and the form is nondegenerate.
    """
    n, s = S.rank, cert.polynomial.coeffs
    K = RealAlgebraicField(cert)
    tau = _inversion_matrix(s)
    col = next(j for j in range(n) if any(M[i][j] for M in adj_mats for i in range(n)))
    u1 = [tuple(M[i][col] for M in adj_mats) for i in range(n)]
    gu1 = linalg.mat_mul(S.gram, u1)
    gu2 = tuple(linalg.mat_vec(tau, row) for row in gu1)
    sigma = tuple(map(sum, zip(*(mulmod(x, y, s) for x, y in zip(u1, gu2))))), 1
    return K, tau, gu1, gu2, sigma


def _inversion_matrix(s):
    """The integer d x d matrix of tau: x -> 1/x on Z[x]/(s), column j the
    coefficients of x^-j.

    s is monic and reciprocal, so s(0) = 1 and
    x^-1 = -(c_1 + c_2 x + ... + c_(d-1) x^(d-2) + x^(d-1)): tau is a ring
    automorphism of Z[x]/(s) with tau^2 = id, so its matrix is unimodular and
    tau(nums, den) = (tau nums, den) is again canonical.
    """
    x_inv = [-c for c in s[1:]]
    cols = [mulmod([1], [1], s)]
    for _ in range(len(s) - 2):
        cols.append(mulmod(cols[-1], x_inv, s))
    return linalg.transpose(cols)


def _pairings(tau, gu1, z):
    """(<z, u1>, <z, u2>) for an integer vector z: z^T (G u1), one integer
    vector-matrix product over the denominator 1, and its image under tau."""
    p1 = linalg.vec_mat(z, gu1)
    return (p1, 1), (linalg.mat_vec(tau, p1), 1)


def _orbit_reduce(K, f, finv, gu1, gu2, witnesses):
    """One representative per f-orbit of the witnesses and of their
    negatives, sorted: the orbit's least element by (max |x_i|, then lex),
    taken over the whole orbit.

    f and finv are the integer matrices of f and f^-1, and gu1, gu2 the
    integer matrices of G u1 and G u2 (``_geodesic_plane``). f^-1 = -adj_0,
    the constant coefficient of adj(x I - f): at x = 0,
    (x I - f) adj(x I - f) = s(x) I reads -f adj_0 = s(0) I = I.

    Each witness is (z, <z, u1>, <z, u2>). The orbit of -z is the negation
    of the orbit of z, with the same sup-norms and stops, so one walk serves
    both. Both pairings of a nonzero integer
    z are nonzero: z orthogonal to u1 would be orthogonal to its Galois
    conjugates, which span the space as s is irreducible. As f is
    an isometry with f u2 = u2 / lambda, <f^k z, u2> = lambda^k <z, u2>, and
    |<x, u>| <= |x|_inf |G u|_1, so |f^k z|_inf >= lambda^k |<z, u2>| / |G u2|_1;
    likewise |f^-k z|_inf >= lambda^k |<z, u1>| / |G u1|_1. Each walk stops at
    the first k where this bound, read from rational enclosure endpoints,
    exceeds the least sup-norm met so far: it grows with k, so nothing
    further on can tie or beat that element. Every vector met is recorded,
    and a witness met on an earlier walk is skipped. So every representative
    is the exact orbit minimum, whatever state of K's interval the
    enclosures are read at.

    lambda_lo is the left end of K's current interval, > 1 from the start:
    K is built from the Salem certificate of s, whose lambda_interval has
    its left end > 1, and refinement only narrows it.
    """
    if not witnesses:
        return []
    lam_lo = K.interval[0]
    norm1 = [sum(max(-lo, hi) for lo, hi in (K.enclosure((row, 1)) for row in gu)) for gu in (gu1, gu2)]
    seen, reps = set(), set()
    for z, p1, p2 in witnesses:
        if z in seen:
            continue
        orbit = [z]
        best = max(map(abs, z))
        for F, pairing, norm in ((f, p2, norm1[1]), (finv, p1, norm1[0])):
            sign = K.sign(pairing)  # refines until the enclosure excludes 0
            lo, hi = K.enclosure(pairing)
            bound, v = (lo if sign > 0 else -hi) / norm, z
            while True:
                bound *= lam_lo
                if bound > best:
                    break
                v = linalg.mat_vec(F, v)
                orbit.append(v)
                best = min(best, max(map(abs, v)))
        for vs in (orbit, [tuple(-x for x in v) for v in orbit]):
            seen.update(vs)
            reps.add(min(vs, key=lambda v: (max(map(abs, v)), v)))
    return sorted(reps)


def is_positive(S: Lattice, f: Isometry):
    """Decide chamber preservation; records which method settled it.

    Negative definite lattices: positive iff there is no cyclic root.
    Hyperbolic lattices with an irreducible Salem characteristic polynomial:
    the determinant bound first, then the exhaustive obstructing-root search.
    Both read one certificate of char f, which for an integral f comes from
    the same Faddeev-LeVerrier pass as the search's adjugate.
    """
    s_plus, s_minus = S.signature()
    if s_plus == 0:
        wits = tuple((w, "cyclic") for w in cyclic_roots(S, f))
        return ObstructionReport(
            status="not_positive" if wits else "positive",
            witnesses=wits,
            method="cyclic_only",
        )
    if s_plus == 1:
        return _hyperbolic_report(S, f, *_hyperbolic_salem(S, f))
    raise PositivityError("lattice is neither hyperbolic nor negative definite")
