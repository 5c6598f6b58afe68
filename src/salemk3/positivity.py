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

The search box is certified: eigenvector data lives in the one field
K = Q[x]/(s(x)) with interval enclosures refined on demand, the integer
enumeration runs on a rational positive definite minorant of the exact
majorant form, and every candidate is confirmed or discarded by exact sign
computations over K. Floating point appears nowhere.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import linalg
from .isometries import Isometry, kernel_sublattice
from .lattices import Lattice, enumerate_vectors_of_norm
from .numberfield import RealAlgebraicField
from .polynomials import (
    IntPolynomial,
    NotSalemError,
    cyclotomic_factors,
    discriminant,
    is_salem,
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


def _salem_shape(S: Lattice, s: IntPolynomial):
    """Salem certificate of the characteristic polynomial s of an isometry of S."""
    try:
        cert = is_salem(s)
    except NotSalemError as exc:
        raise PositivityError(
            f"characteristic polynomial is not an irreducible Salem polynomial ({exc.reason})"
        )
    if s.degree != S.rank:
        raise PositivityError("Salem polynomial degree must equal the rank")
    return cert


def cyclic_roots(L: Lattice, f: Isometry):
    """All roots of L whose orbit sum under f vanishes, sorted.

    Let c be the product of the cyclotomic factors of char f other than
    x - 1. On a definite lattice f has finite order N and is semisimple, and
    the sum of f^k(r) over k < N is N times the projection of r onto
    ker(f - 1). So the orbit sum of a root vanishes exactly when the root lies
    in ker c(f), and the answer is every root of that kernel. When char f has
    no such factor the answer is empty with no enumeration at all.
    """
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
    return _bound_and_certificate(S, f)[0]


def _bound_and_certificate(S, f):
    """(verdict, cert, adj): the determinant bound's verdict, with the Salem
    certificate of char f and the adjugate coefficients it was read from
    (see ``_salem_char_and_adjugate``)."""
    if not S.is_hyperbolic():
        raise PositivityError("determinant bound applies to hyperbolic lattices")
    cert, adj_mats = _salem_char_and_adjugate(S, f)
    positive = abs(S.determinant()) > 4 * abs(discriminant(cert.polynomial))
    return ("positive" if positive else "inconclusive"), cert, adj_mats


def obstructing_root_search(S: Lattice, f: Isometry):
    """Complete search for obstructing roots of a Salem isometry.

    Enumerates every root that could, up to the f-action, have bounded
    eigencoordinates (the compact fundamental set), tests the geodesic
    crossing exactly over K = Q[x]/(s), and lists one witness per f-orbit:
    the orbit's least element by (max |x_i|, then lex), over the whole orbit
    (``_orbit_reduce``). The enumeration is closed under negation, and z
    crosses exactly when -z does, so only the z whose first nonzero
    coordinate is positive are tested, and the reducer lists the orbits of
    both z and -z. With an irreducible Salem
    characteristic polynomial there are no cyclic roots, so every witness is
    a geodesic crossing.
    """
    if not S.is_hyperbolic():
        raise PositivityError("obstructing-root search needs a hyperbolic lattice")
    if not f.is_integral():
        raise PositivityError("obstructing-root search needs an integral isometry")
    return _search(S, f, *_salem_char_and_adjugate(S, f))


def _salem_char_and_adjugate(S, f):
    """(cert, adj) for an isometry f of S: the Salem certificate of
    s = char f and, for an integral f, the matrix coefficients of
    adj(x I - f) from the same Faddeev-LeVerrier pass (None otherwise)."""
    if not f.is_integral():
        return _salem_shape(S, f.char_poly()), None
    coeffs, adj_mats = linalg.charpoly_and_adjugate(f.matrix)
    return _salem_shape(S, IntPolynomial(coeffs)), adj_mats


def _search(S, f, cert, adj_mats):
    """``obstructing_root_search`` on the certificate and adjugate of f."""
    K, gu1, gu2, sigma = _geodesic_plane(S, cert, adj_mats)
    n = S.rank
    sigma_inv = K.inv(sigma)
    # majorant form T = (Gu1 Gu1^T + Gu2 Gu2^T) / sigma^2 + (Gu1 Gu2^T + Gu2 Gu1^T) / sigma - G,
    # computed as a a^T + (1 - sigma^2) h h^T - G with h = Gu2 / sigma and
    # a = Gu1 / sigma + Gu2; its fundamental-domain bound is 2 lambda / |sigma| + 2
    h = [K.mul(x, sigma_inv) for x in gu2]
    a = [K.add(K.mul(x, sigma_inv), y) for x, y in zip(gu1, gu2)]
    c = K.sub(K.one(), K.mul(sigma, sigma))
    ch = [K.mul(c, x) for x in h]
    T = [[K.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = K.add(K.mul(a[i], a[j]), K.mul(ch[i], h[j]))
            T[i][j] = T[j][i] = K.sub(entry, K.element(S.gram[i][j]))
    sigma_sign = K.sign(sigma)
    abs_sigma_inv = sigma_inv if sigma_sign > 0 else K.neg(sigma_inv)
    bound_elem = K.add(K.scale(2, K.mul(K.generator(), abs_sigma_inv)), K.element(2))
    bound_iv = K.enclosure(bound_elem, Fraction(1, 8))
    bound_up = bound_iv[1]
    # rational positive definite minorant of T
    delta = Fraction(1, 4)
    for _ in range(80):
        delta /= 4
        T_mid = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                lo, hi = K.enclosure(T[i][j], delta)
                T_mid[i][j] = T_mid[j][i] = (lo + hi) / 2
        T_prime = [
            [
                T_mid[i][j] - (Fraction(n) * delta / 2 if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        try:
            candidates = linalg.qf_enumerate(T_prime, bound_up)
            break
        except ValueError:  # T_prime is not positive definite yet
            pass
    else:
        raise PositivityError(
            f"interval refinement failed to certify the search form in 80 rounds (last delta = {delta})"
        )
    # u1, u2 are isotropic, so pi(z)^2 = 2 <z, u1> <z, u2> / sigma
    witnesses = []
    for z in candidates:
        if next(x for x in z if x) < 0 or S.norm(z) != -2:
            continue
        p1, p2 = _pairing(K, z, gu1), _pairing(K, z, gu2)
        if K.sign(p1) * K.sign(p2) * sigma_sign < 0:
            witnesses.append((z, p1, p2))
    classified = tuple((w, "geodesic") for w in _orbit_reduce(K, f, gu1, gu2, witnesses))
    return ObstructionReport(
        status="not_positive" if classified else "positive",
        witnesses=classified,
        method="exhaustive_search",
        search_bound=bound_up,
        candidate_count=len(candidates),
    )


def _geodesic_plane(S, cert, adj_mats):
    """(K, Gu1, Gu2, sigma) for a Salem isometry f of S, from the Salem
    certificate of s = char f and the matrix coefficients of adj(x I - f):
    the field K = Q[x]/(s) at lambda, G u1 and G u2 for the lambda and
    1/lambda eigenvectors u1 and u2 (columns of adj(mu I - f)), and
    sigma = <u1, u2>."""
    n = S.rank
    K = RealAlgebraicField(cert)
    lam = K.generator()
    u1 = _adjugate_column(K, adj_mats, lam, n)
    u2 = _adjugate_column(K, adj_mats, K.inv(lam), n)
    gu1 = tuple(_pairing(K, row, u1) for row in S.gram)
    gu2 = tuple(_pairing(K, row, u2) for row in S.gram)
    sigma = K.zero()
    for x, y in zip(u1, gu2):
        sigma = K.add(sigma, K.mul(x, y))
    if K.is_zero(sigma):
        raise AssertionError("eigenvector pairing degenerated")
    return K, gu1, gu2, sigma


def _adjugate_column(K, adj_mats, mu, n):
    """Nonzero column of adj(mu I - f) as a vector of field elements."""
    powers = [K.one()]
    for _ in range(len(adj_mats) - 1):
        powers.append(K.mul(powers[-1], mu))
    for col in range(n):
        vec = []
        for i in range(n):
            acc = K.zero()
            for k_idx, M in enumerate(adj_mats):
                c = M[i][col]
                if c:
                    acc = K.add(acc, K.scale(c, powers[k_idx]))
            vec.append(acc)
        if any(not K.is_zero(x) for x in vec):
            return tuple(vec)
    raise AssertionError("adjugate of a simple eigenvalue cannot vanish")


def _pairing(K, z, gu):
    """Sum of z_i gu_i for an integer vector z: <z, u> when gu = G u."""
    acc = K.zero()
    for zi, x in zip(z, gu):
        if zi:
            acc = K.add(acc, K.scale(zi, x))
    return acc


def _orbit_reduce(K, f, gu1, gu2, witnesses):
    """One representative per f-orbit of the witnesses and of their
    negatives, sorted: the orbit's least element by (max |x_i|, then lex),
    taken over the whole orbit.

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
    and a witness met on an earlier walk is skipped.

    lambda_lo > 1 holds from the start: K is built from the Salem
    certificate of s, whose lambda_interval has its left end > 1; the
    enclosure of the generator x is that interval exactly; and refinement
    only narrows it.
    """
    lam_lo = K.enclosure(K.generator())[0]
    norm1 = [sum(max(-lo, hi) for lo, hi in map(K.enclosure, gu)) for gu in (gu1, gu2)]
    finv = f.inverse_matrix()  # integral: an integral isometry has determinant +-1
    seen, reps = set(), set()
    for z, p1, p2 in witnesses:
        if z in seen:
            continue
        orbit = [z]
        best = max(map(abs, z))
        for F, pairing, norm in ((f.matrix, p2, norm1[1]), (finv, p1, norm1[0])):
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
        verdict, cert, adj_mats = _bound_and_certificate(S, f)
        if verdict == "positive":
            return ObstructionReport(
                status="positive", witnesses=(), method="determinant_bound"
            )
        if adj_mats is None:
            raise PositivityError("obstructing-root search needs an integral isometry")
        return _search(S, f, cert, adj_mats)
    raise PositivityError("lattice is neither hyperbolic nor negative definite")
