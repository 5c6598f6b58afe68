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
eigencoordinates.

The search box is certified: eigenvector data lives in the field Q[x]/(s(x))
with interval enclosures refined on demand, the integer enumeration runs on
a rational positive definite minorant of the exact majorant form, and every
candidate is confirmed or discarded by exact sign computations. Floating
point appears nowhere.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import linalg
from .isometries import Isometry, kernel_sublattice
from .lattices import Lattice, enumerate_vectors_of_norm
from .numberfield import RealAlgebraicField, field_kernel
from .polynomials import (
    IntPolynomial,
    NotSalemError,
    cyclotomic_factors,
    discriminant,
    is_salem,
    isolate_real_roots,
    trace_polynomial,
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


@dataclass(frozen=True)
class GeodesicPlane:
    """The f-invariant plane spanned by the lambda and 1/lambda eigendirections.

    Stored over k = Q[y]/(r(y)) at the trace-polynomial root omega > 2:
    ``basis`` rows have entries in k, ``gram`` is the restricted 2x2 form.
    """

    field: RealAlgebraicField
    basis: tuple
    gram: tuple

    def gram_det_sign(self):
        k = self.field
        det = k.sub(
            k.mul(self.gram[0][0], self.gram[1][1]),
            k.mul(self.gram[0][1], self.gram[1][0]),
        )
        return k.sign(det)


def _salem_shape(S: Lattice, f: Isometry):
    s = f.char_poly()
    try:
        cert = is_salem(s)
    except NotSalemError as exc:
        raise PositivityError(
            f"characteristic polynomial is not an irreducible Salem polynomial ({exc.reason})"
        )
    if s.degree != S.rank:
        raise PositivityError("Salem polynomial degree must equal the rank")
    return s, cert


def geodesic_plane(S: Lattice, f: Isometry):
    """Exact data of ker(f + f^-1 - omega) over k, with the signature check."""
    s, _ = _salem_shape(S, f)
    r = trace_polynomial(s)
    iso = isolate_real_roots(r)
    omega_iv = iso.intervals[-1]  # omega = lambda + 1/lambda is the largest root
    k = RealAlgebraicField(r, omega_iv)
    omega = k.generator()
    W = f.w_matrix()
    n = S.rank
    M = tuple(
        tuple(
            k.sub(k.element(Fraction(W[i][j])), omega) if i == j else k.element(Fraction(W[i][j]))
            for j in range(n)
        )
        for i in range(n)
    )
    basis = field_kernel(k, M)
    if len(basis) != 2:
        raise PositivityError("geodesic plane is not two-dimensional")
    gram = []
    for u in basis:
        row = []
        for v in basis:
            acc = k.zero()
            for i in range(n):
                for j in range(n):
                    if S.gram[i][j]:
                        acc = k.add(acc, k.scale(S.gram[i][j], k.mul(u[i], v[j])))
            row.append(acc)
        gram.append(tuple(row))
    plane = GeodesicPlane(field=k, basis=basis, gram=tuple(gram))
    if plane.gram_det_sign() >= 0:
        raise PositivityError("geodesic plane is not hyperbolic")
    return plane


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
    factors = [phi for _, phi in cyclotomic_factors(f.char_poly(), exclude_x_minus_one=True)]
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
    if not S.is_hyperbolic():
        raise PositivityError("determinant bound applies to hyperbolic lattices")
    s, _ = _salem_shape(S, f)
    if abs(S.determinant()) > 4 * abs(discriminant(s)):
        return "positive"
    return "inconclusive"


def obstructing_root_search(S: Lattice, f: Isometry, orbit_cap_factor=10):
    """Complete search for obstructing roots of a Salem isometry.

    Enumerates every root that could, up to the f-action, have bounded
    eigencoordinates (the compact fundamental set), tests the geodesic
    crossing exactly over the trace field, and reduces the witnesses modulo
    f. With an irreducible Salem characteristic polynomial there are no
    cyclic roots, so every witness is a geodesic crossing.
    """
    if not S.is_hyperbolic():
        raise PositivityError("obstructing-root search needs a hyperbolic lattice")
    if not f.is_integral():
        raise PositivityError("obstructing-root search needs an integral isometry")
    s, cert = _salem_shape(S, f)
    n = S.rank
    K = RealAlgebraicField(s, cert.lambda_interval)
    lam = K.generator()
    lam_inv = K.inv(lam)
    _, adj_mats = linalg.charpoly_and_adjugate(f.matrix)
    # columns of adj(lambda I - f) span the lambda eigenline
    u1 = _adjugate_column(K, adj_mats, lam, n)
    u2 = _adjugate_column(K, adj_mats, lam_inv, n)
    gu1 = _gram_apply(K, S.gram, u1)
    gu2 = _gram_apply(K, S.gram, u2)
    sigma = K.zero()
    for i in range(n):
        sigma = K.add(sigma, K.mul(u1[i], gu2[i]))
    if K.is_zero(sigma):
        raise AssertionError("eigenvector pairing degenerated")
    sigma_inv = K.inv(sigma)
    sigma_inv2 = K.mul(sigma_inv, sigma_inv)
    # majorant form T and its fundamental-domain bound 2 lambda / |sigma| + 2
    T = [[K.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            square_part = K.add(K.mul(gu1[i], gu1[j]), K.mul(gu2[i], gu2[j]))
            cross_part = K.add(K.mul(gu1[i], gu2[j]), K.mul(gu2[i], gu1[j]))
            entry = K.add(
                K.mul(square_part, sigma_inv2), K.mul(cross_part, sigma_inv)
            )
            entry = K.sub(entry, K.element(S.gram[i][j]))
            T[i][j] = entry
            T[j][i] = entry
    abs_sigma_inv = (
        sigma_inv if K.sign(sigma) > 0 else K.neg(sigma_inv)
    )
    bound_elem = K.add(K.scale(2, K.mul(lam, abs_sigma_inv)), K.element(2))
    bound_iv = K.enclosure(bound_elem, Fraction(1, 8))
    bound_up = bound_iv[1]
    # rational positive definite minorant of T
    delta = Fraction(1, 16)
    for _ in range(80):
        T_mid = [[Fraction(0)] * n for _ in range(n)]
        ok = True
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
        if linalg.is_positive_definite(T_prime):
            break
        delta /= 4
    else:
        raise PositivityError("interval refinement failed to certify the search form")
    candidates = linalg.qf_enumerate(T_prime, bound_up)
    plane = geodesic_plane(S, f)
    witnesses = []
    for z in candidates:
        if S.norm(z) != -2:
            continue
        if _crosses_geodesic(plane, S, z):
            witnesses.append(tuple(z))
    reps = _orbit_reduce(f, witnesses, orbit_cap_factor * n)
    classified = tuple((w, "geodesic") for w in reps)
    return ObstructionReport(
        status="not_positive" if classified else "positive",
        witnesses=classified,
        method="exhaustive_search",
        search_bound=bound_up,
        candidate_count=len(candidates),
    )


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
                    acc = K.add(acc, K.scale(Fraction(c), powers[k_idx]))
            vec.append(acc)
        if any(not K.is_zero(x) for x in vec):
            return tuple(vec)
    raise AssertionError("adjugate of a simple eigenvalue cannot vanish")


def _gram_apply(K, gram, vec):
    n = len(vec)
    out = []
    for i in range(n):
        acc = K.zero()
        for j in range(n):
            if gram[i][j]:
                acc = K.add(acc, K.scale(gram[i][j], vec[j]))
        out.append(acc)
    return tuple(out)


def _crosses_geodesic(plane: GeodesicPlane, S: Lattice, z):
    """Exact test pi(z)^2 < 0 for the form-orthogonal projection onto gamma."""
    k = plane.field
    gz = linalg.mat_vec(S.gram, z)
    v = []
    for basis_vec in plane.basis:
        acc = k.zero()
        for i in range(len(z)):
            if gz[i]:
                acc = k.add(acc, k.scale(Fraction(gz[i]), basis_vec[i]))
        v.append(acc)
    H = plane.gram
    det = k.sub(k.mul(H[0][0], H[1][1]), k.mul(H[0][1], H[1][0]))
    # pi(z)^2 = v^T adj(H) v / det H
    adj_quad = k.sub(
        k.add(
            k.mul(k.mul(v[0], v[0]), H[1][1]),
            k.mul(k.mul(v[1], v[1]), H[0][0]),
        ),
        k.mul(k.scale(2, k.mul(v[0], v[1])), H[0][1]),
    )
    return k.sign(adj_quad) * k.sign(det) < 0


def _orbit_reduce(f, witnesses, cap):
    """One representative per f-orbit: the most balanced element in a capped window."""
    finv = f.inverse_matrix()
    reps = set()
    for w in witnesses:
        orbit = [tuple(w)]
        fwd = tuple(w)
        back = tuple(w)
        for _ in range(cap):
            fwd = tuple(f.apply(fwd))
            back = tuple(int(x) for x in linalg.mat_vec(finv, back))
            orbit.append(fwd)
            orbit.append(back)
        reps.add(min(orbit, key=lambda v: (max(abs(x) for x in v), v)))
    return sorted(reps)


def is_positive(S: Lattice, f: Isometry):
    """Decide chamber preservation; records which method settled it.

    Negative definite lattices: positive iff there is no cyclic root.
    Hyperbolic lattices with an irreducible Salem characteristic polynomial:
    the determinant bound first, then the exhaustive obstructing-root search.
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
        if determinant_bound_test(S, f) == "positive":
            return ObstructionReport(
                status="positive", witnesses=(), method="determinant_bound"
            )
        return obstructing_root_search(S, f)
    raise PositivityError("lattice is neither hyperbolic nor negative definite")
