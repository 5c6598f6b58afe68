"""Realizability decisions and machine-checkable certificates.

The decision side is a truth table over the degree, the second Betti number
and the square class of -s(1)s(-1). The witness side builds, for a curated
seed, an even unimodular lattice of K3 signature together with an integral
isometry whose dynamical degree is a power of the given Salem number: twist
the Salem block by a split-prime square, retwist a hyperbolic plane of the
fixed block to match discriminants, glue along the anti-isometry that
``lattices.build_glue_map`` builds, and power the isometry until it descends
to the overlattice.
"""

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import gcd
from operator import mul

from . import codec, linalg
from .isometries import (
    Isometry,
    TwistElement,
    _discriminant_order,
    _restrict_to_rows,
    is_isometry,
    twist,
)
from .lattices import (
    Lattice,
    LatticeError,
    build_glue_map,
    discriminant_form,
    forms_isomorphic,
    glue,
    is_primitive_sublattice,
    lattice_E6,
    lattice_E8,
    lattice_U,
    named_lattice,
)
from .numbertheory import _power_exceeds, factorize, is_prime, legendre, sqrt_mod
from .polynomials import (
    IntPolynomial,
    NotSalemError,
    _norm,
    _power_min_poly,
    discriminant,
    is_salem,
    poly_gcd_mod,
    polyval_mod,
    powmod,
    square_class_test,
    trace_polynomial,
)
from .positivity import _hyperbolic_report


class RealizeError(ValueError):
    pass


class SearchCapExceeded(RealizeError):
    pass


# --- surface classes -----------------------------------------------------------


@dataclass(frozen=True)
class SurfaceClass:
    kind: str
    b2: int
    h11: int


# b2 is the second Betti number of the class, h11 the standard middle Hodge
# number (4 / 20 / 10 for torus / K3 / Enriques)
SURFACE_CLASSES = {
    "torus": SurfaceClass("torus", 6, 4),
    "k3": SurfaceClass("k3", 22, 20),
    "enriques": SurfaceClass("enriques", 10, 10),
}


def surface_class(kind):
    if kind not in SURFACE_CLASSES:
        raise RealizeError(f"unknown surface class {kind!r}")
    return SURFACE_CLASSES[kind]


@dataclass(frozen=True)
class Decision:
    answer: bool
    reason: str
    clause: object = None


def stable_realizable(s: IntPolynomial, kind, projective=False):
    """Does some power of the Salem number realize on the given surface class?

    Yes iff d < b2, or d = b2 and -s(1)s(-1) is a rational square; the
    projective refinement additionally needs d <= h^{1,1}.
    """
    K = surface_class(kind)
    is_salem(s)
    d = s.degree
    if d > K.b2:
        return Decision(False, f"degree {d} exceeds b2 = {K.b2}")
    if d == K.b2:
        if not square_class_test(s):
            return Decision(False, f"d = b2 = {K.b2} but -s(1)s(-1) is not a square", 2)
        base = Decision(True, "clause (2): d = b2 and -s(1)s(-1) is a square", 2)
    else:
        base = Decision(True, f"clause (1): d = {d} < b2 = {K.b2}", 1)
    if projective and d > K.h11:
        return Decision(
            False, f"projective case needs d <= h11 = {K.h11}, got d = {d}"
        )
    return base


@dataclass(frozen=True)
class RationalIsometryDecision:
    exists: bool
    reason: str
    clause: object = None
    hyperbolic_kernel_available: bool = False
    signature_3_kernel_available: bool = False


def rational_isometry_criterion(s: IntPolynomial, lattice_name):
    """Existence of a rational isometry with characteristic polynomial
    s(x)(x-1)^(rk - d); pure decision, no witness."""
    if lattice_name not in ("3U", "U+E8", "3U+2E8"):
        raise RealizeError("criterion applies to 3U, U+E8 and 3U+2E8 only")
    is_salem(s)
    L = named_lattice(lattice_name)
    rk = L.rank
    d = s.degree
    sig3 = L.signature()[0] == 3
    if d <= rk - 2:
        return RationalIsometryDecision(
            True,
            f"clause (1): d = {d} <= rank - 2 = {rk - 2}",
            1,
            hyperbolic_kernel_available=True,
            signature_3_kernel_available=sig3,
        )
    if d == rk:
        if square_class_test(s):
            return RationalIsometryDecision(
                True,
                "clause (2): d = rank and -s(1)s(-1) is a square",
                2,
                signature_3_kernel_available=sig3,
            )
        return RationalIsometryDecision(
            False, "d = rank but -s(1)s(-1) is not a square", 2
        )
    return RationalIsometryDecision(False, f"degree {d} does not fit rank {rk}")


def mod2_trivial(matrix):
    """True iff the integral matrix is congruent to the identity mod 2."""
    if not linalg.is_integral(matrix):
        raise RealizeError("mod-2 reduction needs an integral matrix")
    return linalg.mat_mod(matrix, 2) == linalg.identity(len(matrix))


# --- split primes and norm elements ----------------------------------------------


@dataclass(frozen=True)
class SplitPrimeEvidence:
    p: int
    trace_root: int  # simple root of the trace polynomial mod p
    unit_circle_sqrt: int  # square root of trace_root^2 - 4 mod p
    modulus: int  # the congruence 8 |det R| that p satisfies (1 when relaxed)


SPLIT_PRIME_CAP = 2_000_000  # the last prime find_split_prime tries
PIPELINE_PRIME_CAP = 100_000  # the last prime pipeline_split_prime tries
PIPELINE_ORDER_CAP = 400_000  # the largest best order mod p^2 that ends it after 6 hits
DESCENT_ORDER_CAP = 10**7  # the largest descent power build_k3_certificate raises to


def _split_primes(r: IntPolynomial, first, step, exclude, cap):
    """(p, roots) for each prime p = first, first + step, ... up to ``cap``
    that divides neither ``exclude`` nor disc r, where roots, ascending and
    not empty, lists (a, w) for each root a of r mod p (simple, as p does not
    divide disc r) with a^2 - 4 a nonzero square mod p, and w its square root."""
    disc_r = discriminant(r)
    for p in range(first, cap + 1, step):
        if not is_prime(p) or exclude % p == 0 or disc_r % p == 0:
            continue
        roots = [
            (a, sqrt_mod(a * a - 4, p))
            for a in range(p)
            if polyval_mod(r.coeffs, a, p) == 0 and legendre(a * a - 4, p) == 1
        ]
        if roots:
            yield p, roots


def find_split_prime(s: IntPolynomial, det_R, lower_bound=None):
    """Smallest prime p = 1 mod 8|det_R| above the bound that is split for s.

    Split means: the trace polynomial has a simple root a mod p and
    x^2 - a x + 1 splits mod p (Legendre symbol of a^2 - 4 equals +1);
    primes dividing 2 disc(s) are skipped. For reciprocal s,
    |disc s| = |r(2) r(-2)| disc(r)^2, and ``_split_primes`` skips the primes
    dividing disc(r), so excluding 2 r(2) r(-2) skips the same primes with
    no determinant of size 2d - 1. Evidence carries the root and the square
    root of a^2 - 4. Primes up to SPLIT_PRIME_CAP are tried.
    """
    if det_R == 0:
        raise RealizeError("det_R must be nonzero")
    r = is_salem(s).trace_polynomial
    modulus = 8 * abs(det_R)
    start = max(2, lower_bound or 2)
    first = 1 + modulus * ((start - 1) // modulus + 1)  # least p = 1 mod modulus above start
    for p, roots in _split_primes(r, first, modulus, 2 * r(2) * r(-2), SPLIT_PRIME_CAP):
        a, w = roots[0]
        return SplitPrimeEvidence(p, a, w, modulus)
    raise SearchCapExceeded(f"no split prime p = 1 mod {modulus} in ({start}, {SPLIT_PRIME_CAP:,}]")


def check_split_prime(s: IntPolynomial, ev: SplitPrimeEvidence):
    """Independent re-check: s mod p has the root (a + sqrt(a^2-4))/2."""
    p, a, w = ev.p, ev.trace_root, ev.unit_circle_sqrt
    if (w * w - (a * a - 4)) % p != 0:
        return False
    b = (a + w) * pow(2, -1, p) % p
    return polyval_mod(s.coeffs, b, p) == 0


def find_norm_element(s: IntPolynomial, ev: SplitPrimeEvidence, l_max=3, box=30):
    """Generator t of a power of the chosen degree-one split prime.

    Searches integer polynomials t(w) of degree < m = deg r with coefficients
    up to ``box``, shell by shell, for |Norm(t)| = p^l, t(a) = 0 mod p, and
    no vanishing at the other primes above p. Within a shell of radius R it
    walks the heads (t_0, ..., t_(m-2)) in [-R, R]^(m-1) in lexicographic
    order and solves t(a) = 0 mod p for the last coefficient: t_(m-1) a^(m-1)
    = -sum t_k a^k mod p. Its solutions in [-R, R] ascending, only +-R when
    the head lies inside the shell, are exactly the points of
    ``linalg.box_shell(m, R)`` with t(a) = 0 mod p, in that order, so the
    first hit (t, l) is the one a scan of the shell would return. When
    a = 0 mod p every last coefficient solves a head with t_0 = 0 mod p and
    none solves any other. Raises RealizeError when p is not a prime or a is
    not a simple root of r mod p, and SearchCapExceeded when the box is
    exhausted (a class-group obstruction would need a larger box or l_max).
    """
    r = trace_polynomial(s)
    m = r.degree
    p, a = ev.p, ev.trace_root
    if not is_prime(p):
        raise RealizeError(f"split prime {p} is not a prime")
    if polyval_mod(r.coeffs, a, p) != 0 or polyval_mod(r.derivative().coeffs, a, p) == 0:
        raise RealizeError(f"trace_root {a} is not a simple root of the trace polynomial mod {p}")
    if m == 1:
        return TwistElement(IntPolynomial([p])), 1
    powers = {p**l: l for l in range(1, l_max + 1)}
    head_powers = [pow(a, k, p) for k in range(m - 1)]
    # lead x = -h mod p has a solution exactly when g | h, and then the
    # solutions are one class mod p / g (g = p when a = 0 mod p: every x)
    lead = pow(a, m - 1, p)
    g = gcd(lead, p)
    step = p // g
    inverse = pow(lead // g, -1, step)
    for radius in range(1, box + 1):
        full = range(-radius, radius + 1)
        for head in product(full, repeat=m - 1):
            h = sum(map(mul, head, head_powers)) % p
            if h % g:
                continue
            c = -(h // g) * inverse % step
            if max(map(abs, head)) == radius:
                lasts = range((c + radius) % step - radius, radius + 1, step)
            else:
                lasts = [x for x in (-radius, radius) if (x - c) % step == 0]
            for last in lasts:
                coeffs = head + (last,)
                norm = abs(_norm(coeffs, r.coeffs))
                if norm not in powers:
                    continue
                # a is a simple root of r mod p and t(a) = 0, so t lies in no
                # other prime above p exactly when gcd(t, r) mod p is y - a
                if len(poly_gcd_mod(coeffs, r.coeffs, p)) != 2:
                    continue
                return TwistElement(IntPolynomial(coeffs)), powers[norm]
    raise SearchCapExceeded(
        f"no norm element with |N(t)| = p^l, p = {p}, l <= {l_max} up to radius {box}"
    )


# --- seeds ----------------------------------------------------------------------


@dataclass(frozen=True)
class Seed:
    """Curated data realizing the Salem block inside the K3 lattice.

    ``S`` is an even hyperbolic lattice with integral isometry ``f_S`` whose
    characteristic polynomial is the Salem polynomial; the orthogonal
    complement inside 3U + 2E8 is U + R_rest with the identity isometry, and
    the U summand is the plane retwisted during certificate construction.
    """

    salem: IntPolynomial
    S: Lattice
    f_S: tuple
    R_rest: Lattice

    def R(self):
        return lattice_U().direct_sum(self.R_rest)


def _quartic_seed():
    s4 = IntPolynomial([1, -1, -1, -1, 1])
    S = Lattice(((-2, 1, 0, -2), (1, -2, 1, 0), (0, 1, -2, 1), (-2, 0, 1, -2)))
    f = ((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1))
    R_rest = lattice_U().direct_sum(lattice_E8()).direct_sum(lattice_E6())
    return Seed(salem=s4, S=S, f_S=f, R_rest=R_rest)


@cache
def seed_library():
    return {(1, -1, -1, -1, 1): _quartic_seed()}


def seed_for(s: IntPolynomial):
    return seed_library().get(tuple(s.coeffs))


def validate_seed(seed: Seed):
    """(cert, f_S, R): the Salem certificate of the seed's polynomial, its
    isometry and its complement lattice R = U + R_rest, formed once here for
    the caller, after the seed passes every check."""
    cert = is_salem(seed.salem)
    if cert.quadratic_degenerate:
        raise RealizeError("quadratic Salem seeds are not supported for K3 witnesses")
    f = Isometry(seed.S, seed.f_S)
    if f.char_poly().coeffs != seed.salem.coeffs:
        raise RealizeError("seed isometry has the wrong characteristic polynomial")
    if not seed.S.is_even() or not seed.S.is_hyperbolic():
        raise RealizeError("seed Salem block must be even and hyperbolic")
    R = seed.R()
    if not R.is_even():
        raise RealizeError("seed complement must be even")
    if seed.S.rank + R.rank != 22:
        raise RealizeError("seed blocks must fill rank 22")
    total_sig = tuple(
        x + y for x, y in zip(seed.S.signature(), R.signature())
    )
    if total_sig != (3, 19):
        raise RealizeError("seed blocks must have total signature (3, 19)")
    if abs(seed.S.determinant()) != abs(R.determinant()):
        raise RealizeError("seed determinants do not match")
    if not forms_isomorphic(discriminant_form(seed.S), discriminant_form(R), anti=True):
        raise RealizeError("seed discriminant forms are not anti-isometric")
    return cert, f, R


# --- certificates ---------------------------------------------------------------


CERTIFICATE_FORMAT = "salemk3-certificate-1"


@dataclass(frozen=True)
class RealizationCertificate:
    """Machine-checkable witness that lambda^power is a dynamical degree.

    Every field is re-derivable: the ambient lattice is even unimodular of
    the class signature, the isometry is integral with characteristic
    polynomial s_n(x)(x-1)^(b2-d), the kernel rows embed the Salem block, and
    the kernel generator g satisfies g^power = h restricted to the kernel, so
    chamber preservation for g (cheap to check) transfers to h.
    """

    surface: str
    projective: bool
    salem: IntPolynomial
    power: int
    salem_power_poly: IntPolynomial
    lattice: Lattice
    isometry: tuple
    kernel_basis: tuple
    kernel_generator: tuple
    positivity: object = None  # ObstructionReport for the kernel generator
    mod2_identity: object = None  # bool for torus / enriques
    glue_evidence: object = None  # dict from the construction pipeline


def _order_mod_square(b, p):
    """Order of the unit b modulo p^2, for p prime not dividing b.

    It divides E = p (p - 1), the exponent of (Z/p^2)^*. For each q^a
    exactly dividing E in turn, the running exponent drops its q-part and
    climbs back one factor q at a time until b^d = 1 mod p^2 (Cohen, GTM 138,
    Algorithm 1.4.3): the climb of ``isometries._least_power`` for chi =
    x - b and the one image 1, with its exponent known and ``pow`` in place
    of the table of squares and the polynomial powering.
    """
    m = p * p
    d = E = p * (p - 1)
    for q, a in factorize(E).items():
        d //= q**a
        x = pow(b, d, m)
        for _ in range(a):
            if x == 1:
                break
            x = pow(x, q, m)
            d *= q
    return d


def pipeline_split_prime(s: IntPolynomial, exclude):
    """Split prime for the certificate pipeline, keeping the powering small.

    Scans split primes up to PIPELINE_PRIME_CAP coprime to ``exclude``,
    estimating the order of the induced discriminant action (the order of
    the Salem root mod p^2), and returns the evidence minimizing that order
    among the first few hits.
    """
    best = None
    found = 0
    for p, roots in _split_primes(trace_polynomial(s), 3, 1, exclude, PIPELINE_PRIME_CAP):
        for a, w in roots:
            b = (a + w) * pow(2, -1, p) % p
            o2 = _order_mod_square(b, p)
            if best is None or o2 < best[0]:
                best = (o2, SplitPrimeEvidence(p, a, w, 1))
        found += len(roots)
        if found >= 6 and best[0] <= PIPELINE_ORDER_CAP:
            return best[1]
    if best is None:
        raise SearchCapExceeded(f"no pipeline split prime up to {PIPELINE_PRIME_CAP:,}")
    return best[1]


def build_k3_certificate(s: IntPolynomial, seed=None):
    """Projective-K3 realization certificate for a power of the Salem number.

    Pipeline: split prime, norm element, twist the Salem block by t^2 and the
    distinguished hyperbolic plane of the complement by p^(2l), glue along a
    constructed anti-isometry, power the isometry until it descends to the
    overlattice, and package the evidence. Only the checks that can fail run
    along the way; ``verify_certificate`` then judges the finished certificate.
    Raises RealizeError naming the failing stage; no partial certificates.
    The glue map exists (twisting by the square t^2 changes only the p-parts,
    hyperbolic on both sides as (t) is a power of a split prime), F^k acts
    trivially on D_S2 and so descends, and the kernel rows carry S2's form.
    """
    if seed is None:
        seed = seed_for(s)
        if seed is None:
            raise RealizeError(
                "no curated seed for this Salem polynomial; decision remains "
                "available through stable_realizable"
            )
    try:
        salem, f_seed, R = validate_seed(seed)
    except (RealizeError, NotSalemError, LatticeError) as exc:
        raise RealizeError(f"stage seed-validation: {exc}") from exc
    if tuple(seed.salem.coeffs) != tuple(s.coeffs):
        raise RealizeError("stage seed-validation: seed is for a different polynomial")

    S, R_rest = seed.S, seed.R_rest
    disc_s = discriminant(s)
    det_R = R.determinant()
    try:
        ev = pipeline_split_prime(s, exclude=2 * S.determinant() * disc_s * det_R)
    except SearchCapExceeded as exc:
        raise RealizeError(f"stage split-prime: {exc}") from exc
    if not check_split_prime(s, ev):
        raise RealizeError("stage split-prime: evidence failed the independent re-check")
    p = ev.p

    try:
        t, l = find_norm_element(s, ev)
    except SearchCapExceeded as exc:
        raise RealizeError(f"stage norm-element: {exc}") from exc

    # stage: twist the Salem block by t^2 (|N(t)| = p^l, so |det S2| = |det S| p^(4l)),
    # and retwist the distinguished hyperbolic plane of the complement to match
    S2, f2 = twist(S, f_seed, TwistElement(t.poly * t.poly))
    R2 = lattice_U().rescaled(p ** (2 * l)).direct_sum(R_rest)

    # stage: glue along a constructed anti-isometry
    try:
        phi = build_glue_map(discriminant_form(S2), discriminant_form(R2))
        L22, (den, H) = glue(S2, R2, phi)
    except LatticeError as exc:
        raise RealizeError(f"stage glue: {exc}") from exc

    # stage: positivity of the base generator on the twisted block
    if abs(S2.determinant()) <= 4 * abs(disc_s):
        raise RealizeError("stage positivity: determinant bound unavailable")
    report = _hyperbolic_report(S2, f2, salem, None)  # char(f2) = s, and the bound holds

    # stage: power the isometry until it acts trivially on the discriminant
    # group, so that it descends to the overlattice. For the glued basis B = H / den
    # and H^-1 = N / e, row i of B^-1 = den N / e is the coordinate vector of ambient
    # e_i, and h = (B^-1)^T block B^T = N^T block H^T / e (column convention).
    k = _discriminant_order(S2, f2, s.coeffs)  # char(f2) = s
    if k > DESCENT_ORDER_CAP:
        raise RealizeError(
            f"stage power: discriminant action order {k} exceeds the cap {DESCENT_ORDER_CAP}"
        )
    Fk, _ = linalg.poly_at_matrix(powmod([0, 1], k, s.coeffs), f2.matrix, 1)  # char(f2) = s
    block = linalg.block_diag(Fk, linalg.identity(R2.rank))
    N, e = linalg.inverse_pair(H)
    h = linalg.mat_mul(linalg.mat_mul(linalg.transpose(N), block), linalg.transpose(H))
    h = tuple(tuple(x // e for x in row) for row in h)

    s_n = _power_min_poly(salem, k)

    # kernel data: the first rank-S2 rows of basis^-1 embed the twisted Salem block
    kernel_rows = tuple(tuple(den * x // e for x in row) for row in N[: S2.rank])

    glue_evidence = {
        "p": p,
        "l": l,
        "t": [str(c) for c in t.poly.coeffs],
        "trace_root": ev.trace_root,
        "det_kernel": str(S2.determinant()),
        "det_complement": str(R2.determinant()),
        "legendre_minus_one": legendre(p - 1, p),
        "legendre_det_complement": legendre(abs(det_R) % p, p) if abs(det_R) % p else 0,
    }
    cert = RealizationCertificate(
        surface="k3",
        projective=True,
        salem=s,
        power=k,
        salem_power_poly=s_n,
        lattice=L22,
        isometry=tuple(tuple(row) for row in h),
        kernel_basis=kernel_rows,
        kernel_generator=tuple(tuple(row) for row in f2.matrix),
        positivity=report,
        mod2_identity=None,
        glue_evidence=glue_evidence,
    )
    ok, items = verify_certificate(cert)
    if not ok:
        failing = [name for name, passed, _ in items if not passed]
        raise RealizeError(f"stage self-verify: certificate failed {failing}")
    return cert


def verify_certificate(cert: RealizationCertificate):
    """Re-run every check the certificate claims; returns (ok, itemized list).

    The characteristic-polynomial shape is verified through the invariant
    splitting: the kernel rows carry an isometry equal to the power of the
    kernel generator (char poly s_n), and the orthogonal complement of the
    kernel is fixed pointwise, so char(h) = s_n(x) (x-1)^(b2 - d) without any
    large determinant computation.

    The ``salem`` item certifies s once for the power polynomial and the
    positivity item, which also reuses adj(x I - g) from the ``char_poly``
    item's one Faddeev-LeVerrier pass and runs on a hyperbolic kernel only.
    """
    items = []

    def item(name, passed, detail=""):
        items.append((name, bool(passed), detail))
        return passed

    try:
        K = surface_class(cert.surface)
    except RealizeError as exc:
        item("surface", False, str(exc))
        return False, tuple(items)
    if K.kind == "k3" and cert.mod2_identity is not None:
        # FORMATS gives mod2_identity a meaning for torus and Enriques only
        item("surface", False, "mod2_identity must be null on a k3 certificate")
    else:
        item("surface", True, K.kind)

    d = cert.salem_power_poly.degree
    salem = None  # its lambda_interval[0] is a rational lower bound > 1 for lambda
    try:
        salem = is_salem(cert.salem)
    except NotSalemError as exc:
        item("salem", False, exc.reason)
    else:
        # power < 1 is possible only for certificates built in code. The claim
        # s_k has -c_(d-1) = Tr(lambda^k) > lambda^k - d, so a claim too small
        # for its power fails before any work that grows with k
        c = cert.salem_power_poly.coeffs
        power_ok = (
            cert.power >= 1
            and d == cert.salem.degree
            and not _power_exceeds(salem.lambda_interval[0], cert.power, abs(c[d - 1]) + d)
            and c == _power_min_poly(salem, cert.power).coeffs
        )
        item("salem", power_ok, f"power = {cert.power}")

    L = cert.lattice
    L_sig = L.signature()
    item(
        "ambient_lattice",
        L.rank == K.b2
        and L.is_even()
        and L.is_unimodular()
        and L_sig == ((3, K.b2 - 3) if K.kind != "enriques" else (1, 9)),
        f"rank {L.rank}, signature {L_sig}",
    )

    h = cert.isometry
    iso_ok = item(
        "isometry",
        linalg.is_integral(h) and is_isometry(L, h),
        "integral isometry of the ambient lattice",
    )

    rows = cert.kernel_basis
    kernel_ok = True
    try:
        if any(len(row) != L.rank for row in rows):
            raise ValueError(f"kernel_basis rows must have length lattice.rank = {L.rank}")
        kernel_lat = L.sublattice(rows)
        primitive, _ = is_primitive_sublattice(rows)
        kernel_ok &= primitive and len(rows) == d
        expected_sig = (1, d - 1) if cert.projective else (3, d - 3)
        kernel_sig = kernel_lat.signature()
        kernel_ok &= kernel_sig == expected_sig
    except (LatticeError, ValueError) as exc:
        kernel_ok = False
        kernel_lat = None
        item("kernel", False, str(exc))
    if kernel_lat is not None:
        item(
            "kernel",
            kernel_ok,
            f"rank {len(rows)}, signature {kernel_sig}",
        )

    char_ok = False
    if iso_ok and kernel_lat is not None:
        try:
            restricted = _restrict_to_rows(1, linalg.mat_to_int(h), rows)
            g = linalg.mat_to_int(cert.kernel_generator)
            g_iso = Isometry(kernel_lat, g)
            g_char, g_adj = linalg.charpoly_and_adjugate(g)
            g_char_ok = g_char == cert.salem.coeffs
            if g_char_ok and salem is None:
                raise ValueError("skipped g^power: the salem item failed")
            # with char(g) = s, g^k = r(g) for r = x^k mod s; its Frobenius norm
            # is at least lambda^k, so a block too small for k fails before r is formed
            frobenius_sq = sum(x * x for row in restricted for x in row)
            match_ok = (
                g_char_ok
                and not _power_exceeds(salem.lambda_interval[0], 2 * cert.power, frobenius_sq)
                and restricted
                == linalg.poly_at_matrix(powmod([0, 1], cert.power, cert.salem.coeffs), g, 1)[0]
            )
            # the complement of the kernel, the rows x with x G B^T = 0, is
            # fixed pointwise: a linear condition, so a Q-basis is enough; the
            # kernel item judges the kernel rows themselves
            comp_rows = linalg.primitive_kernel(linalg.mat_mul(rows, L.gram), L.rank)
            fixed_ok = linalg.mat_mul(comp_rows, linalg.transpose(h)) == comp_rows
            char_ok = g_char_ok and match_ok and fixed_ok
            item(
                "char_poly",
                char_ok,
                "kernel block is g^power with char(g) = s, complement fixed "
                f"pointwise; char(h) = s_n (x-1)^{K.b2 - d}",
            )
        except (RealizeError, ValueError, ArithmeticError) as exc:
            item("char_poly", False, str(exc))
    else:
        item("char_poly", False, "skipped: isometry or kernel failed")

    if cert.surface == "k3" and cert.projective:
        if char_ok and kernel_lat.is_hyperbolic():  # char_poly formed g_iso and g_adj; char(g) = s
            rep = _hyperbolic_report(kernel_lat, g_iso, salem, g_adj)
            pos_ok = rep.is_positive()
            if cert.positivity is not None:
                pos_ok &= cert.positivity == rep
            item("positivity", pos_ok, f"method = {rep.method}")
        else:
            item("positivity", False, "skipped: kernel unavailable")
    if cert.surface in ("torus", "enriques"):
        try:
            m2 = mod2_trivial(h)
        except RealizeError as exc:
            m2 = False
        claimed = cert.mod2_identity if cert.mod2_identity is not None else True
        item("mod2", m2 and claimed == m2, "isometry is the identity mod 2")

    ok = all(passed for _, passed, _ in items)
    return ok, tuple(items)


# --- certificate serialization -----------------------------------------------------


def certificate_to_json(cert: RealizationCertificate):
    return {
        "format": CERTIFICATE_FORMAT,
        "surface": cert.surface,
        "projective": cert.projective,
        "salem_polynomial": codec.poly_to_json(cert.salem),
        "power": cert.power,
        "salem_power_polynomial": codec.poly_to_json(cert.salem_power_poly),
        "lattice": codec.lattice_to_json(cert.lattice),
        "isometry": codec.matrix_to_json(cert.isometry),
        "kernel_basis": codec.matrix_to_json(cert.kernel_basis),
        "kernel_generator": codec.matrix_to_json(cert.kernel_generator),
        "positivity": None if cert.positivity is None else codec.report_to_json(cert.positivity),
        "mod2_identity": cert.mod2_identity,
        "glue": cert.glue_evidence,
    }


# the surface name stays a string here: verify's own "surface" item judges it
CERTIFICATE = {
    "format": codec.choice(CERTIFICATE_FORMAT),
    "surface": codec.string,
    "projective": codec.boolean,
    "salem_polynomial": codec.poly,
    "power": codec.positive_int,
    "salem_power_polynomial": codec.poly,
    "lattice": codec.lattice,
    "isometry": codec.int_matrix,
    "kernel_basis": codec.int_matrix,
    "kernel_generator": codec.int_matrix,
    "positivity": codec.nullable(codec.report),
    "mod2_identity": codec.nullable(codec.boolean),
    "glue": codec.free,
}


def certificate_from_json(data):
    """Read a certificate document; the matrices must have the shapes of the
    lattice rank n and the degree d of the Salem polynomial (the number of
    kernel rows is the ``kernel`` item's judgement)."""
    doc = codec.fields(data, CERTIFICATE, "certificate")
    n, d = doc["lattice"].rank, max(doc["salem_polynomial"].degree, 0)
    shapes = (("isometry", n, n), ("kernel_basis", None, n), ("kernel_generator", d, d))
    for field, rows, cols in shapes:
        codec.shape(doc[field], rows, cols, f"certificate.{field}")
    return RealizationCertificate(
        surface=doc["surface"],
        projective=doc["projective"],
        salem=doc["salem_polynomial"],
        power=doc["power"],
        salem_power_poly=doc["salem_power_polynomial"],
        lattice=doc["lattice"],
        isometry=doc["isometry"],
        kernel_basis=doc["kernel_basis"],
        kernel_generator=doc["kernel_generator"],
        positivity=doc["positivity"],
        mod2_identity=doc["mod2_identity"],
        glue_evidence=doc["glue"],
    )
