"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately written against different primitives than
the code under test: Fraction Gaussian elimination instead of Bareiss,
Fraction Gauss-Jordan instead of the fraction-free kernel (for echelon
forms, kernels, inverses and products of rational matrices), a search over
residues instead of integer kernels (for saturations),
Descartes' rule on an interpolated characteristic polynomial instead of
the law of inertia, numpy box scans instead of Fincke-Pohst, gcd-chasing
Smith reduction instead of the transform-tracking one, Euler powering
instead of reciprocity, repeated multiplication instead of prime stripping
(for matrix orders and discriminant actions), full orbit sums instead of
cyclotomic kernels, a Fraction Sturm chain instead of the integer
pseudo-remainder one, a Fraction gcd(p, p') and root counts on the Sturm
chain of p instead of the one chain of the trace polynomial and the sign of
p (for Salem certificates), a companion-matrix power instead of traces of
x^n mod s, a totient sieve instead of products of prime powers (for the
orders of roots of unity of bounded degree), the growth of <f^k z, z>
instead of a projection onto the geodesic plane, numpy roots of the squarefree part instead of the
cyclotomic factor list, a scan over every element of a discriminant group
instead of Smith coordinates, convolution powers of x^2 + 1 instead of
the binomial peeling in trace_polynomial, the roots of s mod p instead of
the roots of its trace polynomial (for split primes), and a Sylvester
resultant against the cofactor r / (y - a) instead of a gcd with r (for the
other primes above p), Fraction square-root bounds at every node instead of
the integer Fincke-Pohst walk, and Fraction coefficient vectors with Fraction
interval Horner evaluation instead of integer numerators over one
denominator (for number field elements), Fraction Horner evaluation instead
of integer Horner over one denominator (for twist matrices), and a walk of
a fixed number of steps instead of the walk with an exact stop (for orbit
representatives), exact division by every candidate instead of a root test
mod a prime first (for cyclotomic factors), and trial division by every
monic polynomial of degree at most 3 instead of gcds with x^(p^k) - x (for
the factor degrees of a polynomial mod p), and one Newton step per power of
p instead of steps that double the precision (for Hensel-lifted square
roots), and Fraction graph rows cleared over their least common denominator
instead of integer lifts over the exponent of the group (for glued bases),
and binary powering instead of r(F) for r = x^k mod the characteristic
polynomial of F (for matrix powers).
"""

from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from operator import mul

import numpy as np


def fraction_det(M):
    """Determinant by plain fraction Gaussian elimination."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if A[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            A[col], A[pivot] = A[pivot], A[col]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        for r in range(col + 1, n):
            if A[r][col]:
                f = A[r][col] * inv
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return det


def rat_row_reduce(A):
    """Reduced row echelon form over the rationals by Fraction Gauss-Jordan;
    returns (R, pivot_columns)."""
    M = [[Fraction(x) for x in row] for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if M[i][col] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = 1 / M[r][col]
        M[r] = [x * inv for x in M[r]]
        for i in range(m):
            if i != r and M[i][col]:
                f = M[i][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in M), tuple(pivots)


def rat_kernel(A):
    """Basis (rows) of the right kernel {x : A x = 0} over the rationals,
    one row per free column of ``rat_row_reduce``."""
    R, pivots = rat_row_reduce(A)
    n = len(A[0]) if A else 0
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][j]
        basis.append(tuple(v))
    return tuple(basis)


def fraction_inverse(A):
    """Inverse of a square rational matrix: the right half of the Fraction
    reduced echelon form of [A | I]; None when A is singular."""
    n = len(A)
    R, pivots = rat_row_reduce([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)])
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in R)


def rat_mat_mul(*factors):
    """Product of rational matrices by plain Fraction sums, left to right."""
    P = [[Fraction(x) for x in row] for row in factors[0]]
    for A in factors[1:]:
        P = [
            [sum((a * A[k][j] for k, a in enumerate(row)), Fraction(0)) for j in range(len(A[0]))]
            for row in P
        ]
    return tuple(tuple(row) for row in P)


def mat_pow_by_squaring(A, n):
    """A^n for n >= 0 by binary powering on plain sums of products: ints for
    an integer A, exact values for a rational one."""
    assert n >= 0
    result = tuple(tuple(int(i == j) for j in range(len(A))) for i in range(len(A)))
    while n:
        if n & 1:
            result = tuple(tuple(sum(map(mul, row, col)) for col in zip(*A)) for row in result)
        A = tuple(tuple(sum(map(mul, row, col)) for col in zip(*A)) for row in A)
        n >>= 1
    return result


def fraction_poly_at_matrix(coeffs, A):
    """p(A) for the ascending coefficients of p, by Horner's rule on Fractions."""
    n = len(A)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = [list(row) for row in rat_mat_mul(acc, A)]
        for i in range(n):
            acc[i][i] += c
    return tuple(tuple(row) for row in acc)


def orbit_min_by_window(F, v, steps):
    """The least of F^k v for |k| <= steps by (max |x_i|, then lex), walking
    F and its Fraction inverse one step at a time (integral entries as ints)."""
    Finv = tuple(
        tuple(x.numerator if x.denominator == 1 else x for x in row) for row in fraction_inverse(F)
    )
    orbit = [tuple(v)]
    for M in (F, Finv):
        w = tuple(v)
        for _ in range(steps):
            w = tuple(sum(m * x for m, x in zip(row, w)) for row in M)
            orbit.append(w)
    return min(orbit, key=lambda w: (max(abs(x) for x in w), w))


def saturation_by_search(B):
    """Generators (rows) of the saturation of the row span of integer B.

    With R the Fraction reduced echelon form of B and D the common
    denominator of R, the saturation is {y R : y in Z^k, y R integral}, so
    it is spanned by the D R_i and the integral y R with y in [0, D)^k.
    """
    R, pivots = rat_row_reduce(B)
    R = R[: len(pivots)]
    D = lcm(*(x.denominator for row in R for x in row))
    gens = [tuple(int(D * x) for x in row) for row in R]
    for y in product(range(D), repeat=len(R)):
        v = [sum(c * row[j] for c, row in zip(y, R)) for j in range(len(B[0]))]
        if any(v) and all(x.denominator == 1 for x in v):
            gens.append(tuple(int(x) for x in v))
    return gens


def descartes_signature(G):
    """(s_plus, s_minus) of a nondegenerate symmetric matrix, by Descartes' rule.

    The characteristic polynomial is interpolated from fraction_det(t I - G)
    at t = 0..n. It is real-rooted and 0 is not a root (det G != 0), so the
    sign changes of its coefficients count the positive eigenvalues exactly.
    """
    n = len(G)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        value = fraction_det([[k * (i == j) - G[i][j] for j in range(n)] for i in range(n)])
        basis = [Fraction(1)]  # prod_{m != k} (x - m) / (k - m), ascending
        for m in range(n + 1):
            if m != k:
                basis = [(lo - m * hi) / (k - m) for lo, hi in zip([0] + basis, basis + [0])]
        coeffs = [c + value * b for c, b in zip(coeffs, basis)]
    signs = [c > 0 for c in coeffs if c]
    s_plus = sum(a != b for a, b in zip(signs, signs[1:]))
    return (s_plus, n - s_plus)


def sylvester_resultant(p_coeffs, q_coeffs):
    """Resultant with the q-rows-on-top layout, via fraction_det."""
    p = list(p_coeffs)
    q = list(q_coeffs)
    m = len(p) - 1
    n = len(q) - 1
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    size = m + n
    rows = []
    qdesc = list(reversed(q))
    pdesc = list(reversed(p))
    for i in range(m):
        rows.append([0] * i + qdesc + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + pdesc + [0] * (size - m - 1 - i))
    det = fraction_det(rows)
    assert det.denominator == 1
    return int(det)


def brute_vectors_of_norm(gram, m, radius):
    """All integer vectors in the given sup-norm box with v^T G v = m."""
    n = len(gram)
    G = np.array(gram, dtype=object)
    ranges = [np.arange(-radius, radius + 1)] * n
    grids = np.meshgrid(*ranges, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1).astype(object)
    norms = np.einsum("ij,jk,ik->i", coords, G, coords)
    hits = coords[norms == m]
    return sorted(tuple(int(x) for x in row) for row in hits if any(row))


def cyclic_roots_by_orbit_sum(F, roots, cap=10000):
    """The given roots whose orbit sum under F (column convention) vanishes.

    The order N of F is found by repeated multiplication; a root r is kept
    when r + F r + ... + F^(N-1) r = 0. ``roots`` is a root list such as a
    brute_vectors_of_norm scan.
    """
    F = np.array(F, dtype=np.int64)
    identity = np.eye(len(F), dtype=np.int64)
    power, order = F, 1
    while not np.array_equal(power, identity):
        if order == cap:
            raise ValueError("the matrix has no finite order within the cap")
        power, order = power @ F, order + 1
    R = np.array(roots, dtype=np.int64).reshape(len(roots), len(F))
    total, image = np.zeros_like(R), R
    for _ in range(order):
        total, image = total + image, image @ F.T
    return sorted(tuple(int(x) for x in r) for r, s in zip(R, total) if not s.any())


def crosses_by_iteration(gram, F, z, max_doublings=16):
    """Whether z crosses the geodesic plane of a Salem isometry F, by iteration.

    Write z = a u1 + b u2 + w with u1, u2 the lambda and 1/lambda
    eigenvectors and w in the negative definite complement. Then
    <F^k z, z> = (lambda^k + lambda^-k) a b <u1, u2> + <F^k w, w>, and
    pi(z)^2 = 2 a b <u1, u2>. F is an isometry of the complement, so
    |<F^k w, w>| <= |<w, w>| = |<z, z> - pi(z)^2|, and whenever the sign of
    <F^k z, z> differs from that of pi(z)^2 one gets |<F^k z, z>| <= |<z, z>|.
    So k is doubled until |<F^k z, z>| > |<z, z>|; that sign is the sign of
    pi(z)^2, and z crosses when it is negative.
    """
    G = np.array(gram, dtype=object)
    v = np.array(z, dtype=object)
    norm = abs(v @ G @ v)
    power = np.array(F, dtype=object)
    for _ in range(max_doublings):
        pairing = (power @ v) @ G @ v
        if abs(pairing) > norm:
            return bool(pairing < 0)
        power = power @ power
    raise ValueError("<F^k z, z> stayed within |<z, z>| for every k tried")


def smith_diagonal(M):
    """Invariant factors by gcd-chasing reduction (no transforms).

    Each pass moves the least nonzero entry (of the remaining block, then of
    row t and column t) to (t, t) before reducing the rest of row t and
    column t modulo it, so the multipliers stay small; reducing against
    whichever remainder came up first made the entries grow without bound
    on matrices with entries of a few hundred."""
    A = [list(map(int, row)) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    t = 0
    diag = []
    while t < min(m, n):
        nz = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not nz:
            break
        while nz:
            _, pi, pj = min(nz)
            A[t], A[pi] = A[pi], A[t]
            for row in A:
                row[t], row[pj] = row[pj], row[t]
            for i in range(t + 1, m):
                qd = A[i][t] // A[t][t]
                if qd:
                    A[i] = [a - qd * b for a, b in zip(A[i], A[t])]
            for j in range(t + 1, n):
                qd = A[t][j] // A[t][t]
                if qd:
                    for row in A:
                        row[j] -= qd * row[t]
            nz = [(abs(A[i][t]), i, t) for i in range(t + 1, m) if A[i][t]]
            nz += [(abs(A[t][j]), t, j) for j in range(t + 1, n) if A[t][j]]
        bad = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
             if A[i][j] % A[t][t]),
            None,
        )
        if bad is not None:
            A[t] = [a + b for a, b in zip(A[t], A[bad[0]])]
            continue
        diag.append(abs(A[t][t]))
        t += 1
    return [d for d in diag if d]


def _divmod_mod_p(f, g, p):
    """Quotient and remainder of f by g mod the prime p, for ascending
    coefficient lists and a leading coefficient of g prime to p."""
    f = [c % p for c in f]
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(f) - len(g) + 1, 0)
    for i in reversed(range(len(q))):
        q[i] = c = f[i + len(g) - 1] * inv % p
        for j, b in enumerate(g):
            f[i + j] = (f[i + j] - c * b) % p
    return q, f[: len(g) - 1]


def factor_degrees_by_trial_division(coeffs, p):
    """(degrees, squarefree) for a monic polynomial of degree at most 7 mod
    the prime p: the degrees of its irreducible factors mod p and whether
    none of them is repeated.

    The irreducible monic polynomials of degree 1 to 3 are those that no
    monic polynomial of lower positive degree divides. Dividing f by each of
    them as often as it goes leaves a cofactor whose irreducible factors all
    have degree at least 4, so a cofactor of degree at most 7 is 1 or
    irreducible.
    """
    f = [c % p for c in coeffs]
    if f[-1] != 1 or len(f) > 8:
        raise ValueError("needs a monic polynomial of degree at most 7 mod p")

    def divides(g, h):
        return not any(_divmod_mod_p(h, g, p)[1])

    monics = [list(c) + [1] for k in (1, 2, 3) for c in product(range(p), repeat=k)]
    irreducible = [g for g in monics if not any(divides(h, g) for h in monics if len(h) < len(g))]
    degrees, squarefree = set(), True
    for g in irreducible:
        copies = 0
        while len(f) >= len(g) and divides(g, f):
            f = _divmod_mod_p(f, g, p)[0]
            copies += 1
        if copies:
            degrees.add(len(g) - 1)
            squarefree = squarefree and copies == 1
    if len(f) > 1:
        degrees.add(len(f) - 1)
    return degrees, squarefree


def orders_by_totient_sieve(d):
    """Ascending n with phi(n) <= d, from a totient sieve over n <= 2 d^2 + 6
    (phi(n) >= sqrt(n / 2) bounds n by 2 d^2)."""
    size = 2 * d * d + 7
    phi = list(range(size))
    for p in range(2, size):
        if phi[p] == p:  # p is prime: no smaller prime has touched it
            for k in range(p, size, p):
                phi[k] -= phi[k] // p
    return [n for n in range(1, size) if phi[n] <= d]


def cyclotomic_factors_by_division(p):
    """(n, cyclotomic(n)) for every cyclotomic polynomial dividing p, by
    exact division by every cyclotomic(n) with phi(n) <= deg p."""
    from salemk3.polynomials import cyclotomic, divides

    out = []
    for n in orders_by_totient_sieve(p.degree):
        cyc = cyclotomic(n)
        if divides(cyc, p):
            out.append((n, cyc))
    return out


def matrix_order_mod(A, m, cap=100000):
    """Least j >= 1 with A^j = I modulo m, by repeated numpy multiplication."""
    A = np.array(A, dtype=np.int64) % m
    identity = np.eye(len(A), dtype=np.int64)
    power = A
    for j in range(1, cap + 1):
        if np.array_equal(power, identity):
            return j
        power = (power @ A) % m
    raise ValueError("no power of the matrix reached the identity within the cap")


def least_power_by_iteration(A, D, m, cap=100000):
    """Least d >= 1 with A^d D = D modulo m, by repeated numpy multiplication."""
    A = np.array(A, dtype=np.int64) % m
    D = np.array(D, dtype=np.int64) % m
    image = (A @ D) % m
    for d in range(1, cap + 1):
        if np.array_equal(image, D):
            return d
        image = (A @ image) % m
    raise ValueError("no power of the matrix fixed D within the cap")


def discriminant_action(L, form, F):
    """Matrix (columns = images) of the action of the integral isometry F on
    the generators of the discriminant form of L.

    The image F g_j of a generator lift is a dual vector; its coordinates
    are those of the one element sum_i c_i g_i of the group whose lift
    differs from it by a vector of L. Every element is tried: c_1 is looked
    up in a table of the multiples of g_1 for each choice of the others.
    """
    n, k = L.rank, form.ngens
    den, lifts = form.lifts

    def residues(coords, start):
        """sum_i coords[i] g_(start + i), as den times its lift mod den."""
        return tuple(
            sum(c * lifts[start + i][r] for i, c in enumerate(coords)) % den for r in range(n)
        )

    first = {residues((c,), 0): c for c in range(form.orders[0])}
    rest = [(coords, residues(coords, 1)) for coords in product(*map(range, form.orders[1:]))]
    cols = []
    for v in lifts:
        image = [int(sum(F[r][c] * v[c] for c in range(n))) for r in range(n)]
        (col,) = [
            (first[key],) + coords
            for coords, b in rest
            if (key := tuple((x - y) % den for x, y in zip(image, b))) in first
        ]
        cols.append(col)
    return tuple(tuple(col[i] for col in cols) for i in range(k))


def fraction_form_values(gram, form, x, y):
    """(q(x), b(x, y)) as unreduced Fractions, for x and y given by their
    coordinates over the generators of a form whose ``lifts`` lift them to
    the dual of the lattice with Gram matrix ``gram``: with v and w the dual
    vectors sum_i x_i l_i / den and sum_i y_i l_i / den, q(x) = v^T G v and
    b(x, y) = v^T G w, so they agree with the form mod 2 and mod 1. The
    products are taken on den v and den w, then divided by den^2."""
    den, lifts = form.lifts
    n = len(gram)

    def scaled(coords):
        return [sum(c * lift[r] for c, lift in zip(coords, lifts)) for r in range(n)]

    v, w = scaled(x), scaled(y)
    Gv = [sum(g * a for g, a in zip(row, v)) for row in gram]
    return (
        Fraction(sum(a * b for a, b in zip(v, Gv)), den * den),
        Fraction(sum(a * b for a, b in zip(w, Gv)), den * den),
    )


def discriminant_order_by_iteration(L, f, cap=100000):
    """Order of the action of the integral isometry f on L^dual / L.

    Takes the action matrix of discriminant_action above (columns are the
    images of the Smith generators) and multiplies it by itself, reducing row
    i modulo the order of generator i, until it is the identity.
    """
    from salemk3.lattices import discriminant_form

    q = discriminant_form(L)
    orders, k = q.orders, q.ngens
    A = discriminant_action(L, q, f.matrix)
    identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    power = tuple(tuple(A[i][j] % orders[i] for j in range(k)) for i in range(k))
    order = 1
    while power != identity:
        if order == cap:
            raise ValueError("the action has no finite order within the cap")
        power = tuple(
            tuple(sum(A[i][t] * power[t][j] for t in range(k)) % orders[i] for j in range(k))
            for i in range(k)
        )
        order += 1
    return order


def fraction_glue_basis(M, N, phi):
    """(den, H) for the overlattice of M + N on the graph of the glue map phi,
    by the Fraction route: each graph row is the Fraction lift of g_j in M
    followed by the Fraction combination of the lifts in N at phi(g_j); the
    rows are cleared over their least common denominator den, and H is the
    Hermite form of den I stacked on them."""
    from salemk3.linalg import hnf
    from salemk3.lattices import discriminant_form

    def fraction_lifts(L):
        den, rows = discriminant_form(L).lifts
        return [[Fraction(x, den) for x in row] for row in rows]

    lifts_M, lifts_N = fraction_lifts(M), fraction_lifts(N)
    graph = []
    for j, lift in enumerate(lifts_M):
        image = phi.image(tuple(int(i == j) for i in range(len(lifts_M))))
        graph.append(lift + [sum((c * v[r] for c, v in zip(image, lifts_N)), Fraction(0)) for r in range(N.rank)])
    den = lcm(1, *(x.denominator for row in graph for x in row))
    n = M.rank + N.rank
    scaled = [[den * int(i == j) for j in range(n)] for i in range(n)]
    return den, hnf(tuple(map(tuple, scaled + [[int(x * den) for x in row] for row in graph])))


def count_e8_roots_standard_model():
    """Number of norm-2 vectors of E8 in its coordinate model.

    Integer vectors: all +-e_i +-e_j; half-integer vectors: all entries
    +-1/2 with an even number of minus signs.
    """
    count = 0
    for i in range(8):
        for j in range(i + 1, 8):
            count += 4  # sign choices
    from itertools import product

    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            # norm = 8 * 1/4 = 2
            count += 1
    return count


def euler_legendre(a, p):
    """Legendre symbol by the Euler criterion."""
    a %= p
    if a == 0:
        return 0
    v = pow(a, (p - 1) // 2, p)
    return 1 if v == 1 else -1


def lift_square_stepwise(c, x, rest, p, e):
    """Hensel lift of a solution x of c x^2 = rest mod p to mod p^e (odd p,
    p not dividing c x): e - 1 Newton steps of one power of p each."""
    pk = p
    for _ in range(e - 1):
        pk *= p
        num = (c * x * x - rest) % pk
        x = (x - num * pow(2 * c * x, -1, pk)) % pk
    return x


def first_split_prime(s_coeffs, modulus, lower):
    """(p, a) for the least prime p = 1 mod ``modulus`` above ``lower``, prime
    to 2 disc(s), at which s has a root b mod p; a is the least b + 1/b mod p.

    Such a p is split in the sense of ``find_split_prime``: disc(s) =
    +-r(2) r(-2) disc(r)^2 for the trace polynomial r, so r has only simple
    roots mod p, none of them +-2, and a = b + 1/b is a root of r with
    a^2 - 4 = (b - 1/b)^2 a nonzero square. Primality by trial division.
    """
    s = list(s_coeffs)
    deriv = [i * c for i, c in enumerate(s)][1:]
    disc = 2 * sylvester_resultant(s, deriv)  # +-disc(s), s monic
    p = lower + 1
    while True:
        if p % modulus == 1 and p > 1 and all(p % q for q in range(2, isqrt(p) + 1)) and disc % p:
            roots = [b for b in range(1, p) if sum(c * b**i for i, c in enumerate(s)) % p == 0]
            if roots:
                return p, min((b + pow(b, -1, p)) % p for b in roots)
        p += 1


def outside_other_primes_by_cofactor(t_coeffs, r_coeffs, a, p):
    """True iff t(w) lies in no prime above p other than (p, w - a), for a
    simple root a of the monic trace polynomial r mod p: the cofactor
    r / (y - a) mod p, by synthetic division, and t share no root mod p,
    that is their Sylvester resultant is prime to p (the cofactor is monic).
    """
    quotient, acc = [], 0
    for c in reversed(r_coeffs):
        acc = (acc * a + c) % p
        quotient.append(acc)
    if quotient.pop():
        raise ValueError("a is not a root of r mod p")
    cofactor = quotient[::-1]
    return sylvester_resultant([c % p for c in t_coeffs], cofactor) % p != 0


def numpy_salem_profile(coeffs, tol=1e-8):
    """(roots off the unit circle, largest root) from numpy, loose tolerance."""
    roots = np.roots(list(reversed(coeffs)))
    off = [r for r in roots if abs(abs(r) - 1) > tol]
    return len(off), max(abs(r) for r in roots)


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


def fraction_gcd(f, g):
    """The monic gcd over Q of two polynomials with ascending rational
    coefficients, not both zero, by the Fraction Euclidean algorithm."""
    f, g = [Fraction(c) for c in f], [Fraction(c) for c in g]
    while g:
        f, g = g, _fp_divmod(f, g)[1]
        g = [c / g[-1] for c in g]  # monic remainders keep the Fractions small
    return [c / f[-1] for c in f]


def _fp_squarefree(f):
    """f / gcd(f, f') for ascending Fraction coefficients, made monic."""
    m, rem = _fp_divmod(f, fraction_gcd(f, [i * c for i, c in enumerate(f)][1:]))
    assert not rem
    return [c / m[-1] for c in m]


def roots_on_unit_circle(coeffs, tol=1e-6):
    """Whether every complex root of the polynomial (ascending ints) has
    modulus 1 within tol, from numpy roots of its squarefree part.

    For a monic integer polynomial with nonzero constant term this is
    Kronecker's condition for a product of cyclotomic polynomials; the
    squarefree part keeps numpy away from ill-conditioned multiple roots.
    """
    sf = _fp_squarefree([Fraction(c) for c in coeffs])
    roots = np.roots([float(c) for c in reversed(sf)])
    return all(abs(abs(r) - 1) < tol for r in roots)


def fraction_sturm_chain(coeffs):
    """The Sturm chain over the rationals of the polynomial with ascending
    int ``coeffs``: p, p', then minus each Fraction remainder."""
    chain = [[Fraction(c) for c in coeffs]]
    f1 = [Fraction(i * c) for i, c in enumerate(coeffs)][1:]
    if f1:
        chain.append(f1)
    while len(chain[-1]) > 1:
        _, r = _fp_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def fraction_sturm_count(coeffs, a="-inf", b="inf", chain=None):
    """Distinct real roots in (a, b] from a Sturm chain over the rationals.

    ``coeffs`` are ascending ints; ``a`` and ``b`` are rationals or the
    strings "-inf" and "inf". Signs come from Fraction Horner evaluation on
    ``chain``, by default ``fraction_sturm_chain(coeffs)``.
    """
    if chain is None:
        chain = fraction_sturm_chain(coeffs)

    def sign_at(f, x):
        if x == "inf":
            v = f[-1]
        elif x == "-inf":
            v = f[-1] * (-1) ** (len(f) - 1)
        else:
            v = _fp_eval(f, x)
        return (v > 0) - (v < 0)

    def variations(x):
        signs = [s for s in (sign_at(f, x) for f in chain) if s != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(a) - variations(b)


def salem_certificate_by_full_sturm(p):
    """``is_salem`` by the degree-d route: the squarefree test is
    ``fraction_gcd(p, p')``, the root counts of r come from
    ``fraction_sturm_count``, and lambda's interval comes from bisecting
    (-M, M], M the Cauchy bound, with Fraction Sturm counts on the chain of
    p, keeping the right half whenever it holds a root.

    Returns the same ``SalemCertificate`` or raises the same
    ``NotSalemError``, reason and message, with the checks in the same order.
    """
    from salemk3.polynomials import (
        NotSalemError,
        SalemCertificate,
        cyclotomic_factors,
        trace_polynomial,
    )

    if p.is_zero() or p.degree < 2:
        raise NotSalemError("wrong_degree", str(p))
    if not p.is_monic():
        raise NotSalemError("not_monic", str(p))
    if p.degree % 2 != 0:
        raise NotSalemError("odd_degree", str(p))
    if not p.is_reciprocal():
        raise NotSalemError("not_reciprocal", str(p))
    if len(fraction_gcd(p.coeffs, p.derivative().coeffs)) > 1:
        raise NotSalemError("reducible", str(p))
    r = trace_polynomial(p)
    chain = fraction_sturm_chain(r.coeffs)
    if fraction_sturm_count(r.coeffs, chain=chain) != r.degree:
        raise NotSalemError("wrong_root_pattern", "trace polynomial has non-real roots")
    above_two = fraction_sturm_count(r.coeffs, 2, "inf", chain)
    below_minus_two = fraction_sturm_count(r.coeffs, "-inf", -2, chain)
    if above_two != 1 or below_minus_two != 0:
        raise NotSalemError(
            "wrong_root_pattern",
            f"{above_two} trace roots above 2, {below_minus_two} at or below -2",
        )
    if cyclotomic_factors(p):
        raise NotSalemError("reducible", str(p))
    chain = fraction_sturm_chain(p.coeffs)
    b = Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.leading)) + 1  # Cauchy
    a = -b
    n = fraction_sturm_count(p.coeffs, a, b, chain)
    while n > 1:
        c = (a + b) / 2
        right = fraction_sturm_count(p.coeffs, c, b, chain)
        if right:
            a, n = c, right
        else:
            b = c
    while not a > 1:  # two halvings a round, keeping the half that holds lambda
        for _ in range(2):
            c = (a + b) / 2
            if fraction_sturm_count(p.coeffs, c, b, chain):
                a = c
            else:
                b = c
    return SalemCertificate(
        polynomial=p,
        degree=p.degree,
        trace_polynomial=r,
        lambda_interval=(a, b),
        quadratic_degenerate=p.degree == 2,
    )


def expand_trace_polynomial(r):
    """Coefficients (constant first) of x^m r(x + 1/x) for the coefficient
    list r of degree m, with (x^2 + 1)^i built by repeated convolution."""
    m = len(r) - 1
    out = [0] * (2 * m + 1)
    power = [1]  # (x^2 + 1)^i
    for i, c in enumerate(r):
        for j, a in enumerate(power):
            out[m - i + j] += c * a
        power = [a + b for a, b in zip(power + [0, 0], [0, 0] + power)]
    return out


def power_min_poly_by_companion(s_coeffs, n):
    """Minimal polynomial of lambda^n (ascending ints) from the n-th power of
    the companion matrix of s.

    The characteristic polynomial of C^n is a power of the wanted minimal
    polynomial m; m is its squarefree part (``_fp_squarefree``).
    """
    from salemk3.linalg import charpoly
    from salemk3.polynomials import IntPolynomial, companion_matrix

    ch = [Fraction(c) for c in charpoly(mat_pow_by_squaring(companion_matrix(IntPolynomial(list(s_coeffs))), n))]
    m = _fp_squarefree(ch)
    assert all(c.denominator == 1 for c in m)
    return tuple(int(c) for c in m)


def _fraction_ldl(G):
    """G = L^T D L over the rationals: (d, mu) with mu[i][j] for j > i."""
    n = len(G)
    g = [[Fraction(x) for x in row] for row in G]
    d = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = g[i][i]
        if d[i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            mu[i][j] = g[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                g[k][l] -= d[i] * mu[i][k] * mu[i][l]
                g[l][k] = g[k][l]
    return d, mu


def _floor_plus_sqrt(S, F):
    """Largest integer h with h <= S + sqrt(F); S Fraction, F >= 0 Fraction."""
    S = Fraction(S)
    h = S.numerator // S.denominator + isqrt(F.numerator * F.denominator) // F.denominator + 2
    while True:
        diff = h - S
        if diff <= 0 or diff * diff <= F:
            return h
        h -= 1


def fraction_qf_enumerate(G, bound):
    """All integer v != 0 with v^T G v <= bound, sorted, for G positive
    definite: Fincke-Pohst with a Fraction LDL and Fraction square-root
    bounds at every node. Raises ValueError when G is not positive definite
    and bound >= 0."""
    n = len(G)
    bound = Fraction(bound)
    if bound < 0:
        return []
    d, mu = _fraction_ldl(G)
    results = []
    x = [0] * n

    def recurse(i, remaining):
        if i < 0:
            if any(x):
                results.append(tuple(x))
            return
        S = Fraction(sum(mu[i][j] * x[j] for j in range(i + 1, n)))
        F = remaining / d[i]
        for xi in range(-_floor_plus_sqrt(S, F), _floor_plus_sqrt(-S, F) + 1):
            x[i] = xi
            term = d[i] * (xi + S) ** 2
            if term <= remaining:
                recurse(i - 1, remaining - term)
        x[i] = 0

    recurse(n - 1, bound)
    return sorted(results)


class FractionField:
    """Q[x]/(m) at the real root isolated by ``interval``, with elements as
    tuples of Fraction coefficients (constant first) and enclosures by
    Fraction interval Horner evaluation."""

    def __init__(self, min_poly, interval):
        self.min_poly = min_poly
        self.degree = min_poly.degree
        self.interval = (Fraction(interval[0]), Fraction(interval[1]))
        self._modulus = [Fraction(c) for c in min_poly.coeffs]

    def _reduce(self, vec):
        vec = list(vec)
        d = self.degree
        for k in range(len(vec) - 1, d - 1, -1):
            c = vec[k]
            if c:
                for i in range(d + 1):
                    vec[k - d + i] -= c * self._modulus[i]
        del vec[d:]
        return vec + [Fraction(0)] * (d - len(vec))

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return tuple(self._reduce(out))

    def x_inverse(self):
        """1/x: x (c_1 + c_2 x + ... + c_d x^(d-1)) = m(x) - c_0, so
        x^-1 = -(c_1 + ... + c_d x^(d-1)) / c_0."""
        c = self._modulus
        return tuple(-x / c[0] for x in c[1:])

    def _eval_interval(self, a):
        lo, hi = self.interval
        acc = (Fraction(0), Fraction(0))
        for c in reversed(a):
            products = (acc[0] * lo, acc[0] * hi, acc[1] * lo, acc[1] * hi)
            acc = (min(products) + c, max(products) + c)
        return acc

    def _halve(self, width):
        """Bisect the interval by Fraction midpoints to at most half of
        width, keeping the half where m changes sign from - to +."""
        a, b = self.interval
        while b - a > width / 2:
            c = (a + b) / 2
            if _fp_eval(self.min_poly.coeffs, c) > 0:
                b = c
            else:
                a = c
        self.interval = a, b
        return width / 2

    def enclosure(self, a, max_width=None):
        iv = self._eval_interval(a)
        if max_width is None:
            return iv
        width = self.interval[1] - self.interval[0]
        while iv[1] - iv[0] > max_width:
            width = self._halve(width)
            iv = self._eval_interval(a)
        return iv

    def sign(self, a):
        if not any(a):
            return 0
        iv = self._eval_interval(a)
        width = self.interval[1] - self.interval[0]
        while iv[0] <= 0 <= iv[1]:
            width = self._halve(width)
            iv = self._eval_interval(a)
        return 1 if iv[0] > 0 else -1
