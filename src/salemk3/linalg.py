"""Exact linear algebra over the integers and rationals.

Matrices are tuples of row tuples. A rational matrix is an integer matrix over
one positive denominator, the pair (den, int_rows), and every elimination runs
on integers: Gauss-Jordan through the fraction-free ``gauss_jordan``, except
that ``inverse_pair`` back-substitutes on an upper triangular matrix, such as
a Hermite form. The short-vector walk ``qf_half_walk`` takes its form as such
a pair and lists one vector of each +- pair, and the discriminant-form lifts
and glued bases of ``salemk3.lattices`` are such pairs. Fractions enter
through ``clear_denominators`` at the public boundary and leave through
``divided`` (``Isometry.matrix``, ``rat_inverse``), so each product has
integer factors, and the k-th power of F is r(F) for r = x^k mod the
characteristic polynomial of F (``polynomials.powmod``, then
``poly_at_matrix``). Vectors are tuples treated as columns, so
``mat_vec(A, v)`` computes ``A @ v``. Basis matrices for sublattices keep the
basis vectors as rows.
"""

from fractions import Fraction
from itertools import chain, product, repeat
from math import gcd, isqrt, lcm
from operator import add, mul, sub


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(m, n):
    return tuple((0,) * n for _ in range(m))


def transpose(A):
    return tuple(zip(*A)) if A else ()


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(c, A):
    return tuple(tuple(c * a for a in row) for row in A)


def mat_mul(A, B):
    """A @ B. Entry (i, j) is the sum of row i of A times column j of B,
    except where at least half of A is zero: there row i of A @ B sums the
    multiples of B's rows at the nonzero entries of A's row i. ``salemk3``
    multiplies integer matrices only. Rational factors still give exact
    values, but a zero entry may come back as the int 0.
    On integer factors of size 4 to 22 the row sums break even with the dense
    loop when half of A is zero, and take 1.6-1.8 times as long when none is.
    B = (), the transpose of an empty basis, stands for B with no columns."""
    if 2 * sum(row.count(0) for row in A) < len(A) * len(B):
        Bt = transpose(B)
        return tuple(tuple(sum(map(mul, row, col)) for col in Bt) for row in A)
    rows = []
    for row in A:
        acc = (0,) * len(B[0]) if B else ()
        for a, b in zip(row, B):
            if a:
                acc = tuple(map(add, acc, map(mul, repeat(a), b)))
        rows.append(acc)
    return tuple(rows)


def mat_vec(A, v):
    return tuple(sum(map(mul, row, v)) for row in A)


def vec_mat(v, A):
    return tuple(sum(map(mul, v, col)) for col in zip(*A))


def dot(u, v):
    return sum(map(mul, u, v))


def block_diag(A, B):
    """The square block-diagonal matrix with A above B."""
    n, m = len(A), len(B)
    return tuple(tuple(row) + (0,) * m for row in A) + tuple((0,) * n + tuple(row) for row in B)


def poly_at_matrix(coeffs, A, den):
    """p(A / den) as (P, den^m) for the ascending coefficients of p, of
    degree m, and an integer matrix A: P = den^m p(A / den) by Horner's rule
    on integers, the accumulator after j steps being den^(j-1) times the
    partial sum, so the one division is left to the caller. The first step
    is the leading coefficient times I, with no product."""
    if not coeffs:
        return zeros(len(A), len(A)), 1
    acc = mat_scale(coeffs[-1], identity(len(A)))
    scale = den
    for c in reversed(coeffs[:-1]):
        acc = tuple(
            tuple(x + c * scale if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(mat_mul(acc, A))
        )
        scale *= den
    return acc, den ** (len(coeffs) - 1)


def mat_mod(A, m):
    return tuple(tuple(a % m for a in row) for row in A)


def is_symmetric(A):
    n = len(A)
    return all(A[i][j] == A[j][i] for i in range(n) for j in range(i))


def is_integral(A):
    return all(a.denominator == 1 for row in A for a in row)


def divided(N, d):
    """The rational matrix N / d for an integer N, with ints where an entry is integral."""
    return tuple(tuple(Fraction(x, d) if x % d else x // d for x in row) for row in N)


def mat_to_int(A):
    """A with int entries, for entries that are ints or Fractions with
    denominator 1. Any other entry, such as 5/2 or 2.9, raises ValueError."""
    if bad := [a for row in A for a in row if getattr(a, "denominator", None) != 1]:
        raise ValueError(f"matrix entries must be integers, got {bad[0]}")
    return tuple(tuple(a.numerator for a in row) for row in A)


def bareiss_det(A):
    """Exact determinant of an integer matrix by fraction-free Gaussian elimination.

    Integer input only, and for matrices that need not be symmetric
    (Sylvester matrices, integer transforms); each Bareiss division is exact
    on integers (Sylvester's identity). A symmetric Gram matrix goes through
    ``symmetric_bareiss``, which gives its signature in the same pass.
    """
    n = len(A)
    if n == 0:
        return 1
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        Mk = M[k]
        pivot = Mk[k]
        for i in range(k + 1, n):
            Mi = M[i]
            mik = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (Mi[j] * pivot - mik * Mk[j]) // prev
            Mi[k] = 0
        prev = pivot
    return sign * M[n - 1][n - 1]


def symmetric_bareiss(G):
    """Symmetric fraction-free (Bareiss) elimination of an integer symmetric G.

    Returns (det, s_plus, rows). Only congruences act on the form, and the
    leading minors d_1, ..., d_n of the transformed matrix land on the
    diagonal; by Jacobi each d_k / d_{k-1} > 0 is one positive eigenvalue
    (Sylvester's law of inertia), and d_n = det G. A zero pivot is swapped,
    rows and columns together, with a later nonzero diagonal entry; when the
    trailing diagonal is zero, the congruence e_i <- e_i + e_j on a nonzero
    entry (i, j) puts 2 a_ij on the diagonal. Both moves are unimodular. An
    all-zero trailing block means det G = 0, and then s_plus is partial.
    Each division is exact, by Sylvester's identity on the moved input.

    A positive definite G never pivots, and row i (from 0) of ``rows`` holds
    from the diagonal on d_i times row i of the Schur complement of the
    leading i x i block, with d_{i+1} on the diagonal (d_0 = 1).
    """
    n = len(G)
    M = [list(row) for row in G]
    prev, pos = 1, 0
    for k in range(n):
        p = next((i for i in range(k, n) if M[i][i]), None)
        if p is None:
            ij = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if M[i][j]), None)
            if ij is None:
                return 0, pos, M
            i, j = ij
            for c in range(k, n):
                M[i][c] += M[j][c]
            for r in range(k, n):
                M[r][i] += M[r][j]
            p = i
        if p != k:
            M[k], M[p] = M[p], M[k]
            for row in M:
                row[k], row[p] = row[p], row[k]
        pivot = M[k][k]
        pos += (pivot > 0) == (prev > 0)
        for i in range(k + 1, n):
            Mi, mik = M[i], M[i][k]
            for j in range(i, n):
                Mi[j] = M[j][i] = (Mi[j] * pivot - mik * M[k][j]) // prev
        prev = pivot
    return prev, pos, M


def gauss_jordan(A):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (R, d, pivots), the integer R and d > 0 with R / d the reduced
    row echelon form of A over Q. Each pivot p, in row r and column c,
    replaces every other row x by (p x - x_c r) / p', with p' the previous
    pivot (1 at first): an exact division, as every entry stays a minor of
    A, and every pivot entry becomes p (Bareiss, Math. Comp. 22 (1968);
    Cohen, GTM 138, Section 2.2).
    """
    M = [list(row) for row in A]
    pivots, prev = [], 1
    for col in range(len(M[0]) if M else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(M)) if M[i][col]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        pivot = M[r][col]
        for i, row in enumerate(M):
            if i != r:
                M[i] = [(pivot * x - row[col] * y) // prev for x, y in zip(row, M[r])]
        prev = pivot
        pivots.append(col)
    sign = -1 if prev < 0 else 1
    return tuple(tuple(sign * x for x in row) for row in M), sign * prev, tuple(pivots)


def primitive_kernel(A, n):
    """Basis (rows) of the right kernel {x : A x = 0} of an integer matrix
    with n columns: for each free column j of ``gauss_jordan(A)`` in turn,
    the primitive integer row with d at j and -R[r][j] at the pivot column
    of row r. A matrix with no rows has the n x n identity."""
    R, d, pivots = gauss_jordan(A)
    basis = []
    for j in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[j] = d
        for row, pc in zip(R, pivots):
            v[pc] = -row[j]
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return tuple(basis)


def inverse_pair(A):
    """(N, d) with A^-1 = N / d for a square integer A, d > 0 and
    gcd(d, N) = 1, so that equal inverses are equal pairs. An upper
    triangular A with a nonzero diagonal, such as a Hermite form, is solved
    by back-substitution (``_triangular_inverse_pair``); any other A takes
    the right half of ``gauss_jordan([A | I])``. The pair is unique, so both
    routes give the same one. Raises ZeroDivisionError when A is singular."""
    n = len(A)
    if all(A[i][i] and not any(A[i][:i]) for i in range(n)):
        return _triangular_inverse_pair(A)
    R, d, pivots = gauss_jordan([tuple(row) + e for row, e in zip(A, identity(n))])
    if pivots != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    g = gcd(d, *(x for row in R for x in row[n:]))
    return tuple(tuple(x // g for x in row[n:]) for row in R), d // g


def _triangular_inverse_pair(H):
    """``inverse_pair`` of an upper triangular integer H with a nonzero
    diagonal: the integer X with H X = c I is solved from the bottom row up,
    row i of X being (c e_i - sum_{j>i} h_ij X_j) / h_ii over the nonzero
    h_ij only. When h_ii does not divide that row r, c and the rows already
    solved are scaled by |h_ii| / g, with g = gcd(h_ii, r), and row i is
    then the exact quotient. Dividing out gcd(c, X) at the end gives the
    unique pair."""
    n = len(H)
    c, X = 1, [None] * n
    for i in range(n - 1, -1, -1):
        row, p = H[i], H[i][i]
        r = (0,) * i + (c,) + (0,) * (n - 1 - i)
        for j in range(i + 1, n):
            if row[j]:
                r = tuple(map(sub, r, map(mul, repeat(row[j]), X[j])))
        g = gcd(p, *r)
        if g != abs(p):
            s = abs(p) // g
            c *= s
            X[i + 1:] = [tuple(s * x for x in Xj) for Xj in X[i + 1:]]
            r = tuple(s * x for x in r)
        X[i] = tuple(x // p for x in r)
    g = gcd(c, *chain(*X))
    return tuple(tuple(x // g for x in row) for row in X), c // g


def rat_inverse(A):
    """Inverse of a square rational matrix, with ints where an entry is
    integral: with A = N / c over one denominator, A^-1 = c N^-1 from
    ``inverse_pair(N)``. Raises ZeroDivisionError when A is singular."""
    c, N = clear_denominators(A)
    Ninv, d = inverse_pair(N)
    return divided(mat_scale(c, Ninv), d)


# --- integer normal forms ---------------------------------------------------


def hnf(A):
    """Row Hermite normal form of an integer matrix (rows span preserved).

    Returns the nonzero rows: pivots positive, entries above a pivot reduced
    into [0, pivot). Row-span over Z is unchanged.

    Each column is cleared below its pivot row in passes (Cohen, GTM 138,
    Section 2.4): a pass moves the row with the least nonzero entry of the
    column to the pivot row and reduces every row below it modulo that
    entry, and the next pass starts from the least remainder left. Every
    row is reduced against the least entry of the whole column, so the
    multipliers, and with them the entries of the other columns, stay small.
    """
    M = [list(row) for row in A]
    m = len(M)
    row = 0
    for col in range(len(M[0]) if M else 0):
        live = [i for i in range(row, m) if M[i][col]]
        if not live:
            continue
        while live:
            piv = min(live, key=lambda i: abs(M[i][col]))
            M[row], M[piv] = M[piv], M[row]
            p, c = M[row], M[row][col]
            live = []
            for i in range(row + 1, m):
                q = M[i][col] // c
                if q:
                    M[i] = list(map(sub, M[i], map(mul, repeat(q), p)))
                if M[i][col]:
                    live.append(i)
        if M[row][col] < 0:
            M[row] = [-a for a in M[row]]
        p, c = M[row], M[row][col]
        for i in range(row):
            q = M[i][col] // c
            if q:
                M[i] = list(map(sub, M[i], map(mul, repeat(q), p)))
        row += 1
        if row == m:
            break
    return tuple(tuple(r) for r in M[:row])


def snf_with_transform(A):
    """Smith normal form with its column transform: returns (S, V) with
    U A V = S for some unimodular U that is not tracked.

    S is diagonal (rectangular allowed) with d_1 | d_2 | ... >= 0;
    V is unimodular.
    """
    M = [list(row) for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    V = [list(row) for row in identity(n)]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_col(src, dst, c):
        for row in M:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        piv = min(
            ((i, j) for i in range(t, m) for j in range(t, n) if M[i][j] != 0),
            key=lambda ij: abs(M[ij[0]][ij[1]]),
            default=None,
        )
        if piv is None:
            break
        M[t], M[piv[0]] = M[piv[0]], M[t]
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, m):
                if M[i][t]:
                    c = M[i][t] // M[t][t]
                    M[i] = [a - c * b for a, b in zip(M[i], M[t])]
            for j in range(t + 1, n):
                if M[t][j]:
                    add_col(t, j, -(M[t][j] // M[t][t]))
            off = next(
                ((i, j) for i in range(t, m) for j in range(t, n)
                 if (i == t) != (j == t) and M[i][j] != 0),
                None,
            )
            if off is None:
                break
            i, j = off
            if i != t:
                M[t], M[i] = M[i], M[t]
            else:
                swap_cols(t, j)
        # divisibility: pivot must divide the remaining block
        bad = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
             if M[i][j] % M[t][t] != 0),
            None,
        )
        if bad is not None:
            M[t] = [a + b for a, b in zip(M[t], M[bad[0]])]
            continue
        if M[t][t] < 0:
            M[t] = [-a for a in M[t]]
        t += 1
    S = tuple(tuple(M[i][j] if i == j else 0 for j in range(n)) for i in range(m))
    return S, tuple(tuple(r) for r in V)


def clear_denominators(rows):
    """(den, int_rows): the least common denominator of rational rows and den times them.
    An entry that is neither an int nor a Fraction, such as 1.0 or "1", raises ValueError."""
    if bad := [x for row in rows for x in row if not hasattr(x, "denominator")]:
        raise ValueError(f"matrix entries must be integers or Fractions, got {bad[0]!r}")
    den = lcm(1, *(x.denominator for row in rows for x in row))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)


def saturation(B):
    """Saturation of the row span of integer matrix B inside Z^n.

    Returns an integer row basis of {x in Z^n : k x in rowspan_Q(B) for some k > 0}.
    With H the nonzero rows of the Hermite form of B^T, B = H^T W for rows W
    that extend to a unimodular basis, so W is primitive, spans B over Q and
    is W = (H H^T)^-1 H B: one Hermite form and one exact inverse, with no
    row transform carried along.
    """
    H = hnf(transpose(B))
    N, d = inverse_pair(mat_mul(H, transpose(H)))
    return tuple(tuple(x // d for x in row) for row in mat_mul(mat_mul(N, H), B))


def charpoly(A):
    """Coefficients (ascending) of det(x I - A) by Faddeev-LeVerrier."""
    return charpoly_and_adjugate(A)[0]


def charpoly_and_adjugate(A):
    """Char poly of A and the matrix coefficients of adj(x I - A).

    Returns (coeffs, mats) with adj(x I - A) = sum_k mats[k] * x^k,
    k = 0 .. n-1, and coeffs ascending. Integer input only.
    """
    n = len(A)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mats = [None] * n
    M = identity(n)
    for k in range(1, n + 1):
        mats[n - k] = M
        AM = mat_mul(A, M)
        tr = sum(AM[i][i] for i in range(n))
        c, r = divmod(tr, k)
        assert r == 0
        c = -c
        coeffs[n - k] = c
        M = mat_add(AM, mat_scale(c, identity(n)))
    return tuple(coeffs), tuple(mats)


# --- positive definite forms and short vector enumeration -------------------


def box_shell(dim, radius):
    """The integer vectors of length ``dim`` and sup-norm exactly ``radius``,
    as tuples in lexicographic order, generated lazily."""
    if dim == 0:
        if radius == 0:
            yield ()
        return
    full = range(-radius, radius + 1)
    for c in full:
        # a coordinate at +-radius frees the rest; otherwise the rest carries it
        rest = product(full, repeat=dim - 1) if abs(c) == radius else box_shell(dim - 1, radius)
        for tail in rest:
            yield (c,) + tail


def qf_half_walk(den, G, bound):
    """One vector of each +- pair of the integer v != 0 with
    v^T (G / den) v <= bound, for an integer symmetric G and den > 0 with
    G / den positive definite: the one whose last nonzero coordinate is
    positive, in walk order. The negations complete the set. Raises
    ValueError when G is not positive definite and bound >= 0.

    Fincke-Pohst on integer budgets. ``symmetric_bareiss(G)`` leaves in
    row i the leading minor d_{i+1} on the diagonal and, right of it,
    B_ij = d_i times the Schur complement S_i of the leading i x i block
    (d_0 = 1). With c_i = d_{i+1} x_i + sum_{j>i} B_ij x_j, v^T G v is
    sum_i c_i^2 / (d_i d_{i+1}), and the walk, from x_{n-1} down, carries the
    integer P_i = d_i S_i(x_i, ...) = (c_i^2 + d_i P_{i+1}) / d_{i+1}: the
    division is exact because d_i S_i is an integer matrix (Sylvester's
    identity behind Bareiss). At a leaf P_0 is the integer v^T G v, so the
    bound floors to R = floor(den bound), and as no tail exceeds P_0 a node
    keeps exactly the x_i with c_i^2 <= d_i (d_{i+1} R - P_{i+1}): budgets
    of about (2i + 2) bits(den).

    The output depends only on the rational form G / den: for k > 0,
    (k den, k G) keeps the same leaves, as k P_0 <= floor(k den bound)
    exactly when P_0 <= den bound, and the walk order is fixed, so den need
    not be the least denominator.

    Only the v whose last nonzero coordinate is positive are walked: S_{i+1}
    is positive definite, so P_{i+1} = 0 exactly when x_{i+1}, ... are all 0,
    and then x_i >= 0.
    """
    n = len(G)
    if bound < 0:
        return []
    det, s_plus, B = symmetric_bareiss(G)
    if det == 0 or s_plus < n:
        raise ValueError("form is not positive definite")
    d = [1] + [B[i][i] for i in range(n)]  # the leading minors d_0, ..., d_n
    R = den * bound.numerator // bound.denominator
    half, x = [], [0] * n

    def recurse(i, P):
        if i < 0:
            if P:
                half.append(tuple(x))
            return
        di, dn, Bi = d[i], d[i + 1], B[i]
        t = sum(Bi[j] * x[j] for j in range(i + 1, n))
        h = isqrt(di * (dn * R - P))
        for xi in range(-((h + t) // dn) if P else 0, (h - t) // dn + 1):
            x[i] = xi
            c = dn * xi + t
            recurse(i - 1, (c * c + di * P) // dn)
        x[i] = 0

    recurse(n - 1, 0)
    return half
