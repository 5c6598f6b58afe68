"""Exact linear algebra over the integers and rationals.

Matrices are tuples of row tuples; entries are ints or Fractions. Vectors
are tuples treated as columns, so ``mat_vec(A, v)`` computes ``A @ v``.
Basis matrices for sublattices keep the basis vectors as rows.
"""

from fractions import Fraction
from math import isqrt, lcm


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
    Bt = transpose(B)
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A)


def rat_mat_mul(*factors):
    """Product of rational matrices, computed over one common denominator.

    Each factor's denominators are cleared, the integer matrices are
    multiplied, and the product is divided once at the end. Equal to chaining
    ``mat_mul``; much faster when the factors are large Fraction matrices.
    """
    den, P = clear_denominators(factors[0])
    for A in factors[1:]:
        d, IA = clear_denominators(A)
        den *= d
        P = mat_mul(P, IA)
    return tuple(tuple(Fraction(x, den) for x in row) for row in P)


def mat_vec(A, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def vec_mat(v, A):
    return tuple(sum(x * A[i][j] for i, x in enumerate(v)) for j in range(len(A[0])))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def mat_pow(A, n):
    """A ** n by binary powering, n >= 0."""
    result = identity(len(A))
    base = A
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def mat_mod(A, m):
    return tuple(tuple(a % m for a in row) for row in A)


def mat_pow_mod(A, n, m):
    result = identity(len(A))
    base = mat_mod(A, m)
    while n:
        if n & 1:
            result = mat_mod(mat_mul(result, base), m)
        base = mat_mod(mat_mul(base, base), m)
        n >>= 1
    return result


def is_symmetric(A):
    n = len(A)
    return all(A[i][j] == A[j][i] for i in range(n) for j in range(i))


def is_integral(A):
    return all(Fraction(a).denominator == 1 for row in A for a in row)


def mat_to_int(A):
    return tuple(tuple(int(a) for a in row) for row in A)


def bareiss_det(A):
    """Exact determinant of an integer matrix by fraction-free Gaussian elimination.

    Integer input only: every caller passes an integer matrix (Gram matrices,
    Sylvester matrices, integer transforms), and each Bareiss division is
    exact on integers.
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
                q, r = divmod(Mi[j] * pivot - mik * Mk[j], prev)
                if r:
                    raise ArithmeticError("non-exact division in Bareiss elimination")
                Mi[j] = q
            Mi[k] = 0
        prev = pivot
    return sign * M[n - 1][n - 1]


def rat_inverse(A):
    """Inverse of a square matrix, exact over the rationals."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                factor = M[r][col]
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    return tuple(tuple(row[n:]) for row in M)


def rat_row_reduce(A):
    """Reduced row echelon form over the rationals; returns (R, pivot_columns)."""
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
    """Basis (rows) of the right kernel {x : A x = 0} over the rationals."""
    R, pivots = rat_row_reduce(A)
    n = len(A[0]) if A else 0
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][j]
        basis.append(tuple(v))
    return tuple(basis)


def rank(A):
    return len(rat_row_reduce(A)[1])


# --- integer normal forms ---------------------------------------------------


def _hnf_in_place(M, n):
    """Row-reduce the list of rows M to Hermite form on its first n columns.

    Pivots end up positive with the entries above them reduced into
    [0, pivot); columns past n ride along. Returns the number of nonzero rows.
    """
    m = len(M)
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if M[i][col] != 0 and (piv is None or abs(M[i][col]) < abs(M[piv][col])):
                piv = i
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        while True:
            done = True
            for i in range(row + 1, m):
                if M[i][col]:
                    q = M[i][col] // M[row][col]
                    M[i] = [a - q * b for a, b in zip(M[i], M[row])]
                    if M[i][col]:
                        M[row], M[i] = M[i], M[row]
                        done = False
            if done:
                break
        if M[row][col] < 0:
            M[row] = [-a for a in M[row]]
        for i in range(row):
            q = M[i][col] // M[row][col]
            if q:
                M[i] = [a - q * b for a, b in zip(M[i], M[row])]
        row += 1
        if row == m:
            break
    return row


def hnf(A):
    """Row Hermite normal form of an integer matrix (rows span preserved).

    Returns the nonzero rows: pivots positive, entries above a pivot reduced
    into [0, pivot). Row-span over Z is unchanged.
    """
    M = [list(row) for row in A]
    r = _hnf_in_place(M, len(M[0]) if M else 0)
    return tuple(tuple(row) for row in M[:r])


def hnf_with_transform(A):
    """(H, U) with U unimodular, U A = [H; 0] and H the nonzero HNF rows."""
    m = len(A)
    n = len(A[0]) if m else 0
    M = [list(A[i]) + [int(i == j) for j in range(m)] for i in range(m)]
    r = _hnf_in_place(M, n)
    return tuple(tuple(row[:n]) for row in M[:r]), tuple(tuple(row[n:]) for row in M)


def int_row_kernel(A):
    """Integer basis (rows) of {x in Z^m : x A = 0} for integer A (m x n)."""
    H, U = hnf_with_transform(A)
    r = len(H)
    return tuple(U[r:])


def snf_with_transform(A):
    """Smith normal form with transforms: returns (U, S, V), U A V = S.

    S is diagonal (rectangular allowed) with d_1 | d_2 | ... >= 0;
    U and V are unimodular.
    """
    M = [list(row) for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    U = [list(row) for row in identity(m)]
    V = [list(row) for row in identity(n)]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        M[dst] = [a + c * b for a, b in zip(M[dst], M[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in M:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        M[i] = [-a for a in M[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        piv = min(
            ((i, j) for i in range(t, m) for j in range(t, n) if M[i][j] != 0),
            key=lambda ij: abs(M[ij[0]][ij[1]]),
            default=None,
        )
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, m):
                if M[i][t]:
                    add_row(t, i, -(M[i][t] // M[t][t]))
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
                swap_rows(t, i)
            else:
                swap_cols(t, j)
        # divisibility: pivot must divide the remaining block
        bad = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
             if M[i][j] % M[t][t] != 0),
            None,
        )
        if bad is not None:
            add_row(bad[0], t, 1)
            continue
        if M[t][t] < 0:
            negate_row(t)
        t += 1
    S = tuple(tuple(M[i][j] if i == j else 0 for j in range(n)) for i in range(m))
    return tuple(tuple(r) for r in U), S, tuple(tuple(r) for r in V)


def snf_diagonal(A):
    """Invariant factors of A (nonzero diagonal of the Smith form)."""
    _, S, _ = snf_with_transform(A)
    return tuple(S[i][i] for i in range(min(len(S), len(S[0]) if S else 0)) if S[i][i] != 0)


def clear_denominators(rows):
    """(den, int_rows): the least common denominator of rational rows and den times them."""
    den = lcm(1, *(x.denominator for row in rows for x in row))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)


def saturation(B):
    """Saturation of the row span of integer matrix B inside Z^n.

    Returns an integer row basis of {x in Z^n : k x in rowspan_Q(B) for some k > 0}.
    """
    ker = rat_kernel(B)  # rows t with B t^T ... kernel of v -> B v
    if not ker:
        return hnf(identity(len(B[0])))
    _, K = clear_denominators(ker)
    # saturated lattice = integer vectors orthogonal (as coordinates) to ker
    return int_row_kernel(transpose(K))


def charpoly(A):
    """Coefficients (ascending) of det(x I - A) by Faddeev-LeVerrier."""
    return charpoly_and_adjugate(A)[0]


def charpoly_and_adjugate(A):
    """Char poly of A and the matrix coefficients of adj(x I - A).

    Returns (coeffs, mats) with adj(x I - A) = sum_k mats[k] * x^k,
    k = 0 .. n-1, and coeffs ascending. Integer input gives int coefficients.
    """
    n = len(A)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mats = [None] * n
    M = identity(n)
    exact_int = all(isinstance(x, int) for row in A for x in row)
    for k in range(1, n + 1):
        mats[n - k] = M
        AM = mat_mul(A, M)
        tr = sum(AM[i][i] for i in range(n))
        if exact_int:
            c, r = divmod(tr, k)
            assert r == 0
            c = -c
        else:
            c = -Fraction(tr, k)
        coeffs[n - k] = c
        M = mat_add(AM, mat_scale(c, identity(n)))
    return tuple(coeffs), tuple(mats)


# --- positive definite forms and short vector enumeration -------------------


def ldl(G):
    """G = L^T D L with unit upper-triangular mu (mu[i][j], j > i) and positive D.

    Raises ValueError if G is not positive definite.
    """
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
    return tuple(d), tuple(tuple(row) for row in mu)


def is_positive_definite(G):
    try:
        ldl(G)
        return True
    except ValueError:
        return False


def _floor_sqrt_frac(F):
    """floor(sqrt(F)) for a nonnegative Fraction F."""
    if F < 0:
        raise ValueError("negative radicand")
    p, q = F.numerator, F.denominator
    return isqrt(p * q) // q


def _floor_plus_sqrt(S, F):
    """Largest integer h with h <= S + sqrt(F); S Fraction, F >= 0 Fraction."""
    S = Fraction(S)
    h = S.numerator // S.denominator + _floor_sqrt_frac(F) + 2
    while True:
        diff = h - S
        if diff <= 0 or diff * diff <= F:
            return h
        h -= 1


def _ceil_minus_sqrt(S, F):
    """Smallest integer h with h >= S - sqrt(F)."""
    return -_floor_plus_sqrt(-S, F)


def qf_enumerate(G, bound):
    """All integer vectors v != 0 with v^T G v <= bound, G positive definite.

    Exact arithmetic throughout; completeness does not depend on any floating
    point estimate. Output is sorted, and closed under negation.
    """
    n = len(G)
    bound = Fraction(bound)
    if bound < 0:
        return []
    d, mu = ldl(G)
    results = []
    x = [0] * n

    def recurse(i, remaining):
        if i < 0:
            if any(x):
                results.append(tuple(x))
            return
        S = Fraction(sum(mu[i][j] * x[j] for j in range(i + 1, n)))
        F = remaining / d[i]
        lo = _ceil_minus_sqrt(-S, F)
        hi = _floor_plus_sqrt(-S, F)
        for xi in range(lo, hi + 1):
            x[i] = xi
            term = d[i] * (xi + S) ** 2
            if term <= remaining:
                recurse(i - 1, remaining - term)
        x[i] = 0

    recurse(n - 1, bound)
    return sorted(results)
