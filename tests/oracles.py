"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately written against different primitives than
the code under test: Fraction Gaussian elimination instead of Bareiss,
Descartes' rule on an interpolated characteristic polynomial instead of
the law of inertia, numpy box scans instead of Fincke-Pohst, gcd-chasing
Smith reduction instead of the transform-tracking one, Euler powering
instead of reciprocity, repeated multiplication instead of prime stripping
(for matrix orders and discriminant actions), full orbit sums instead of
cyclotomic kernels.
"""

from fractions import Fraction

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


def smith_diagonal(M):
    """Invariant factors by gcd-chasing reduction (no transforms)."""
    A = [list(map(int, row)) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    t = 0
    diag = []
    while t < min(m, n):
        nz = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not nz:
            break
        _, pi, pj = min(nz)
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        changed = True
        while changed:
            changed = False
            for i in range(t + 1, m):
                if A[i][t]:
                    qd = A[i][t] // A[t][t]
                    A[i] = [a - qd * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        changed = True
            for j in range(t + 1, n):
                if A[t][j]:
                    qd = A[t][j] // A[t][t]
                    for row in A:
                        row[j] -= qd * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        changed = True
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


def discriminant_order_by_iteration(L, f, cap=100000):
    """Order of the action of the integral isometry f on L^dual / L.

    Takes the action matrix of lattices.discriminant_action (columns are the
    images of the Smith generators) and multiplies it by itself, reducing row
    i modulo the order of generator i, until it is the identity.
    """
    from salemk3.lattices import discriminant_action, discriminant_form

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


def numpy_salem_profile(coeffs, tol=1e-8):
    """(roots off the unit circle, largest root) from numpy, loose tolerance."""
    roots = np.roots(list(reversed(coeffs)))
    off = [r for r in roots if abs(abs(r) - 1) > tol]
    return len(off), max(abs(r) for r in roots)
