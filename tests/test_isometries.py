import random
from fractions import Fraction
from math import gcd

import pytest

from salemk3 import isometries, linalg, positivity
from salemk3.isometries import (
    Isometry,
    IsometryError,
    TwistElement,
    _least_power,
    discriminant_order,
    invariant_symmetric_forms,
    is_isometry,
    kernel_sublattice,
    power_to_integral,
    search_even_invariant_lattice,
    twist,
    twist_split_certificate,
)
from salemk3.lattices import Lattice
from salemk3.numbertheory import factorize
from salemk3.polynomials import IntPolynomial, companion_matrix, powmod
from salemk3.realize import _order_mod_square, seed_for

from oracles import (
    discriminant_order_by_iteration,
    fraction_inverse,
    fraction_poly_at_matrix,
    least_power_by_iteration,
    mat_pow_by_squaring,
    matrix_order_mod,
    rat_kernel,
    saturation_by_search,
    smith_diagonal,
)
from salem_corpus import LEHMER

P = IntPolynomial
QUAD = P([1, -3, 1])
S4 = P([1, -1, -1, -1, 1])
L2 = Lattice([[2, 3], [3, 2]])
C2 = companion_matrix(QUAD)


def test_is_isometry_examples():
    assert is_isometry(L2, linalg.identity(2))
    assert is_isometry(L2, C2)
    assert not is_isometry(Lattice([[-2, 0], [0, 2]]), ((0, 1), (1, 0)))


def test_isometry_validation():
    with pytest.raises(IsometryError):
        Isometry(L2, ((1, 1), (0, 1)))
    f = Isometry(L2, C2)
    assert f.char_poly().coeffs == QUAD.coeffs
    assert f.is_integral()


# a rational isometry of <-4> + <5> whose square is not integral
RATIONAL_F = ((Fraction(3, 2), Fraction(5, 4)), (Fraction(1), Fraction(3, 2)))
RATIONAL_L = Lattice([[-4, 0], [0, 5]])


def test_inverse_matrix():
    f = Isometry(L2, C2)
    inv = f.inverse_matrix()
    assert linalg.mat_mul(f.matrix, inv) == linalg.identity(2)
    # ints for an integral isometry, with no Fraction round trip for callers
    assert inv == fraction_inverse(C2)
    assert all(type(x) is int for row in inv for x in row)
    g = Isometry(RATIONAL_L, RATIONAL_F)
    inv = g.inverse_matrix()
    assert inv == fraction_inverse(RATIONAL_F)
    assert all(type(x) is int or x.denominator > 1 for row in inv for x in row)
    assert is_isometry(RATIONAL_L, inv)


def test_twist_matrices_match_the_fraction_evaluation():
    """a(f + f^-1) in integers over one denominator equals Fraction Horner on
    the Fraction f + f^-1: for the 40 square twists t^2, t = a + b w, that the
    positivity benchmark builds on the S4 block, and on a rational isometry."""
    seed = seed_for(S4)
    f = Isometry(seed.S, seed.f_S)
    W = linalg.mat_add(f.matrix, fraction_inverse(f.matrix))
    elements = [P([a, b]) * P([a, b]) for a in range(-4, 5) for b in range(5) if b or a > 0]
    assert len(elements) == 40
    for t2 in elements:
        A, D = TwistElement(t2).matrix_for(f)
        assert D == 1
        assert A == fraction_poly_at_matrix(t2.coeffs, W)
    # the S4 block in the basis 2 e_1, e_2, e_3, e_4: f + f^-1 has denominator 2 there
    B = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    Binv = fraction_inverse(B)
    g = Isometry(
        Lattice(linalg.mat_mul(linalg.mat_mul(B, seed.S.gram), B)),
        linalg.mat_mul(linalg.mat_mul(Binv, f.matrix), B),
    )
    assert g.w_matrix()[1] == 2
    Wg = linalg.mat_add(g.matrix, fraction_inverse(g.matrix))
    for coeffs in ([], [3], [0, 1], [1, -2, 5], [-1, 0, 0, 4]):
        A, D = TwistElement(coeffs).matrix_for(g)
        assert linalg.divided(A, D) == fraction_poly_at_matrix(coeffs, Wg)


def test_kernel_sublattice_identity():
    L = Lattice([[2, 0], [0, -2]])
    f = Isometry(L, linalg.identity(2))
    ks = kernel_sublattice(f, P([-1, 1]))
    assert ks.lattice.rank == 2


def test_kernel_sublattice_irreducible_whole():
    f = Isometry(L2, C2)
    ks = kernel_sublattice(f, QUAD)
    assert ks.lattice.rank == 2
    assert abs(ks.lattice.determinant()) == 5


def test_kernel_sublattice_block():
    block = tuple(
        tuple(C2[i][j] if i < 2 and j < 2 else (1 if i == j else 0) for j in range(3))
        for i in range(3)
    )
    L = Lattice([[2, 3, 0], [3, 2, 0], [0, 0, -2]])
    f = Isometry(L, block)
    ks = kernel_sublattice(f, QUAD)
    assert sorted(sorted(row) for row in ks.lattice.gram) == [[2, 3], [2, 3]]
    ks1 = kernel_sublattice(f, P([-1, 1]))
    assert ks1.lattice.gram == ((-2,),)


def test_kernel_sublattice_saturated():
    block = tuple(
        tuple(C2[i][j] if i < 2 and j < 2 else (1 if i == j else 0) for j in range(3))
        for i in range(3)
    )
    L = Lattice([[2, 3, 0], [3, 2, 0], [0, 0, -2]])
    f = Isometry(L, block)
    ks = kernel_sublattice(f, QUAD)
    diag = smith_diagonal(ks.basis)
    assert all(d == 1 for d in diag)


def test_kernel_sublattice_is_the_saturated_kernel():
    # p(f) on a conjugated block of C2 and the identity: the primitive kernel
    # rows need not span ker p(f) over Z, and the basis must be their
    # saturation, here against the search oracle
    G0 = linalg.block_diag(L2.gram, ((-2, 0), (0, 4)))
    F0 = linalg.block_diag(C2, linalg.identity(2))
    rng = random.Random(21)
    cases = non_primitive = 0
    while cases < 80:
        A = tuple(tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(4))
        d = linalg.bareiss_det(A)
        if not 1 < abs(d) < 30:
            continue
        Ainv = linalg.rat_inverse(A)
        F = linalg.mat_mul(linalg.mat_mul(A, F0), Ainv)
        adj = linalg.mat_to_int(linalg.mat_scale(d, Ainv))
        f = Isometry(Lattice(linalg.mat_mul(linalg.mat_mul(linalg.transpose(adj), G0), adj)), F)
        for p in (QUAD, P([-1, 1])):
            pF = fraction_poly_at_matrix(p.coeffs, F)
            expected = linalg.hnf(saturation_by_search(rat_kernel(pF)))
            assert linalg.hnf(kernel_sublattice(f, p).basis) == expected
            rows = linalg.primitive_kernel(linalg.clear_denominators(pF)[1], len(F))
            non_primitive += linalg.hnf(rows) != expected
            cases += 1
    assert non_primitive >= 10


def test_kernel_rejects_non_divisor():
    f = Isometry(L2, C2)
    with pytest.raises(IsometryError):
        kernel_sublattice(f, P([1, 1]))


def test_power_to_integral_integral_input():
    f = Isometry(L2, C2)
    n, fn = power_to_integral(L2, f)
    assert n == 1 and fn.matrix == C2


def test_power_to_integral_known_case():
    F = ((Fraction(3, 2), Fraction(5, 4)), (Fraction(1), Fraction(3, 2)))
    L = Lattice([[-4, 0], [0, 5]])
    f = Isometry(L, F)
    n, fn = power_to_integral(L, f)
    assert linalg.is_integral(fn.matrix)
    assert fn.matrix == linalg.mat_to_int(mat_pow_by_squaring(f.matrix, n))
    finv = Isometry(L, f.inverse_matrix())
    n_inv, _ = power_to_integral(L, finv)
    assert n == n_inv


def test_power_to_integral_rejects_non_integral_char_poly():
    # rotations of Z^2 by an angle of infinite order (x^2 - 6/5 x + 1 for the
    # first), alone, beside the S4 companion matrix on its invariant form and
    # conjugated by an integral matrix of determinant 2: chi is x^2 - 2a/c x + 1
    # times an integral factor, refused as Isometry.char_poly refuses it
    C = companion_matrix(P([1, -1, -1, -1, 1]))
    G = invariant_symmetric_forms(C)[0]
    A = ((1, 1), (-1, 1))
    for a, b, c in [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]:
        R = ((Fraction(a, c), Fraction(-b, c)), (Fraction(b, c), Fraction(a, c)))
        moved = linalg.mat_mul(linalg.mat_mul(A, R), linalg.rat_inverse(A))
        cases = [
            (Lattice([[1, 0], [0, 1]]), R),
            (Lattice(linalg.block_diag(((1, 0), (0, 1)), G)), linalg.block_diag(R, C)),
            (Lattice([[2, 0], [0, 2]]), moved),  # A^-T I A^-1 = I / 2, scaled by 4
        ]
        for L, F in cases:
            f = Isometry(L, F)
            with pytest.raises(IsometryError) as by_char_poly:
                f.char_poly()
            with pytest.raises(IsometryError) as by_powers:
                power_to_integral(L, f)
            assert str(by_powers.value) == str(by_char_poly.value) == "characteristic polynomial is not integral"


def _random_conjugated_companion(rng, char_poly):
    rank = char_poly.degree
    C = companion_matrix(char_poly)
    G = invariant_symmetric_forms(C)[0]
    if linalg.bareiss_det(G) == 0:
        return None
    while True:
        A = tuple(tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rank))
        d = linalg.bareiss_det(A)
        if 1 < abs(d) < 60:
            break
    Ainv = linalg.rat_inverse(A)
    F = linalg.mat_mul(linalg.mat_mul(A, C), Ainv)
    adj = linalg.mat_to_int(linalg.mat_scale(d, Ainv))
    G2 = linalg.mat_mul(linalg.mat_mul(linalg.transpose(adj), G), adj)
    if linalg.bareiss_det(G2) == 0:
        return None
    return Lattice(G2), F


def test_power_to_integral_randomized():
    rng = random.Random(99)
    polys = {
        2: P([1, -3, 1]),
        4: P([1, -1, -1, -1, 1]),
        6: P([1, -2, 0, 1, 0, -2, 1]),
    }
    done = 0
    while done < 8:
        rank = rng.choice([2, 4, 6])
        built = _random_conjugated_companion(rng, polys[rank])
        if built is None:
            continue
        L, F = built
        f = Isometry(L, F)
        n, fn = power_to_integral(L, f)
        assert fn.matrix == linalg.mat_to_int(mat_pow_by_squaring(f.matrix, n))
        assert linalg.is_integral(mat_pow_by_squaring(f.matrix, 2 * n))
        assert linalg.is_integral(mat_pow_by_squaring(f.matrix, 3 * n))
        for q in factorize(n):  # minimal: no proper divisor n/q works
            assert not linalg.is_integral(mat_pow_by_squaring(f.matrix, n // q))
        done += 1


def test_powers_by_cayley_hamilton_match_binary_powering():
    # F^k as r(F) for r = x^k mod chi, the route of the certificate build and
    # verify, against binary powering: Salem companions of degree 2 to 10,
    # alone or beside a rotation of order 3 or the identity, conjugated by
    # seeded unimodular matrices into integral isometries of the moved form
    rng = random.Random(36)
    blocks = [QUAD, S4, P([1, -2, 0, 1, 0, -2, 1]), P(list(LEHMER))]
    extras = [None, P([1, 1, 1]), P([-1, 1])]
    checked = 0
    for _ in range(12):
        C = companion_matrix(rng.choice(blocks))
        G = invariant_symmetric_forms(C)[0]
        extra = rng.choice(extras)
        if extra is not None:
            E = companion_matrix(extra)
            C, G = linalg.block_diag(C, E), linalg.block_diag(G, invariant_symmetric_forms(E)[0])
        n = len(C)
        U = [list(row) for row in linalg.identity(n)]
        for _ in range(3 * n):  # row operations keep det U = 1
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        U = tuple(map(tuple, U))
        Uinv = linalg.mat_to_int(linalg.rat_inverse(U))
        F = linalg.mat_mul(linalg.mat_mul(U, C), Uinv)
        f = Isometry(Lattice(linalg.mat_mul(linalg.mat_mul(linalg.transpose(Uinv), G), Uinv)), F)
        chi = f.char_poly()
        assert f.is_integral() and chi.is_monic()
        for k in (0, 1, n, 272, 5000):
            assert linalg.poly_at_matrix(powmod([0, 1], k, chi.coeffs), F, 1) == (mat_pow_by_squaring(F, k), 1)
            checked += 1
    assert checked == 60


# (modulus, rank) pairs for the order search; every order stays under the
# oracles' iteration cap
ORDER_CASES = [(m, rank) for m in (2, 3, 4, 8, 9, 12, 25) for rank in (2, 3, 4)]
ORDER_CASES += [(72, 2), (72, 3), (867, 2)]
# moduli with a repeated prime besides those above
REPEATED_PRIME_CASES = [(49, 2), (49, 3), (50, 3), (200, 2), (675, 2), (1125, 3)]


def _climb(A, m, D=None):
    """``_least_power`` for the least d with A^d D = D mod m (A^d = I when
    D is None): the images A^i D mod m for i < rank, the target D."""
    images = [linalg.mat_mod(linalg.identity(len(A)) if D is None else D, m)]
    while len(images) < len(A):
        images.append(linalg.mat_mod(linalg.mat_mul(A, images[-1]), m))
    return _least_power(linalg.charpoly(A), m, images, images[0])


def test_matrix_order_mod_matches_brute_force():
    rng = random.Random(20)
    for m, rank in ORDER_CASES:
        checked = 0
        while checked < 4:
            A = tuple(tuple(rng.randint(-6, 6) for _ in range(rank)) for _ in range(rank))
            if gcd(linalg.bareiss_det(A), m) != 1:
                continue
            assert _climb(A, m) == matrix_order_mod(A, m)
            checked += 1
    jordan = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))  # unipotent
    for m in (2, 3, 4, 8, 9):
        assert _climb(jordan, m) == matrix_order_mod(jordan, m)


def test_matrix_order_mod_rejects_singular():
    with pytest.raises(ArithmeticError, match="matrix is not invertible modulo p"):
        _climb(((1, 2), (3, 6)), 5)  # singular over Q
    with pytest.raises(ArithmeticError, match="matrix is not invertible modulo p"):
        _climb(((2, 1), (0, 3)), 12)  # det 6: singular mod 2 and mod 3
    with pytest.raises(ArithmeticError, match="matrix is not invertible modulo p"):
        _climb(((2,),), 2)  # rank 1 mod 2, where |GL_1(F_2)| = 1
    assert _climb(((3,),), 2) == 1
    A = ((0, -1), (1, 3))  # companion matrix of x^2 - 3x + 1
    assert _climb(A, 25) == matrix_order_mod(A, 25)


def test_least_power_subgroup_test_matches_iteration(monkeypatch):
    # the least d with A^d D = D mod m: a subgroup test other than the identity,
    # also at moduli with a repeated prime, where the exponent E has three or
    # more primes and each climb starts from a product of the table of squares
    factored = []

    def recording(k):
        factored.append(k)  # m, then E
        return factorize(k)

    monkeypatch.setattr(isometries, "factorize", recording)
    rng = random.Random(15)
    widest = 0
    for m, rank in ORDER_CASES + REPEATED_PRIME_CASES:
        checked = 0
        while checked < 4:
            A = tuple(tuple(rng.randint(-6, 6) for _ in range(rank)) for _ in range(rank))
            if gcd(linalg.bareiss_det(A), m) != 1:
                continue
            cols = rng.randint(1, rank)
            D = tuple(tuple(rng.randrange(m) for _ in range(cols)) for _ in range(rank))

            factored.clear()
            assert _climb(A, m, D) == least_power_by_iteration(A, D, m)
            if (m, rank) in REPEATED_PRIME_CASES:
                widest = max(widest, len(factorize(factored[1])))
            checked += 1
    assert widest >= 3


# monic blocks by degree: the quadratics and cubics are irreducible over Q and
# factor in different ways mod small primes; x - 2 is singular mod 2, where
# its cases are skipped
ORDER_BLOCKS = {
    1: ((1, 1), (-1, 1), (-2, 1)),
    2: ((1, 0, 1), (1, 1, 1), (-1, -1, 1), (1, -3, 1), (-1, 1, 1)),
    3: ((-1, -1, 0, 1), (1, -1, 0, 1), (-1, 0, 1, 1), (1, 2, -1, 1)),
}
ORDER_MODULI = (2, 4, 8, 3, 9, 27, 5, 25, 7, 12, 49, 72)


def _prescribed_factorization_matrix(rng):
    """A random unimodular conjugate of a block-diagonal companion matrix of
    rank 2 to 6 with a quadratic or cubic block, often a repeated block, and
    one entry 1 coupling the first block to the second."""
    blocks = [rng.choice(ORDER_BLOCKS[rng.choice((2, 3))])]
    if rng.random() < 0.5:
        blocks.append(blocks[0])
    target = rng.randint(2, 6)
    while sum(len(b) - 1 for b in blocks) < target:
        blocks.append(rng.choice(ORDER_BLOCKS[rng.choice((1, 2, 3))]))
    rank = sum(len(b) - 1 for b in blocks)
    if rank > 6:
        return _prescribed_factorization_matrix(rng)
    M = [[0] * rank for _ in range(rank)]
    starts = []
    at = 0
    for b in blocks:
        C = companion_matrix(P(list(b)))
        for i, row in enumerate(C):
            M[at + i][at : at + len(row)] = row
        starts.append(at)
        at += len(C)
    if len(blocks) > 1:
        M[rng.randrange(starts[1])][rng.randrange(starts[1], rank)] = 1
    U = linalg.identity(rank)
    for _ in range(2 * rank):
        i, j = rng.sample(range(rank), 2)
        E = [list(row) for row in linalg.identity(rank)]
        E[i][j] = rng.choice((-2, -1, 1, 2))
        U = linalg.mat_mul(U, tuple(map(tuple, E)))
    return linalg.mat_mul(linalg.mat_mul(U, tuple(map(tuple, M))), linalg.mat_to_int(linalg.rat_inverse(U)))


def test_least_power_with_prescribed_factorizations():
    # repeated and coupled blocks give char polys with repeated factors mod p,
    # where the order carries a power of p; irreducible blocks give factors
    # of degree 2 and 3 mod p
    rng = random.Random(304)
    for _ in range(24):
        A = _prescribed_factorization_matrix(rng)
        rank = len(A)
        det = linalg.bareiss_det(A)
        for m in ORDER_MODULI:
            if gcd(det, m) != 1:
                continue
            assert _climb(A, m) == matrix_order_mod(A, m)
            cols = rng.randint(1, rank)
            D = tuple(tuple(rng.randrange(m) for _ in range(cols)) for _ in range(rank))

            assert _climb(A, m, D) == least_power_by_iteration(A, D, m)


def test_least_power_orders_mod_p_squared():
    # the 1 x 1 search and the scalar climb that pipeline_split_prime runs,
    # for every unit b mod p, against the order by iteration
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for b in range(1, p):
            order, x = 1, b
            while x != 1:
                x = x * b % (p * p)
                order += 1
            assert _least_power((-b, 1), p * p, [((1,),)], ((1,),)) == order
            assert _order_mod_square(b, p) == order


def test_discriminant_order_matches_iteration():
    seed = seed_for(S4)
    f = Isometry(seed.S, seed.f_S)
    # the S4 seed and its twists by t^2; (-2 - 3w)^2 is the certificate's twist,
    # 3 - w gives the group orders (3, 9, 9)
    cases = [(seed.S, f)] + [
        twist(seed.S, f, TwistElement(P(t) ** 2))
        for t in ((-2, -3), (1, 1), (2, 1), (3, -1), (5, 2), (-1, 4))
    ]
    # 2-primary groups, mixed generator orders included
    U4U2 = ((0, 4, 0, 0), (4, 0, 0, 0), (0, 0, 0, 2), (0, 0, 2, 0))
    for gram, matrix in (
        (((0, 2), (2, 0)), ((0, 1), (1, 0))),
        (((-2, 0), (0, -2)), ((0, -1), (1, 0))),
        (((-4, 0), (0, -2)), ((-1, 0), (0, 1))),
        (U4U2, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))),
        (U4U2, ((-2, -1, -1, 1), (-1, -2, -1, 1), (-2, -2, -2, 1), (2, 2, 1, -2))),
        (U4U2, ((-2, -1, -1, 1), (-1, 0, 0, 0), (-2, 0, -1, 0), (2, 0, 0, -1))),
        (U4U2, ((-2, 1, -1, -1), (-1, 0, 0, -1), (-2, 0, 0, -1), (2, -2, 1, 2))),
    ):
        L = Lattice(gram)
        cases.append((L, Isometry(L, matrix)))
    orders = [discriminant_order(L, g) for L, g in cases]
    assert orders == [discriminant_order_by_iteration(L, g) for L, g in cases]
    assert orders == [2, 272, 2, 18, 12, 506, 306, 2, 2, 2, 1, 2, 4, 8]
    L = Lattice([[-4, 0], [0, 5]])
    rational = Isometry(L, ((Fraction(3, 2), Fraction(5, 4)), (Fraction(1), Fraction(3, 2))))
    with pytest.raises(IsometryError, match="integral"):
        discriminant_order(L, rational)


def test_twist_examples():
    f = Isometry(L2, C2)
    unchanged, _ = twist(L2, f, TwistElement(1))
    assert unchanged.gram == L2.gram
    scaled, f11 = twist(L2, f, TwistElement(11))
    assert scaled.gram == ((22, 33), (33, 22))
    assert scaled.signature() == (1, 1)
    assert f11.matrix == C2
    by_w, _ = twist(L2, f, TwistElement(P([0, 1])))
    assert linalg.is_symmetric(by_w.gram)
    W, D = f.w_matrix()
    assert D == 1
    assert by_w.gram == linalg.mat_mul(linalg.transpose(W), L2.gram)


def test_twist_preserves_evenness_and_equivariance():
    f = Isometry(L2, C2)
    for a in (TwistElement(3), TwistElement(P([1, 1])), TwistElement(P([-2, 0, 1]))):
        twisted, f2 = twist(L2, f, a)
        assert twisted.is_even()
        assert is_isometry(twisted, f.matrix)
        assert f2.matrix == f.matrix


def test_square_twist_is_scaled_sublattice():
    f = Isometry(L2, C2)
    for t in (2, 3, 5):
        twisted, _ = twist(L2, f, TwistElement(t * t))
        # gram of tL is t^2 G
        assert twisted.gram == linalg.mat_scale(t * t, L2.gram)


def test_twist_split_certificate_examples():
    f = Isometry(L2, C2)
    rep = twist_split_certificate(L2, f, TwistElement(11), 1, 11)
    assert rep.passed
    assert rep.determinant == -605
    assert rep.p_part_orders == (11, 11)
    rep2 = twist_split_certificate(L2, f, TwistElement(11), 2, 11)
    assert rep2.passed
    assert rep2.determinant == -5 * 11**4
    assert rep2.p_part_orders == (121, 121)
    rep5 = twist_split_certificate(L2, f, TwistElement(5), 1, 5)
    assert not rep5.passed
    assert any("divides" in prob for prob in rep5.problems)


@pytest.mark.parametrize("n, p", [(1, 0), (1, 1), (1, -11), (1, 9), (1, 121), (0, 11), (-1, 11)], ids=str)
def test_twist_split_certificate_refuses_a_non_prime_or_a_non_positive_exponent(n, p):
    with pytest.raises(IsometryError, match="is not a prime$" if n == 1 else "exponent must be >= 1$"):
        twist_split_certificate(L2, Isometry(L2, C2), TwistElement(11), n, p)


def test_twist_split_at_two_is_a_reported_hypothesis_failure():
    rep = twist_split_certificate(L2, Isometry(L2, C2), TwistElement(2), 1, 2)
    assert not rep.passed
    assert any("p = 2 divides" in prob for prob in rep.problems)


def test_twist_split_wrong_norm_reported():
    f = Isometry(L2, C2)
    rep = twist_split_certificate(L2, f, TwistElement(7), 1, 11)
    assert not rep.passed
    assert any("norm" in prob for prob in rep.problems)


def test_invariant_symmetric_forms():
    assert len(invariant_symmetric_forms(linalg.identity(2))) == 3
    basis = invariant_symmetric_forms(C2)
    assert len(basis) == 1
    g = basis[0]
    scale = Fraction(g[0][0], 2)
    assert tuple(tuple(Fraction(x) / scale for x in row) for row in g) == (
        (2, 3),
        (3, 2),
    )
    basis4 = invariant_symmetric_forms(companion_matrix(S4))
    assert len(basis4) == 2


def test_search_even_invariant_lattice():
    found = search_even_invariant_lattice(companion_matrix(S4), signature=(1, 3), determinant=-3)
    assert found.is_even() and found.signature() == (1, 3) and found.determinant() == -3
    assert is_isometry(found, companion_matrix(S4))
    with pytest.raises(IsometryError, match="up to radius 2$"):
        search_even_invariant_lattice(companion_matrix(S4), signature=(4, 0), box=2)


# --- refusals -------------------------------------------------------------------

# f is the S4 seed isometry; DIAG is a form it does not preserve
DIAG = Lattice([[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]])


def _seed_isometry():
    seed = seed_for(S4)
    return seed.S, Isometry(seed.S, seed.f_S)


@pytest.mark.parametrize(
    "entry, error",
    [
        (lambda L, f: twist(L, f, TwistElement([0, 1])), IsometryError),
        (lambda L, f: twist_split_certificate(L, f, TwistElement([-5, 1]), 1, 17), IsometryError),
        (discriminant_order, IsometryError),
        (power_to_integral, IsometryError),
        (positivity.is_positive, positivity.PositivityError),
        (positivity.obstructing_root_search, positivity.PositivityError),
        (positivity.determinant_bound_test, positivity.PositivityError),
        (positivity.cyclic_roots, positivity.PositivityError),
    ],
    ids=[
        "twist", "twist_split_certificate", "discriminant_order", "power_to_integral",
        "is_positive", "obstructing_root_search", "determinant_bound_test", "cyclic_roots",
    ],
)
def test_an_isometry_of_another_lattice_is_refused(entry, error):
    _, f = _seed_isometry()
    with pytest.raises(error, match="^the isometry is of another lattice than the one given$"):
        entry(DIAG, f)


# U + <-2> with the Eichler transvection x -> x + <x, e> v - <x, v> e + <x, e> e
# (e the first basis vector, v the third); it fixes only the isotropic line of e
U_PLUS_A1 = Lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]])
EICHLER = ((1, 1, 2), (0, 1, 0), (0, 1, 1))
ROTATION = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
# the reflection of U in v = (1, 2), <v, v> = 4: rational, with 2f integral
U = Lattice([[0, 1], [1, 0]])
REFLECTION = ((0, Fraction(-1, 2)), (-2, 0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Isometry(Lattice([[1, 0], [0, 1]]), ROTATION).char_poly(), "characteristic polynomial is not integral"),
        (lambda: twist(Lattice([[2, 0], [0, 2]]), Isometry(Lattice([[2, 0], [0, 2]]), ROTATION), TwistElement([0, 1])),
         "twist element does not act integrally on the lattice"),
        (lambda: twist(L2, Isometry(L2, C2), TwistElement([0])), "twist is degenerate"),
        (lambda: twist(U, Isometry(U, REFLECTION), TwistElement([0, 1])), "the twist of an even lattice is odd"),
        (lambda: kernel_sublattice(Isometry(L2, C2), P([1])), "kernel is trivial"),
        (lambda: kernel_sublattice(Isometry(U_PLUS_A1, EICHLER), P([-1, 1])), "kernel sublattice is degenerate"),
        (lambda: search_even_invariant_lattice(((2,),)), "no invariant symmetric forms"),
    ],
    ids=["char-poly", "twist-integral", "twist-degenerate", "twist-odd", "kernel-trivial",
         "kernel-degenerate", "no-invariant-form"],
)
def test_isometry_refusals_name_the_failed_condition(call, message):
    with pytest.raises(IsometryError, match=f"^{message}$"):
        call()


def test_twist_split_reports_a_char_poly_without_trace_polynomial():
    # the identity of a rank 3 lattice: char poly (x - 1)^3, of odd degree
    L = Lattice([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    rep = twist_split_certificate(L, Isometry(L, linalg.identity(3)), TwistElement([0, 1]), 1, 17)
    assert not rep.passed
    assert {"characteristic polynomial is not Salem: odd_degree", "no trace polynomial available"} <= set(rep.problems)


def test_twist_split_reports_a_prime_that_does_not_split():
    # (t) = (w + 4) is a prime above 17 that stays prime in Q(lambda), so the
    # twisted 17-part is anisotropic
    S, f = _seed_isometry()
    rep = twist_split_certificate(S, f, TwistElement([4, 1]), 1, 17)
    assert rep.problems == ("p-primary discriminant form is not hyperbolic of scale 1/p^n",)
    assert rep.p_part_orders == (17, 17) and abs(rep.determinant) == 3 * 17**2
