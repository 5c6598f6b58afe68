import random
from fractions import Fraction
from math import gcd

import pytest

from salemk3 import linalg
from salemk3.isometries import (
    Isometry,
    IsometryError,
    TwistElement,
    _matrix_order_mod,
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
from salemk3.polynomials import IntPolynomial, companion_matrix
from salemk3.realize import seed_for

from oracles import discriminant_order_by_iteration, matrix_order_mod

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


def test_inverse_matrix():
    f = Isometry(L2, C2)
    inv = f.inverse_matrix()
    assert linalg.mat_mul(f.matrix, inv) == linalg.identity(2)


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
    diag = linalg.snf_diagonal(ks.basis)
    assert all(d == 1 for d in diag)


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
    assert fn.matrix == linalg.mat_to_int(f.power_matrix(n))
    finv = Isometry(L, f.inverse_matrix())
    n_inv, _ = power_to_integral(L, finv)
    assert n == n_inv


def test_power_to_integral_rejects_non_integral_char_poly():
    # rotation by an angle of infinite order: x^2 - 6/5 x + 1
    L = Lattice([[1, 0], [0, 1]])
    f = Isometry(L, ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5))))
    with pytest.raises(IsometryError, match="characteristic polynomial is not integral"):
        power_to_integral(L, f)


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
        assert fn.matrix == linalg.mat_to_int(f.power_matrix(n))
        assert linalg.is_integral(f.power_matrix(2 * n))
        assert linalg.is_integral(f.power_matrix(3 * n))
        for q in factorize(n):  # minimal: no proper divisor n/q works
            assert not linalg.is_integral(f.power_matrix(n // q))
        done += 1


def test_matrix_order_mod_matches_brute_force():
    rng = random.Random(20)
    for m in (2, 3, 4, 8, 9, 12, 25):
        for rank in (2, 3, 4):
            checked = 0
            while checked < 4:
                A = tuple(tuple(rng.randint(-6, 6) for _ in range(rank)) for _ in range(rank))
                if gcd(linalg.bareiss_det(A), m) != 1:
                    continue
                assert _matrix_order_mod(A, m) == matrix_order_mod(A, m)
                checked += 1
    jordan = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))  # unipotent
    for m in (2, 3, 4, 8, 9):
        assert _matrix_order_mod(jordan, m) == matrix_order_mod(jordan, m)


def test_matrix_order_mod_rejects_singular_and_cap():
    with pytest.raises(ArithmeticError):
        _matrix_order_mod(((1, 2), (3, 6)), 5)  # singular over Q
    with pytest.raises(ArithmeticError):
        _matrix_order_mod(((2, 1), (0, 3)), 12)  # det 6: singular mod 2 and mod 3
    with pytest.raises(ArithmeticError):
        _matrix_order_mod(((2,),), 2)  # rank 1 mod 2, where |GL_1(F_2)| = 1
    assert _matrix_order_mod(((3,),), 2) == 1
    A = ((0, -1), (1, 3))  # companion matrix of x^2 - 3x + 1
    assert _matrix_order_mod(A, 25) == matrix_order_mod(A, 25)
    with pytest.raises(ArithmeticError):
        _matrix_order_mod(A, 25, cap=matrix_order_mod(A, 25) - 1)


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
    W = linalg.mat_to_int(f.w_matrix())
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
    with pytest.raises(IsometryError):
        search_even_invariant_lattice(companion_matrix(S4), signature=(4, 0), box=2)


