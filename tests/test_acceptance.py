"""Acceptance suite: one test per criterion, each printing a PASS line, a
work count of the order search behind criterion 3, and a check that every
matrix product and matrix polynomial has integer factors.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Time budgets exclude interpreter and first-call warm-up (a module
fixture pays that cost up front); every numerical assertion is exact.
"""

import json
import random
import time
from fractions import Fraction
from itertools import chain

import pytest

from salemk3 import isometries, linalg
from salemk3.isometries import (
    Isometry,
    TwistElement,
    invariant_symmetric_forms,
    power_to_integral,
    twist,
    twist_split_certificate,
)
from salemk3.lattices import (
    GlueMap,
    Lattice,
    discriminant_form,
    find_anti_isometry,
    forms_isomorphic,
    glue,
    named_lattice,
)
from salemk3.numbertheory import factorize, hilbert, legendre, relevant_places
from salemk3.polynomials import (
    IntPolynomial,
    NotSalemError,
    companion_matrix,
    discriminant,
    is_salem,
    square_class_test,
)
from salemk3.positivity import determinant_bound_test, is_positive, obstructing_root_search
from salemk3.realize import (
    build_k3_certificate,
    certificate_from_json,
    certificate_to_json,
    find_norm_element,
    find_split_prime,
    seed_for,
    stable_realizable,
    verify_certificate,
)

from oracles import euler_legendre, mat_pow_by_squaring, smith_diagonal
from salem_corpus import LEHMER, all_entries

P = IntPolynomial
S4 = P([1, -1, -1, -1, 1])
QUAD = P([1, -3, 1])
LEHMER_P = P(LEHMER)


@pytest.fixture(scope="module", autouse=True)
def warmup():
    # pay the first-call costs (imports, caches) once, outside any timed region
    is_salem(QUAD)
    yield


def _report(number, elapsed, budget, detail):
    status = "PASS" if elapsed < budget else "SLOW"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s / budget {budget}s) {detail}")
    assert elapsed < budget, f"criterion {number} exceeded its time budget"


def test_criterion_1_salem_certification():
    t0 = time.perf_counter()
    assert is_salem(LEHMER_P).degree == 10
    assert is_salem(S4).degree == 4
    reasons = {}
    for name, poly in {
        "phi5": P([1, 1, 1, 1, 1]),
        "phi12": P([1, 0, -1, 0, 1]),
        "x^2-2": P([-2, 0, 1]),
    }.items():
        with pytest.raises(NotSalemError) as exc:
            is_salem(poly)
        reasons[name] = exc.value.reason
    assert reasons["phi5"] == "wrong_root_pattern"
    assert reasons["phi12"] == "wrong_root_pattern"
    assert reasons["x^2-2"] == "not_reciprocal"
    _report(1, time.perf_counter() - t0, 1.0, "Lehmer + quartic accepted; cyclotomic and non-reciprocal rejected")


def test_criterion_2_twist_split_reproduction():
    t0 = time.perf_counter()
    L2 = Lattice([[2, 3], [3, 2]])
    f2 = Isometry(L2, companion_matrix(QUAD))
    S4_lat = Lattice(((-2, 1, 0, -2), (1, -2, 1, 0), (0, 1, -2, 1), (-2, 0, 1, -2)))
    f4 = Isometry(S4_lat, companion_matrix(S4))

    instances = []
    ev41 = find_split_prime(QUAD, 1, lower_bound=5)
    t41, _ = find_norm_element(QUAD, ev41)
    instances.append((L2, f2, t41, 1, ev41.p))
    instances.append((L2, f2, t41, 2, ev41.p))
    ev89 = find_split_prime(QUAD, 1, lower_bound=ev41.p)
    t89, _ = find_norm_element(QUAD, ev89)
    instances.append((L2, f2, t89, 1, ev89.p))
    ev17 = find_split_prime(S4, 1, lower_bound=2)
    t17, _ = find_norm_element(S4, ev17)
    instances.append((S4_lat, f4, t17, 1, ev17.p))
    instances.append((S4_lat, f4, t17, 2, ev17.p))
    assert len(instances) >= 5

    for L, f, t, n, p in instances:
        rep = twist_split_certificate(L, f, t, n, p)
        assert rep.passed, rep.problems
        # p-part of the determinant is exactly p^(2n), and |det| = |det L| p^(2n)
        det = rep.twisted.determinant()
        assert det % p ** (2 * n) == 0 and det % p ** (2 * n + 1) != 0
        assert abs(det) == abs(L.determinant()) * p ** (2 * n) and rep.p_valuation == 2 * n
        # independent SNF oracle agrees on the discriminant group
        diag = [d for d in smith_diagonal(rep.twisted.gram) if d > 1]
        assert tuple(diag) == discriminant_form(rep.twisted).orders
        p_orders = tuple(d for d in diag for _ in (1,) if d % p == 0)
        assert rep.p_part_orders == (p**n, p**n)
    _report(2, time.perf_counter() - t0, 10.0, f"{len(instances)} split-prime twists, SNF cross-checked")


def criterion_3_instances():
    """The 20 (L, F) of criterion 3: a conjugate F of the companion matrix of a
    Salem polynomial of degree 2, 4 or 6 and a lattice L that F preserves."""
    rng = random.Random(20260808)
    polys = {
        2: QUAD,
        4: S4,
        6: P([1, -2, 0, 1, 0, -2, 1]),
    }
    companions = {
        rank: (companion_matrix(poly), invariant_symmetric_forms(companion_matrix(poly))[0])
        for rank, poly in polys.items()
    }

    def instance(rank):
        C, G = companions[rank]
        while True:
            A = tuple(tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rank))
            d = linalg.bareiss_det(A)
            if not 1 < abs(d) < 40:
                continue
            Ainv = linalg.rat_inverse(A)
            F = linalg.mat_mul(linalg.mat_mul(A, C), Ainv)
            adj = linalg.mat_to_int(linalg.mat_scale(d, Ainv))
            G2 = linalg.mat_mul(linalg.mat_mul(linalg.transpose(adj), G), adj)
            if linalg.bareiss_det(G2) == 0:
                continue
            return Lattice(G2), F

    return [instance(rng.choice([2, 2, 4, 4, 6])) for _ in range(20)]


def test_criterion_3_integral_powering():
    t0 = time.perf_counter()
    checked = 0
    for L, F in criterion_3_instances():
        f = Isometry(L, F)
        n, fn = power_to_integral(L, f)
        # independent exact powering: plain repeated multiplication
        power = linalg.identity(L.rank)
        for _ in range(n):
            power = linalg.mat_mul(F, power)
        assert linalg.is_integral(power)
        assert power == fn.matrix
        assert linalg.is_integral(mat_pow_by_squaring(f.matrix, 2 * n))
        assert linalg.is_integral(mat_pow_by_squaring(f.matrix, 3 * n))
        for q in factorize(n):  # minimal: no proper divisor n/q works
            assert not linalg.is_integral(mat_pow_by_squaring(f.matrix, n // q))
        # f^k is integral exactly when f^-k is
        assert power_to_integral(L, Isometry(L, f.inverse_matrix()))[0] == n
        checked += 1
    _report(3, time.perf_counter() - t0, 30.0, f"{checked} rational isometries, powers verified independently")


def test_criterion_3_order_search_work(monkeypatch):
    # a work count, not a timing: the matrix products over the criterion-3
    # instances. The climb tests linear combinations of precomputed images
    # and makes none; power_to_integral as a whole makes at most 200 (634
    # when each climb step multiplied matrices and the result came from a
    # Hermite form and a matrix power)
    calls, inside = [0, 0], [0]
    mat_mul, least_power = linalg.mat_mul, isometries._least_power

    def counting_mat_mul(A, B):
        calls[inside[0]] += 1
        return mat_mul(A, B)

    def counting_least_power(*args):
        inside[0] = 1
        try:
            return least_power(*args)
        finally:
            inside[0] = 0

    pairs = [(L, Isometry(L, F)) for L, F in criterion_3_instances()]
    monkeypatch.setattr(linalg, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(isometries, "_least_power", counting_least_power)
    for L, f in pairs:
        power_to_integral(L, f)
    assert calls[1] == 0, calls
    assert 0 < calls[0] <= 200, calls


def test_products_and_matrix_polynomials_have_integer_factors(monkeypatch):
    # mat_mul picks its loop from the zero count alone, which keeps int 0
    # where a rational product would give Fraction 0; that is exact only
    # because salemk3 multiplies integer matrices: every factor of an S4
    # build, its JSON round trip and verify, of power_to_integral on the
    # criterion-3 instances and of the search on an S4 twist is int
    counts = {"mat_mul": 0, "poly_at_matrix": 0}
    mat_mul, poly_at_matrix = linalg.mat_mul, linalg.poly_at_matrix

    def integer_entries(*matrices):
        return all(type(x) is int for M in matrices for x in chain(*M))

    def checked_mat_mul(A, B):
        assert integer_entries(A, B), (A, B)
        counts["mat_mul"] += 1
        return mat_mul(A, B)

    def checked_poly_at_matrix(coeffs, A, den):
        assert integer_entries((coeffs,), A) and type(den) is int, (coeffs, A, den)
        counts["poly_at_matrix"] += 1
        return poly_at_matrix(coeffs, A, den)

    pairs = [(L, Isometry(L, F)) for L, F in criterion_3_instances()]  # Fraction products
    monkeypatch.setattr(linalg, "mat_mul", checked_mat_mul)
    monkeypatch.setattr(linalg, "poly_at_matrix", checked_poly_at_matrix)

    cert = build_k3_certificate(S4)
    back = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    ok, items = verify_certificate(back)
    assert ok, items
    assert counts["mat_mul"] and counts["poly_at_matrix"], counts

    counts.update(mat_mul=0)
    for L, f in pairs:
        power_to_integral(L, f)
    assert counts["mat_mul"], counts

    counts.update(mat_mul=0, poly_at_matrix=0)
    seed = seed_for(S4)
    t = P([1, 1])
    S2, f2 = twist(seed.S, Isometry(seed.S, seed.f_S), TwistElement(t * t))
    assert is_positive(S2, f2).status == "not_positive"
    assert counts["mat_mul"] and counts["poly_at_matrix"], counts


def test_criterion_4_chamber_preservation_consistency():
    t0 = time.perf_counter()
    L2 = Lattice([[2, 3], [3, 2]])
    f2 = Isometry(L2, companion_matrix(QUAD))
    S4_lat = Lattice(((-2, 1, 0, -2), (1, -2, 1, 0), (0, 1, -2, 1), (-2, 0, 1, -2)))
    f4 = Isometry(S4_lat, companion_matrix(S4))
    corpus = [
        (L2, f2),
        twist(L2, f2, TwistElement(9)),
        twist(L2, f2, TwistElement(11)),
        twist(L2, f2, TwistElement(41)),
        (S4_lat, f4),
        twist(S4_lat, f4, TwistElement(P([-2, -3]) * P([-2, -3]))),
    ]
    agreements = 0
    for L, f in corpus:
        s = f.char_poly()
        report = obstructing_root_search(L, f)
        if abs(L.determinant()) > 4 * abs(discriminant(s)):
            assert determinant_bound_test(L, f) == "positive"
            assert report.status == "positive", (L.gram, report.witnesses)
            agreements += 1
        for vec, _ in report.witnesses:
            assert L.norm(vec) == -2
    base_report = obstructing_root_search(L2, f2)
    assert base_report.status == "not_positive"
    assert any(L2.norm(vec) == -2 for vec, _ in base_report.witnesses)
    _report(4, time.perf_counter() - t0, 120.0,
            f"{len(corpus)} Salem lattices, {agreements} determinant-bound agreements, witness on [[2,3],[3,2]]")


def test_criterion_5_gluing_calculus():
    t0 = time.perf_counter()
    M, N = Lattice([[-2]]), Lattice([[2]])
    qM, qN = discriminant_form(M), discriminant_form(N)
    phi = GlueMap(qM, qN, find_anti_isometry(qM, qN))
    L, _ = glue(M, N, phi)
    assert L.rank == 2 and L.is_even() and L.determinant() == -1  # that is U

    cases = [
        (named_lattice("3U"), [(1, 1, 0, 0, 0, 0)]),
        (named_lattice("3U"), [(1, -1, 0, 0, 0, 0)]),
        (named_lattice("3U"), [(1, 2, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)]),
        (named_lattice("U+E8"), [(1, 1) + (0,) * 8]),
        (named_lattice("U+E8"), [(2, 1) + (0,) * 8]),
        (named_lattice("U+E8"), [(1, -3) + (0,) * 8, (0, 0, 1) + (0,) * 7]),
    ]
    from salemk3.lattices import orthogonal_complement

    for amb, rows in cases:
        sub = amb.sublattice(rows)
        comp, _ = orthogonal_complement(amb, rows)
        assert forms_isomorphic(discriminant_form(sub), discriminant_form(comp), anti=True)
    _report(5, time.perf_counter() - t0, 10.0, f"U from rank-1 glue; q anti-isometry on {len(cases)} complements")


def test_criterion_6_truth_table():
    t0 = time.perf_counter()
    count = 0
    degrees = set()
    for degree, coeffs, square in all_entries():
        s = P(list(coeffs))
        assert square_class_test(s) == square
        for kind, b2 in (("torus", 6), ("enriques", 10), ("k3", 22)):
            decision = stable_realizable(s, kind)
            if degree < b2:
                assert decision.answer is True and decision.clause == 1
            elif degree == b2:
                assert decision.answer is square
            else:
                assert decision.answer is False
        count += 1
        degrees.add(degree)
    assert count >= 10 and min(degrees) == 4 and max(degrees) == 22
    # headline cases
    assert stable_realizable(LEHMER_P, "enriques").answer is True
    assert stable_realizable(LEHMER_P, "k3", projective=True).answer is True
    d22 = P([1, -2] + [0] * 19 + [-2, 1])
    assert stable_realizable(d22, "k3").answer is False
    _report(6, time.perf_counter() - t0, 1.0, f"{count} Salem polynomials, degrees 4..22")


def test_criterion_7_end_to_end_witness():
    t0 = time.perf_counter()
    cert = build_k3_certificate(S4)
    # full characteristic polynomial of the 22 x 22 witness, computed directly
    char = P(list(linalg.charpoly(cert.isometry)))
    expected = cert.salem_power_poly * (P([-1, 1]) ** 18)
    assert char.coeffs == expected.coeffs
    kernel = Lattice(
        linalg.mat_mul(
            linalg.mat_mul(cert.kernel_basis, cert.lattice.gram),
            linalg.transpose(cert.kernel_basis),
        )
    )
    assert kernel.signature() == (1, 3)
    assert cert.positivity is not None and cert.positivity.status == "positive"
    ok, items = verify_certificate(cert)
    assert ok, items
    _report(7, time.perf_counter() - t0, 600.0,
            f"certificate for lambda^{cert.power}: char poly s_n(x)(x-1)^18, kernel (1,3), verified")


def test_criterion_8_local_invariants():
    t0 = time.perf_counter()
    rng = random.Random(19)
    for _ in range(100):
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 300), rng.randint(1, 40))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 300), rng.randint(1, 40))
        prod = 1
        for place in relevant_places(a, b):
            prod *= hilbert(a, b, place)
        assert prod == 1
    from salemk3.numbertheory import is_prime

    primes = [p for p in range(3, 3000) if is_prime(p)]
    for _ in range(1000):
        p = rng.choice(primes)
        a = rng.randint(-10**9, 10**9)
        assert legendre(a, p) == euler_legendre(a, p)
    _report(8, time.perf_counter() - t0, 5.0, "Hilbert product formula x100, Legendre vs Euler x1000")
