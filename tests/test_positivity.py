import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import salemk3
from salemk3 import cli, codec, linalg, positivity
from salemk3.isometries import Isometry, TwistElement, search_even_invariant_lattice, twist
from salemk3.lattices import Lattice, lattice_A2, lattice_E8
from salemk3.numberfield import RealAlgebraicField
from salemk3.polynomials import IntPolynomial, companion_matrix
from salemk3.positivity import (
    ObstructionReport,
    PositivityError,
    cyclic_roots,
    determinant_bound_test,
    is_positive,
    obstructing_root_search,
)

from edits import leaf_field, one_field_edits, within
from oracles import (
    FractionField,
    brute_vectors_of_norm,
    count_e8_roots_standard_model,
    crosses_by_iteration,
    cyclic_roots_by_orbit_sum,
    orbit_min_by_window,
)
from salem_corpus import LEHMER, corpus_pair

P = IntPolynomial
QUAD = P([1, -3, 1])
S4 = P([1, -1, -1, -1, 1])
L2 = Lattice([[2, 3], [3, 2]])
F2 = Isometry(L2, companion_matrix(QUAD))
S4_GRAM = ((-2, 1, 0, -2), (1, -2, 1, 0), (0, 1, -2, 1), (-2, 0, 1, -2))
L4 = Lattice(S4_GRAM)
F4 = Isometry(L4, companion_matrix(S4))


def identity_isometry(L):
    return Isometry(L, linalg.identity(L.rank))


def test_cyclic_roots_a2_rotation():
    A2 = lattice_A2()
    rot = Isometry(A2, ((0, -1), (1, -1)))
    found = cyclic_roots(A2, rot)
    assert len(found) == 6
    assert all(A2.norm(r) == -2 for r in found)
    # orbit sums vanish: 1 + f + f^2 = 0
    for r in found:
        r1 = linalg.mat_vec(rot.matrix, r)
        assert all(a + b + c == 0 for a, b, c in zip(r, r1, linalg.mat_vec(rot.matrix, r1)))


def test_cyclic_roots_identity_empty():
    E8 = lattice_E8()
    assert cyclic_roots(E8, identity_isometry(E8)) == []


def test_cyclic_roots_salem_shape_empty_fast():
    # char poly s(x)(x-1)^k has no cyclotomic factor beyond x - 1
    block = tuple(
        tuple(
            companion_matrix(QUAD)[i][j] if i < 2 and j < 2 else (1 if i == j else 0)
            for j in range(3)
        )
        for i in range(3)
    )
    L = Lattice([[2, 3, 0], [3, 2, 0], [0, 0, -2]])
    f = Isometry(L, block)
    assert cyclic_roots(L, f) == []


# Definite lattices with a cyclotomic isometry, each with a complete list of
# its roots from an independent box scan.


def a2_rotation():
    A2 = lattice_A2()
    return A2, Isometry(A2, ((0, -1), (1, -1))), brute_vectors_of_norm(A2.gram, -2, 2)


def a2_rotation_plus_fixed_a1():
    # the A1 roots are fixed by f, so they are not cyclic
    L = lattice_A2().direct_sum(Lattice([[-2]]))
    f = Isometry(L, ((0, -1, 0), (1, -1, 0), (0, 0, 1)))
    return L, f, brute_vectors_of_norm(L.gram, -2, 2)


def a1_cubed_signed_cycle():
    # e1 -> e2 -> e3 -> -e1, char f = x^3 + 1 = Phi_2 Phi_6
    L = Lattice([[-2, 0, 0], [0, -2, 0], [0, 0, -2]])
    f = Isometry(L, ((0, 0, -1), (1, 0, 0), (0, 1, 0)))
    assert f.char_poly() == P([1, 0, 0, 1])
    return L, f, brute_vectors_of_norm(L.gram, -2, 2)


def d4_flip_rotation():
    # D4 on the simple roots e1-e2, e2-e3, e3-e4, e3+e4 with the form -x.y;
    # f = diag(-1, -1, rot90) on the coordinates, char f = Phi_2^2 Phi_4
    L = Lattice([[-2, 1, 0, 0], [1, -2, 1, 1], [0, 1, -2, 0], [0, 1, 0, -2]])
    f = Isometry(L, ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, -1), (0, -1, 1, 0)))
    assert f.char_poly() == P([1, 1]) * P([1, 1]) * P([1, 0, 1])
    return L, f, brute_vectors_of_norm(L.gram, -2, 3)


@cache
def e8_roots():
    """The 240 roots of lattice_E8 from a box scan in the dual basis.

    A root has coordinates <r, a_i> in [-2, 2] against the dual basis of the
    simple roots a_i, and E8 is unimodular, so the scan runs on G^-1.
    """
    G = lattice_E8().gram
    Ginv = linalg.mat_to_int(linalg.rat_inverse(G))
    assert linalg.mat_mul(G, Ginv) == linalg.identity(8)
    roots = [tuple(linalg.mat_vec(Ginv, w)) for w in brute_vectors_of_norm(Ginv, -2, 2)]
    assert len(roots) == count_e8_roots_standard_model()
    return roots


def e8_coxeter():
    """Product of the simple reflections x -> x + <x, a_i> a_i of lattice_E8."""
    G = lattice_E8().gram
    c = linalg.identity(8)
    for i in range(8):
        s = tuple(
            tuple(int(r == j) + (G[i][j] if r == i else 0) for j in range(8)) for r in range(8)
        )
        c = linalg.mat_mul(c, s)
    return c


def e8_e8_coxeter():
    # f(x, y) = (y, c x), so f^2 = c (+) c and char f = Phi_30(x^2) = Phi_60
    E8 = lattice_E8()
    L = E8.direct_sum(E8)
    c = e8_coxeter()
    F = tuple(
        tuple(int(j == i + 8) if i < 8 else (c[i - 8][j] if j < 8 else 0) for j in range(16))
        for i in range(16)
    )
    f = Isometry(L, F)
    assert f.char_poly() == P([1, 0, 1, 0, 0, 0, -1, 0, -1, 0, -1, 0, 0, 0, 1, 0, 1])
    zero = (0,) * 8
    # a root of an orthogonal sum of negative definite lattices lies in one summand
    roots = [r + zero for r in e8_roots()] + [zero + r for r in e8_roots()]
    return L, f, roots


@pytest.mark.parametrize(
    "case, count",
    [
        (a2_rotation, 6),
        (a2_rotation_plus_fixed_a1, 6),
        # each cyclotomic factor's kernel alone holds none of these roots
        (a1_cubed_signed_cycle, 6),
        # each cyclotomic factor's kernel alone holds 4 of these roots
        (d4_flip_rotation, 24),
        # Phi_60: the partial orbit sums of a root vanish only at multiples of 60 steps
        (e8_e8_coxeter, 480),
    ],
    ids=lambda case: getattr(case, "__name__", str(case)),
)
def test_cyclic_roots_match_the_orbit_sum_oracle(case, count):
    L, f, roots = case()
    expected = cyclic_roots_by_orbit_sum(f.matrix, roots)
    assert len(expected) == count
    assert cyclic_roots(L, f) == expected
    report = is_positive(L, f)
    assert report.status == "not_positive" and report.method == "cyclic_only"
    assert report.witnesses == tuple((r, "cyclic") for r in expected)


def test_determinant_bound_examples():
    assert determinant_bound_test(L2, F2) == "inconclusive"  # 5 < 20
    L22, f22 = twist(L2, F2, TwistElement(11))
    assert determinant_bound_test(L22, f22) == "positive"  # 605 > 20
    U_like = Lattice([[0, 1], [1, 0]])
    fU = identity_isometry(U_like)
    with pytest.raises(PositivityError):
        determinant_bound_test(U_like, fU)  # char poly not Salem


def test_obstructing_root_search_rank2():
    report = obstructing_root_search(L2, F2)
    assert report.status == "not_positive"
    assert ((1, -1), "geodesic") in report.witnesses
    assert all(L2.norm(vec) == -2 for vec, _ in report.witnesses)


def test_obstructing_root_search_twisted_positive():
    L22, f22 = twist(L2, F2, TwistElement(11))
    report = obstructing_root_search(L22, f22)
    assert report.status == "positive"
    assert report.witnesses == ()


def test_obstructing_root_search_rejects_negative_definite():
    A2 = lattice_A2()
    rot = Isometry(A2, ((0, -1), (1, -1)))
    with pytest.raises(PositivityError):
        obstructing_root_search(A2, rot)


def test_is_positive_dispatch():
    E8 = lattice_E8()
    rep = is_positive(E8, identity_isometry(E8))
    assert rep.status == "positive" and rep.method == "cyclic_only"
    A2 = lattice_A2()
    rot = Isometry(A2, ((0, -1), (1, -1)))
    rep = is_positive(A2, rot)
    assert rep.status == "not_positive" and rep.method == "cyclic_only"
    L22, f22 = twist(L2, F2, TwistElement(11))
    rep = is_positive(L22, f22)
    assert rep.status == "positive" and rep.method == "determinant_bound"
    rep = is_positive(L2, F2)
    assert rep.status == "not_positive" and rep.method == "exhaustive_search"


def test_is_positive_unsupported_signature():
    pos = Lattice([[2, 0], [0, 2]])
    with pytest.raises(PositivityError):
        is_positive(pos, identity_isometry(pos))


def test_agreement_bound_vs_search():
    # whenever the determinant bound says positive, the exhaustive search
    # must find no witnesses
    instances = [
        twist(L2, F2, TwistElement(11)),
        twist(L2, F2, TwistElement(41)),
        twist(L4, F4, TwistElement(P([-2, -3]) * P([-2, -3]))),
    ]
    for L, f in instances:
        if determinant_bound_test(L, f) == "positive":
            report = obstructing_root_search(L, f)
            assert report.status == "positive"


def test_rank4_untwisted_has_obstructions():
    report = obstructing_root_search(L4, F4)
    assert report.status == "not_positive"
    assert all(L4.norm(vec) == -2 for vec, _ in report.witnesses)


def test_determinism():
    a = obstructing_root_search(L2, F2)
    b = obstructing_root_search(L2, F2)
    assert a == b


def test_one_faddeev_leverrier_pass_per_search(monkeypatch):
    """The search reads char f and adj(x I - f) from one pass."""
    calls = []
    original = linalg.charpoly_and_adjugate

    def counted(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(linalg, "charpoly_and_adjugate", counted)
    for L, f in ((L2, F2), (L4, F4)):
        calls.clear()
        obstructing_root_search(L, f)
        assert len(calls) == 1


def test_is_positive_forms_char_f_and_certifies_it_once(monkeypatch):
    """On the S4 seed pair, which the determinant bound leaves inconclusive,
    the bound and the search share one Faddeev-LeVerrier pass and one Salem
    certificate."""
    assert determinant_bound_test(L4, F4) == "inconclusive"
    expected = obstructing_root_search(L4, F4)
    calls = {"pass": 0, "certify": 0}
    original_pass, original_certify = linalg.charpoly_and_adjugate, positivity.is_salem

    def counted_pass(A):
        calls["pass"] += 1
        return original_pass(A)

    def counted_certify(s):
        calls["certify"] += 1
        return original_certify(s)

    monkeypatch.setattr(linalg, "charpoly_and_adjugate", counted_pass)
    monkeypatch.setattr(positivity, "is_salem", counted_certify)
    assert is_positive(L4, F4) == expected
    assert calls == {"pass": 1, "certify": 1}


def test_witnesses_closed_under_f_up_to_orbit():
    report = obstructing_root_search(L2, F2)
    vectors = [v for v, _ in report.witnesses]
    for v in vectors:
        image = linalg.mat_vec(F2.matrix, v)
        # image is an obstructing root too; its orbit representative is listed
        assert L2.norm(image) == -2


def rank6_pair():
    C6 = companion_matrix(P([1, -2, 0, 1, 0, -2, 1]))
    S6 = search_even_invariant_lattice(C6, signature=(1, 5), box=4)
    return S6, Isometry(S6, C6)


def s4_twist(a, b):
    """The S4 block twisted by t^2 for t = a + b w."""
    t = P([a, b])
    return twist(L4, F4, TwistElement(t * t))


def test_obstructing_root_search_rank6():
    S6, f6 = rank6_pair()
    report = obstructing_root_search(S6, f6)
    assert report.status in ("positive", "not_positive")
    for vec, _ in report.witnesses:
        assert S6.norm(vec) == -2


# Full reports: (status, witness vectors, search_bound, candidate_count).
# The corpus rows are the largest searches of the positivity workload, and
# Lehmer's lattice, which the workload leaves out, is the largest walk of all.
PINNED_REPORTS = [
    ("L2", lambda: (L2, F2), "not_positive", [(-1, 1), (1, -1)], "31/10", 34),
    (
        "S4 block",
        lambda: (L4, F4),
        "not_positive",
        [(-1, -1, -1, 0), (-1, -1, -1, 1), (-1, -1, 0, 0), (-1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 1, 1)],
        "349/78",
        206,
    ),
    (
        "rank 6",
        rank6_pair,
        "not_positive",
        [(-1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)],
        "20735969/8519680",
        92,
    ),
    (
        "t=1+w",
        lambda: s4_twist(1, 1),
        "not_positive",
        [(-1, -1, -1, 1), (-1, 0, 2, -1), (-1, 1, 1, -1), (-1, 1, 1, 1), (-1, 1, 2, -1), (1, -1, -1, 1)],
        "349/156",
        864,
    ),
    (
        "t=-2+w",
        lambda: s4_twist(-2, 1),
        "not_positive",
        [(-3, -4, -3, 0), (-1, -2, -2, -1), (-1, -1, -1, 0), (0, 1, 1, 1), (0, 3, 4, 3), (1, 2, 2, 1)],
        "2324318563/81788928",
        678,
    ),
    ("t=2+w", lambda: s4_twist(2, 1), "positive", [], "5995/2808", 86),
    (
        "t=4+3w",
        lambda: s4_twist(4, 3),
        "not_positive",
        [(-4, 5, -5, 2), (-4, 5, 5, -3), (-3, 4, 4, -3), (-1, 0, 2, -1), (-1, 1, 2, -1), (3, -4, -4, 3)],
        "82903/39936",
        2984,
    ),
    (
        "corpus degree 4",
        lambda: corpus_pair((1, -1, -1, -1, 1)),
        "not_positive",
        [(-1, -1, -1, 1), (-1, 1, 1, 1)],
        "121/52",
        172,
    ),
    (
        "corpus degree 6 square",
        lambda: corpus_pair((1, -2, -1, 3, -1, -2, 1)),
        "not_positive",
        [
            (-1, 0, 0, 0, 0, 0),
            (-1, 0, 1, -1, 0, 0),
            (-1, 1, 0, -1, 0, 0),
            (-1, 1, 1, -1, 0, 0),
            (0, 0, 0, 0, 0, 1),
            (0, 0, 1, -1, -1, 1),
            (0, 0, 1, -1, 0, 1),
            (0, 0, 1, 0, -1, 1),
        ],
        "10357288215/3841982464",
        546,
    ),
    (
        "corpus degree 8",
        lambda: corpus_pair((1, -2, 0, 0, 0, 0, 0, -2, 1)),
        "not_positive",
        [(-1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1)],
        "102224407047335230233/49492308104988065792",
        92,
    ),
    (
        "corpus degree 10",
        lambda: corpus_pair((1, -2, 1, -2, 1, -2, 1, -2, 1, -2, 1)),
        "not_positive",
        [(-1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 0, 1)],
        "72344863433382179682986456424199/35625438450554673551046996918272",
        356,
    ),
    (
        "Lehmer",
        lambda: corpus_pair(LEHMER),
        "not_positive",
        [
            (-1, -1, -1, -1, -1, 0, 0, 1, 1, 0),
            (-1, -1, -1, -1, -1, 0, 1, 0, 0, 1),
            (-1, -1, -1, -1, 0, 0, 1, 1, 1, -1),
            (-1, -1, -1, 0, -1, 1, 0, 1, 0, 0),
            (-1, -1, -1, 0, 0, -1, 1, 1, 0, 0),
            (-1, -1, -1, 0, 1, 0, 1, 1, 0, -1),
            (-1, -1, -1, 1, 0, 0, 1, 1, 0, -1),
            (-1, -1, 0, 0, 1, 1, 1, 1, 1, 0),
            (-1, -1, 0, 1, -1, 0, 1, 1, -1, 0),
            (-1, -1, 0, 1, 1, 0, 1, 1, 1, -1),
            (-1, -1, 1, 0, -1, 0, 1, 0, 0, 0),
            (-1, -1, 1, 0, 0, 1, 1, 1, 0, 0),
            (-1, -1, 1, 1, 0, 1, 1, 0, -1, 0),
            (-1, 0, -1, -1, -1, 1, 0, 0, 1, 0),
            (-1, 0, -1, 1, 0, 1, 1, 1, 0, 0),
            (-1, 0, 0, -1, 0, 1, 1, 1, 1, 1),
            (-1, 0, 0, -1, 1, 1, 1, 0, 1, 0),
            (-1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
            (-1, 0, 0, 0, 0, 1, 1, 0, 1, 0),
            (-1, 0, 1, 0, 0, 1, 1, -1, 0, 0),
        ],
        "43294228431982050105395/21039088076818047041536",
        49032,
    ),
]


@pytest.mark.parametrize(
    "case, status, witnesses, bound, count",
    [row[1:] for row in PINNED_REPORTS],
    ids=[row[0] for row in PINNED_REPORTS],
)
def test_obstructing_root_search_pinned_and_crossing(case, status, witnesses, bound, count):
    L, f = case()
    report = obstructing_root_search(L, f)
    assert report == ObstructionReport(
        status=status,
        witnesses=tuple((w, "geodesic") for w in witnesses),
        method="exhaustive_search",
        search_bound=Fraction(bound),
        candidate_count=count,
    )
    assert all(crosses_by_iteration(L.gram, f.matrix, w) for w in witnesses)


# the widths the search refines the isolating interval to, in order, as
# (first width, count): each later width is half the one before
REFINE_WIDTHS = {
    "L2": ("1", 4),
    "S4 block": ("1/8", 4),
    "rank 6": ("3/4", 13),
    "t=1+w": ("1/8", 8),
    "t=-2+w": ("1/8", 9),
    "t=2+w": ("1/8", 6),
    "t=4+3w": ("1/8", 13),
    "corpus degree 4": ("1/8", 4),
    "corpus degree 6 square": ("1/8", 10),
    "corpus degree 8": ("3/4", 18),
    "corpus degree 10": ("3/4", 23),
    "Lehmer": ("1/32", 11),
}


@pytest.mark.parametrize("name, case", [row[:2] for row in PINNED_REPORTS], ids=[row[0] for row in PINNED_REPORTS])
def test_integer_minorant_is_the_fraction_minorant(name, case, monkeypatch):
    """At every delta round the search hands the walk (den, T'), one integer
    matrix over one denominator, equal to the Fraction minorant of the
    former route: the midpoints of the Fraction enclosures of the entries of
    T, read by the oracle field on the interval each enclosure was read at,
    minus n delta / 2 on the diagonal. The refinement widths are pinned."""
    L, f = case()
    n = L.rank
    events, widths = [], []
    endpoints, refine, walk = RealAlgebraicField.endpoints, RealAlgebraicField.refine, linalg.qf_half_walk

    def recorded_endpoints(K, a, max_width):
        ends = endpoints(K, a, max_width)
        events.append((K.min_poly, a, max_width, K.interval, ends))
        return ends

    def recorded_walk(den, G, bound):
        events.append((den, G))
        return walk(den, G, bound)

    monkeypatch.setattr(RealAlgebraicField, "endpoints", recorded_endpoints)
    monkeypatch.setattr(RealAlgebraicField, "refine", lambda K, width: widths.append(width) or refine(K, width))
    monkeypatch.setattr(linalg, "qf_half_walk", recorded_walk)
    obstructing_root_search(L, f)

    first, count = REFINE_WIDTHS[name]
    assert widths == [Fraction(first) / 2**k for k in range(count)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    walks = [k for k, event in enumerate(events) if len(event) == 2]
    # the search bound's enclosure, then one enclosure per entry of T and round
    assert walks == [1 + len(pairs) * (r + 1) + r for r in range(len(walks))]
    for r, k in enumerate(walks):
        delta = Fraction(1, 4 ** (r + 2))
        mids = []
        for min_poly, (nums, d), width, interval, (lo, hi, D) in events[k - len(pairs):k]:
            assert width == delta
            O = FractionField(min_poly, interval)
            enclosure = O.enclosure(tuple(Fraction(x, d) for x in nums), delta)
            assert O.interval == interval  # no refinement: the width was already met
            assert enclosure == (Fraction(lo, D), Fraction(hi, D))
            mids.append((enclosure[0] + enclosure[1]) / 2)
        T_prime = [[None] * n for _ in range(n)]
        for (i, j), mid in zip(pairs, mids):
            T_prime[i][j] = T_prime[j][i] = mid - (n * delta / 2 if i == j else 0)
        den, G = events[k]
        assert type(den) is int and den > 0 and {type(x) for row in G for x in row} == {int}
        assert [[Fraction(x, den) for x in row] for row in G] == T_prime, (name, r)


def representatives(L, f, vectors):
    """What the orbit reducer of the search lists for the given crossing roots:
    the representatives of their orbits and of their negatives' orbits."""
    cert, adj_mats = positivity._salem_char_and_adjugate(f)
    K, tau, gu1, gu2, _ = positivity._geodesic_plane(L, cert, adj_mats)
    pairs = [(v, *positivity._pairings(tau, gu1, v)) for v in vectors]
    finv = linalg.mat_scale(-1, adj_mats[0])
    return positivity._orbit_reduce(K, f.matrix, finv, gu1, gu2, pairs)


# the pinned inputs whose orbit representatives are checked against the window oracle
ORBIT_CASES = [row for row in PINNED_REPORTS if row[0] in (
    "L2", "S4 block", "t=1+w", "t=-2+w", "t=4+3w", "corpus degree 6 square"
)]


@pytest.mark.parametrize("case", [row[1] for row in ORBIT_CASES], ids=[row[0] for row in ORBIT_CASES])
def test_orbit_representatives_match_a_long_window(case):
    """Each listed witness, and the orbit elements two steps away, reduce to
    the least element of a window of +-40 rank steps around them, together
    with that of their negatives."""
    L, f = case()
    steps = 40 * L.rank
    finv = f.inverse_matrix()
    for w, _ in obstructing_root_search(L, f).witnesses:
        two_steps = [linalg.mat_vec(F, linalg.mat_vec(F, w)) for F in (f.matrix, finv)]
        for v in [w] + two_steps:
            minus_v = tuple(-x for x in v)
            expected = {orbit_min_by_window(f.matrix, u, steps) for u in (v, minus_v)}
            assert representatives(L, f, [v]) == sorted(expected)
        assert orbit_min_by_window(f.matrix, w, steps) == w


@pytest.mark.parametrize("case", [row[1] for row in ORBIT_CASES], ids=[row[0] for row in ORBIT_CASES])
def test_orbit_representatives_are_canonical(case):
    """f^k(w) has the representatives of w for every listed witness w and
    |k| <= 3, and all the images together reduce to the listed witnesses."""
    L, f = case()
    finv = f.inverse_matrix()
    witnesses = [w for w, _ in obstructing_root_search(L, f).witnesses]
    images = []
    for w in witnesses:
        reps = representatives(L, f, [w])
        assert w in reps
        for F in (f.matrix, finv):
            v = w
            for _ in range(3):
                v = linalg.mat_vec(F, v)
                assert representatives(L, f, [v]) == reps
                images.append(v)
    assert representatives(L, f, images) == witnesses


def test_orbit_minimum_several_steps_from_the_witness():
    # (1, -1) is the least element of its orbit under the rank 2 companion
    # matrix; seven steps away in either direction the entries are in the hundreds
    w = (1, -1)
    for F in (F2.matrix, F2.inverse_matrix()):
        v = w
        for _ in range(7):
            v = linalg.mat_vec(F, v)
        assert max(map(abs, v)) > 100
        assert representatives(L2, F2, [v]) == [(-1, 1), w]


def fraction_pairing(z, u):
    """Sum of z_i u_i for elements u_i of the Fraction field: <z, u> when
    u = G u', read coefficient by coefficient."""
    return tuple(sum(zi * x[k] for zi, x in zip(z, u)) for k in range(len(u[0])))


def fraction_adjugate_column(O, adj_mats, mu):
    """First nonzero column of adj(mu I - f) = sum of adj_k mu^k, with the
    powers of mu taken in the Fraction field O."""
    powers = [(Fraction(1),) + (Fraction(0),) * (O.degree - 1)]
    for _ in range(len(adj_mats) - 1):
        powers.append(O.mul(powers[-1], mu))
    n = len(adj_mats[0])
    for col in range(n):
        vec = tuple(fraction_pairing([M[i][col] for M in adj_mats], powers) for i in range(n))
        if any(map(any, vec)):
            return vec


# every pinned search and the even invariant lattices of corpus degrees 4 to
# 10: the pinned rows hold all of those but the first of degree 6
CONJUGATE_CASES = {row[0]: row[1] for row in PINNED_REPORTS} | {
    "corpus degree 6": lambda: corpus_pair((1, -2, 0, 1, 0, -2, 1)),
}


@pytest.mark.parametrize("case", CONJUGATE_CASES.values(), ids=CONJUGATE_CASES)
def test_one_over_lambda_side_is_tau_of_the_lambda_side(case, monkeypatch):
    """The search's integer data for the 1/lambda side agrees with an
    independent Fraction route: u2 and G u2 from adj(lambda^-1 I - f) evaluated
    in the Fraction field are tau of u1 and G u1, sigma is <u1, u2> there,
    f (-adj_0) = I, and the integer pairings of every norm -2 candidate of
    the walk are the Fraction pairings."""
    L, f = case()
    n = L.rank
    cert, adj_mats = positivity._salem_char_and_adjugate(f)
    K, tau, gu1, gu2, sigma = positivity._geodesic_plane(L, cert, adj_mats)
    assert linalg.mat_mul(tau, tau) == linalg.identity(n)
    O = FractionField(cert.polynomial, cert.lambda_interval)
    lam = (Fraction(0), Fraction(1)) + (Fraction(0),) * (n - 2)
    u1 = fraction_adjugate_column(O, adj_mats, lam)
    u2 = fraction_adjugate_column(O, adj_mats, O.x_inverse())
    assert u2 == tuple(tuple(linalg.mat_vec(tau, x)) for x in u1)
    fraction_gu1 = tuple(fraction_pairing(row, u1) for row in L.gram)
    fraction_gu2 = tuple(fraction_pairing(row, u2) for row in L.gram)
    assert fraction_gu1 == tuple(map(tuple, gu1))
    assert fraction_gu2 == tuple(map(tuple, gu2))
    assert gu2 == tuple(linalg.mat_vec(tau, row) for row in gu1)
    fraction_sigma = fraction_pairing([1] * n, [O.mul(x, y) for x, y in zip(u1, fraction_gu2)])
    assert sigma == (fraction_sigma, 1)
    assert linalg.mat_mul(f.matrix, linalg.mat_scale(-1, adj_mats[0])) == linalg.identity(n)

    halves = []
    walk = linalg.qf_half_walk
    monkeypatch.setattr(linalg, "qf_half_walk", lambda *form: halves.append(walk(*form)) or halves[-1])
    obstructing_root_search(L, f)
    for z in (z for z in halves[-1] if L.norm(z) == -2):
        p1, p2 = positivity._pairings(tau, gu1, z)
        assert (p1[0], p2[0]) == (fraction_pairing(z, fraction_gu1), fraction_pairing(z, fraction_gu2))
        assert p1[1] == p2[1] == 1


def test_search_reads_the_one_over_lambda_side_through_tau(monkeypatch):
    """On the S4 seed pair the search inverts one field element (sigma) and
    no rational matrix (f^-1 = -adj_0)."""
    calls = {"inv": 0, "rat_inverse": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(RealAlgebraicField, "inv")
    counted(linalg, "rat_inverse")
    obstructing_root_search(L4, F4)
    assert calls == {"inv": 1, "rat_inverse": 0}


@pytest.mark.parametrize("t", [(2, 1), (-1, 1)], ids=str)
def test_positive_twist_has_no_crossing_root_in_a_box(t):
    L, f = s4_twist(*t)
    assert obstructing_root_search(L, f).status == "positive"
    roots = brute_vectors_of_norm(L.gram, -2, 3)
    assert roots
    assert not any(crosses_by_iteration(L.gram, f.matrix, r) for r in roots)


# the positivity pair documents of the sweep below: the workload's CLI pair,
# a second S4 twist and the largest corpus search of the workload
SWEPT_PAIRS = {
    "t=1": lambda: s4_twist(1, 0),
    "t=-2+w": lambda: s4_twist(-2, 1),
    "corpus degree 10": lambda: corpus_pair((1, -2, 1, -2, 1, -2, 1, -2, 1, -2, 1)),
}
SWEPT_LEAVES_PER_FIELD = 16

# the edited pair documents that still give a report, each with its reason
REPORTING_EDITS = {}


def test_one_field_edits_of_a_pair_are_refused_by_name(tmp_path, capsys):
    """Each edit of a seeded sample of the integer leaves of every field of
    three positivity pairs exits 2 with an error that names a pair field."""
    rng = random.Random(23)
    path = tmp_path / "pair.json"
    reported, covered = set(), set()
    for name, build in SWEPT_PAIRS.items():
        L, f = build()
        doc = {"lattice": codec.lattice_to_json(L), "isometry": codec.matrix_to_json(f.matrix)}
        for case, keys, edited_doc in one_field_edits(doc, rng, SWEPT_LEAVES_PER_FIELD):
            case = f"{name}: {case}"
            covered.add(leaf_field(keys))
            path.write_text(json.dumps(edited_doc), encoding="utf-8")
            code = within(5.0, lambda: cli.run(["--format", "json", "positivity", str(path)]))
            out = json.loads(capsys.readouterr().out)
            if "error" in out:
                assert code == 2 and out["error"].startswith("pair."), (case, out["error"])
            else:
                assert case in REPORTING_EDITS, (case, out)
                reported.add(case)
    assert reported == set(REPORTING_EDITS)
    assert covered == {"lattice.rank", "lattice.gram[][]", "isometry[][]"}


def test_refinement_cap_names_its_rounds_and_last_delta(monkeypatch, tmp_path, capsys):
    def never_positive_definite(den, G, bound):
        raise ValueError("form is not positive definite")

    monkeypatch.setattr(linalg, "qf_half_walk", never_positive_definite)
    last_delta = Fraction(1, 16) / 4**79
    with pytest.raises(PositivityError, match=rf"in 80 rounds \(last delta = {last_delta}\)$"):
        obstructing_root_search(L2, F2)
    pair = tmp_path / "pair.json"
    pair.write_text(
        json.dumps({"lattice": {"rank": 2, "gram": [["2", "3"], ["3", "2"]]}, "isometry": [["0", "-1"], ["1", "3"]]})
    )
    assert cli.run(["positivity", str(pair)]) == 2
    assert f"in 80 rounds (last delta = {last_delta})" in capsys.readouterr().out


def test_public_names_resolve():
    # a fresh import loads no module of the package, and a submodule still
    # imports by name
    code = (
        "import sys, salemk3; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'salemk3')); "
        "from salemk3 import linalg; print(linalg.__name__)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.splitlines() == ["['salemk3']", "salemk3.linalg"], proc.stderr
    # no name is exported by two modules or twice by one, and every name of
    # __all__ is the object of the module that defines it
    exported = [n for names in salemk3._EXPORTS.values() for n in names]
    assert len(set(exported)) == len(exported)
    for name in salemk3.__all__:
        obj = getattr(salemk3, name)
        assert obj.__module__.startswith("salemk3.") and getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec("from salemk3 import *", namespace)
    assert all(namespace[name] is getattr(salemk3, name) for name in salemk3.__all__)
    with pytest.raises(AttributeError, match="^module 'salemk3' has no attribute 'no_such_name'$"):
        salemk3.no_such_name


# the S4 block conjugated by diag(1, 1, 1, 2): a rational isometry with the
# Salem characteristic polynomial, on a lattice too small for the bound
HALF_L4 = Lattice(((-2, 1, 0, -4), (1, -2, 1, 0), (0, 1, -2, 2), (-4, 0, 2, -8)))
HALF_F4 = Isometry(HALF_L4, ((0, 0, 0, -2), (1, 0, 0, 2), (0, 1, 0, 2), (0, 0, Fraction(1, 2), 1)))
U = Lattice([[0, 1], [1, 0]])
ROTATION = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cyclic_roots(Lattice([[-1, 0], [0, -1]]), Isometry(Lattice([[-1, 0], [0, -1]]), ROTATION)),
         "cyclic-root search needs an integral isometry"),
        (lambda: cyclic_roots(U, Isometry(U, ((-1, 0), (0, -1)))),
         "indefinite cyclotomic kernel; cyclic-root enumeration unsupported"),
        (lambda: determinant_bound_test(L4.rescaled(-1), Isometry(L4.rescaled(-1), F4.matrix)),
         "determinant bound applies to hyperbolic lattices"),
        (lambda: obstructing_root_search(HALF_L4, HALF_F4), "obstructing-root search needs an integral isometry"),
        (lambda: is_positive(HALF_L4, HALF_F4), "obstructing-root search needs an integral isometry"),
    ],
    ids=["cyclic-rational", "cyclic-indefinite", "bound-not-hyperbolic", "search-rational", "decide-rational"],
)
def test_positivity_refusals_name_the_failed_condition(call, message):
    with pytest.raises(PositivityError, match=f"^{message}$"):
        call()


def test_rational_isometry_reads_the_bound_from_its_char_poly():
    assert not HALF_F4.is_integral()
    assert determinant_bound_test(HALF_L4, HALF_F4) == "inconclusive"
