import ast
import random
from collections import defaultdict
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm

import pytest

from salemk3 import linalg
from salemk3.lattices import (
    FiniteQuadraticForm,
    GlueMap,
    Lattice,
    LatticeError,
    discriminant_form,
    enumerate_vectors_of_norm,
    find_anti_isometry,
    find_form_isometry,
    build_glue_map,
    forms_isomorphic,
    glue,
    glue_map_problems,
    hyperbolic_p_form,
    is_primitive_sublattice,
    lattice_A2,
    lattice_E6,
    lattice_E8,
    lattice_U,
    named_lattice,
    orthogonal_complement,
    p_primary_part,
)
from salemk3.positivity import obstructing_root_search

from oracles import (
    brute_vectors_of_norm,
    descartes_signature,
    discriminant_action,
    fraction_det,
    fraction_form_values,
    fraction_glue_basis,
    fraction_inverse,
    fraction_qf_enumerate,
    rat_kernel,
    rat_mat_mul,
    rat_row_reduce,
    saturation_by_search,
    smith_diagonal,
)
from salem_corpus import corpus_pair

U = lattice_U()
E8 = lattice_E8()


def test_determinant_examples():
    assert U.determinant() == -1
    assert E8.determinant() == 1
    assert Lattice([[-2, 0], [0, 2]]).determinant() == -4


def test_determinant_matches_fraction_oracle():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 5)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-4, 4)
        det = linalg.bareiss_det(tuple(tuple(r) for r in M))
        assert det == fraction_det(M)


def test_signature_examples():
    assert U.signature() == (1, 1)
    assert E8.signature() == (0, 8)
    assert named_lattice("3U+2E8").signature() == (3, 19)
    assert named_lattice("3U").signature() == (3, 3)
    assert named_lattice("U+E8").signature() == (1, 9)
    # hollow Gram matrices take the congruence branch of the elimination
    for L, expected in ((U.direct_sum(U), (2, 2)), (Lattice([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), (1, 2))):
        assert L.signature() == expected
        assert descartes_signature(L.gram) == expected


def test_named_lattice_is_built_once():
    for name in ("U", "E8", "3U", "U+E8", "3U+2E8"):
        assert named_lattice(name) is named_lattice(name)
    assert named_lattice("3U+2E8") == U.direct_sum(U).direct_sum(U).direct_sum(E8).direct_sum(E8)
    # a refused name is not cached: each call raises again, naming it
    for _ in range(2):
        with pytest.raises(LatticeError, match="^unknown lattice name '2U'"):
            named_lattice("2U")


def test_signature_additive_det_multiplicative():
    rng = random.Random(17)
    mats = [U, E8, Lattice([[-2]]), Lattice([[4]]), lattice_A2()]
    for _ in range(10):
        a, b = rng.choice(mats), rng.choice(mats)
        s = a.direct_sum(b)
        assert s.signature() == tuple(x + y for x, y in zip(a.signature(), b.signature()))
        assert s.determinant() == a.determinant() * b.determinant()


def test_dual_basis_examples():
    assert U.dual_basis() == (((0, 1), (1, 0)), 1)
    assert Lattice([[-2]]).dual_basis() == (((-1,),), 2)
    assert E8.dual_basis()[1] == 1
    # the denominator is the exponent of the discriminant group
    for L in (lattice_A2(), lattice_E6(), Lattice([[2, 1, 0], [1, 4, 0], [0, 0, 6]])):
        N, d = L.dual_basis()
        assert d == discriminant_form(L).orders[-1]
        assert linalg.mat_mul(L.gram, N) == linalg.mat_scale(d, linalg.identity(L.rank))


def test_discriminant_form_examples():
    q = discriminant_form(Lattice([[-2]]))
    assert q.orders == (2,)
    assert (q.exponent, q.q_nums) == (2, (3,))
    assert discriminant_form(E8).ngens == 0
    q2 = discriminant_form(Lattice([[22, 33], [33, 22]]))
    assert q2.orders == (11, 55)
    assert q2.orders == tuple(smith_diagonal([[22, 33], [33, 22]]))


def test_discriminant_group_order_is_det():
    rng = random.Random(29)
    count = 0
    while count < 15:
        n = rng.randint(1, 4)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-3, 3)
                M[i][j] = M[j][i] = 2 * v if i == j else v
        try:
            L = Lattice(M)
        except LatticeError:
            continue
        count += 1
        assert discriminant_form(L).order() == abs(L.determinant())


def test_discriminant_form_rejects_odd():
    with pytest.raises(LatticeError):
        discriminant_form(Lattice([[1]]))


def test_p_primary_parts():
    q6 = discriminant_form(Lattice([[-6]]))
    assert q6.orders == (6,)
    assert p_primary_part(q6, 2).orders == (2,)
    assert p_primary_part(q6, 5).orders == ()
    assert p_primary_part(q6, 3).orders == (3,)
    q2 = discriminant_form(Lattice([[22, 33], [33, 22]]))
    assert p_primary_part(q2, 11).orders == (11, 11)
    assert p_primary_part(q2, 5).orders == (5,)


def test_e6_discriminant():
    q = discriminant_form(lattice_E6())
    assert q.orders == (3,)
    assert (q.exponent, q.q_nums) == (3, (2,))


def test_glue_to_unimodular():
    M, N = Lattice([[-2]]), Lattice([[2]])
    qM, qN = discriminant_form(M), discriminant_form(N)
    phi = GlueMap(qM, qN, find_anti_isometry(qM, qN))
    L, (den, H) = glue(M, N, phi)
    basis = tuple(tuple(Fraction(x, den) for x in row) for row in H)
    assert L.rank == 2 and L.is_even() and L.determinant() == -1
    assert L.gram == rat_mat_mul(basis, M.direct_sum(N).gram, linalg.transpose(basis))
    # complement of the first block recovers the second
    embed = linalg.rat_inverse(basis)
    m_row = tuple(int(x) for x in embed[0])
    comp, _ = orthogonal_complement(L, [m_row])
    assert comp.gram == ((2,),)


def test_glue_trivial_forms():
    M, N = E8, U
    phi = GlueMap(discriminant_form(M), discriminant_form(N), ())
    L, _ = glue(M, N, phi)
    assert L.gram == M.direct_sum(N).gram


def test_glue_rejects_bad_map():
    M, N = Lattice([[-2]]), Lattice([[-2]])
    qM, qN = discriminant_form(M), discriminant_form(N)
    with pytest.raises(LatticeError):
        GlueMap(qM, qN, ((1,),))  # q values add, not negate


# Z/3 with q = 0 and b = 0: b(g, -) is the zero functional
DEGENERATE = FiniteQuadraticForm((3,), (0,), ((0,),))
Fr = Fraction


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: named_lattice("2U"), "unknown lattice name '2U'"),
        (lambda: FiniteQuadraticForm((1,), (0,), ((0,),)), "generator orders must be >= 2"),
        (lambda: FiniteQuadraticForm((4, 2), (0, 0), ((0, 0), (0, 0))), "orders must form a divisibility chain"),
        (lambda: FiniteQuadraticForm((2,), (), ()), "value tables must match the number of generators"),
        (lambda: FiniteQuadraticForm((2, 2), (0, 0), ((0, 0), (0,))), "value tables must match the number of generators"),
        (lambda: FiniteQuadraticForm((2,), (Fr(1, 2),), ((0,),)), "diagonal of b must be q reduced modulo Z"),
        (lambda: FiniteQuadraticForm((3,), (Fr(1, 3),), ((Fr(1, 3),),)), "values on generator 0 do not fit its order 3"),
        (lambda: FiniteQuadraticForm((2,), (Fr(1, 4),), ((Fr(1, 4),),)), "values on generator 0 do not fit its order 2"),
        (lambda: FiniteQuadraticForm((2,), (Fr(1, 3),), ((Fr(1, 3),),)), "values on generator 0 do not fit its order 2"),
        (lambda: FiniteQuadraticForm((2, 2), (0, 0), ((0, Fr(1, 2)), (0, 0))), "b must be symmetric"),
        (lambda: FiniteQuadraticForm((2, 4), (0, 0), ((0, Fr(1, 2)), (Fr(1, 4), 0))), "b must be symmetric"),
        (lambda: p_primary_part(hyperbolic_p_form(2, 2), 4), "p-primary part needs a prime"),
        (lambda: forms_isomorphic(DEGENERATE, DEGENERATE), "finite quadratic form is degenerate"),
        (lambda: build_glue_map(hyperbolic_p_form(3, 1), DEGENERATE), "finite quadratic form is degenerate"),
        (lambda: glue(Lattice([[4]]), Lattice([[4]]), GlueMap(discriminant_form(Lattice([[2]])),
                                                             discriminant_form(Lattice([[-2]])), ((1,),))),
         "glue map does not match the discriminant forms"),
    ],
    ids=["name", "order", "chain", "tables", "rows", "diagonal", "q-order", "b-order", "foreign-denominator",
         "symmetric", "symmetric-mixed-denominators", "prime", "degenerate", "degenerate-glue", "glue-orders"],
)
def test_lattice_and_form_refusals_name_the_failed_condition(call, message):
    with pytest.raises(LatticeError, match=f"^{message}"):
        call()


def test_form_constructor_reduces_rational_values_to_numerators_over_the_exponent():
    # q = -1/2 = 3/2 mod 2 and b = -1/2 = 1/2 mod 1, given as a string and a Fraction
    q = FiniteQuadraticForm((2,), ("-1/2",), ((Fr(-1, 2),),))
    assert (q.exponent, q.q_nums, q.b_nums) == (2, (3,), ((1,),))
    # values over 12 on Z/2 + Z/6 come down to the exponent 6; b is symmetric mod 1
    q = FiniteQuadraticForm((2, 6), (Fr(6, 12), Fr(20, 12)), ((Fr(6, 12), Fr(-6, 12)), (Fr(18, 12), Fr(8, 12))))
    assert (q.exponent, q.q_nums, q.b_nums) == (6, (3, 10), ((3, 3), (3, 4)))
    assert q.negated().q_nums == (9, 2) and q.negated().b_nums == ((3, 3), (3, 2))
    trivial = FiniteQuadraticForm((), (), ())
    assert (trivial.exponent, trivial.q_nums, trivial.b_nums) == (1, (), ())


# a form on (Z/2)^2 with q = 1 on both generators and b = 0
Q1_ZERO_B = FiniteQuadraticForm((2, 2), (1, 1), ((0, 0), (0, 0)))


@pytest.mark.parametrize(
    "source, target, matrix, problem",
    [
        ([[-2]], [[2]], ((1, 0),), "matrix shape does not match generator counts"),
        ([[2, 0], [0, -2]], [[2, 0], [0, 6]], ((0, 1), (3, 0)), "group orders differ"),
        ([[-2]], [[4]], ((1,),), "image of generator 0 has too large an order"),
        ([[2, 0], [0, 2]], [[-2, 0], [0, -2]], ((0, 0), (1, 0)), "q not negated on generator 1"),
        ([[2, 0], [0, 2]], [[-2, 0], [0, -2]], ((0, 0), (1, 1)), "b not negated on generator pair (0,1)"),
        (Q1_ZERO_B, [[-2, 1, 0, 0], [1, -2, 1, 1], [0, 1, -2, 0], [0, 1, 0, -2]], ((1, 1), (0, 0)),
         "map is not bijective"),
    ],
    ids=["shape", "orders", "image-order", "q", "b", "bijective"],
)
def test_glue_map_problems_name_each_defect(source, target, matrix, problem):
    forms = [q if isinstance(q, FiniteQuadraticForm) else discriminant_form(Lattice(q)) for q in (source, target)]
    assert problem in glue_map_problems(*forms, matrix)
    with pytest.raises(LatticeError, match="^invalid glue map: "):
        GlueMap(*forms, matrix)


@pytest.mark.parametrize(
    "gram, source_q, message",
    [
        # <4> + <4> glued along a map from a form with q = 7/4 = -q_M: the
        # graph (1/4, 1/4) has norm 1/2
        ([[4]], Fr(7, 4), "the overlattice is not integral"),
        # <2> + <2> glued from q = 3/2: the graph (1/2, 1/2) has norm 1
        ([[2]], Fr(3, 2), "the overlattice is odd"),
    ],
)
def test_glue_along_a_map_of_other_forms_of_the_same_orders_is_refused(gram, source_q, message):
    M = Lattice(gram)
    qM = discriminant_form(M)
    source = FiniteQuadraticForm(qM.orders, (source_q,), ((source_q % 1,),))
    with pytest.raises(LatticeError, match=f"^{message}$"):
        glue(M, M, GlueMap(source, qM, ((1,),)))


def test_orthogonal_complement_examples():
    L = Lattice([[-2, 0], [0, 2]])
    comp, rows = orthogonal_complement(L, [(1, 0)])
    assert comp.gram == ((2,),)
    assert orthogonal_complement(L, []) == (L, linalg.identity(2))
    with pytest.raises(LatticeError):
        orthogonal_complement(U, [(1, 0)])  # isotropic span
    with pytest.raises(LatticeError) as exc:
        orthogonal_complement(L, [(2, 0)])
    assert "saturation" in str(exc.value)


def test_kernel_of_a_matrix_without_rows_is_the_identity():
    # an empty matrix carries no column count; the count passed in gives it
    for n in (1, 3):
        assert linalg.primitive_kernel((), n) == linalg.identity(n)
    assert linalg.primitive_kernel(((0, 0, 0),), 3) == linalg.identity(3)


def test_orthogonal_complement_is_the_saturated_kernel():
    # the primitive kernel rows of B G need not span the complement over Z,
    # and the basis must be their saturation, here against the search oracle;
    # it walks D^2 points for D the denominator of the echelon form, so
    # forms with D > 40 are passed over
    rng = random.Random(22)
    cases = non_primitive = 0
    while cases < 80:
        n = rng.randint(3, 5)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = rng.randint(-3, 3)
        B = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n - 2)]
        try:
            _, rows = orthogonal_complement(Lattice(G), B)
        except LatticeError:
            continue  # degenerate, dependent or not primitive
        K = rat_kernel(linalg.mat_mul(B, G))
        if lcm(*(x.denominator for row in rat_row_reduce(K)[0] for x in row)) > 40:
            continue
        expected = linalg.hnf(saturation_by_search(K))
        assert linalg.hnf(rows) == expected
        non_primitive += linalg.hnf(linalg.primitive_kernel(linalg.mat_mul(B, G), n)) != expected
        cases += 1
    assert non_primitive >= 20


def test_complement_discriminant_antiisometric():
    # q_{M^perp} = -q_M for primitive sublattices of unimodular lattices
    cases = [
        (named_lattice("3U"), [(1, 1, 0, 0, 0, 0)]),
        (named_lattice("3U"), [(1, -1, 0, 0, 0, 0)]),
        (named_lattice("3U"), [(1, 2, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)]),
        (named_lattice("U+E8"), [(1, 1) + (0,) * 8]),
        (named_lattice("U+E8"), [(2, 1) + (0,) * 8]),
        (named_lattice("U+E8"), [(1, -3) + (0,) * 8, (0, 0, 1) + (0,) * 7]),
    ]
    for L, rows in cases:
        sub = L.sublattice(rows)
        comp, _ = orthogonal_complement(L, rows)
        q_sub = discriminant_form(sub)
        q_comp = discriminant_form(comp)
        assert q_sub.orders == q_comp.orders
        assert forms_isomorphic(q_sub, q_comp, anti=True)
        # value multisets on p-primary parts match after negation
        for p in q_sub.primes():
            part_s = q_sub.p_primary_part(p)
            part_c = q_comp.p_primary_part(p).negated()
            vals_s = sorted(Fraction(part_s.q_of(c), part_s.exponent) for c, _ in part_s.all_elements())
            vals_c = sorted(Fraction(part_c.q_of(c), part_c.exponent) for c, _ in part_c.all_elements())
            assert vals_s == vals_c


def test_non_primitive_message_prints_the_hermite_form_of_the_saturation():
    rng = random.Random(15)
    L = named_lattice("3U")
    reached = 0
    for _ in range(150):
        k = rng.randint(1, 2)
        B = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(k)]
        B[0] = [rng.choice((2, 3)) * x for x in B[0]]
        try:
            orthogonal_complement(L, B)
        except LatticeError as exc:
            text = str(exc)
            if "saturation has basis" not in text:
                continue
            printed = ast.literal_eval(text.split("saturation has basis ", 1)[1])
            assert printed == [list(r) for r in linalg.hnf(saturation_by_search(B))]
            reached += 1
    assert reached >= 40


def test_primitivity_check():
    ok, _ = is_primitive_sublattice([(1, 1, 0, 0, 0, 0)])
    assert ok
    ok, sat = is_primitive_sublattice([(2, 2, 0, 0, 0, 0)])
    assert not ok
    assert linalg.hnf(sat) == linalg.hnf(((1, 1, 0, 0, 0, 0),))


def test_primitivity_matches_smith_invariants():
    # primitive rows: full rank with every invariant factor 1
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.3:
            B[0] = [2 * x for x in B[0]]
        invariants = smith_diagonal(B)
        ok, sat = is_primitive_sublattice(B)
        assert ok == (len(invariants) == k and all(d == 1 for d in invariants))
        if ok:
            continue
        # the saturation contains B with the same rank and is itself primitive
        assert len(sat) == len(invariants)
        assert is_primitive_sublattice(sat)[0]
        assert len(linalg.hnf(list(sat) + B)) == len(sat)


def test_enumerate_norm_examples():
    assert len(enumerate_vectors_of_norm(E8, -2)) == 240
    assert enumerate_vectors_of_norm(Lattice([[-2]]), -2) == [(-1,), (1,)]
    assert enumerate_vectors_of_norm(Lattice([[22, 33], [33, 22]]), -2) == []


def test_enumerate_matches_brute_oracle():
    A2neg = lattice_A2()
    assert enumerate_vectors_of_norm(A2neg, -2) == brute_vectors_of_norm(A2neg.gram, -2, 2)
    D = Lattice([[2, 0, 1], [0, 4, 1], [1, 1, 6]])
    for m in (2, 4, 6):
        mine = enumerate_vectors_of_norm(D, m)
        assert mine == brute_vectors_of_norm(D.gram, m, 4)


def test_e8_roots_match_standard_model_count():
    from oracles import count_e8_roots_standard_model

    mine = enumerate_vectors_of_norm(E8, -2)
    assert len(mine) == count_e8_roots_standard_model() == 240
    assert all(E8.norm(v) == -2 for v in mine)
    assert all(tuple(-x for x in v) in set(mine) for v in mine)


def test_box_shell_is_the_sorted_filtered_box():
    for dim in range(1, 5):
        for radius in range(1, 4):
            shell = list(linalg.box_shell(dim, radius))
            box = sorted(product(range(-radius, radius + 1), repeat=dim))
            assert shell == [v for v in box if max(map(abs, v)) == radius]
            assert len(shell) == (2 * radius + 1) ** dim - (2 * radius - 1) ** dim


def random_rational_form(rng, n):
    """A random symmetric rational n x n form B^T B / q + diag(e), e >= 0."""
    B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    q = rng.randint(1, 6)
    G = [[Fraction(sum(B[k][i] * B[k][j] for k in range(n)), q) for j in range(n)] for i in range(n)]
    for i in range(n):
        G[i][i] += Fraction(rng.randint(0, 3), rng.randint(1, 5))
    return G


def is_positive_definite(G):
    # Sylvester's criterion on the leading principal minors
    return all(fraction_det([row[:k] for row in G[:k]]) > 0 for k in range(1, len(G) + 1))


def seeded_forms():
    """The seeded random forms of the Fraction oracle test, in order, as
    (G, bounds): 240 positive definite forms with three bounds each, and
    between them the forms that are not positive definite, with no bounds."""
    rng = random.Random(20260808)
    forms = 0
    while forms < 240:
        G = random_rational_form(rng, rng.randint(1, 5))
        if not is_positive_definite(G):
            yield G, ()
            continue
        forms += 1
        yield G, (Fraction(rng.randint(-3, -1), rng.randint(1, 4)), 0, Fraction(rng.randint(1, 40), rng.randint(1, 4)))


def _both_signs(den, G, bound):
    """The half walk with its negations, sorted: every integer v != 0 with
    v^T (G / den) v <= bound."""
    half = linalg.qf_half_walk(den, G, bound)
    return sorted(half + [tuple(-x for x in v) for v in half])


def test_qf_enumerate_matches_the_fraction_oracle():
    bounds_hit = 0
    for G, bounds in seeded_forms():
        for bound in bounds:
            mine = _both_signs(*linalg.clear_denominators(G), bound)
            assert mine == fraction_qf_enumerate(G, bound), (G, bound)
            bounds_hit += bool(mine)
    assert bounds_hit > 150


NOT_POSITIVE_DEFINITE = [
    [[1, 2], [2, 1]],
    [[-1]],
    [[0]],
    [[1, 1], [1, 1]],
    [[2, 0, 0], [0, 0, 0], [0, 0, 3]],
    [[Fraction(1, 2), 1], [1, 2]],
    [[4, 2, 0], [2, 1, 0], [0, 0, 1]],
]


def test_qf_half_walk_depends_only_on_the_rational_form():
    """(k den, k G) walks as (den, G) for k > 1, and enumerates the oracle's
    list of G / den, on the seeded forms; a form that is not positive
    definite, among them or among the refused forms below, is refused at
    every scale, as the oracle refuses it."""
    refused = 0
    for G, bounds in chain(seeded_forms(), ((G, ()) for G in NOT_POSITIVE_DEFINITE)):
        den, IG = linalg.clear_denominators(G)
        for bound in bounds or (0, 1, Fraction(7, 2)):
            try:
                expected = fraction_qf_enumerate(G, bound)
            except ValueError:
                expected = None
            for k in (2, 3, 12, 2**64 + 1):
                scaled = k * den, linalg.mat_scale(k, IG), bound
                if expected is None:
                    with pytest.raises(ValueError, match="not positive definite"):
                        linalg.qf_half_walk(*scaled)
                else:
                    assert linalg.qf_half_walk(*scaled) == linalg.qf_half_walk(den, IG, bound), (G, bound, k)
                    assert _both_signs(*scaled) == expected, (G, bound, k)
            refused += expected is None
    assert refused == 3 * (4 + len(NOT_POSITIVE_DEFINITE))  # 4 seeded forms are refused


def _search_minorants(coeffs):
    """Every (den, G, bound) that obstructing_root_search passes to the half
    walk on a corpus pair, the refinement rounds that are not yet positive
    definite included."""
    calls = []
    walk = linalg.qf_half_walk

    def capture(den, G, bound):
        calls.append((den, G, bound))
        return walk(den, G, bound)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "qf_half_walk", capture)
        obstructing_root_search(*corpus_pair(coeffs))
    return calls


def _checked_enumeration(den, G, bound):
    """_both_signs(den, G, bound), checked against the oracle on G / den, or
    None when both refuse the form as not positive definite."""
    F = linalg.divided(G, den)
    try:
        expected = fraction_qf_enumerate(F, bound)
    except ValueError:
        with pytest.raises(ValueError, match="not positive definite"):
            _both_signs(den, G, bound)
        return None
    mine = _both_signs(den, G, bound)
    assert mine == expected, (F, bound)
    assert mine == sorted(mine)
    assert {tuple(-x for x in v) for v in mine} == set(mine)
    return mine


@pytest.mark.parametrize(
    "coeffs",
    [(1, -2, -1, 3, -1, -2, 1), (1, -2, 0, 0, 0, 0, 0, -2, 1), (1, -2, 1, -2, 1, -2, 1, -2, 1, -2, 1)],
    ids=["rank 6", "rank 8", "rank 10"],
)
def test_qf_enumerate_matches_the_oracle_on_search_minorants(coeffs):
    calls = _search_minorants(coeffs)
    # the search stops at the first positive definite minorant, which has candidates
    assert [_checked_enumeration(*call) for call in calls][-1]
    den, G, _ = calls[-1]
    assert lcm(*(Fraction(x, den).denominator for row in G for x in row)) > 2**64


def test_qf_enumerate_matches_the_oracle_on_large_denominators():
    """Positive definite forms of rank 6 to 8 whose entries all have
    denominators of at least 2^64."""
    rng = random.Random(23)
    forms = 0
    while forms < 20:
        n = rng.randint(6, 8)
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        G = [[Fraction(sum(A[k][i] * A[k][j] for k in range(n)) + 3 * (i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] += Fraction(2 * rng.randint(-(2**60), 2**60) + 1, 2**64 * rng.randint(1, 2**8))
                G[j][i] = G[i][j]
        if not is_positive_definite(G):
            continue
        forms += 1
        bound = min(G[i][i] for i in range(n)) * Fraction(rng.randint(10, 30), 10)
        assert _checked_enumeration(*linalg.clear_denominators(G), bound)


def test_qf_half_walk_holds_one_vector_of_each_pair():
    """The half walk lists each +- pair once, by its member whose last
    nonzero coordinate is positive, and the half walk with its negations
    sorted is the oracle's list: on random forms and on the form the rank 6
    corpus search walks."""
    rng = random.Random(27)
    cases = [_search_minorants((1, -2, -1, 3, -1, -2, 1))[-1]]
    while len(cases) < 61:
        G = random_rational_form(rng, rng.randint(1, 5))
        if is_positive_definite(G):
            cases.append((*linalg.clear_denominators(G), Fraction(rng.randint(1, 40), rng.randint(1, 4))))
    for den, G, bound in cases:
        half = linalg.qf_half_walk(den, G, bound)
        assert len(set(half)) == len(half)
        assert all(next(x for x in reversed(v) if x) > 0 for v in half)
        expected = fraction_qf_enumerate(linalg.divided(G, den), bound)
        assert _both_signs(den, G, bound) == expected
    assert linalg.qf_half_walk(*cases[0])  # the search form has candidates


@pytest.mark.parametrize("G", NOT_POSITIVE_DEFINITE)
def test_qf_enumerate_rejects_forms_that_are_not_positive_definite(G):
    # the search-form refinement loop in positivity relies on this error
    assert not is_positive_definite(G)
    for bound in (0, 1, Fraction(7, 2)):
        with pytest.raises(ValueError, match="not positive definite"):
            linalg.qf_half_walk(*linalg.clear_denominators(G), bound)
        with pytest.raises(ValueError, match="not positive definite"):
            fraction_qf_enumerate(G, bound)


def test_enumerate_rejects_indefinite_without_divisibility():
    # U and U(2) hold the isotropic vector (1, 0), so norm 0 is refused too
    for L, m in ((U, -2), (U, 0), (U.rescaled(2), 0)):
        with pytest.raises(LatticeError, match="^enumeration requires a definite lattice$"):
            enumerate_vectors_of_norm(L, m)


def test_hyperbolic_form_and_isomorphism_search():
    h = hyperbolic_p_form(11, 1)
    assert h.orders == (11, 11)
    q = discriminant_form(Lattice([[22, 33], [33, 22]])).p_primary_part(11)
    assert forms_isomorphic(q, h)
    mat = find_form_isometry(q, h)
    assert mat is not None
    # negative control: diagonal <2/11, 2/11> is not hyperbolic since
    # -det = -4 is a non-residue mod 11
    bad = FiniteQuadraticForm(
        (11, 11),
        (Fraction(2, 11), Fraction(2, 11)),
        ((Fraction(2, 11), 0), (0, Fraction(2, 11))),
    )
    assert not forms_isomorphic(bad, h)
    assert find_form_isometry(bad, h) is None


def test_discriminant_action():
    L = Lattice([[2, 3], [3, 2]])
    q = discriminant_form(L)
    F = ((0, -1), (1, 3))
    A = discriminant_action(L, q, F)
    # the action must preserve q
    k = q.ngens
    for j in range(k):
        col = tuple(A[i][j] for i in range(k))
        basis = tuple(1 if i == j else 0 for i in range(k))
        assert q.q_of(col) == q.q_of(basis)


def test_lattice_validation():
    with pytest.raises(LatticeError):
        Lattice([[0, 1], [1, 0], [0, 0]])
    with pytest.raises(LatticeError):
        Lattice([[1, 2], [3, 4]])
    with pytest.raises(LatticeError):
        Lattice([[1, 1], [1, 1]])


@pytest.fixture(scope="module")
def s4_certificate():
    from salemk3.polynomials import IntPolynomial
    from salemk3.realize import build_k3_certificate

    return build_k3_certificate(IntPolynomial([1, -1, -1, -1, 1]))


def _sparse_matrix(rng, m, n, nonzero_share, entry):
    """An m x n matrix with entry() at a random int(nonzero_share m n) of its
    cells and 0 elsewhere (entry() may give 0 too)."""
    cells = set(rng.sample(range(m * n), int(nonzero_share * m * n)))
    return tuple(tuple(entry() if i * n + j in cells else 0 for j in range(n)) for i in range(m))


def test_hnf_is_the_hermite_form_of_the_row_span(s4_certificate):
    rng = random.Random(17)
    cases = [
        tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m))
        for m, n in ((rng.randint(1, 6), rng.randint(1, 5)) for _ in range(60))
    ]
    # tall sparse matrices up to 22 x 4, at least 70% zeros, entries up to 10^3
    for _ in range(60):
        m, n = rng.randint(5, 22), rng.randint(1, 4)
        cases.append(_sparse_matrix(rng, m, n, 0.3, lambda: rng.randint(-1000, 1000)))
    # all-zero rows and rows that are combinations of other rows
    for _ in range(60):
        m, n = rng.randint(3, 10), rng.randint(1, 6)
        A = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(m)]
        i, j, k = rng.sample(range(m), 3)
        A[i] = [0] * n
        A[j] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(A[k], A[rng.randrange(m)])]
        cases.append(tuple(map(tuple, A)))
    for A in cases:
        H = linalg.hnf(A)
        # echelon rows with positive pivots, the entries above each reduced into [0, pivot)
        pivots = [next(j for j, x in enumerate(row) if x) for row in H]
        assert pivots == sorted(set(pivots))
        for i, c in enumerate(pivots):
            assert H[i][c] > 0
            assert all(0 <= H[r][c] < H[i][c] for r in range(i))
        # every row of A is an integer combination of H, and the two spans
        # have the same rank and invariant factors, so they are equal
        for a in A:
            rest = list(a)
            for row, c in zip(H, pivots):
                q, r = divmod(rest[c], row[c])
                assert r == 0
                rest = [x - q * y for x, y in zip(rest, row)]
            assert not any(rest)
        assert smith_diagonal(H) == smith_diagonal(A)
    # the S4 kernel rows are primitive: the columns of their 22 x 4 transpose span Z^4
    kernel = s4_certificate.kernel_basis
    assert len(kernel) == 4
    assert linalg.hnf(linalg.transpose(kernel)) == linalg.identity(4)


def test_products_match_the_fraction_oracle_and_plain_sums(s4_certificate):
    # dense, at least 85% zeros, Fraction entries (with Fraction zeros),
    # rectangular shapes, all-zero rows, and the glued S4 Gram matrix with h.
    # Every pair gives exact values; the entry types are pinned on integer
    # pairs, as a zero from rational factors may come back as the int 0
    rng = random.Random(29)

    def entry(fractions):
        x = rng.randint(-9, 9)
        return Fraction(x, rng.randint(1, 4)) if fractions and rng.random() < 0.5 else x

    pairs = []
    for trial in range(240):
        m, k, n = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
        fractions = trial % 4 == 3
        share = (1, 0.15, 0.5)[trial % 3]
        A = [list(row) for row in _sparse_matrix(rng, m, k, share, lambda: entry(fractions))]
        B = _sparse_matrix(rng, k, n, rng.choice((1, 0.15)), lambda: entry(trial % 8 == 7))
        if trial % 5 == 0:
            A[rng.randrange(m)] = [0] * k
        if trial % 7 == 0:
            A[rng.randrange(m)][rng.randrange(k)] = Fraction(0)
        pairs.append((tuple(map(tuple, A)), B))
    G, h = s4_certificate.lattice.gram, s4_certificate.isometry
    pairs += [(G, h), (h, G), (linalg.transpose(h), G)]
    int_pairs = 0
    for A, B in pairs:
        m, k, n = len(A), len(B), len(B[0])
        plain = tuple(tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)) for i in range(m))
        P = linalg.mat_mul(A, B)
        assert P == plain == rat_mat_mul(A, B)
        assert type(P) is tuple and all(type(row) is tuple for row in P)
        if all(type(x) is int for x in chain(*A, *B)):
            assert [list(map(type, row)) for row in P] == [list(map(type, row)) for row in plain]
            int_pairs += 1
        u, w = tuple(row[0] for row in B), tuple(row[0] for row in A)  # lengths k and m
        Au, wA = linalg.mat_vec(A, u), linalg.vec_mat(w, A)
        assert type(Au) is tuple and type(wA) is tuple
        assert Au == tuple(sum(a * x for a, x in zip(row, u)) for row in A) == linalg.transpose(rat_mat_mul(A, [[x] for x in u]))[0]
        assert wA == tuple(sum(w[i] * A[i][j] for i in range(m)) for j in range(k)) == rat_mat_mul((w,), A)[0]
        assert linalg.dot(A[0], u) == sum(a * x for a, x in zip(A[0], u))
    assert len(pairs) == 243 and int_pairs >= 150
    assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(h), G), h) == G


def test_signature_matches_descartes_oracle():
    # an all-zero diagonal sends the elimination through its congruence branch
    rng = random.Random(20260808)
    checked = hollow_checked = singular_checked = 0
    while checked < 300:
        n = rng.randint(1, 9)
        hollow = rng.random() < 0.4
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = 0 if hollow and i == j else rng.randint(-4, 4)
        det = fraction_det(G)
        if det == 0:
            with pytest.raises(LatticeError, match="^bilinear form must be non-degenerate$"):
                Lattice(G)
            singular_checked += 1
            continue
        L = Lattice(G)
        assert L.signature() == descartes_signature(G), G
        assert L.determinant() == det, G
        checked += 1
        hollow_checked += hollow
    assert hollow_checked >= 80
    assert singular_checked >= 5


def test_one_elimination_per_lattice(monkeypatch):
    # determinant, signature and the predicates on them read what the
    # constructor's single symmetric elimination found
    calls = []
    kernel = linalg.symmetric_bareiss

    def counted(G):
        calls.append(G)
        return kernel(G)

    gram = linalg.block_diag(linalg.block_diag(U.gram, E8.gram), ((2, 1), (1, -4)))
    monkeypatch.setattr(linalg, "symmetric_bareiss", counted)
    L = Lattice(gram)
    assert calls == [L.gram]
    for _ in range(3):
        assert L.determinant() == 9
        assert L.signature() == (2, 10)
        assert not L.is_hyperbolic()
        assert not L.is_unimodular()
    assert calls == [L.gram]
    # direct sums and rescalings carry both over, and match a fresh elimination
    derived = [L.direct_sum(U), U.direct_sum(L), L.rescaled(3), L.rescaled(-2), U.rescaled(-5).direct_sum(E8)]
    assert calls == [L.gram]
    monkeypatch.setattr(linalg, "symmetric_bareiss", kernel)
    for M in derived:
        fresh = Lattice(M.gram)
        assert (M.determinant(), M.signature()) == (fresh.determinant(), fresh.signature())
        assert M == fresh and hash(M) == hash(fresh)
    with pytest.raises(LatticeError):
        U.rescaled(0)


def test_signature_of_the_glued_s4_lattice(s4_certificate):
    glued = s4_certificate.lattice
    assert glued.signature() == (3, 19)
    assert descartes_signature(glued.gram) == (3, 19)


def test_gauss_jordan_matches_fraction_row_reduce():
    # seeded rectangular integer matrices: dependent rows, zero rows, zero
    # columns and rank 0 among them
    rng = random.Random(29)
    shapes = dict.fromkeys(("dependent", "zero row", "zero column", "rank 0", "plain"), 0)
    for trial in range(1200):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        shape = ("dependent", "zero row", "zero column", "plain")[trial % 4] if trial % 25 else "rank 0"
        if shape == "dependent" and m > 1:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            A[rng.randrange(m)] = [a * x + b * y for x, y in zip(A[0], A[-1])]
        elif shape == "zero row":
            A[rng.randrange(m)] = [0] * n
        elif shape == "zero column":
            j = rng.randrange(n)
            for row in A:
                row[j] = 0
        elif shape == "rank 0":
            A = [[0] * n for _ in range(m)]
        shapes[shape] += 1
        R, d, pivots = linalg.gauss_jordan(A)
        R0, pivots0 = rat_row_reduce(A)
        assert d > 0 and pivots == pivots0
        assert tuple(tuple(Fraction(x, d) for x in row) for row in R) == R0
        # kernel rows: the oracle kernel rows, denominators cleared and made primitive
        K = linalg.primitive_kernel(A, n)
        K0 = rat_kernel(A)
        assert len(K) == len(K0) == n - len(pivots)
        for v, w in zip(K, K0):
            den = lcm(*(x.denominator for x in w))
            ints = [int(x * den) for x in w]
            g = gcd(*ints)
            assert v == tuple(x // g for x in ints)
            assert linalg.mat_vec(A, v) == (0,) * m
    assert min(shapes.values()) >= 40


def test_inverse_pair_matches_fraction_inverse():
    rng = random.Random(30)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            A[-1] = [x - 2 * y for x, y in zip(A[0], A[1])]
        expected = fraction_inverse(A)
        if expected is None:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                linalg.inverse_pair(A)
            continue
        N, d = linalg.inverse_pair(A)
        assert d > 0 and gcd(d, *(x for row in N for x in row)) == 1
        assert tuple(tuple(Fraction(x, d) for x in row) for row in N) == expected
        assert linalg.rat_inverse(A) == expected
    assert singular >= 40


def _gauss_jordan_pair(A):
    """The right half of ``gauss_jordan([A | I])`` in lowest terms: the
    route ``inverse_pair`` takes for a matrix that is not upper triangular."""
    n = len(A)
    R, d, pivots = linalg.gauss_jordan([tuple(row) + e for row, e in zip(A, linalg.identity(n))])
    assert pivots == tuple(range(n))
    g = gcd(d, *(x for row in R for x in row[n:]))
    return tuple(tuple(x // g for x in row[n:]) for row in R), d // g


def _s4_glue_inputs(cert):
    """The S4 certificate's twisted blocks S2 and R2 and the glue map between
    them, rebuilt from its glue evidence."""
    from salemk3.isometries import Isometry, TwistElement, twist
    from salemk3.realize import seed_for

    seed = seed_for(cert.salem)
    p, l, t = (cert.glue_evidence[k] for k in ("p", "l", "t"))
    t = TwistElement([int(c) for c in t])
    S2, _ = twist(seed.S, Isometry(seed.S, seed.f_S), TwistElement(t.poly * t.poly))
    R2 = lattice_U().rescaled(p ** (2 * l)).direct_sum(seed.R_rest)
    return S2, R2, build_glue_map(discriminant_form(S2), discriminant_form(R2))


def _s4_overlattice_basis(cert):
    """The basis (den, H) that ``glue`` returns for the S4 certificate."""
    L22, basis = glue(*_s4_glue_inputs(cert))
    assert L22 == cert.lattice
    return basis


def test_lifts_and_glued_bases_match_the_fraction_route(s4_certificate):
    from salemk3.realize import seed_for

    rng = random.Random(33)
    forms = [(L, discriminant_form(L)) for L in (Lattice(()), E8, U.rescaled(6), lattice_E6())]
    while len(forms) < 60:
        n = rng.randint(1, 5)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-4, 4)
                G[i][j] = G[j][i] = 2 * v if i == j else v
        try:
            L = Lattice(G)
        except LatticeError:
            continue
        q = discriminant_form(L)
        parts = [q.p_primary_part(p) for p in q.primes()]
        assert all(part.lifts[0] == q.lifts[0] for part in parts)
        assert q.negated().lifts == q.lifts
        forms += [(L, q)] + [(L, part) for part in parts]
    assert forms[0][1].lifts == forms[1][1].lifts == (1, ())
    for L, q in forms:
        den, rows = q.lifts
        assert type(den) is int and len(rows) == q.ngens
        assert all(len(row) == L.rank and all(type(x) is int for x in row) for row in rows)
        for i, (li, d) in enumerate(zip(rows, q.orders)):
            Gli = linalg.mat_vec(L.gram, li)
            # l_i / den is in the dual lattice, and d_i l_i / den in L
            assert all(x % den == 0 for x in Gli) and all(d * x % den == 0 for x in li)
            assert (Fraction(linalg.dot(li, Gli), den * den) - Fraction(q.q_nums[i], q.exponent)) % 2 == 0
            for j, lj in enumerate(rows):
                assert (Fraction(linalg.dot(lj, Gli), den * den) - Fraction(q.b_nums[i][j], q.exponent)) % 1 == 0

    seed = seed_for(s4_certificate.salem)
    pairs = [(Lattice([[-2]]), Lattice([[2]])), (E8, U), (seed.S, Lattice([[2, -1], [-1, 2]]))]
    pairs = [(M, N, build_glue_map(discriminant_form(M), discriminant_form(N))) for M, N in pairs]
    for M, N, phi in pairs + [_s4_glue_inputs(s4_certificate)]:
        _, (den, H) = glue(M, N, phi)
        assert (den, H) == fraction_glue_basis(M, N, phi)
        assert all(type(x) is int for row in H for x in row)


def _agrees_with_its_lifts(gram, form, pairs):
    """q_of and b_of on each pair (x, y) of elements are the oracle's values
    as numerators over the exponent, reduced into [0, 2N) and [0, N)."""
    N = form.exponent
    for x, y in pairs:
        q, b = fraction_form_values(gram, form, x, y)
        Q, B = form.q_of(x), form.b_of(x, y)
        assert 0 <= Q < 2 * N and 0 <= B < N
        assert (q - Fraction(Q, N)) % 2 == 0 and (b - Fraction(B, N)) % 1 == 0
    return len(pairs)


def _random_element(rng, form):
    return tuple(rng.randrange(d) for d in form.orders)


def test_integer_forms_match_the_fraction_values_of_their_lifts(s4_certificate):
    rng = random.Random(34)
    lattices = [E8, U.rescaled(6), lattice_E6(), Lattice([[22, 33], [33, 22]])]
    while len(lattices) < 40:
        n = rng.randint(1, 4)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-4, 4)
                G[i][j] = G[j][i] = 2 * v if i == j else v
        try:
            lattices.append(Lattice(G))
        except LatticeError:
            continue
    S2, R2, _ = _s4_glue_inputs(s4_certificate)
    checked = {"every element": 0, "sampled": 0}
    odd_parts = defaultdict(list)
    for L in lattices + [S2, R2]:
        q = discriminant_form(L)
        # the subgroup m D_L, on the nonzero multiples of the generators
        m = rng.randint(2, 6)
        sub = q.subform([
            (tuple(m * c for c in e), d // gcd(m, d))
            for e, d in zip(linalg.identity(q.ngens), q.orders)
            if d // gcd(m, d) > 1
        ])
        parts = [q.p_primary_part(p) for p in q.primes()]
        forms = [(L.gram, q), (linalg.mat_scale(-1, L.gram), q.negated()), (L.gram, sub)]
        for gram, form in forms + [(L.gram, part) for part in parts]:
            gens = list(linalg.identity(form.ngens))
            if form.order() <= 300:
                elements = [(x, y) for x, _ in form.all_elements() for y in gens + [_random_element(rng, form)]]
                checked["every element"] += _agrees_with_its_lifts(gram, form, elements)
            else:
                elements = [(_random_element(rng, form), _random_element(rng, form)) for _ in range(100)]
                checked["sampled"] += _agrees_with_its_lifts(gram, form, elements)
            # the public constructor, given the oracle's values, makes the same numerators
            values = [[fraction_form_values(gram, form, x, y) for y in gens] for x in gens]
            rebuilt = FiniteQuadraticForm(
                form.orders, [row[i][0] for i, row in enumerate(values)], [[b for _, b in row] for row in values]
            )
            assert (rebuilt.exponent, rebuilt.q_nums, rebuilt.b_nums) == (form.exponent, form.q_nums, form.b_nums)
        for p, part in zip(q.primes(), parts):
            if p != 2 and part.order() <= 1000:
                odd_parts[(p, part.orders)].append(part)
    assert checked["every element"] > 20000 and checked["sampled"] > 3000

    # diagonal odd parts from values, both determinant classes of each scale
    for p, orders in ((3, (3, 3)), (5, (5, 5)), (7, (7,)), (3, (3, 9))):
        for _ in range(4):
            qs = [Fraction(2 * rng.randrange(1, p), d) for d in orders]
            bs = [[qs[i] % 1 if i == j else 0 for j in range(len(qs))] for i in range(len(qs))]
            odd_parts[(p, orders)].append(FiniteQuadraticForm(orders, qs, bs))
    decided = isomorphic = 0
    for parts in odd_parts.values():
        for a in parts[:4]:
            for b in parts[:4]:
                iso = forms_isomorphic(a, b)
                assert iso == (find_form_isometry(a, b) is not None)
                assert forms_isomorphic(a, b, anti=True) == (find_anti_isometry(a, b) is not None)
                decided += 1
                isomorphic += iso
    assert decided > 100 and 0 < isomorphic < decided


def test_triangular_inverse_matches_gauss_jordan_and_fractions(s4_certificate, monkeypatch):
    # an upper triangular A with a nonzero diagonal is back-substituted, with
    # no elimination, and gives the pair of the Gauss-Jordan route, called
    # directly and on the transpose (lower triangular, so eliminated)
    rng = random.Random(31)
    cases = {"hermite": [], "sparse": [], "negative": []}
    while len(cases["hermite"]) < 150:
        n = rng.randint(2, 7)
        H = linalg.hnf([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n + rng.randint(0, 3))])
        if len(H) == n:
            cases["hermite"].append(H)
    for _ in range(100):
        # sparse, with a mostly constant diagonal, as the S4 overlattice basis
        n, c = rng.randint(3, 12), rng.choice((3, 9, 867, 1889568))
        H = [[0] * n for _ in range(n)]
        for i in range(n):
            H[i][i] = c if rng.random() < 0.8 else rng.randint(1, c)
        for _ in range(rng.randint(1, n)):
            i, j = sorted(rng.sample(range(n), 2))
            H[i][j] = rng.randint(-c, c)
        cases["sparse"].append(H)
    for _ in range(150):
        n = rng.randint(2, 6)
        H = [[rng.randint(-6, 6) if j > i else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            H[i][i] = rng.choice((-1, 1)) * rng.randint(1, 8)
        cases["negative"].append(H)
    cases["1x1"] = [[[k]] for k in range(-12, 13) if k]
    # the 22 x 22 Hermite basis of the glued S4 lattice: diagonal (1, 3, 867, ...)
    den, H = _s4_overlattice_basis(s4_certificate)
    assert den == 867 and [H[i][i] for i in range(3)] == [1, 3, 867]
    assert sum(x != 0 for row in H for x in row) == 35
    cases["S4 basis"] = [H]

    inputs = [(shape, tuple(map(tuple, H))) for shape, Hs in cases.items() for H in Hs]
    eliminations = []
    gauss_jordan = linalg.gauss_jordan
    monkeypatch.setattr(linalg, "gauss_jordan", lambda A: eliminations.append(A) or gauss_jordan(A))
    pairs = [linalg.inverse_pair(H) for _, H in inputs]
    monkeypatch.undo()
    assert not eliminations
    for (shape, H), (N, d) in zip(inputs, pairs):
        assert (N, d) == _gauss_jordan_pair(H), (shape, H)
        Nt, dt = linalg.inverse_pair(linalg.transpose(H))
        assert (linalg.transpose(Nt), dt) == (N, d), (shape, H)
        assert tuple(tuple(Fraction(x, d) for x in row) for row in N) == fraction_inverse(H), (shape, H)
    # a pivot that does not divide its row rescales the rows already solved
    assert linalg.inverse_pair(((2, 1), (0, 3))) == (((3, -1), (0, 2)), 6)
    assert linalg.inverse_pair(((-4, 2), (0, 6))) == (((-3, 1), (0, 2)), 12)
    # a zero on the diagonal leaves the triangular route and is singular
    for H in (((0,),), ((2, 1, 0), (0, 0, 5), (0, 0, 3)), ((1, 2), (0, 0))):
        with pytest.raises(ZeroDivisionError, match="^matrix is singular$"):
            linalg.inverse_pair(H)


def test_rat_inverse_against_fraction_det():
    rng = random.Random(31)
    singular = 0
    for n in (1, 2, 3, 4, 6, 8):
        for _ in range(8):
            A = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
                      for _ in range(n))
            if fraction_det(A) == 0:
                with pytest.raises(ZeroDivisionError):
                    linalg.rat_inverse(A)
                continue
            assert linalg.mat_mul(A, linalg.rat_inverse(A)) == linalg.identity(n)
            if n == 1:
                continue
            # singular with no zero row: the last row a combination of the others
            coeffs = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n - 1)]
            S = A[:-1] + (tuple(sum(c * row[j] for c, row in zip(coeffs, A)) for j in range(n)),)
            if all(any(row) for row in S):
                assert fraction_det(S) == 0
                with pytest.raises(ZeroDivisionError):
                    linalg.rat_inverse(S)
                singular += 1
    assert singular >= 30
    with pytest.raises(ZeroDivisionError):
        linalg.rat_inverse(((1, 2), (2, 4)))
