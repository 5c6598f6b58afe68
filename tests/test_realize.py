import dataclasses
import json
import random
import re
from collections import defaultdict
from fractions import Fraction

import pytest

from salemk3 import linalg, realize
from salemk3.isometries import Isometry, TwistElement, twist
from salemk3.lattices import (
    FiniteQuadraticForm,
    GlueMap,
    Lattice,
    LatticeError,
    discriminant_form,
    find_anti_isometry,
    find_form_isometry,
    forms_isomorphic,
    glue,
    glue_map_problems,
    hyperbolic_p_form,
    lattice_E6,
    lattice_E8,
    lattice_U,
    _lift_square,
    _sqrt_mod_prime_power,
)
from salemk3.linalg import box_shell
from salemk3.polynomials import (
    IntPolynomial,
    companion_matrix,
    discriminant,
    poly_gcd_mod,
    polyval_mod,
    power_min_poly,
    trace_polynomial,
)
from salemk3.realize import (
    RealizationCertificate,
    RealizeError,
    SearchCapExceeded,
    SplitPrimeEvidence,
    build_k3_certificate,
    build_glue_map,
    certificate_from_json,
    certificate_to_json,
    check_split_prime,
    find_norm_element,
    find_split_prime,
    mod2_trivial,
    pipeline_split_prime,
    rational_isometry_criterion,
    seed_for,
    stable_realizable,
    surface_class,
    validate_seed,
    verify_certificate,
)

from oracles import (
    discriminant_order_by_iteration,
    first_split_prime,
    lift_square_stepwise,
    outside_other_primes_by_cofactor,
    smith_diagonal,
)
from edits import integer_leaves, leaf_field, one_field_edits, within
from salem_corpus import LEHMER, all_entries

P = IntPolynomial
S4 = P([1, -1, -1, -1, 1])
QUAD = P([1, -3, 1])
LEHMER_P = P(LEHMER)


# --- decisions -------------------------------------------------------------


def test_stable_realizable_headline_cases():
    assert stable_realizable(LEHMER_P, "enriques").answer is True
    assert stable_realizable(LEHMER_P, "enriques").clause == 2
    assert stable_realizable(LEHMER_P, "k3", projective=True).answer is True
    assert stable_realizable(S4, "torus", projective=True).answer is True
    # degree-6 Salem with non-square class on the torus: d = b2 fails clause 2
    d6 = P([1, -2, 0, 1, 0, -2, 1])
    decision = stable_realizable(d6, "torus")
    assert decision.answer is False and decision.clause == 2


def test_stable_realizable_degree_bounds():
    d22_nonsquare = P([1, -2] + [0] * 19 + [-2, 1])
    assert stable_realizable(d22_nonsquare, "k3").answer is False
    d22_square = P([1, -2, -1] + [0] * 17 + [-1, -2, 1])
    assert stable_realizable(d22_square, "k3").answer is True
    # projective K3 caps at h11 = 20
    assert stable_realizable(d22_square, "k3", projective=True).answer is False
    assert stable_realizable(LEHMER_P, "torus").answer is False  # 10 > 6


def test_stable_realizable_monotone_in_class():
    for degree, coeffs, _ in all_entries():
        s = P(list(coeffs))
        if degree < 10 and stable_realizable(s, "enriques").answer:
            assert stable_realizable(s, "k3").answer


def test_rational_isometry_criterion():
    r = rational_isometry_criterion(S4, "3U")
    assert r.exists and r.clause == 1 and r.hyperbolic_kernel_available
    d20 = P([1, -2] + [0] * 17 + [-2, 1])
    assert rational_isometry_criterion(d20, "U+E8").exists is False
    d22_square = P([1, -2, -1] + [0] * 17 + [-1, -2, 1])
    r = rational_isometry_criterion(d22_square, "3U+2E8")
    assert r.exists and r.clause == 2
    d22_nonsquare = P([1, -2] + [0] * 19 + [-2, 1])
    assert rational_isometry_criterion(d22_nonsquare, "3U+2E8").exists is False


def test_mod2_trivial():
    assert mod2_trivial(linalg.identity(4))
    C = companion_matrix(QUAD)
    assert not mod2_trivial(C)
    # odd-order reductions power up to the identity
    M = ((1, 2), (2, 1))  # congruent to identity mod 2
    assert mod2_trivial(M)


# --- split primes and norm elements -----------------------------------------


def test_find_split_prime_spec_example():
    ev = find_split_prime(QUAD, 1, lower_bound=5)
    assert ev.p == 41
    assert check_split_prime(QUAD, ev)


def test_find_split_prime_mod_24():
    cases = [(QUAD, 3, 5)] + [
        (P(list(coeffs)), det_R, lower)
        for degree, coeffs, _ in all_entries()
        if degree <= 12
        for det_R in (1, 3)
        for lower in (2, 100)
    ]
    for s, det_R, lower in cases:
        ev = find_split_prime(s, det_R, lower_bound=lower)
        assert ev.modulus == 8 * det_R and ev.p % ev.modulus == 1
        assert (ev.p, ev.trace_root) == first_split_prime(s.coeffs, 8 * det_R, lower)
        assert check_split_prime(s, ev)


def test_find_split_prime_takes_no_discriminant_of_degree_d(monkeypatch):
    # a work count: the primes of 2 disc(s) are skipped through 2 r(2) r(-2)
    # and disc(r), so the only discriminant taken is that of r, of degree d/2
    degrees = []

    def recording(p):
        degrees.append(p.degree)
        return discriminant(p)

    monkeypatch.setattr(realize, "discriminant", recording)
    for degree, coeffs, _ in all_entries():
        degrees.clear()
        find_split_prime(P(list(coeffs)), 1, lower_bound=2)
        assert degrees == [degree // 2], coeffs


def test_find_split_prime_quadratic_trace_field():
    ev = find_split_prime(S4, 1, lower_bound=2)
    assert check_split_prime(S4, ev)
    # the trace polynomial has a simple root mod p
    r = P([-3, -1, 1])
    assert (ev.trace_root**2 - ev.trace_root - 3) % ev.p == 0


def test_find_norm_element_rational_field():
    ev = find_split_prime(QUAD, 1, lower_bound=5)
    t, l = find_norm_element(QUAD, ev)
    assert t.poly.coeffs == (41,) and l == 1


def test_find_norm_element_quadratic_field():
    ev = find_split_prime(S4, 1, lower_bound=2)
    t, l = find_norm_element(S4, ev)
    r = P([-3, -1, 1])
    assert abs(t.norm_against(r)) == ev.p**l
    value = t.poly(ev.trace_root)
    assert value % ev.p == 0


# (p, trace_root, unit_circle_sqrt, t coefficients, l) for every corpus
# polynomial of degree <= 12, in corpus order, as the searches returned them
# before the norm-element scan tested t(a) = 0 mod p ahead of the norm
SPLIT_AND_NORM_PINS = [
    (17, 5, 2, (-2, -3), 1),
    (73, 13, 47, (-3, 2, -1), 1),
    (73, 69, 42, (-4, -1), 1),
    (89, 39, 2, (-1, -3, -2, 1), 1),
    (89, 68, 80, (-1, -1, 1, 0, -1), 1),
    (41, 13, 1, (-1, 0, 0, -1, 1), 1),
    (89, 20, 60, (-1, -2, 1, 2, -1, -1), 1),
]


def test_split_prime_and_norm_element_pinned_on_the_corpus():
    found = []
    for degree, coeffs, _ in all_entries():
        if degree <= 12:
            s = P(list(coeffs))
            ev = find_split_prime(s, 1, lower_bound=2)
            t, l = find_norm_element(s, ev)
            found.append((ev.p, ev.trace_root, ev.unit_circle_sqrt, t.poly.coeffs, l))
    assert found == SPLIT_AND_NORM_PINS


# (p, trace_root, unit_circle_sqrt) of pipeline_split_prime(s, 2 disc s) for
# every corpus polynomial of degree <= 12, in corpus order, as recorded when
# the order of the Salem root mod p^2 came from a scalar unit-order helper
PIPELINE_SPLIT_PINS = [
    (17, 5, 2),
    (31, 28, 25),
    (23, 4, 9),
    (11, 3, 4),
    (23, 13, 2),
    (53, 26, 47),
    (19, 7, 11),
]


def test_pipeline_split_prime_pinned_on_the_corpus():
    found = []
    for degree, coeffs, _ in all_entries():
        if degree <= 12:
            s = P(list(coeffs))
            ev = pipeline_split_prime(s, exclude=2 * discriminant(s))
            assert check_split_prime(s, ev) and ev.modulus == 1
            found.append((ev.p, ev.trace_root, ev.unit_circle_sqrt))
    assert found == PIPELINE_SPLIT_PINS


def test_find_split_prime_above_discriminant():
    # the paper's congruence conditions: p = 1 mod 8 |det R|, p > |disc s|
    ev = find_split_prime(S4, 3, lower_bound=507)
    assert ev.p % 24 == 1 and ev.p > 507
    assert check_split_prime(S4, ev)


def test_find_norm_element_cubic_trace_field():
    from salemk3.polynomials import resultant, trace_polynomial

    d6 = P([1, -2, 0, 1, 0, -2, 1])
    ev = find_split_prime(d6, 1, lower_bound=2)
    assert check_split_prime(d6, ev)
    t, l = find_norm_element(d6, ev, box=8)
    r = trace_polynomial(d6)
    assert abs(resultant(t.poly, r)) == ev.p**l
    assert t.poly(ev.trace_root) % ev.p == 0


def test_find_norm_element_box_exhaustion():
    ev = find_split_prime(S4, 1, lower_bound=2)
    with pytest.raises(SearchCapExceeded, match=r"p = 17, l <= 1 up to radius 1$"):
        find_norm_element(S4, ev, l_max=1, box=1)


# s = x^4 - 16x^3 - 13x^2 - 16x + 1 has the trace polynomial y^2 - 16y - 15,
# and Z[w] = Z[sqrt 79] has class number 3: a prime P above p is not
# principal, nor is P^2, so in a small box the only elements of norm p^2
# are p times units, which lie in both primes above p; P^3 is principal
CLASS_NUMBER_3 = P([1, -16, -13, -16, 1])


@pytest.mark.parametrize(
    "ev, box, p_cubed",
    [
        (SplitPrimeEvidence(5, 0, 1, 1), 5, ((-5, -2), 3)),
        (SplitPrimeEvidence(13, 9, 5, 1), 13, ((-119, 6), 3)),
    ],
    ids=["p=5", "p=13"],
)
def test_find_norm_element_skips_elements_in_the_other_prime(ev, box, p_cubed, monkeypatch):
    assert trace_polynomial(CLASS_NUMBER_3).coeffs == (-15, -16, 1)
    assert check_split_prime(CLASS_NUMBER_3, ev)
    with pytest.raises(SearchCapExceeded, match=f"p = {ev.p}, l <= 2 up to radius {box}$"):
        find_norm_element(CLASS_NUMBER_3, ev, l_max=2, box=box)
    t, l = find_norm_element(CLASS_NUMBER_3, ev, l_max=3, box=abs(p_cubed[0][0]))
    assert (t.poly.coeffs, l) == p_cubed
    # without the other-primes test the search takes t = -p, of norm p^2
    monkeypatch.setattr(realize, "poly_gcd_mod", lambda *args: (0, 1))
    t, l = find_norm_element(CLASS_NUMBER_3, ev, l_max=2, box=box)
    assert (t.poly.coeffs, l) == ((-ev.p,), 2)


@pytest.mark.parametrize(
    "ev",
    [
        SplitPrimeEvidence(17, 6, 2, 8),  # r = y^2 - y - 3 has the roots 5 and 13 mod 17
        SplitPrimeEvidence(13, 7, 6, 1),  # r = (y - 7)^2 mod 13, since disc r = 13
    ],
    ids=["not-a-root", "double-root"],
)
def test_find_norm_element_rejects_evidence_without_a_simple_root(ev):
    with pytest.raises(RealizeError, match=f"^trace_root {ev.trace_root} is not a simple root"):
        find_norm_element(S4, ev)


def test_other_primes_criterion_matches_the_cofactor_oracle():
    # t(a) = 0 mod p, a simple: t lies in no other prime above p exactly
    # when gcd(t, r) mod p has degree 1. Almost every small t is outside the
    # other primes, so (y - a)(y - b), which lies in the prime above each
    # other root b of r, is checked too.
    outcomes = set()
    for degree, coeffs, _ in all_entries():
        if degree <= 12:
            r = trace_polynomial(P(list(coeffs))).coeffs
            ev = find_split_prime(P(list(coeffs)), 1, lower_bound=2)
            p, a = ev.p, ev.trace_root
            small = [t for radius in range(3) for t in box_shell(len(r) - 1, radius)]
            others = [b for b in range(p) if b != a and polyval_mod(r, b, p) == 0]
            products = [(a * b % p, (-a - b) % p, 1) for b in others]
            for t in small + products:
                if polyval_mod(t, a, p) == 0:
                    expected = outside_other_primes_by_cofactor(t, r, a, p)
                    assert (len(poly_gcd_mod(t, r, p)) == 2) == expected, (coeffs, t)
                    outcomes.add(expected)
    assert outcomes == {False, True}


# --- certificates -----------------------------------------------------------


@pytest.fixture(scope="module")
def k3_certificate():
    return build_k3_certificate(S4)


def test_build_k3_certificate(k3_certificate):
    cert = k3_certificate
    assert cert.surface == "k3" and cert.projective
    assert cert.lattice.rank == 22
    assert cert.lattice.signature() == (3, 19)
    assert cert.lattice.is_even() and cert.lattice.is_unimodular()
    assert cert.salem_power_poly.coeffs == power_min_poly(S4, cert.power).coeffs
    ok, items = verify_certificate(cert)
    assert ok, items


def test_certificate_glue_identities(k3_certificate):
    cert = k3_certificate
    ev = cert.glue_evidence
    p, l = ev["p"], ev["l"]
    det_kernel = int(ev["det_kernel"])
    assert abs(det_kernel) == 3 * p ** (4 * l)
    assert abs(int(ev["det_complement"])) == abs(det_kernel)
    kernel = Lattice(
        linalg.mat_mul(
            linalg.mat_mul(cert.kernel_basis, cert.lattice.gram),
            linalg.transpose(cert.kernel_basis),
        )
    )
    q_k = discriminant_form(kernel)
    comp_rows = linalg.saturation(
        linalg.primitive_kernel(linalg.mat_mul(cert.kernel_basis, cert.lattice.gram), cert.lattice.rank)
    )
    comp = cert.lattice.sublattice(comp_rows)
    assert forms_isomorphic(q_k, discriminant_form(comp), anti=True)


def test_certificate_powering_invariant(k3_certificate):
    cert = k3_certificate
    cert2 = dataclasses.replace(
        cert,
        power=2 * cert.power,
        salem_power_poly=power_min_poly(cert.salem, 2 * cert.power),
        isometry=linalg.mat_pow(cert.isometry, 2),
    )
    ok, items = verify_certificate(cert2)
    assert ok, items


def test_certificate_json_roundtrip(k3_certificate):
    doc = certificate_to_json(k3_certificate)
    text = json.dumps(doc, sort_keys=True)
    back = certificate_from_json(json.loads(text))
    assert back.power == k3_certificate.power
    assert back.lattice.gram == k3_certificate.lattice.gram
    ok, _ = verify_certificate(back)
    assert ok


def test_certificate_strict_parsing(k3_certificate):
    doc = certificate_to_json(k3_certificate)
    doc["surprise"] = 1
    with pytest.raises(ValueError):
        certificate_from_json(doc)
    doc.pop("surprise")
    doc.pop("power")
    with pytest.raises(ValueError):
        certificate_from_json(doc)


def test_tampered_certificate_fails(k3_certificate):
    doc = certificate_to_json(k3_certificate)
    # symmetric tamper keeps the lattice parseable but breaks the isometry
    g = [row[:] for row in doc["lattice"]["gram"]]
    g[0][1] = str(int(g[0][1]) + 2)
    g[1][0] = str(int(g[1][0]) + 2)
    doc["lattice"]["gram"] = g
    cert = certificate_from_json(doc)
    ok, items = verify_certificate(cert)
    assert not ok
    failed = {name for name, passed, _ in items if not passed}
    assert "isometry" in failed


@pytest.mark.parametrize(
    "change",
    [
        {"method": "exhaustive_search"},
        {"candidate_count": 206},
        {"witnesses": (((1, -1, 0, 0), "geodesic"),)},
    ],
    ids=["method", "candidate_count", "witness"],
)
def test_positivity_item_compares_the_whole_report(k3_certificate, change):
    # the status stays "positive": only the rest of the report is wrong
    claimed = dataclasses.replace(k3_certificate.positivity, **change)
    ok, items = verify_certificate(dataclasses.replace(k3_certificate, positivity=claimed))
    assert not ok
    assert [name for name, passed, _ in items if not passed] == ["positivity"]


@pytest.mark.parametrize("claim", [True, False])
def test_k3_certificate_with_mod2_claim_fails_surface(k3_certificate, claim):
    # mod2_identity means something for torus and Enriques only; on K3 it must be null
    doc = certificate_to_json(k3_certificate)
    doc["mod2_identity"] = claim
    ok, items = verify_certificate(certificate_from_json(doc))
    assert not ok
    failed = {name: detail for name, passed, detail in items if not passed}
    assert list(failed) == ["surface"]
    assert "mod2_identity" in failed["surface"]


def _failed(items):
    return [name for name, passed, _ in items if not passed]


def _within_one_second(call):
    """call(), failing the test if it has not returned after 1 s."""
    return within(1.0, call)


def test_verify_derives_each_object_once(k3_certificate, monkeypatch):
    # the kernel lattice is the one elimination and the primitivity test (a
    # saturation) the one Hermite form; the complement rows are a Q-basis
    # from one fraction-free elimination, with no Hermite form
    calls = defaultdict(int)
    for name in ("symmetric_bareiss", "hnf"):
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(linalg, name, counted)
    ok, _ = verify_certificate(k3_certificate)
    assert ok
    assert dict(calls) == {"symmetric_bareiss": 1, "hnf": 1}


def test_wrong_power_polynomial_fails_the_salem_item_only(k3_certificate):
    wrong = power_min_poly(S4, 2 * k3_certificate.power)
    ok, items = verify_certificate(dataclasses.replace(k3_certificate, salem_power_poly=wrong))
    assert not ok
    assert _failed(items) == ["salem"]


def test_non_primitive_kernel_basis_fails_the_kernel_item_only(k3_certificate):
    # the saturation of the doubled rows used to go through integer kernels
    # whose entries grew past any bound
    doubled = dataclasses.replace(
        k3_certificate, kernel_basis=linalg.mat_scale(2, k3_certificate.kernel_basis)
    )
    ok, items = _within_one_second(lambda: verify_certificate(doubled))
    assert not ok
    assert _failed(items) == ["kernel"]


def test_negative_power_is_refused_at_once(k3_certificate):
    # the binary powering used to shift -1 right forever
    negative = dataclasses.replace(k3_certificate, power=-1)
    ok, items = _within_one_second(lambda: verify_certificate(negative))
    assert not ok
    assert {"salem", "char_poly"} <= set(_failed(items))
    with pytest.raises(ValueError, match="n >= 0"):
        linalg.mat_pow(((1,),), -1)


@pytest.mark.parametrize("power", [10**6, 10**30], ids=["1e6", "1e30"])
def test_huge_power_fails_the_salem_and_char_poly_items_at_once(k3_certificate, power):
    # power_min_poly and mat_pow do work that grows with the power; a power
    # that the claimed s_k and the restricted isometry are too small for is
    # refused before either runs (power 10^6 used to run for minutes)
    doc = certificate_to_json(k3_certificate)
    doc["power"] = power
    ok, items = _within_one_second(lambda: verify_certificate(certificate_from_json(doc)))
    assert not ok
    assert _failed(items) == ["salem", "char_poly", "positivity"]


def test_huge_power_with_an_uncertified_polynomial_skips_the_power(k3_certificate):
    # g = 1 has char(g) = (x - 1)^4 = s, which is not Salem: with no lower
    # bound for lambda the char_poly item does not form g^power
    doc = certificate_to_json(k3_certificate)
    doc.update(
        salem_polynomial=["1", "-4", "6", "-4", "1"],
        kernel_generator=[list(map(str, row)) for row in linalg.identity(4)],
        power=10**30,
    )
    ok, items = _within_one_second(lambda: verify_certificate(certificate_from_json(doc)))
    assert not ok
    failed = {name: detail for name, passed, detail in items if not passed}
    assert failed["char_poly"] == "skipped g^power: the salem item failed"


def test_doubled_kernel_rows_have_a_small_saturated_kernel(k3_certificate):
    # read off the transform of a Hermite form, this kernel had entries of
    # 8,314 bits; the primitive kernel rows and their saturation stay small
    B = k3_certificate.kernel_basis
    K = _within_one_second(
        lambda: linalg.saturation(linalg.primitive_kernel(linalg.mat_scale(2, B), len(B[0])))
    )
    assert len(K) == 18
    assert max(abs(x) for row in K for x in row).bit_length() <= 16
    assert linalg.mat_mul(K, linalg.transpose(B)) == linalg.zeros(18, 4)
    # 18 rows in the rank-18 kernel with every invariant factor 1: a Z-basis of it
    assert smith_diagonal(K) == [1] * 18


def test_build_k3_certificate_has_no_stage_trace():
    # every stage's result is in the certificate; the builder takes no recorder
    with pytest.raises(TypeError):
        build_k3_certificate(S4, stage_trace=[])


# one-field edits of the S4 certificate document: each is run on a seeded
# sample of the integer leaves of every field path, and on both leaves of the
# allow-list below
LEAVES_PER_FIELD = 5

# the edited documents that verify, each with its reason
VERIFYING_EDITS = {
    "glue": "glue is evidence, not an input to verification (FORMATS.md)",
    "lattice.gram[6][6] +10^30": "the cofactor of the zero entry is 0 and h fixes e_6, "
    "so the form is still even unimodular of signature (3, 19) with h an isometry",
    "lattice.gram[7][7] +10^30": "the cofactor of the zero entry is 0 and h fixes e_7, "
    "so the form is still even unimodular of signature (3, 19) with h an isometry",
}


def test_one_field_edits_are_refused_by_name_or_fail_an_item(k3_certificate):
    doc = certificate_to_json(k3_certificate)
    extra = [("lattice", "gram", 6, 6), ("lattice", "gram", 7, 7)]
    verified, covered = set(), set()
    for case, keys, edited_doc in one_field_edits(doc, random.Random(2021), LEAVES_PER_FIELD, extra):

        def judge():
            try:
                cert = certificate_from_json(edited_doc)
            except ValueError as exc:
                assert str(exc).startswith("certificate."), (case, str(exc))
                return None
            return verify_certificate(cert)[0]

        covered.add(leaf_field(keys))
        if within(5.0, judge):
            assert keys[0] == "glue" or case in VERIFYING_EDITS, case
            verified.add("glue" if keys[0] == "glue" else case)
    assert verified == set(VERIFYING_EDITS)
    assert covered == {leaf_field(keys) for keys in integer_leaves(doc)}


def _tamper_entry(doc, field):
    """Replace the first "0" entry of a certificate matrix by "1/2"."""
    for row in doc[field]:
        for j, x in enumerate(row):
            if x == "0":
                row[j] = "1/2"
                return doc
    raise AssertionError(f"no zero entry in {field}")


def _set(doc, obj, key, value):
    doc[obj][key] = value
    return doc


def _set_gram(doc, value):
    assert doc["lattice"]["gram"][0][0] == "8"
    doc["lattice"]["gram"][0][0] = value
    return doc


def _set_isometry(doc, edit):
    doc["isometry"][0][0] = edit(doc["isometry"][0][0])
    return doc


@pytest.mark.parametrize(
    "field, tamper",
    [
        pytest.param("isometry", lambda doc: _tamper_entry(doc, "isometry"), id="isometry"),
        pytest.param("kernel_basis", lambda doc: _tamper_entry(doc, "kernel_basis"), id="kernel_basis"),
        pytest.param(
            "kernel_generator", lambda doc: _tamper_entry(doc, "kernel_generator"), id="kernel_generator"
        ),
        pytest.param("projective", lambda doc: dict(doc, projective="false"), id="projective"),
        pytest.param("power", lambda doc: dict(doc, power=doc["power"] + 0.9), id="power-float"),
        # power is a positive JSON integer (test_negative_power_is_refused_at_once builds one in code)
        pytest.param("power", lambda doc: dict(doc, power=-1), id="power-negative"),
        pytest.param("lattice.gram[0][0]", lambda doc: _set_gram(doc, 8.5), id="gram-float"),
        pytest.param("lattice.gram[0][0]", lambda doc: _set_gram(doc, "+8"), id="gram-plus"),
        pytest.param(
            "isometry[0][0]", lambda doc: _set_isometry(doc, lambda x: " " + x), id="isometry-space"
        ),
        pytest.param(
            "isometry[0][0]", lambda doc: _set_isometry(doc, lambda x: x + "/1"), id="isometry-over-1"
        ),
        pytest.param("lattice.rank", lambda doc: _set(doc, "lattice", "rank", 22.0), id="rank-float"),
        pytest.param(
            "positivity.search_bound",
            lambda doc: _set(doc, "positivity", "search_bound", "1e2"),
            id="search-bound-exponent",
        ),
        pytest.param(
            "positivity.method", lambda doc: _set(doc, "positivity", "method", "vibes"), id="method"
        ),
        pytest.param("mod2_identity", lambda doc: dict(doc, mod2_identity="yes"), id="mod2-string"),
        # shapes: isometry n x n, kernel_basis rows of n entries, kernel_generator d x d
        pytest.param(
            "isometry", lambda doc: dict(doc, isometry=doc["isometry"][1:]), id="isometry-rows"
        ),
        pytest.param(
            "isometry[21]",
            lambda doc: dict(doc, isometry=doc["isometry"][:-1] + [doc["isometry"][-1][1:]]),
            id="isometry-short-row",
        ),
        pytest.param(
            "kernel_basis[0]",
            lambda doc: dict(doc, kernel_basis=[row[1:] for row in doc["kernel_basis"]]),
            id="kernel-basis-short-rows",
        ),
        pytest.param(
            "kernel_generator",
            lambda doc: dict(doc, kernel_generator=doc["kernel_generator"] * 2),
            id="kernel-generator-rows",
        ),
        pytest.param(
            "kernel_generator[0]",
            lambda doc: dict(doc, kernel_generator=[r + ["0"] for r in doc["kernel_generator"]]),
            id="kernel-generator-long-rows",
        ),
    ],
)
def test_certificate_parsing_rejects_non_canonical(k3_certificate, tmp_path, capsys, field, tamper):
    from salemk3.cli import run

    doc = tamper(json.loads(json.dumps(certificate_to_json(k3_certificate))))
    with pytest.raises(ValueError, match=re.escape(f"certificate.{field}")):
        certificate_from_json(doc)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["--format", "json", "verify", str(path)]) == 2
    assert f"certificate.{field}" in json.loads(capsys.readouterr().out)["error"]


def test_no_seed_failure():
    with pytest.raises(RealizeError) as exc:
        build_k3_certificate(P([1, -2, 0, 1, 0, -2, 1]))
    assert "seed" in str(exc.value)


def test_descent_cap_names_the_order(monkeypatch):
    monkeypatch.setattr(realize, "DESCENT_ORDER_CAP", 271)
    with pytest.raises(RealizeError) as exc:
        build_k3_certificate(S4)
    assert str(exc.value) == "stage power: discriminant action order 272 exceeds the cap 271"


def test_seed_validation():
    seed = seed_for(S4)
    f = validate_seed(seed)
    assert f.char_poly().coeffs == S4.coeffs


def _seed(**changes):
    return dataclasses.replace(seed_for(S4), **changes)


def _inert_seed():
    # the S4 block twisted by w + 4, whose prime above 17 stays prime in the
    # field of s, against a complement with the same |det| 3 * 17^2: its
    # 17-part is hyperbolic, the block's is anisotropic
    seed = seed_for(S4)
    S, _ = twist(seed.S, Isometry(seed.S, seed.f_S), TwistElement([4, 1]))
    return _seed(S=S, R_rest=lattice_U().rescaled(17).direct_sum(lattice_E8()).direct_sum(lattice_E6()))


def _stub(name, value):
    return lambda monkeypatch: monkeypatch.setattr(realize, name, value)


@pytest.mark.parametrize(
    "s, seed, patch, message",
    [
        (QUAD, lambda: _seed(salem=QUAD), None,
         "seed-validation: quadratic Salem seeds are not supported for K3 witnesses"),
        (S4, lambda: _seed(S=seed_for(S4).S.rescaled(-1)), None,
         "seed-validation: seed Salem block must be even and hyperbolic"),
        (S4, lambda: _seed(R_rest=lattice_E8().direct_sum(lattice_E6())), None,
         "seed-validation: seed blocks must fill rank 22"),
        (S4, _inert_seed, None, "seed-validation: seed discriminant forms are not anti-isometric"),
        (LEHMER_P, lambda: seed_for(S4), None, "seed-validation: seed is for a different polynomial"),
        (S4, None, _stub("PIPELINE_PRIME_CAP", 2), "split-prime: no pipeline split prime up to 2"),
        # 1 is not a square root of 5^2 - 4 mod 17
        (S4, None, _stub("pipeline_split_prime", lambda s, exclude: SplitPrimeEvidence(17, 5, 1, 1)),
         "split-prime: evidence failed the independent re-check"),
        (S4, None, _stub("find_norm_element", lambda s, ev: find_norm_element(s, ev, box=1)),
         "norm-element: no norm element with |N(t)| = p^l, p = 17, l <= 3 up to radius 1"),
        # S4 gives no 2-part, so the glue stage meets one too large to match
        (S4, None, _stub("build_glue_map", lambda q1, q2: build_glue_map(*[hyperbolic_p_form(2, 8)] * 2)),
         "glue: 2-primary part of order 65536 exceeds the backtracking bound 40000"),
        # a discriminant 10^9 times larger leaves p = 17 and fails the bound
        (S4, None, _stub("discriminant", lambda p: 10**9 * discriminant(p)),
         "positivity: determinant bound unavailable"),
        (S4, None, _stub("verify_certificate", lambda cert: (False, (("positivity", False, ""),))),
         "self-verify: certificate failed ['positivity']"),
    ],
    ids=["quadratic", "not-hyperbolic", "rank", "not-anti-isometric", "other-polynomial", "split-prime-cap",
         "split-prime-recheck", "norm-element-cap", "glue", "bound", "self-verify"],
)
def test_certificate_builder_names_the_failing_stage(s, seed, patch, message, monkeypatch):
    if patch:
        patch(monkeypatch)
    with pytest.raises(RealizeError) as exc:
        build_k3_certificate(s, seed=seed() if seed else None)
    assert str(exc.value) == f"stage {message}"


def test_split_prime_searches_end_at_their_caps(monkeypatch):
    monkeypatch.setattr(realize, "SPLIT_PRIME_CAP", 16)
    with pytest.raises(SearchCapExceeded, match=r"^no split prime p = 1 mod 8 in \(2, 16\]$"):
        find_split_prime(S4, 1)
    # one split prime below the cap: the best of fewer than six hits
    monkeypatch.setattr(realize, "PIPELINE_PRIME_CAP", 20)
    assert pipeline_split_prime(S4, 6) == SplitPrimeEvidence(17, 5, 2, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rational_isometry_criterion(S4, "U"), "criterion applies to 3U, U+E8 and 3U+2E8 only"),
        (lambda: mod2_trivial(((Fraction(1, 2),),)), "mod-2 reduction needs an integral matrix"),
        (lambda: find_split_prime(S4, 0), "det_R must be nonzero"),
    ],
    ids=["criterion-lattice", "mod2-integral", "split-prime-det"],
)
def test_realize_refusals_name_the_failed_condition(call, message):
    with pytest.raises(RealizeError, match=f"^{re.escape(message)}$"):
        call()


def test_verify_names_an_unknown_surface_and_short_kernel_rows(k3_certificate):
    ok, items = verify_certificate(dataclasses.replace(k3_certificate, surface="plane"))
    assert not ok and items == (("surface", False, "unknown surface class 'plane'"),)
    rows = k3_certificate.kernel_basis
    ok, items = verify_certificate(dataclasses.replace(k3_certificate, kernel_basis=rows[:-1] + (rows[-1][:-1],)))
    assert not ok
    assert ("kernel", False, "kernel_basis rows must have length lattice.rank = 22") in items


# --- torus certificates (built from public pieces) ---------------------------


def _build_torus_certificate(mod2_power=True):
    seed = seed_for(S4)
    S, f_mat = seed.S, seed.f_S
    f = Isometry(S, f_mat)
    A2pos = Lattice([[2, -1], [-1, 2]])
    qS = discriminant_form(S)
    qA = discriminant_form(A2pos)
    phi = GlueMap(qS, qA, find_anti_isometry(qS, qA))
    L6, basis = glue(S, A2pos, phi)
    assert L6.signature() == (3, 3) and L6.is_unimodular() and L6.is_even()
    # power f until it is trivial on the discriminant group
    k1 = discriminant_order_by_iteration(S, f)
    block = [[0] * 6 for _ in range(6)]
    fk1 = linalg.mat_pow(f.matrix, k1)
    for i in range(4):
        for j in range(4):
            block[i][j] = fk1[i][j]
    block[4][4] = block[5][5] = 1
    Bt = linalg.transpose(basis)
    h = linalg.mat_mul(linalg.mat_mul(linalg.rat_inverse(Bt), block), Bt)
    assert linalg.is_integral(h)
    h = linalg.mat_to_int(h)
    total = k1
    if mod2_power:
        # push to the 2-congruence subgroup
        k2 = 1
        power = h
        while not mod2_trivial(power):
            power = linalg.mat_mul(power, h)
            k2 += 1
            assert k2 < 40000
        h = power
        total = k1 * k2
    embed = linalg.rat_inverse(basis)
    kernel_rows = tuple(tuple(int(x) for x in row) for row in embed[:4])
    return RealizationCertificate(
        surface="torus",
        projective=True,
        salem=S4,
        power=total,
        salem_power_poly=power_min_poly(S4, total),
        lattice=L6,
        isometry=tuple(tuple(row) for row in h),
        kernel_basis=kernel_rows,
        kernel_generator=f_mat,
        positivity=None,
        mod2_identity=mod2_trivial(h),
        glue_evidence=None,
    )


def test_torus_certificate_verifies():
    cert = _build_torus_certificate(mod2_power=True)
    ok, items = verify_certificate(cert)
    assert ok, items
    assert cert.mod2_identity is True


def test_torus_certificate_with_a_rational_isometry_fails_mod2():
    # the mod-2 reduction refuses a rational matrix, so the item fails where
    # the integral h, congruent to the identity mod 2, passes it
    cert = _build_torus_certificate(mod2_power=True)
    half = tuple(tuple(Fraction(x, 2) for x in row) for row in cert.isometry)
    ok, items = verify_certificate(dataclasses.replace(cert, isometry=half))
    assert not ok
    assert [(name, passed) for name, passed, _ in items] == [
        ("surface", True),
        ("salem", True),
        ("ambient_lattice", True),
        ("isometry", False),
        ("kernel", True),
        ("char_poly", False),
        ("mod2", False),
    ]


def test_torus_certificate_mod2_failure_flagged():
    cert = _build_torus_certificate(mod2_power=False)
    if mod2_trivial(cert.isometry):
        pytest.skip("power already lands in the 2-congruence subgroup")
    # claim mod-2 anyway: verification must itemize the failure
    doctored = RealizationCertificate(
        surface=cert.surface,
        projective=cert.projective,
        salem=cert.salem,
        power=cert.power,
        salem_power_poly=cert.salem_power_poly,
        lattice=cert.lattice,
        isometry=cert.isometry,
        kernel_basis=cert.kernel_basis,
        kernel_generator=cert.kernel_generator,
        positivity=None,
        mod2_identity=True,
        glue_evidence=None,
    )
    ok, items = verify_certificate(doctored)
    assert not ok
    failed = {name for name, passed, _ in items if not passed}
    assert "mod2" in failed


def test_build_glue_map_binary_branch():
    # target values force the two-generator representation step: with
    # beta_1 = <1/5, 1/5> and beta_2 = <2/5, 2/5>, the ratio -1/2 = 2 mod 5
    # is a non-residue, so no single generator can be scaled into place
    q1 = FiniteQuadraticForm(
        (5, 5),
        (Fraction(2, 5), Fraction(2, 5)),
        ((Fraction(2, 5), 0), (0, Fraction(2, 5))),
    )
    q2 = FiniteQuadraticForm(
        (5, 5),
        (Fraction(4, 5), Fraction(4, 5)),
        ((Fraction(4, 5), 0), (0, Fraction(4, 5))),
    )
    assert forms_isomorphic(q1, q2, anti=True)
    phi = build_glue_map(q1, q2)
    assert phi.source.orders == (5, 5)


def _random_even_lattice(rng):
    """A random even lattice: the direct sum of two blocks of rank 1 or 2,
    which gives mixed scales; None when a block is degenerate."""
    blocks = []
    for n in (rng.choice((1, 2)), rng.choice((1, 2))):
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-9, 9)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-9, 9)
        blocks.append(g)
    try:
        return Lattice(blocks[0]).direct_sum(Lattice(blocks[1]))
    except LatticeError:
        return None


def _random_odd_parts(rng, count):
    """Odd p-parts of order at most 2000 of the discriminant forms of random
    even lattices, grouped by (p, generator orders)."""
    classes = defaultdict(list)
    while sum(len(parts) for parts in classes.values()) < count:
        L = _random_even_lattice(rng)
        if L is None:
            continue
        q = discriminant_form(L)
        for p in q.primes():
            part = q.p_primary_part(p)
            if p != 2 and part.order() <= 2000:
                classes[(p, part.orders)].append(part)
    return classes


def test_square_lifts_match_the_stepwise_oracle():
    # c x^2 = rest mod p for odd p and p not dividing c x, lifted to p^e
    rng = random.Random(22)
    checked = 0
    while checked < 400:
        p = rng.choice((3, 5, 7, 11, 13, 17))
        c, x = rng.randrange(1, p), rng.randrange(1, p)
        rest = c * x * x + p * rng.randint(-10**6, 10**6)
        e = rng.randint(1, 12)
        y = _lift_square(c, x, rest, p, e)
        assert y == lift_square_stepwise(c, x, rest, p, e)
        assert (c * y * y - rest) % p**e == 0
        checked += 1


def test_square_root_mod_a_high_prime_power_is_fast():
    # one Newton step per power of p took about 15 s at this exponent
    a = 3  # a square mod 11
    root = _within_one_second(lambda: _sqrt_mod_prime_power(a, 11, 3000))
    assert (root * root - a) % 11**3000 == 0


def test_odd_part_decisions_match_backtracking():
    classes = _random_odd_parts(random.Random(11), 200)
    mixed = {key for key in classes if len(set(key[1])) > 1}
    assert {(3, (3, 9)), (5, (5, 25))} <= mixed
    decided = glued = 0
    for parts in classes.values():
        for a in parts[:4]:
            for b in parts[:4]:
                assert forms_isomorphic(a, b) == (find_form_isometry(a, b) is not None)
                anti = forms_isomorphic(a, b, anti=True)
                assert anti == (find_anti_isometry(a, b) is not None)
                decided += 2
                if anti:
                    phi = build_glue_map(a, b)
                    assert glue_map_problems(a, b, phi.matrix) == []
                    glued += 1
                else:
                    assert build_glue_map(a, b) is None
    assert decided > 500 and glued > 100


def _rebased(rng, L):
    """L in a random basis: the same lattice, so an isomorphic discriminant
    form, but presented on other generators."""
    n = L.rank
    U = [list(row) for row in linalg.identity(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return L.sublattice(U)


def test_glue_maps_assemble_across_primes():
    """Whole discriminant forms with two or more primes, 2-parts included, of
    random even lattices in two bases: the map assembled from the p-maps is a
    valid anti-isometry exactly when backtracking finds one, and
    forms_isomorphic agrees."""
    rng = random.Random(18)
    classes = defaultdict(list)
    while sum(len(forms) for forms in classes.values()) < 30:
        L = _random_even_lattice(rng)
        if L is None:
            continue
        q = discriminant_form(L)
        if len(q.primes()) >= 2 and q.order() <= 2000:
            classes[q.orders] += [q, discriminant_form(_rebased(rng, L))]
    assert sum(len(forms) for orders, forms in classes.items() if orders[-1] % 2 == 0) >= 24
    glued = refused = 0
    for forms in classes.values():
        for a in forms[:4]:
            for b in forms[:4]:
                for target in (b, b.negated()):
                    phi = build_glue_map(a, target)
                    assert (phi is None) == (find_anti_isometry(a, target) is None)
                    assert forms_isomorphic(a, target, anti=True) == (phi is not None)
                    if phi is None:
                        refused += 1
                    else:
                        assert glue_map_problems(a, target, phi.matrix) == []
                        glued += 1
    assert glued > 50 and refused > 40


def _mixed_17_part(units, mix):
    """Order-83,521 form on (Z/17)^2 + Z/289 with beta-values units[i] / order
    on a diagonal basis d_1, d_2, d_3; with mix the generators are d_1, d_2
    and d_3 + d_1, so the presentation is not diagonal."""
    orders = (17, 17, 289)
    q = [Fraction(2 * u, d) for u, d in zip(units, orders)]
    diag = FiniteQuadraticForm(orders, q, [[q[i] if i == j else 0 for j in range(3)] for i in range(3)])
    last = (1, 0, 1) if mix else (0, 0, 1)
    return diag.subform([((1, 0, 0), 17), ((0, 1, 0), 17), (last, 289)])


def test_build_glue_map_mixed_scales_beyond_backtracking():
    # 3 is a non-residue mod 17, so the scale-17 block needs the binary step
    q1 = _mixed_17_part((1, 1, 1), mix=True)
    q2 = _mixed_17_part((-3, -3, -1), mix=False)
    assert q1.order() == 83521 > 40000
    assert forms_isomorphic(q1, q2, anti=True)
    phi = build_glue_map(q1, q2)
    assert glue_map_problems(q1, q2, phi.matrix) == []
    # the twin differs in the determinant class of the scale-289 block
    twin = _mixed_17_part((-3, -3, -3), mix=False)
    assert not forms_isomorphic(q1, twin, anti=True)
    assert build_glue_map(q1, twin) is None


def test_large_two_part_is_refused_by_name():
    h = hyperbolic_p_form(2, 8)
    with pytest.raises(LatticeError, match="2-primary part of order 65536"):
        forms_isomorphic(h, h)
    with pytest.raises(LatticeError, match="2-primary part of order 65536"):
        build_glue_map(h, h)
    with pytest.raises(
        LatticeError, match="^group of order 65536 exceeds the backtracking bound 40000$"
    ):
        find_form_isometry(h, h)


def test_build_glue_map_large_p_part(k3_certificate):
    # re-derive the glue data used by the pipeline and validate the map
    seed = seed_for(S4)
    f = Isometry(seed.S, seed.f_S)
    from salemk3.isometries import twist as twist_op
    from salemk3.lattices import lattice_U

    p = k3_certificate.glue_evidence["p"]
    l = k3_certificate.glue_evidence["l"]
    t_poly = P([int(c) for c in k3_certificate.glue_evidence["t"]])
    S2, _ = twist_op(seed.S, f, TwistElement(t_poly * t_poly))
    R2 = lattice_U().rescaled(p ** (2 * l)).direct_sum(seed.R_rest)
    phi = build_glue_map(discriminant_form(S2), discriminant_form(R2))
    assert phi.source.orders == phi.target.orders


def test_surface_class_table():
    assert surface_class("torus").b2 == 6 and surface_class("torus").h11 == 4
    assert surface_class("k3").b2 == 22 and surface_class("k3").h11 == 20
    assert surface_class("enriques").b2 == 10 and surface_class("enriques").h11 == 10
    with pytest.raises(RealizeError):
        surface_class("abelian")
