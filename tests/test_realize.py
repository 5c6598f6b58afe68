import json
import re

import pytest

from salemk3 import linalg
from salemk3.isometries import Isometry, TwistElement
from salemk3.lattices import (
    GlueMap,
    Lattice,
    discriminant_form,
    find_anti_isometry,
    glue,
)
from salemk3.polynomials import IntPolynomial, companion_matrix, power_min_poly
from salemk3.realize import (
    RealizationCertificate,
    RealizeError,
    SearchCapExceeded,
    build_k3_certificate,
    build_glue_map,
    certificate_from_json,
    certificate_to_json,
    check_split_prime,
    find_norm_element,
    find_split_prime,
    mod2_trivial,
    power_certificate,
    rational_isometry_criterion,
    seed_for,
    stable_realizable,
    surface_class,
    validate_seed,
    verify_certificate,
)

from oracles import discriminant_order_by_iteration
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
    ev = find_split_prime(QUAD, 3, lower_bound=5)
    assert ev.p % 24 == 1
    assert check_split_prime(QUAD, ev)
    # brute reference: first prime = 1 mod 24 with legendre(5, p) = 1
    from salemk3.numbertheory import is_prime, legendre

    p = 25
    while True:
        if is_prime(p) and p > 5 and legendre(5, p) == 1:
            break
        p += 24
    assert ev.p == p


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
    with pytest.raises(SearchCapExceeded):
        find_norm_element(S4, ev, l_max=1, box=1)


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
    comp_rows = linalg.int_row_kernel(
        linalg.mat_mul(cert.lattice.gram, linalg.transpose(cert.kernel_basis))
    )
    comp = cert.lattice.sublattice(comp_rows)
    from salemk3.lattices import forms_isomorphic

    assert forms_isomorphic(q_k, discriminant_form(comp), anti=True)


def test_certificate_powering_invariant(k3_certificate):
    cert2 = power_certificate(k3_certificate, 2)
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
        # a negative power would never return from the matrix powering in verify
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


def test_seed_validation():
    seed = seed_for(S4)
    f = validate_seed(seed)
    assert f.char_poly().coeffs == S4.coeffs


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
    from fractions import Fraction

    from salemk3.lattices import FiniteQuadraticForm

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
    from salemk3.lattices import forms_isomorphic

    assert forms_isomorphic(q1, q2, anti=True)
    phi = build_glue_map(q1, q2, small_bound=10)  # force the constructive path
    assert phi.source.orders == (5, 5)


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
