import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from pathlib import Path

import pytest

from salemk3.polynomials import (
    IntPolynomial,
    _cyclotomic_packs,
    _cyclotomic_root,
    _orders_of_degree_at_most,
    _trace_chain_reads,
    NotSalemError,
    SalemCertificate,
    companion_matrix,
    cyclotomic,
    cyclotomic_factors,
    discriminant,
    distinct_degrees_mod,
    divides,
    is_cyclotomic_product,
    is_salem,
    mulmod,
    poly_divmod_exact,
    poly_gcd,
    polyval_mod,
    power_min_poly,
    powmod,
    resultant,
    square_class_test,
    squarefree_part,
    sturm_chain,
    trace_polynomial,
)
from salemk3 import linalg, polynomials
from salemk3.numberfield import RealAlgebraicField, canonical
from salemk3.numbertheory import is_prime
from salemk3.realize import build_k3_certificate, certificate_to_json

from oracles import (
    FractionField,
    cyclotomic_factors_by_division,
    expand_trace_polynomial,
    factor_degrees_by_trial_division,
    fraction_sturm_count,
    numpy_salem_profile,
    power_min_poly_by_companion,
    roots_on_unit_circle,
    salem_certificate_by_full_sturm,
    sylvester_resultant,
)
from edits import within
from salem_corpus import LEHMER, all_entries

P = IntPolynomial
S4 = P([1, -1, -1, -1, 1])
QUAD = P([1, -3, 1])
LEHMER_P = P(LEHMER)


def test_resultant_examples():
    assert resultant(P([-1, 1]), P([1, 1])) == -2
    assert resultant(S4, P([1])) == 1
    assert resultant(P([1, 0, 1]), P([-1, 0, 1])) == 4


def test_resultant_matches_fraction_oracle():
    rng = random.Random(5)
    for _ in range(25):
        p = P([rng.randint(-4, 4) for _ in range(rng.randint(2, 5))] + [1])
        q = P([rng.randint(-4, 4) for _ in range(rng.randint(2, 5))] + [1])
        assert resultant(p, q) == sylvester_resultant(p.coeffs, q.coeffs)


def test_resultant_antisymmetry():
    rng = random.Random(11)
    for _ in range(25):
        p = P([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1])
        q = P([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1])
        sign = -1 if (p.degree * q.degree) % 2 else 1
        assert resultant(p, q) == sign * resultant(q, p)


def test_discriminant_examples():
    assert discriminant(QUAD) == 5
    assert discriminant(P([1, -2, 1])) == 0
    # quartic value pinned against the independent Sylvester oracle
    d = p_prime = P([-1, -2, -3, 4])  # s4'
    expected_sign = -1 if (4 * 3 // 2) % 2 else 1
    assert discriminant(S4) == expected_sign * sylvester_resultant(S4.coeffs, d.coeffs)
    assert discriminant(S4) == -507


def test_discriminant_zero_iff_gcd_nonconstant():
    rng = random.Random(3)
    for _ in range(30):
        p = P([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1])
        g = poly_gcd(p, p.derivative())
        assert (discriminant(p) == 0) == (g.degree > 0)


def test_non_monic_discriminant_rejected():
    with pytest.raises(ValueError):
        discriminant(P([1, 2]) * 2)


def test_trace_polynomial_examples():
    assert trace_polynomial(S4).coeffs == (-3, -1, 1)
    assert trace_polynomial(QUAD).coeffs == (-3, 1)
    r10 = trace_polynomial(LEHMER_P)
    assert r10.degree == 5
    assert expand_trace_polynomial(r10.coeffs) == list(LEHMER_P.coeffs)


def test_trace_polynomial_roundtrip_random():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(1, 5)
        r = P([rng.randint(-4, 4) for _ in range(m)] + [1])
        p = P(expand_trace_polynomial(r.coeffs))
        assert trace_polynomial(p).coeffs == r.coeffs


def test_trace_polynomial_rejects_non_reciprocal():
    with pytest.raises(NotSalemError):
        trace_polynomial(P([-2, 0, 1]))


def test_is_salem_accepts_lehmer():
    cert = is_salem(LEHMER_P)
    assert cert.degree == 10
    assert not cert.quadratic_degenerate
    lo, hi = cert.lambda_interval
    assert lo > 1 and Fraction(117628, 100000) > lo and hi > Fraction(117628, 100000) - Fraction(1, 100)


def test_is_salem_accepts_quartic():
    cert = is_salem(S4)
    assert cert.degree == 4
    assert cert.trace_polynomial.coeffs == (-3, -1, 1)


def test_is_salem_quadratic_degenerate():
    cert = is_salem(QUAD)
    assert cert.quadratic_degenerate


def test_is_salem_rejections():
    with pytest.raises(NotSalemError) as exc:
        is_salem(P([1, 1, 1, 1, 1]))
    assert exc.value.reason == "wrong_root_pattern"
    with pytest.raises(NotSalemError) as exc:
        is_salem(P([-2, 0, 1]))
    assert exc.value.reason == "not_reciprocal"
    with pytest.raises(NotSalemError) as exc:
        is_salem(P([1, 0, -1, 0, 1]))
    assert exc.value.reason == "wrong_root_pattern"
    with pytest.raises(NotSalemError) as exc:
        is_salem(QUAD * P([1, 1, 1]))
    assert exc.value.reason == "reducible"


def test_salem_invariants_on_corpus():
    for degree, coeffs, _ in all_entries():
        p = P(list(coeffs))
        cert = is_salem(p)
        assert cert.degree == degree
        assert p.coeffs[0] == 1  # p(0) = 1
        assert p.is_reciprocal()
        off_circle, biggest = numpy_salem_profile(p.coeffs)
        assert off_circle == 2
        lo, hi = cert.lambda_interval
        assert lo <= Fraction(str(round(biggest, 9))) <= hi or abs(float(lo) - biggest) < 1e-6


def test_power_min_poly_examples():
    assert power_min_poly(S4, 1).coeffs == S4.coeffs
    assert power_min_poly(QUAD, 2).coeffs == (1, -7, 1)
    p2 = power_min_poly(S4, 2)
    assert p2.degree == 4 and p2.is_reciprocal()
    # lambda^2 is a root: s4(y) divides p2(y^2)
    y2 = P([0, 0, 1])
    acc = P([0])
    for i, c in enumerate(p2.coeffs):
        acc = acc + c * y2**i
    assert divides(S4, acc)


def test_power_min_poly_composition():
    rng = random.Random(1)
    for s in (QUAD, S4, P([1, -2, 0, 1, 0, -2, 1])):
        for a, b in ((2, 3), (2, 2), (3, 2)):
            left = power_min_poly(s, a * b)
            right = power_min_poly(power_min_poly(s, a), b)
            assert left.coeffs == right.coeffs
    del rng


def test_power_min_poly_rejects_zero():
    with pytest.raises(ValueError):
        power_min_poly(S4, 0)


def test_square_class_examples():
    assert square_class_test(LEHMER_P) is True
    assert square_class_test(S4) is False
    assert square_class_test(QUAD) is False


def test_square_class_zero_flagged():
    with pytest.raises(ValueError):
        square_class_test(P([-1, 0, 1]))  # vanishes at 1


def test_cyclotomic_product_examples():
    assert is_cyclotomic_product(P([-1, 1]) ** 12) is True
    assert is_cyclotomic_product(P([1, 1, 1])) is True
    assert is_cyclotomic_product(QUAD) is False
    assert is_cyclotomic_product(cyclotomic(12) * cyclotomic(5)) is True
    assert is_cyclotomic_product(cyclotomic(7) * QUAD) is False


def test_cyclotomic_product_matches_unit_circle_oracle():
    rng = random.Random(2026)
    answers = []
    for _ in range(150):
        f = P([1])
        for _ in range(rng.randint(1, 3)):
            f = f * cyclotomic(rng.randint(1, 20)) ** rng.randint(1, 2)
        if rng.random() < 0.5:
            # a monic factor with constant term +-1 or +-2: usually not cyclotomic
            middle = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
            f = f * P([rng.choice([-2, -1, 1, 2])] + middle + [1])
        expected = roots_on_unit_circle(f.coeffs)
        assert is_cyclotomic_product(f) is expected, f.coeffs
        answers.append(expected)
    assert 20 < sum(answers) < 130


def test_cyclotomic_factors_match_exact_division():
    rng = random.Random(12)
    small = _orders_of_degree_at_most(8)
    for s in CORPUS_POLYS:
        assert cyclotomic_factors(s) == cyclotomic_factors_by_division(s) == []
        for _ in range(3):
            n, k = rng.choice(small), rng.choice(small)
            p = s * cyclotomic(n) * cyclotomic(k)
            found = cyclotomic_factors(p)
            assert found == cyclotomic_factors_by_division(p), p.coeffs
            assert {n, k} <= {i for i, _ in found}


def test_cyclotomic_packs_cover_each_order_once():
    # for every even degree d <= 40: each order n >= 3 with phi(n) <= d sits
    # in exactly one pack, with its prime from _cyclotomic_root(n); a pack's
    # primes are distinct, L is their product, and r(Y) mod l is r evaluated
    # at w + 1/w mod l for seeded random r
    rng = random.Random(38)
    for d in range(2, 41, 2):
        packs = _cyclotomic_packs(d)
        entries = [entry for _, _, orders in packs for entry in orders]
        assert sorted(n for n, _ in entries) == [n for n in _orders_of_degree_at_most(d) if n >= 3]
        for L, Y, orders in packs:
            primes = [l for _, l in orders]
            assert len(set(primes)) == len(primes) and L == prod(primes)
            r = [rng.randint(-50, 50) for _ in range(d // 2)] + [1]
            value = polyval_mod(r, Y, L)
            for n, l in orders:
                least, w = _cyclotomic_root(n)
                assert l == least
                assert value % l == polyval_mod(r, (w + pow(w, -1, l)) % l, l), (d, n)
    assert [L.bit_length() for L, _, _ in _cyclotomic_packs(22)] == [122, 92, 5]


def test_cyclotomic_screen_confirms_a_pack_hit_before_exact_division(monkeypatch):
    # the corpus polynomials have no cyclotomic factor, yet some r(Y) mod L
    # vanishes mod a pack prime; each such hit is checked again at the next
    # prime = 1 mod n, and none of them reaches exact division
    hits = [
        n
        for s in CORPUS_POLYS
        for L, Y, orders in _cyclotomic_packs(s.degree)
        for n, l in orders
        if polyval_mod(trace_polynomial(s).coeffs, Y, L) % l == 0
    ]
    assert len(hits) == 5
    for n in hits:
        l, _ = _cyclotomic_root(n)
        l2, w2 = _cyclotomic_root(n, l)
        assert l2 == next(q for q in range(l + n, l2 + 1, n) if is_prime(q))
        assert [pow(w2, k, l2) for k in range(1, n + 1)].index(1) == n - 1
    divisions = []
    monkeypatch.setattr(polynomials, "divides", lambda a, b: divisions.append(a) or divides(a, b))
    for s in CORPUS_POLYS:
        is_salem(s)
    assert divisions == []


def test_cyclotomic_root_test_false_positives_go_to_exact_division():
    # Phi_n + l x^j vanishes at w mod l without being divisible by Phi_n
    for n in _orders_of_degree_at_most(12):
        l, w = _cyclotomic_root(n)
        cyc = cyclotomic(n)
        assert [pow(w, k, l) for k in range(1, n + 1)].index(1) == n - 1
        for j in range(cyc.degree):
            p = cyc + P([0] * j + [l])
            assert polyval_mod(p.coeffs, w, l) == 0
            assert (n, cyc) not in cyclotomic_factors(p)
            assert cyclotomic_factors(p) == cyclotomic_factors_by_division(p), (n, j)


def test_distinct_degrees_mod_matches_trial_division():
    # products of random monic factors of degree 1 to 3, repeats included,
    # lifted to integers with coefficients off by multiples of p
    rng = random.Random(7)
    seen = set()
    for p in (2, 3, 5):
        for _ in range(120):
            f, target = P([1]), rng.randint(1, 7)
            while f.degree < target:
                g = P([rng.randrange(p) for _ in range(rng.randint(1, min(3, target - f.degree)))] + [1])
                f = f * (g * g if rng.random() < 0.4 and f.degree + 2 * g.degree <= target else g)
            coeffs = [c + p * rng.randint(-2, 2) for c in f.coeffs[:-1]] + [1]
            expected = factor_degrees_by_trial_division(coeffs, p)
            assert distinct_degrees_mod(coeffs, p) == expected, (coeffs, p)
            seen.add((p, max(expected[0]), expected[1]))
    # every prime saw repeated factors and factors of degree 3 or more
    for p in (2, 3, 5):
        assert (p, True) in {(q, sf) for q, _, sf in seen}
        assert (p, False) in {(q, sf) for q, _, sf in seen}
        assert any(q == p and top >= 3 for q, top, _ in seen)


def rational_element(coeffs):
    """The canonical pair of the element with the given Fraction
    coefficients, one per power of x below the degree."""
    den = lcm(*(c.denominator for c in coeffs))
    return canonical([c.numerator * (den // c.denominator) for c in coeffs], den)


def fractions_of(a):
    """Fraction coefficients of a field element, checking its canonical form."""
    nums, den = a
    assert den > 0 and gcd(den, *nums) == 1
    return tuple(Fraction(x, den) for x in nums)


def sign_at(p, x):
    """Sign of p at the Fraction x, by Fraction arithmetic."""
    value = sum(c * x**i for i, c in enumerate(p.coeffs))
    return (value > 0) - (value < 0)


def test_field_inverse_on_the_corpus():
    rng = random.Random(11)
    for degree, coeffs, _ in all_entries():
        if degree > 10:
            continue
        s = P(list(coeffs))
        cert = is_salem(s)
        K, O = RealAlgebraicField(cert), FractionField(s, cert.lambda_interval)
        one = ((1,) + (0,) * (degree - 1), 1)
        with pytest.raises(ZeroDivisionError):
            K.inv(((0,) * degree, 1))
        assert K.inv(one) == one
        assert fractions_of(K.inv(((0, 1) + (0,) * (degree - 2), 1))) == O.x_inverse()
        for _ in range(6):
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
            if any(a):
                assert O.mul(a, fractions_of(K.inv(rational_element(a)))) == fractions_of(one)


def random_coeffs(rng, length):
    return [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(length)]


def test_field_arithmetic_and_enclosures_match_the_fraction_field():
    """The integer route (products by ``mulmod`` over canonical pairs) and the
    field's inverse, enclosures and signs agree with the Fraction field."""
    rng = random.Random(13)
    refined = 0
    for degree, coeffs, _ in all_entries():
        if degree > 12:
            continue
        s = P(list(coeffs))
        cert = is_salem(s)
        K, O = RealAlgebraicField(cert), FractionField(s, cert.lambda_interval)
        for _ in range(8):
            a, b = random_coeffs(rng, degree), random_coeffs(rng, degree)
            ea, eb = rational_element(a), rational_element(b)
            assert fractions_of(ea) == tuple(a)
            product = canonical(mulmod(ea[0], eb[0], s.coeffs), ea[1] * eb[1])
            assert fractions_of(product) == O.mul(a, b)
            long = random_coeffs(rng, 2 * degree + 1)
            den = lcm(*(c.denominator for c in long))
            nums = [c.numerator * (den // c.denominator) for c in long]
            reduced = canonical(mulmod(nums, [1], s.coeffs), den)
            assert fractions_of(reduced) == tuple(O._reduce(long))
            assert O.mul(a, fractions_of(K.inv(ea))) == (1,) + (0,) * (degree - 1)
            # both fields refine their intervals in lockstep
            assert K.enclosure(ea) == O.enclosure(a)
            w = Fraction(1, 2 ** rng.randint(2, 12))
            lo, hi = K.enclosure(ea, w)
            assert (lo, hi) == O.enclosure(a, w)
            # a minus a rational close to its value: a small element whose
            # sign needs the isolating interval refined
            near = a[:]
            near[0] -= (lo + hi) / 2
            for x in (a, near):
                w = Fraction(1, rng.choice((3, 64, 10**6)))
                assert K.enclosure(rational_element(x), w) == O.enclosure(x, w)
                before = O.interval
                assert K.sign(rational_element(x)) == O.sign(x)
                refined += O.interval != before
            assert K.interval == O.interval
            # the refined interval still isolates lambda: s(lo) < 0 < s(hi)
            assert [sign_at(s, x) for x in K.interval] == [-1, 1]
            assert K.sign(((0,) * degree, 1)) == O.sign((0,) * degree) == 0
    assert refined > 10


def test_sturm_root_counts():
    # QUAD = y^2 - 3y + 1 has its roots at 0.38... and 2.61...
    (minus_inf, minus_two, two, inf), at_minus_two, at_two = _trace_chain_reads(sturm_chain(QUAD))
    assert (minus_inf - inf, two - inf, minus_inf - minus_two) == (2, 1, 0)
    assert (at_minus_two, at_two) == (QUAD(-2), QUAD(2)) == (11, -1)
    (minus_inf, _, _, inf), _, _ = _trace_chain_reads(sturm_chain(P([1, 0, 1])))
    assert minus_inf - inf == 0


def _random_poly_with_rational_roots(rng):
    """A random integer polynomial of degree <= 8 and its chosen rational
    roots, often 2 or -2; about half of those roots are repeated factors."""
    candidates = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
    candidates += [Fraction(x) for x in (2, -2) if rng.random() < 0.3]
    roots = sorted(set(candidates))
    p = P([1])
    for r in roots:
        p = p * P([-r.numerator, r.denominator]) ** rng.randint(1, 2)
    rest = rng.randint(0, max(0, 8 - p.degree))
    p = p * P([rng.randint(-5, 5) for _ in range(rest)] + [rng.choice((-3, -1, 1, 2))])
    return p, roots


def test_four_point_reads_match_fraction_sturm_oracle():
    # the sign changes at -inf, -2, 2 and +inf count the distinct real roots
    # in (-inf, +inf], (2, +inf], (-inf, -2] and (-2, 2], a root at exactly 2
    # counting in (-2, 2] and one at -2 in (-inf, -2]; the first member's
    # values at -+2 are p(-+2); roots at -+2 come simple and repeated
    rng = random.Random(20261018)
    at_two = set()
    for _ in range(240):
        p, roots = _random_poly_with_rational_roots(rng)
        assert p.degree <= 8
        (minus_inf, minus_two, two, inf), p_minus_two, p_two = _trace_chain_reads(sturm_chain(p))
        assert (p_minus_two, p_two) == (p(-2), p(2))
        assert minus_inf - inf == fraction_sturm_count(p.coeffs), p
        assert two - inf == fraction_sturm_count(p.coeffs, 2, "inf"), p
        assert minus_inf - minus_two == fraction_sturm_count(p.coeffs, "-inf", -2), p
        assert minus_two - two == fraction_sturm_count(p.coeffs, -2, 2), p
        at_two |= {(x, divides(P([-x, 1]) ** 2, p)) for x in (-2, 2) if x in roots}
    assert at_two == {(-2, False), (-2, True), (2, False), (2, True)}


# monic integer polynomials whose roots are all real and inside (-2, 2)
_SMALL_TRACE_FACTORS = tuple(P(c) for c in (
    [0, 1], [1, 1], [-1, 1], [-2, 0, 1], [-3, 0, 1], [-1, -1, 1], [-1, 1, 1], [1, -3, 0, 1], [-1, -3, 0, 1]
))


def random_salem_polynomials(rng, count):
    """count distinct Salem polynomials x^m r(x + 1/x) of degree 2 to 24 or
    so: r = (y - c) q(y) - k for q a product of small factors whose roots lie
    in (-2, 2), c >= 2 and |k| <= 3, kept when ``is_salem`` certifies them."""
    seen = set()
    while len(seen) < count:
        q = P([1])
        for _ in range(rng.randint(0, 5)):
            q = q * rng.choice(_SMALL_TRACE_FACTORS)
        r = P([-rng.randint(2, 9), 1]) * q - rng.randint(-3, 3)
        p = P(expand_trace_polynomial(list(r.coeffs)))
        if p.coeffs in seen:
            continue
        try:
            is_salem(p)
        except NotSalemError:
            continue
        seen.add(p.coeffs)
    return [P(list(c)) for c in sorted(seen)]


def test_lambda_interval_isolates_the_largest_root():
    # the bisection walk of is_salem against Fraction Sturm counts: exactly
    # one root of p in (a, b], none above b, and a > 1
    corpus = [P(list(coeffs)) for _, coeffs, _ in all_entries()]
    polys = corpus + random_salem_polynomials(random.Random(22), 220)
    assert max(p.degree for p in polys) >= 16
    for p in polys:
        a, b = is_salem(p).lambda_interval
        assert 1 < a < b, p
        assert fraction_sturm_count(p.coeffs, a, b) == 1, p
        assert fraction_sturm_count(p.coeffs, b, "inf") == 0, p


def test_is_salem_takes_no_gcd_and_one_trace_chain(monkeypatch):
    # a work count: a certification builds one Sturm chain, that of the trace
    # polynomial (degree d/2), and runs no gcd; the squarefree test reads the
    # chain's last member, and lambda's walk reads only signs of p
    gcds, chains = [0], []

    def counting_gcd(p, q):
        gcds[0] += 1
        return poly_gcd(p, q)

    def recording_chain(p):
        chains.append(p.degree)
        return sturm_chain(p)

    monkeypatch.setattr(polynomials, "poly_gcd", counting_gcd)
    monkeypatch.setattr(polynomials, "sturm_chain", recording_chain)
    for degree, coeffs, _ in all_entries():
        chains.clear()
        is_salem(P(list(coeffs)))
        assert chains == [degree // 2]
    assert gcds[0] == 0


def _outcome(certify, p):
    """The certificate, or the reason and message of the NotSalemError."""
    try:
        return certify(p)
    except NotSalemError as exc:
        return exc.reason, str(exc)


def _salem_family(rng):
    """Seeded polynomials of every kind that reaches the squarefree test:
    x^m r(x + 1/x) for random monic r, for Salem-shaped r = (y - c) q(y) - k
    alone, times a square or times y -+ 2, with m = deg r <= 15; corpus
    polynomials times a cyclotomic polynomial (up to degree 54), its square
    or themselves; the quadratics x^2 - tx + 1; and a few that stop before
    it."""
    corpus = [P(list(coeffs)) for _, coeffs, _ in all_entries()]
    polys = list(corpus) + [P([1, -t, 1]) for t in range(-6, 7)]
    # lambda = 1.31..., so the walk's midpoint 3/2 lies between lambda and 2
    polys.append(P([1, -1, 1, -2, 1, -2, 1, -1, 1]))
    polys += [P([1]), P([1, 1]), P([1, 0, 2]), P([1, -3, 0, 1]), P([-2, 0, 1])]
    for _ in range(500):
        kind = rng.randrange(4)
        if kind == 0:
            r = P([rng.randint(-4, 4) for _ in range(rng.randint(1, 15))] + [1])
        else:
            q = P([1])
            for _ in range(rng.randint(0, 5)):
                q = q * rng.choice(_SMALL_TRACE_FACTORS)
            r = P([-rng.randint(2, 9), 1]) * q - rng.randint(-3, 3)
            if kind == 2:
                r = r * rng.choice(_SMALL_TRACE_FACTORS) ** 2
            elif kind == 3:
                r = r * P([rng.choice((-2, 2)), 1])
        if r.degree <= 15:
            polys.append(P(expand_trace_polynomial(list(r.coeffs))))
    cyclotomics = [cyclotomic(n) for n in (1, 2, 3, 4, 5, 6, 8, 10, 12)]
    # orders from the later packs of the screen, up to its fourth (degree >= 32)
    wide = [cyclotomic(n) for n in (11, 25, 28, 44, 52, 102)]
    for s in corpus:
        polys += [s * s] + [s * phi for phi in cyclotomics + wide] + [s * phi * phi for phi in cyclotomics[:4]]
    return polys


def test_is_salem_matches_the_full_sturm_oracle():
    # the trace-polynomial route against gcd(p, p') and the counting walk over
    # the Sturm chain of p: the same reason and message, or the same
    # certificate with a byte-identical lambda_interval
    branches = set()
    for p in _salem_family(random.Random(24)):
        got = within(1.0, lambda: _outcome(is_salem, p))
        assert got == _outcome(salem_certificate_by_full_sturm, p), p
        if isinstance(got, tuple) and got[0] == "reducible":
            r = trace_polynomial(p)
            if poly_gcd(r, r.derivative()).degree > 0:
                branches.add("reducible: r not squarefree")
            elif r(2) * r(-2) == 0:
                branches.add("reducible: r(+-2) = 0")
            else:
                branches.add("reducible: cyclotomic factor")
        elif isinstance(got, tuple) and got[0] == "wrong_root_pattern":
            branches.add("non-real" if "non-real" in got[1] else "roots above 2")
        elif not isinstance(got, tuple):
            branches.add("salem, degree 2" if got.quadratic_degenerate else "salem, degree >= 4")
    assert branches == {
        "reducible: r not squarefree",
        "reducible: r(+-2) = 0",
        "reducible: cyclotomic factor",
        "non-real",
        "roots above 2",
        "salem, degree 2",
        "salem, degree >= 4",
    }


def test_cyclotomic_screen_on_r_finds_every_order():
    # the screen on r at w + 1/w mod l, order by order: every cyclotomic
    # factor of degree <= 22 that can reach it is found, with the full-degree
    # screen of the oracle giving the same reason and message
    orders = [n for n in _orders_of_degree_at_most(22) if n >= 3]
    seen = set()
    for s in (QUAD, S4):
        for n in orders:
            p = s * cyclotomic(n)
            if p.degree > 24:
                continue
            got = _outcome(is_salem, p)
            assert got == _outcome(salem_certificate_by_full_sturm, p) == ("reducible", f"reducible: {p}"), n
            seen.add(n)
    assert seen == set(orders)


def test_lambda_power_is_salem_of_the_same_degree():
    # power_min_poly certifies s only: that lambda^n is again Salem (or a
    # quadratic Pisot unit) of degree d is checked here, with d n capped
    rs = random_salem_polynomials(random.Random(26), 60)
    cases = 0
    for s in CORPUS_POLYS + rs:
        for n in range(1, 31):
            if s.degree * n > 160:
                break
            assert is_salem(power_min_poly(s, n)).degree == s.degree, (s, n)
            cases += 1
    assert cases > 1400


def test_discriminant_from_the_trace_polynomial():
    # |disc s| = |r(2) r(-2)| disc(r)^2 for s = x^m r(x + 1/x), which lets
    # find_split_prime skip the primes of 2 disc(s) without disc(s)
    rng = random.Random(26)
    polys = list(CORPUS_POLYS)
    while len(polys) < len(CORPUS_POLYS) + 80:
        r = P([rng.randint(-4, 4) for _ in range(rng.randint(1, 11))] + [1])
        polys.append(P(expand_trace_polynomial(list(r.coeffs))))
    zero = 0
    for s in polys:
        r = trace_polynomial(s)
        assert abs(discriminant(s)) == abs(r(2) * r(-2)) * discriminant(r) ** 2, s
        zero += discriminant(s) == 0
    assert 0 < zero < 40
    assert {s.degree for s in polys} == set(range(2, 23, 2))


def test_mulmod_and_powmod_match_exact_division():
    # against the IntPolynomial product and the poly_divmod_exact remainder,
    # padded to the degree n of the modulus, and that result reduced mod m
    rng = random.Random(2022)

    def remainder(f, modulus):
        r = list(poly_divmod_exact(f, P(modulus))[1].coeffs)
        return r + [0] * (len(modulus) - 1 - len(r))

    shapes = set()
    for _ in range(240):
        n = rng.randint(1, 6)
        modulus = [rng.randint(-9, 9) for _ in range(n)] + [1]
        f, g = ([rng.randint(-20, 20) for _ in range(rng.randint(0, 2 * n + 2))] for _ in range(2))
        m, e = rng.randint(2, 60), rng.choice((0, 1, rng.randint(2, 12)))
        shapes.add((n == 1, len(f) < n, len(f) > n, e == 0))
        expected = remainder(P(f) * P(g), modulus)
        assert mulmod(f, g, modulus) == expected
        assert mulmod(f, g, modulus, m) == [c % m for c in expected]
        expected = remainder(P(f) ** e, modulus)
        assert powmod(f, e, modulus) == expected
        assert powmod(f, e, modulus, m) == [c % m for c in expected]
    assert {(True, False, True, True), (False, True, False, False), (False, False, True, True)} <= shapes


def test_sturm_chain_is_integer_lists():
    for p in (S4, LEHMER_P, QUAD * QUAD * P([2, -3]), P([5]), trace_polynomial(LEHMER_P)):
        chain = sturm_chain(p)
        assert chain[0] == list(p.coeffs)
        for member in chain:
            assert type(member) is list
            assert all(type(c) is int for c in member)


def test_poly_gcd_is_primitive_with_positive_leading_coefficient():
    rng = random.Random(17)
    cases = [
        (P([1, 1]), P([-1, 1]), P([3, 0, 3])),  # content 3 is dropped
        (P([2, -4]), P([6, 3]), P([-1, 2, -5])),  # negative leading coefficient
        (P([1, 0, 1]), P([-2, 1]), P([-7])),  # constant gcd
        (P([0, 1]), P([1]), P([4, -4, -8])),
    ]
    while len(cases) < 40:
        a, b, c = (P([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]) for _ in range(3))
        if not (a.is_zero() or b.is_zero() or c.is_zero()) and resultant(a, b) != 0:
            cases.append((a, b, c))
    for a, b, c in cases:
        expected = c.primitive_part()
        g = poly_gcd(a * c, b * c)
        assert g.coeffs == expected.coeffs, (a, b, c)
        assert g.leading > 0 and g.content() == 1


def test_power_min_poly_matches_companion_oracle():
    for _, coeffs, _ in all_entries():
        for n in (2, 3, 5, 7):
            assert power_min_poly(P(list(coeffs)), n).coeffs == power_min_poly_by_companion(coeffs, n)
    for n in (272, 5000):
        assert power_min_poly(S4, n).coeffs == power_min_poly_by_companion(S4.coeffs, n)


def test_companion_matrix_charpoly():
    C = companion_matrix(S4)
    assert tuple(linalg.charpoly(C)) == S4.coeffs


def test_poly_division_and_squarefree():
    q, r = poly_divmod_exact(S4 * QUAD, QUAD)
    assert q.coeffs == S4.coeffs and r.is_zero()
    assert squarefree_part(QUAD * QUAD * S4).coeffs == (QUAD * S4).coeffs


# --- irreducibility through Kronecker's theorem -------------------------------


def _reason(p):
    with pytest.raises(NotSalemError) as exc:
        is_salem(p)
    return exc.value.reason


CORPUS_POLYS = [P(list(coeffs)) for _, coeffs, _ in all_entries()]


def test_kronecker_cyclotomic_multiple_is_reducible():
    # phi(n) even and Phi_n reciprocal, so s * Phi_n passes every earlier check
    for s in CORPUS_POLYS:
        for n in (3, 4, 5, 12):
            assert _reason(s * cyclotomic(n)) == "reducible"


def test_kronecker_square_is_reducible():
    for s in CORPUS_POLYS:
        assert _reason(s * s) == "reducible"


def test_product_of_salem_polynomials_reports_root_pattern():
    # squarefree and reducible, but two trace roots above 2: the root pattern
    # is checked before the cyclotomic factors
    for s, t in zip(CORPUS_POLYS, CORPUS_POLYS[1:]):
        assert _reason(s * t) == "wrong_root_pattern"


# the modules of salemk3 that a cold run of each subcommand loads: the
# package, cli, codec with the two layers it reads at module level and
# linalg under them, then the layers that the subcommand calls
CERTIFY_MODULES = {"", ".cli", ".codec", ".polynomials", ".linalg", ".numbertheory"}
POWER_INTEGRAL_MODULES = CERTIFY_MODULES | {".lattices", ".isometries"}
POSITIVITY_MODULES = POWER_INTEGRAL_MODULES | {".positivity", ".numberfield"}
VERIFY_MODULES = POSITIVITY_MODULES | {".realize"}


def test_certify_salem_without_sympy(tmp_path):
    # each subcommand runs in a fresh interpreter that cannot import sympy,
    # then prints the salemk3 modules it loaded on its last stderr line
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    lehmer = write("lehmer.json", [str(c) for c in LEHMER])
    rational = write("rational.json", {
        "lattice": {"rank": 2, "gram": [["-4", "0"], ["0", "5"]]},
        "isometry": [["3/2", "5/4"], ["1", "3/2"]],
    })
    pair = write("pair.json", {
        "lattice": {"rank": 2, "gram": [["2", "3"], ["3", "2"]]},
        "isometry": [["0", "-1"], ["1", "3"]],
    })
    certificate = write("cert.json", certificate_to_json(build_k3_certificate(S4)))
    code = (
        "import sys; sys.modules['sympy'] = None; "
        "from salemk3.cli import run; status = run(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'salemk3'), file=sys.stderr); "
        "sys.exit(status)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = {}
    for argv, status, modules in [
        (["certify-salem", lehmer], 0, CERTIFY_MODULES),
        (["power-integral", rational], 0, POWER_INTEGRAL_MODULES),
        (["positivity", pair], 1, POSITIVITY_MODULES),
        (["verify", certificate], 0, VERIFY_MODULES),
    ]:
        proc = subprocess.run(
            [sys.executable, "-c", code, "--format", "json"] + argv,
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == status, proc.stderr
        assert ast.literal_eval(proc.stderr.splitlines()[-1]) == sorted("salemk3" + m for m in modules), argv[0]
        outputs[argv[0]] = json.loads(proc.stdout)
    assert outputs["certify-salem"]["accepted"] is True and outputs["certify-salem"]["degree"] == 10
    assert outputs["power-integral"]["power"] == 3
    assert outputs["positivity"]["status"] == "not_positive"
    assert outputs["verify"]["verified"] is True


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: P([1, Fraction(1, 2)]), TypeError, "IntPolynomial coefficients must be ints"),
        (lambda: P([]).leading, ValueError, "zero polynomial has no leading coefficient"),
        (lambda: P([1, 1]) ** -1, ValueError, "negative polynomial power"),
        (lambda: P([1, 1]) + "x", TypeError, "cannot coerce 'x' to IntPolynomial"),
        (lambda: poly_divmod_exact(P([1, 1]), P([])), ZeroDivisionError, "division by zero polynomial"),
        (lambda: poly_divmod_exact(P([1, 0, 1]), P([1, 2])), ArithmeticError, "polynomial division is not integral"),
        (lambda: squarefree_part(P([])), ValueError, "zero polynomial has no squarefree part"),
        (lambda: resultant(P([]), P([1, 1])), ValueError, "resultant of the zero polynomial is undefined"),
        (lambda: discriminant(P([3])), ValueError, "discriminant needs degree >= 1"),
        (lambda: companion_matrix(P([1, 2])), ValueError, "companion matrix needs a monic polynomial of degree >= 1"),
        (lambda: trace_polynomial(P([1, 2])), NotSalemError, "not_monic"),
        (lambda: trace_polynomial(P([1, 1, 1, 1])), NotSalemError, "odd_degree"),
        (lambda: RealAlgebraicField(SalemCertificate(S4, 4, P([-3, -1, 1]), (Fraction(2), Fraction(3)), False)),
         ValueError, "interval endpoints must straddle the root"),
        (lambda: is_cyclotomic_product(P([1, 2])), ValueError, "cyclotomic-product test needs a monic polynomial"),
        (lambda: is_cyclotomic_product(P([0, 1])), ValueError,
         "cyclotomic-product test needs a nonzero constant term"),
    ],
    ids=["int-coeffs", "leading", "power", "coerce", "divide-zero", "divide-inexact", "squarefree",
         "resultant", "discriminant", "companion", "trace-monic", "trace-degree",
         "refine", "cyclotomic-monic", "cyclotomic-constant"],
)
def test_polynomial_refusals_name_the_failed_condition(call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call()

