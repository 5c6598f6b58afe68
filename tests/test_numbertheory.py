import random
from fractions import Fraction

import pytest

from salemk3.lattices import hyperbolic_p_form
from salemk3.numbertheory import (
    factorize,
    hasse_invariant,
    hilbert,
    is_perfect_square,
    is_prime,
    legendre,
    relevant_places,
    sqrt_mod,
    valuation,
)

from edits import within
from oracles import euler_legendre


def test_legendre_examples():
    assert legendre(5, 11) == 1  # 4^2 = 16 = 5 mod 11
    assert legendre(2, 3) == -1
    assert legendre(0, 7) == 0
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_legendre_against_euler_criterion():
    rng = random.Random(23)
    primes = [p for p in range(3, 2000) if is_prime(p)]
    for _ in range(1000):
        p = rng.choice(primes)
        a = rng.randint(-10**6, 10**6)
        assert legendre(a, p) == euler_legendre(a, p)


def test_hilbert_examples():
    assert hilbert(-1, -1, None) == -1
    assert hilbert(-1, -1, 2) == -1
    assert hilbert(2, 3, None) == 1
    assert hilbert(Fraction(1, 2), 3, 2) == hilbert(2, 3, 2)  # square classes


def test_hilbert_product_formula():
    rng = random.Random(31)
    for _ in range(100):
        a = rng.choice([-1, 1]) * rng.randint(1, 400)
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 60))
        prod = 1
        for place in relevant_places(a, b):
            prod *= hilbert(a, b, place)
        assert prod == 1


def test_hilbert_symmetry_and_squares():
    rng = random.Random(37)
    for _ in range(50):
        a = rng.choice([-1, 1]) * rng.randint(1, 100)
        b = rng.choice([-1, 1]) * rng.randint(1, 100)
        for place in relevant_places(a, b):
            assert hilbert(a, b, place) == hilbert(b, a, place)
            assert hilbert(a * b * b, a, place) == hilbert(a, a * b * b, place)


def test_hasse_invariant():
    # <1, 1>: all Hilbert symbols trivial
    assert hasse_invariant([1, 1], 2) == 1
    assert hasse_invariant([-1, -1], None) == -1
    assert hasse_invariant([2, 3, 5], 5) == hilbert(2, 3, 5) * hilbert(2, 5, 5) * hilbert(3, 5, 5)
    with pytest.raises(ValueError):
        hasse_invariant([1, 0], 3)


def test_sqrt_mod():
    rng = random.Random(41)
    primes = [p for p in range(3, 500) if is_prime(p)]
    for _ in range(200):
        p = rng.choice(primes)
        x = rng.randint(0, p - 1)
        a = x * x % p
        r = sqrt_mod(a, p)
        assert r is not None and r * r % p == a
    assert sqrt_mod(2, 3) is None


def test_is_prime_and_factorize():
    assert is_prime(2) and is_prime(41) and not is_prime(1) and not is_prime(561)
    assert is_prime(2**31 - 1)
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(2, 10**9)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_is_prime_is_proven_below_psi_13_and_refuses_to_guess_above():
    # psi_12, the least strong pseudoprime to the bases 2 .. 37, fails base 41
    psi_12 = 318665857834031151167461
    assert not is_prime(psi_12)
    assert factorize(psi_12) == {399165290221: 1, 798330580441: 1}
    # psi_13 passes all 13 bases, and nothing proves an answer from there on
    psi_13 = 3317044064679887385961981
    with pytest.raises(ValueError, match=f"^primality of {psi_13} is unproven: it is >= psi_13"):
        is_prime(psi_13)
    # a composite from psi_13 on, with no factor below 41, fails a base
    assert not is_prime(psi_12 * psi_13)


def test_perfect_square():
    assert is_perfect_square(0) and is_perfect_square(144)
    assert not is_perfect_square(-4) and not is_perfect_square(63)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: factorize(0), "factorize expects a positive integer"),
        (lambda: valuation(0, 3), "valuation of zero"),
        (lambda: within(1.0, lambda: valuation(8, 1)), "valuation needs a base p >= 2, got 1"),
        (lambda: within(1.0, lambda: valuation(8, 0)), "valuation needs a base p >= 2, got 0"),
        (lambda: within(1.0, lambda: hyperbolic_p_form(3, 2).p_primary_part(1)),
         "p-primary part needs a prime"),
        (lambda: within(1.0, lambda: hyperbolic_p_form(2, 3).p_primary_part(4)),
         "p-primary part needs a prime"),
        (lambda: hilbert(0, 1), "hilbert symbol needs nonzero arguments"),
        (lambda: hilbert(2, 3, 4), "hilbert symbol place must be prime or None"),
    ],
    ids=["factorize", "valuation", "valuation-base-1", "valuation-base-0", "primary-part-1",
         "primary-part-composite", "hilbert-zero", "hilbert-place"],
)
def test_number_theory_refusals_name_the_failed_condition(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
