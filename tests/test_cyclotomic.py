"""Exact cyclotomic arithmetic: canonical forms, ring axioms, Galois action."""

import math
import random
from fractions import Fraction

import pytest

from jacdecomp.cyclotomic import (
    ConductorMismatch,
    Cyclotomic,
    NotCoprime,
    ZeroConductor,
    _power_reductions,
    _reduce_coeffs,
    cyclotomic_polynomial,
    euler_phi,
    is_prime,
)


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials_match_known_forms():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("e", range(1, 65))
def test_root_kills_cyclotomic_polynomial(e):
    z = Cyclotomic.root(e)
    acc = Cyclotomic.zero(e)
    power = Cyclotomic.one(e)
    for c in cyclotomic_polynomial(e):
        acc = acc + power * c
        power = power * z
    assert acc == Cyclotomic.zero(e)


def test_normalize_i_squared_is_minus_one():
    assert Cyclotomic.from_terms({2: 1}, 4) == Cyclotomic.from_rational(-1, 4)


def test_normalize_zeta6_plus_inverse_is_one():
    value = Cyclotomic.from_terms({1: 1, 5: 1}, 6)
    assert value == Cyclotomic.one(6)
    assert value.is_rational() and value.as_rational() == 1


def test_normalize_constant_term():
    assert Cyclotomic.from_terms({0: 3}, 10).as_rational() == 3


def test_mul_inverse_roots_cancel():
    z = Cyclotomic.root(5)
    assert z * Cyclotomic.root(5, 4) == Cyclotomic.one(5)


def test_square_of_rational_combination():
    value = Cyclotomic.from_terms({1: 1, -1: 1}, 6)
    assert value * value == Cyclotomic.one(6)


def test_zero_annihilates():
    x = Cyclotomic.from_terms({1: Fraction(3, 7), 2: -2}, 12)
    assert Cyclotomic.zero(12) * x == Cyclotomic.zero(12)


def test_galois_examples():
    z5 = Cyclotomic.root(5)
    assert z5.galois(-1) == Cyclotomic.root(5, 4)
    value = Cyclotomic.from_terms({1: 1, -1: 1}, 6)
    assert value.galois(7) == value  # 7 = 1 (mod 6)


def test_galois_conjugation_is_an_involution():
    rng = random.Random(7)
    for e in (3, 4, 6, 8, 12, 20):
        for _ in range(5):
            value = Cyclotomic.from_terms(
                {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in range(e)}, e
            )
            assert value.conjugate().conjugate() == value


def test_galois_composition_law():
    e = 12
    value = Cyclotomic.from_terms({1: 1, 5: Fraction(1, 2), 7: -3}, e)
    for k in (1, 5, 7, 11):
        for m in (1, 5, 7, 11):
            assert value.galois(k).galois(m) == value.galois((k * m) % e)


def test_galois_permutes_primitive_roots():
    for e in (5, 8, 12):
        z = Cyclotomic.root(e)
        images = {z.galois(k) for k in range(1, e) if math.gcd(k, e) == 1}
        primitive = {Cyclotomic.root(e, k) for k in range(1, e) if math.gcd(k, e) == 1}
        assert images == primitive


def test_field_axioms_on_random_values():
    rng = random.Random(20240817)
    for e in (1, 2, 3, 4, 6, 8, 12, 20):
        values = [
            Cyclotomic.from_terms(
                {k: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for k in range(e)}, e
            )
            for _ in range(6)
        ]
        for a, b, c in zip(values, values[1:], values[2:]):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
        for a in values:
            assert a - a == Cyclotomic.zero(e)


def test_integer_inputs_keep_int_coordinates():
    """Fractions appear only after a real division, never from int arithmetic."""
    a = Cyclotomic.from_terms({0: 2, 1: -1, 5: 3}, 12)
    b = Cyclotomic.from_terms({2: 1, 7: -4}, 12)
    for value in (a + b, a - b, a * b, 3 * a - 1, -a, a.galois(5), a.conjugate()):
        assert all(type(c) is int for c in value.coeffs)
    half = a * Fraction(1, 2)
    assert all(type(c) is Fraction for c in half.coeffs if c)
    assert half.coeffs == tuple(Fraction(c, 2) for c in a.coeffs)
    assert half + half == a
    rational = Cyclotomic.from_rational(7, 12)
    assert type(rational.as_rational()) is Fraction and rational.as_rational() == 7


def long_division_remainder(coeffs, e):
    """Reference: schoolbook remainder modulo the monic Phi_e, top term first."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(len(phi)):
                rem[i - deg + j] -= c * phi[j]
    rem = rem[:deg]
    return tuple(rem + [0] * (deg - len(rem)))


@pytest.mark.parametrize("e", range(1, 131))
def test_reduce_coeffs_matches_long_division(e):
    """Lengths 0..3e: products run to 2 phi(e) - 1, past e when e is prime."""
    rng = random.Random(f"reduce:{e}")
    lengths = {0, 1, e - 1, e, 2 * e - 1, 3 * e, rng.randint(0, 3 * e)}
    for length in sorted(lengths):
        ints = [rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(length)]
        assert _reduce_coeffs(ints, e) == long_division_remainder(ints, e)
    # Fraction coordinates come only from a Fraction scalar; the reference is slow on them
    for length in (e - 1, 2 * e - 1):
        fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.2 else 0
                     for _ in range(length)]
        assert _reduce_coeffs(fractions, e) == long_division_remainder(fractions, e)
    powers = _power_reductions(e)
    assert len(powers) == e
    for t in {0, e - 1, rng.randrange(e), rng.randrange(e)}:
        assert powers[t] == long_division_remainder([0] * t + [1], e)


def test_rational_scalars_scale_coordinates():
    rng = random.Random(20261018)
    for e in (1, 2, 5, 12, 30):
        value = Cyclotomic.from_terms({k: rng.randint(-5, 5) for k in range(e)}, e)
        for scalar in (0, 3, -2, Fraction(3, 4), Fraction(-5, 2)):
            full = value * Cyclotomic.from_rational(scalar, e)
            assert value * scalar == scalar * value == full
            assert (value * scalar).coeffs == tuple(a * scalar for a in value.coeffs)


def test_conductor_caches_are_bounded():
    for cache in (cyclotomic_polynomial, _power_reductions):
        assert cache.cache_info().maxsize is not None


def test_conductor_mismatch_raises():
    with pytest.raises(ConductorMismatch):
        Cyclotomic.root(4) + Cyclotomic.root(6)


def test_not_coprime_raises():
    with pytest.raises(NotCoprime):
        Cyclotomic.root(6).galois(2)


def test_zero_conductor_raises():
    with pytest.raises(ZeroConductor):
        Cyclotomic.zero(0)


def test_rendering_forms():
    assert str(Cyclotomic.zero(6)) == "0"
    assert str(Cyclotomic.one(6)) == "1"
    value = Cyclotomic.from_terms({0: 2, 1: -1, 3: Fraction(1, 2)}, 16)
    assert str(value) == "2 - z + 1/2*z^3"


def test_hash_consistency():
    a = Cyclotomic.from_terms({1: 1, 5: 1}, 6)
    assert hash(a) == hash(Cyclotomic.one(6))
    assert len({a, Cyclotomic.one(6)}) == 1


def test_is_prime_helper():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    sieve = [True] * 10 ** 5  # and agreement with a sieve below 10^5
    sieve[0] = sieve[1] = False
    for f in range(2, 317):
        if sieve[f]:
            sieve[f * f::f] = [False] * len(range(f * f, 10 ** 5, f))
    assert [n for n in range(10 ** 5) if is_prime(n)] == [n for n, p in enumerate(sieve) if p]


PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_9 = 3825123056546413051  # least strong pseudoprime to the first 9 prime bases
PSI_12 = 318665857834031151167461  # ... and to the first 12


def strong_probable_prime(n, a):
    """One Miller-Rabin round, written apart from the engine's."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2 ** r, n) == n - 1 for r in range(s))


def test_is_prime_rejects_strong_pseudoprimes_to_fewer_bases():
    """561 is a Carmichael number, 3 215 031 751 a strong pseudoprime to 2, 3, 5, 7,
    and psi_9 to the first nine prime bases; 2^61 - 1 is a Mersenne prime."""
    assert all(strong_probable_prime(3215031751, a) for a in PRIME_BASES[:4])
    assert all(strong_probable_prime(PSI_9, a) for a in PRIME_BASES[:9])
    assert all(strong_probable_prime(PSI_12, a) for a in PRIME_BASES)
    for n in (561, 3215031751, PSI_9, 1000000007 * 1000000009):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(1000000007) and is_prime(1000000009)


def test_is_prime_raises_at_and_above_psi12():
    assert not is_prime(PSI_12 - 1)  # even, and still in range
    for n in (PSI_12, PSI_12 + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="psi_12"):
            is_prime(n)
