import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinberg.arith as arith
from steinberg import (
    MAX_SIEVE_BOUND,
    PROVEN_PRIME_LIMIT,
    FactorizationError,
    SieveLimitError,
    factorize,
    is_prime,
    kronecker,
    make_model,
    primes_up_to,
)

# the least strong pseudoprimes to the first 12 and 13 prime bases (Sorenson-Webster)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


# -- oracles -----------------------------------------------------------------

def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_division_factorize(n):
    """The slow oracle: divide out every d = 2, 3, 4, ... while d * d <= |n|."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


def euler_chi(a, p):
    """Legendre symbol of a mod an odd prime p by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


# -- primes_up_to ------------------------------------------------------------

def test_primes_up_to_small_values():
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    assert primes_up_to(10) == (2, 3, 5, 7)
    assert primes_up_to(0) == ()


def test_primes_up_to_matches_trial_division():
    plist = primes_up_to(2000)
    expected = tuple(n for n in range(2001) if trial_division_is_prime(n))
    assert plist == expected


def test_primes_up_to_membership_and_len():
    plist = primes_up_to(100)
    assert 97 in plist
    assert 91 not in plist
    assert len(plist) == 25
    assert list(plist)[:3] == [2, 3, 5]


def test_primes_at_the_sturm_scale():
    plist = primes_up_to(7220)
    assert len(plist) == 923
    assert plist[-1] == 7219
    assert trial_division_is_prime(7219)


def test_primes_up_to_rejects_negative_bound():
    with pytest.raises(ValueError):
        primes_up_to(-1)


def test_primes_up_to_refuses_a_bound_above_the_limit():
    assert MAX_SIEVE_BOUND >= 10**6  # LARGE_PRIMES below sieves to 10^6
    for bound in (MAX_SIEVE_BOUND + 1, 10**12, 10**100):
        with pytest.raises(SieveLimitError, match="above the sieve limit"):
            primes_up_to(bound)


# -- is_prime ----------------------------------------------------------------

def test_is_prime_matches_trial_division():
    for n in range(-5, 5000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_larger_samples():
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31)
    assert is_prime(1_000_000_007)
    assert not is_prime(1_000_000_007 * 998_244_353)


def test_is_prime_rejects_the_pseudoprime_to_twelve_bases():
    assert PSI_12 == 399165290221 * 798330580441
    assert all(strong_probable_prime(PSI_12, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert not is_prime(PSI_12)


def test_is_prime_refuses_to_answer_at_its_limit():
    # psi_13 fools all 13 bases, so no answer at or above it would be proven
    assert PROVEN_PRIME_LIMIT == PSI_13
    assert all(strong_probable_prime(PSI_13, a) for a in arith._MR_BASES)
    assert not is_prime(PSI_13 - 1)
    for n in (PSI_13, PSI_13 + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


# -- kronecker ---------------------------------------------------------------

def test_kronecker_fixed_values():
    assert kronecker(2, 19) == -1
    assert kronecker(5, 19) == 1
    assert kronecker(0, 19) == 0
    assert kronecker(19, 19) == 0


def test_kronecker_degenerate_moduli():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0
    assert kronecker(5, 1) == 1
    assert kronecker(0, 1) == 1
    assert kronecker(3, -1) == 1
    assert kronecker(-3, -1) == -1


def test_kronecker_at_two():
    # (a|2) = 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
    assert kronecker(4, 2) == 0
    assert kronecker(7, 2) == 1
    assert kronecker(9, 2) == 1
    assert kronecker(3, 2) == -1
    assert kronecker(5, 2) == -1


def test_kronecker_matches_euler_criterion():
    for p in primes_up_to(200):
        if p == 2:
            continue
        for a in range(-p, 2 * p):
            assert kronecker(a, p) == euler_chi(a, p), (a, p)


def test_kronecker_zero_iff_common_factor():
    rng = random.Random(7)
    for _ in range(500):
        a = rng.randint(-200, 200)
        n = rng.randint(-200, 200)
        from math import gcd

        if n == 0:
            continue
        assert (kronecker(a, n) == 0) == (gcd(a, n) != 1), (a, n)


def test_kronecker_completely_multiplicative():
    rng = random.Random(11)
    for _ in range(500):
        a = rng.randint(-100, 100)
        b = rng.randint(-100, 100)
        n = rng.randint(-60, 60)
        m = rng.randint(-60, 60)
        if n:
            assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n), (a, b, n)
        if n and m:
            assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m), (a, n, m)


def test_kronecker_periodic_mod_odd_prime():
    rng = random.Random(13)
    for p in (3, 7, 19, 37, 101):
        for _ in range(50):
            a = rng.randint(-500, 500)
            assert kronecker(a, p) == kronecker(a + p, p)


# -- factorize ---------------------------------------------------------------

def test_factorize_fixed_values():
    assert factorize(1406) == [(2, 1), (19, 1), (37, 1)]
    assert factorize(432) == [(2, 4), (3, 3)]
    assert factorize(-432) == [(2, 4), (3, 3)]
    assert factorize(1) == []
    assert factorize(-1) == []
    assert factorize(97) == [(97, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


SMALL_PRIMES = primes_up_to(20_000)
LARGE_PRIMES = primes_up_to(1_000_000)[-2000:]


@st.composite
def factored_integers(draw):
    """A nonzero integer built from random primes (some above the trial bound,
    repeats allowed), perhaps raised to a power, times at most one prime near
    1e6 (so that the oracle stops below 20000)."""
    n = 1
    for _ in range(draw(st.integers(0, 6))):
        n *= draw(st.sampled_from(SMALL_PRIMES)) ** draw(st.integers(1, 4))
    n **= draw(st.integers(1, 3))
    if draw(st.booleans()):
        n *= draw(st.sampled_from(LARGE_PRIMES))
    return n * draw(st.sampled_from((1, -1)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(factored_integers())
def test_factorize_matches_trial_division_oracle(n):
    factors = factorize(n)
    assert factors == trial_division_factorize(n)
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes))
    assert all(trial_division_is_prime(p) for p in primes)


def test_factorize_twist_discriminant():
    # the twist of curve A by d = 7 * 1000003: discriminant 6^12 * d^6 * disc(A)
    E = make_model(1, 1, 1, -614, -5501)
    d = 7 * 1_000_003
    twist = make_model(0, 0, 0, -27 * E.c4 * d * d, -54 * E.c6 * d ** 3)
    assert twist.disc == 6 ** 12 * d ** 6 * E.disc
    assert factorize(E.disc) == [(2, 5), (19, 5), (37, 1)]
    assert factorize(twist.disc) == [(2, 17), (3, 12), (7, 6), (19, 5), (37, 1), (1_000_003, 6)]
    assert twist.bad_primes == (2, 3, 7, 19, 37, 1_000_003)


def test_factorize_semiprime_with_two_nine_digit_factors_is_fast():
    start = time.perf_counter()
    assert factorize(999_999_929 * 999_999_937) == [(999_999_929, 1), (999_999_937, 1)]
    assert time.perf_counter() - start < 1.0


def test_factorize_semiprime_with_two_twelve_digit_factors():
    # within RHO_MAX_STEPS
    assert factorize(700_000_000_009 * 999_999_999_989) == [(700_000_000_009, 1), (999_999_999_989, 1)]


def test_factorize_large_prime_powers():
    m61 = 2 ** 61 - 1
    assert factorize(-(m61 ** 3) * 1009 ** 2) == [(1009, 2), (m61, 3)]
    q = 10 ** 20 + 39  # prime, so q^2 is past the reach of rho but a perfect square
    assert is_prime(q)
    assert factorize(432 * q * q) == [(2, 4), (3, 3), (q, 2)]


def test_factorize_fails_on_a_prime_cofactor_beyond_the_proven_range():
    with pytest.raises(FactorizationError, match="cannot be proven"):
        factorize(6 * (2 ** 89 - 1))
    assert issubclass(FactorizationError, ValueError)


def test_factorize_fails_fast_on_a_large_cofactor_rho_cannot_split():
    # a 340-digit product of two Mersenne primes: a rho step costs about 50x
    # more than on a 40-digit cofactor, and the step cap shrinks to match
    n = (2 ** 521 - 1) * (2 ** 607 - 1)
    start = time.perf_counter()
    with pytest.raises(FactorizationError, match="340-digit cofactor within 243037 steps"):
        factorize(n)
    assert time.perf_counter() - start < 10


def test_factorize_refuses_a_cofactor_above_the_digit_limit():
    assert arith.MAX_COFACTOR_DIGITS == 1000
    with pytest.raises(FactorizationError, match="more than 1000 digits"):
        factorize(6 * 1009 ** 334)
    # the limit applies to what trial division leaves over
    assert factorize(2 ** 5000 * 1009 ** 2) == [(2, 5000), (1009, 2)]


def test_factorize_fails_when_rho_passes_its_step_cap(monkeypatch):
    monkeypatch.setattr(arith, "RHO_MAX_STEPS", 1000)
    with pytest.raises(FactorizationError, match="1000 steps"):
        factorize(700_000_000_009 * 999_999_999_989)
    assert factorize(1009 * 1013) == [(1009, 1), (1013, 1)]


def test_factorize_reconstructs_and_is_prime():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(-10 ** 9, 10 ** 9)
        if n == 0:
            continue
        factors = factorize(n)
        prod = 1
        for p, e in factors:
            assert e >= 1
            assert trial_division_is_prime(p) if p < 10 ** 6 else is_prime(p)
            prod *= p ** e
        assert prod == abs(n)
        assert factors == sorted(factors)
