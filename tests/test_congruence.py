import dataclasses
from math import gcd, isqrt

import pytest

from steinberg import (
    CongruenceCertificate,
    QuadraticCharacter,
    a_p,
    certify_congruence,
    index_gamma0,
    kronecker,
    make_model,
    primes_up_to,
    reverify_congruence,
    sturm_bound,
    twisted_level,
)


@pytest.fixture(scope="module")
def chi19():
    return QuadraticCharacter(19)


@pytest.fixture(scope="module")
def paper_cert(E, Eprime, chi19):
    return certify_congruence(E, Eprime, 5, chi19)


# -- quadratic characters --------------------------------------------------------

def test_character_values(chi19):
    assert chi19(19) == 0
    assert chi19(38) == 0
    assert chi19(1) == 1
    assert chi19(4) == 1
    assert chi19(2) == -1  # 2 is not a square mod 19
    assert chi19(5) == 1  # 9^2 = 81 = 5 (mod 19)


def test_character_agrees_with_kronecker(chi19):
    for n in range(-100, 101):
        assert chi19(n) == kronecker(n, 19)


def test_character_double_twist(chi19):
    # psi^2 is the principal character mod 19
    for n in range(-60, 61):
        assert chi19(n) ** 2 == (1 if gcd(n, 19) == 1 else 0)


def test_character_rejects_zero_modulus():
    with pytest.raises(ValueError):
        QuadraticCharacter(0)


def test_trivial_character_is_constant_one():
    one = QuadraticCharacter(1)
    assert all(one(n) == 1 for n in range(-20, 21))


def test_character_serialization_round_trip(chi19):
    assert QuadraticCharacter.from_dict(chi19.to_dict()) == chi19


# -- levels and bounds -------------------------------------------------------------

def test_index_gamma0_golden():
    assert index_gamma0(1) == 1
    assert index_gamma0(4) == 6
    assert index_gamma0(11) == 12
    assert index_gamma0(1406) == 2280
    assert index_gamma0(26714) == 43320


def test_index_gamma0_multiplicative_on_coprimes():
    for m, n in ((5, 7), (4, 9), (11, 1406 // 2), (8, 27)):
        assert index_gamma0(m * n) == index_gamma0(m) * index_gamma0(n)


def test_index_gamma0_rejects_nonpositive():
    for M in (0, -4):
        with pytest.raises(ValueError):
            index_gamma0(M)


def test_sturm_bound_golden():
    assert sturm_bound(26714, 2) == 7220
    assert sturm_bound(11, 2) == 2
    assert sturm_bound(1, 2) == 0
    assert sturm_bound(1406, 2) == 380


def test_sturm_bound_rejects_bad_weight():
    with pytest.raises(ValueError):
        sturm_bound(11, 0)


def test_twisted_level_golden():
    assert twisted_level(1406, 19) == 26714
    assert twisted_level(11, 1) == 11
    assert twisted_level(11, 3) == 99
    # kronecker(n, 2) has period 8, so the twist by 2 lives at lcm(12, 8^2)
    assert twisted_level(12, 2) == 192
    assert twisted_level(1406, 38) == 854848  # 2^6 * 19^2 * 37


def test_twisted_level_squares_a_period_of_the_character():
    for d in range(-60, 61):
        if d == 0:
            continue
        # the true period is at most 8|d|; a window of 16|d| values finds it
        values = [kronecker(n, d) for n in range(1, 16 * abs(d) + 1)]
        period = next(
            q for q in range(1, 8 * abs(d) + 1)
            if all(values[i] == values[i + q] for i in range(len(values) - q))
        )
        m = isqrt(twisted_level(1, d))  # the modulus twisted_level squares
        assert m * m == twisted_level(1, d)
        assert m % period == 0, (d, period, m)


def test_twisted_level_rejects_bad_inputs():
    with pytest.raises(ValueError):
        twisted_level(0, 19)
    with pytest.raises(ValueError):
        twisted_level(11, 0)


# -- the certified congruence -------------------------------------------------------

def test_certified_congruence_golden(paper_cert):
    cert = paper_cert
    assert cert.passed
    assert cert.counterexample is None
    assert cert.twisted_level_value == 26714
    assert cert.sturm_bound_value == 7220
    assert cert.excluded_primes == (19,)
    assert cert.primes_checked == 922
    # excluded and checked partition the primes up to the bound
    assert cert.primes_checked + len(cert.excluded_primes) == len(primes_up_to(7220))


def test_certified_congruence_witnesses_spot_check(E, Eprime, paper_cert):
    # the congruence itself, rechecked at a few primes away from 19
    for p in (2, 3, 5, 7, 37, 101, 7219):
        assert (a_p(E, p) - a_p(Eprime, p)) % 5 == 0, p


def test_congruence_with_wider_twist(E, Eprime):
    cert = certify_congruence(E, Eprime, 5, QuadraticCharacter(38))
    assert cert.passed
    assert cert.twisted_level_value == 854848
    assert cert.sturm_bound_value == 231040
    assert cert.excluded_primes == (2, 19)
    assert cert.primes_checked == 20523


def test_self_congruence_trivial_twist(E):
    cert = certify_congruence(E, E, 5, QuadraticCharacter(1))
    assert cert.passed
    assert cert.sturm_bound_value == 380
    assert cert.excluded_primes == ()
    assert cert.counterexample is None


def test_failing_congruence_reports_least_counterexample(E):
    other = make_model(0, -1, 1, -10, -20)
    cert = certify_congruence(E, other, 5, QuadraticCharacter(1))
    assert not cert.passed
    assert cert.counterexample == (2, 1, -2)
    assert cert.primes_checked == 1  # scan stops at the first failure
    assert cert.sturm_bound_value == 4560
    # the witness is honest
    assert a_p(E, 2) == 1 and a_p(other, 2) == -2
    assert (1 - (-2)) % 5 != 0


def test_failing_congruence_is_symmetric(E):
    other = make_model(0, -1, 1, -10, -20)
    forward = certify_congruence(E, other, 5, QuadraticCharacter(1))
    backward = certify_congruence(other, E, 5, QuadraticCharacter(1))
    assert not forward.passed and not backward.passed
    p, ta, tb = forward.counterexample
    assert backward.counterexample == (p, tb, ta)


def test_congruence_rejects_composite_ell(E, Eprime):
    with pytest.raises(ValueError):
        certify_congruence(E, Eprime, 4, QuadraticCharacter(19))


def test_reverify_congruence(E, paper_cert):
    assert reverify_congruence(paper_cert)
    fast = certify_congruence(E, E, 5, QuadraticCharacter(1))
    assert reverify_congruence(fast)
    for tampered in (
        dataclasses.replace(fast, passed=False),
        dataclasses.replace(fast, sturm_bound_value=100),
        dataclasses.replace(fast, excluded_primes=(7,)),
    ):
        assert not reverify_congruence(tampered)


def test_certificate_serialization_round_trip(E, paper_cert):
    assert CongruenceCertificate.from_dict(paper_cert.to_dict()) == paper_cert
    failing = certify_congruence(
        E, make_model(0, -1, 1, -10, -20), 5, QuadraticCharacter(1)
    )
    assert CongruenceCertificate.from_dict(failing.to_dict()) == failing
    assert failing.to_dict()["status"] == "fail"
    assert paper_cert.to_dict()["status"] == "pass"