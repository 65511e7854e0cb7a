import dataclasses
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from steinberg import (
    CongruenceCertificate,
    QuadraticCharacter,
    a_p,
    ap_table,
    certify_congruence,
    conductor,
    factorize,
    index_gamma0,
    kronecker,
    make_model,
    primes_up_to,
    reverify_congruence,
    sturm_bound,
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
    assert QuadraticCharacter(19).level(1406) == 26714
    assert QuadraticCharacter(1).level(11) == 11
    assert QuadraticCharacter(3).level(11) == 99
    # depleting at 2 adds nothing where 2^2 | N already
    assert QuadraticCharacter(2).level(12) == 12
    assert QuadraticCharacter(38).level(1406) == 53428  # 2^2 * 19^2 * 37


def valuation(n, q):
    k = 0
    while n % q == 0:
        n, k = n // q, k + 1
    return k


def test_twisted_level_contains_the_depleted_forms():
    # depleting a level-N newform at a prime q | d raises v_q(N) to
    # max(v_q(N), 2), so the depleted forms live at lcm(N, rad(d)^2)
    for d in range(-60, 61):
        if d == 0:
            continue
        factors = factorize(abs(d))
        primes = [q for q, _ in factors]
        squarefree = all(e == 1 for _, e in factors)
        for N in (1, 2, 4, 8, 12, 350, 1406):
            level = QuadraticCharacter(d).level(N)
            assert level % N == 0, (d, N)
            for q in primes:
                assert valuation(level, q) >= max(valuation(N, q), 2), (d, N, q)
            if squarefree:
                assert level == lcm(N, *(q * q for q in primes)), (d, N)


def test_twisted_level_rejects_bad_inputs():
    with pytest.raises(ValueError):
        QuadraticCharacter(19).level(0)
    with pytest.raises(ValueError):
        QuadraticCharacter(0)


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
    assert cert.twisted_level_value == 53428
    assert cert.sturm_bound_value == 14440
    assert cert.excluded_primes == (2, 19)
    assert cert.primes_checked == 1691
    # the congruence holds past the bound, over the whole range the Sturm
    # bound of lcm(1406, 4 * 38^2) = 854848 would have asked for
    for p in primes_up_to(231040):
        if 38 % p:
            assert (a_p(E, p) - a_p(Eprime, p)) % 5 == 0, p


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


def quadratic_twist(model, d):
    """The twist by Q(sqrt(d)), as y^2 = x^3 - 27·c4·d^2·x - 54·c6·d^3."""
    return make_model(0, 0, 0, -27 * model.c4 * d * d, -54 * model.c6 * d ** 3)


CURVE_15A1 = make_model(1, 1, 1, -10, -10)
CURVE_11A1 = make_model(0, -1, 1, -10, -20)


def test_prime_powers_are_compared_where_reduction_types_differ():
    # 15a1 is good at 7 and its twist by -7 (conductor 735) is additive there.
    # Every a_p agrees mod 2, but a_49 = a_7^2 - 7 = -7 against 0: the forms
    # are not congruent mod 2, and a certificate over the primes alone would
    # pass.
    other = quadratic_twist(CURVE_15A1, -7)
    assert other.a_invariants == (0, 0, 0, -636363, 90368838)
    assert (conductor(CURVE_15A1), conductor(other)) == (15, 735)
    cert = certify_congruence(CURVE_15A1, other, 2, QuadraticCharacter(1))
    assert (cert.twisted_level_value, cert.sturm_bound_value) == (735, 224)
    assert not cert.passed
    assert cert.counterexample == (49, -7, 0)
    assert cert.primes_checked == 15  # the primes below 49
    backward = certify_congruence(other, CURVE_15A1, 2, QuadraticCharacter(1))
    assert backward.counterexample == (49, 0, -7)


def coefficients(model, bound):
    """a_n for n <= bound, built multiplicatively from a_p: a_{q^k} by the
    Hecke recursion where the curve is good, as a_q^k where it is bad."""
    level = conductor(model)
    ap = ap_table(model, bound).entries
    a = [0, 1] + [0] * (bound - 1)
    for n in range(2, bound + 1):
        q = next(p for p in ap if n % p == 0)
        m, qk = n, 1
        while m % q == 0:
            m, qk = m // q, qk * q
        if m > 1:
            a[n] = a[qk] * a[m]
        elif n == q:
            a[n] = ap[q]
        elif level % q == 0:
            a[n] = ap[q] * a[n // q]
        else:
            a[n] = ap[q] * a[n // q] - q * a[n // q // q]
    return a


@pytest.mark.parametrize(
    "pair, ell, modulus",
    [
        ("paper", 5, 19),
        ("15a1, twist -7", 2, 1),
        ("15a1, twist -7", 2, -7),  # 7 is excluded, so no power of 7 counts
        ("11a1, twist -4", 2, 1),  # a_{2^k} is even on both sides
        ("11a1, twist -4", 2, -4),
        ("A, 11a1", 5, 1),
        ("paper", 5, 38),
        ("paper", 7, 38),  # fails at n = 3
        ("N = 350", 3, 2),
    ],
)
def test_certificate_agrees_with_every_coefficient_up_to_the_bound(E, Eprime, pair, ell, modulus):
    curves = {
        "paper": (E, Eprime),
        "15a1, twist -7": (CURVE_15A1, quadratic_twist(CURVE_15A1, -7)),
        "11a1, twist -4": (CURVE_11A1, quadratic_twist(CURVE_11A1, -4)),
        "A, 11a1": (E, CURVE_11A1),
        "N = 350": (make_model(1, 1, 0, 5, 5), make_model(1, 1, 1, -13, 31)),
    }
    assert_certificate_matches_coefficients(*curves[pair], ell, modulus)


def assert_certificate_matches_coefficients(A, B, ell, modulus):
    """PASS exactly when no twisted a_n up to the Sturm bound differs mod ell,
    and otherwise the least n that does."""
    cert = certify_congruence(A, B, ell, QuadraticCharacter(modulus))
    bound = cert.sturm_bound_value
    assert cert.sturm_bound_value == sturm_bound(cert.twisted_level_value, 2)
    a, b = coefficients(A, bound), coefficients(B, bound)
    least = next(
        (n for n in range(1, bound + 1) if kronecker(n, modulus) * (a[n] - b[n]) % ell),
        None,
    )
    if least is None:
        assert cert.passed
    else:
        assert cert.counterexample == (least, a[least], b[least])
    # the primes compared are those up to where the comparison stopped, less the twist's
    ps = primes_up_to(bound if least is None else least)
    assert cert.excluded_primes == tuple(q for q in ps if modulus % q == 0)
    assert cert.primes_checked == len(ps) - len(cert.excluded_primes)


BASE_CURVES = {
    "11a1": CURVE_11A1,
    "14a1": make_model(1, 0, 1, 4, -6),
    "15a1": CURVE_15A1,
    "37a1": make_model(0, 0, 1, -1, 0),
}
TWIST_MODULI = (-4, -3, 5, -7, 8)
# built once, so the a_p each model learns carry over between examples
TWISTED_CURVES = {(name, d): quadratic_twist(E, d) for name, E in BASE_CURVES.items() for d in TWIST_MODULI}


@settings(derandomize=True, deadline=None, max_examples=23)
@given(
    base=st.sampled_from(sorted(BASE_CURVES)),
    d=st.sampled_from(TWIST_MODULI),
    other=st.sampled_from([None, *sorted(BASE_CURVES)]),  # None: the twist of base by d
    ell=st.sampled_from([2, 3, 5, 7]),
    twisted=st.booleans(),
)
# about 2% of the pairs first differ at a prime power; pin two of them
@example(base="14a1", d=-3, other="15a1", ell=3, twisted=True)  # at n = 4
@example(base="37a1", d=5, other=None, ell=2, twisted=False)  # at n = 25
def test_certificate_agrees_with_the_coefficients_of_drawn_pairs(base, d, other, ell, twisted):
    A = BASE_CURVES[base]
    B = TWISTED_CURVES[base, d] if other is None else BASE_CURVES[other]
    modulus = d if twisted else 1
    level = QuadraticCharacter(modulus).level(lcm(conductor(A), conductor(B)))
    assume(sturm_bound(level, 2) <= 5000)
    assert_certificate_matches_coefficients(A, B, ell, modulus)


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
    for status in ("PASS", "bogus"):
        with pytest.raises(ValueError, match="status must be 'pass' or 'fail'"):
            CongruenceCertificate.from_dict({**paper_cert.to_dict(), "status": status})
