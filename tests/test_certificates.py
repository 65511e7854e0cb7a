import dataclasses
import tracemalloc

import pytest

from steinberg import (
    MAX_SIEVE_BOUND,
    Conclusion,
    IrreducibilityCertificate,
    QuadraticCharacter,
    SieveLimitError,
    TheoremVerdict,
    a_p,
    certify_congruence,
    check_theorem_a,
    conductor,
    irreducibility_certificate,
    kronecker,
    make_model,
    primes_up_to,
    reverify_verdict,
    unramified_at,
    validate_pair,
    verify_irreducibility_certificate,
)


@pytest.fixture(scope="module")
def isogeny_curve():
    # admits a rational 5-isogeny, so the mod-5 representation is reducible
    return make_model(0, -1, 1, -10, -20)


# -- irreducibility ------------------------------------------------------------

def test_irreducibility_certificate_golden(E):
    cert = irreducibility_certificate(E, 5, 100)
    assert cert is not None
    assert cert.q == 3
    assert cert.a_q == 2
    assert (cert.trace_mod_ell, cert.det_mod_ell) == (2, 3)
    assert cert.disc_mod_ell == 2
    assert cert.nonresidue_witness
    assert verify_irreducibility_certificate(cert)


def test_irreducibility_witness_is_least(E):
    cert = irreducibility_certificate(E, 5, 100)
    N = conductor(E)
    for q in primes_up_to(cert.q - 1):
        valid = (5 * N) % q != 0 and kronecker((a_p(E, q) ** 2 - 4 * q) % 5, 5) == -1
        assert not valid, q


def test_witness_rule_skips_primes_dividing_ell_times_the_level(E, monkeypatch):
    import steinberg.certificates as certificates

    calls = []
    monkeypatch.setattr(certificates, "a_p", lambda model, q: calls.append(q) or a_p(model, q))
    # a_2^2 - 8 = -7 is a nonresidue mod 5, but 2 divides the level 1406
    for q in (2, 5, 19, 37):  # 5 is ell, the others divide the level
        assert certificates._witness(E, 5, q) is None, q
    assert calls == []
    cert = irreducibility_certificate(E, 5, 100)
    assert calls == [3]
    for q in (2, 5, 19, 37):
        assert not verify_irreducibility_certificate(dataclasses.replace(cert, q=q)), q
    assert calls == [3]


def test_witness_rule_reads_the_conductor_not_the_discriminant(E):
    # E rescaled by u = 3: 3 divides the discriminant, yet the curve is good there
    scaled = make_model(*(a * 3**i for a, i in zip(E.a_invariants, (1, 2, 3, 4, 6))))
    assert 3 in scaled.bad_primes
    cert = irreducibility_certificate(scaled, 5, 100)
    assert (cert.q, cert.a_q) == (3, 2)
    assert verify_irreducibility_certificate(cert)


def test_irreducibility_absent_for_reducible_curve(isogeny_curve):
    assert irreducibility_certificate(isogeny_curve, 5, 1000) is None


def test_irreducibility_empty_search_range(E):
    assert irreducibility_certificate(E, 5, 2) is None


def test_witness_search_walks_primes_instead_of_sieving(E):
    tracemalloc.start()
    try:
        cert = irreducibility_certificate(E, 5, MAX_SIEVE_BOUND)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.q == 3
    assert peak < 10**6


def test_witness_search_refuses_bad_bounds_before_any_work():
    model = make_model(1, 1, 1, -614, -5501)
    with pytest.raises(ValueError, match="nonnegative"):
        irreducibility_certificate(model, 5, -1)
    with pytest.raises(SieveLimitError, match=f"above the sieve limit {MAX_SIEVE_BOUND}"):
        irreducibility_certificate(model, 5, MAX_SIEVE_BOUND + 1)
    assert not {"bad_primes", "local_memo", "ap_memo"} & set(vars(model))


def test_irreducibility_rejects_bad_ell(E):
    with pytest.raises(ValueError):
        irreducibility_certificate(E, 2, 100)
    with pytest.raises(ValueError):
        irreducibility_certificate(E, 9, 100)


def test_verify_rejects_tampered_certificate(E, Eprime):
    cert = irreducibility_certificate(E, 5, 100)
    tampered = (
        ("curve", Eprime.a_invariants),
        ("q", 7),
        ("a_q", 1),
        ("disc_mod_ell", 1),
        ("det_mod_ell", 4),
    )
    for field, value in tampered:
        broken = dataclasses.replace(cert, **{field: value})
        assert not verify_irreducibility_certificate(broken), field


def test_verify_raises_on_a_singular_curve(E):
    cert = dataclasses.replace(irreducibility_certificate(E, 5, 100), curve=(0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="singular"):
        verify_irreducibility_certificate(cert)


@pytest.mark.parametrize("field, value", [("q", 4), ("ell", 2)])
def test_verify_refuses_a_composite_q_or_ell_2_without_counting_points(E, kernel_calls, field, value):
    cert = dataclasses.replace(irreducibility_certificate(E, 5, 100), **{field: value})
    kernel_calls.clear()
    assert not verify_irreducibility_certificate(cert)
    assert kernel_calls == []


def test_verify_checks_the_witness_at_its_own_q_not_the_least_q(E):
    # the search issues q = 3 for ell = 5; q = 7 is a witness too (a_7^2 - 28
    # is a nonresidue mod 5), and verifying checks only the q it is given
    least = irreducibility_certificate(E, 5)
    assert least.q == 3
    a7 = a_p(E, 7)
    assert kronecker(a7 * a7 - 28, 5) == -1
    later = dataclasses.replace(
        least, q=7, a_q=a7, trace_mod_ell=a7 % 5, det_mod_ell=2, disc_mod_ell=(a7 * a7 - 28) % 5
    )
    assert verify_irreducibility_certificate(later)


def test_irreducibility_serialization_round_trip(E):
    cert = irreducibility_certificate(E, 5, 100)
    assert IrreducibilityCertificate.from_dict(cert.to_dict()) == cert


# -- unramifiedness --------------------------------------------------------------

def test_unramified_at_golden(E):
    assert unramified_at(E, 19, 5)  # v_19 = 5 and 5 | 5
    assert not unramified_at(E, 37, 5)  # v_37 = 1
    assert unramified_at(E, 2, 5)  # v_2 = 5


def test_unramified_at_rejects_bad_inputs(E):
    with pytest.raises(ValueError):
        unramified_at(E, 5, 5)  # p = ell
    with pytest.raises(ValueError):
        unramified_at(E, 3, 5)  # good reduction at 3
    with pytest.raises(ValueError):
        unramified_at(make_model(0, 0, 0, 0, 1), 2, 5)  # additive at 2
    with pytest.raises(ValueError):
        unramified_at(E, 19, 6)


# -- main verdict ----------------------------------------------------------------

def test_verdict_certified(E):
    v = check_theorem_a(E, 19, 5)
    assert v.conclusion is Conclusion.EXISTENCE_CERTIFIED
    assert v.failed_checks == ()
    assert v.steinberg_at_p and v.a_p == -1
    assert v.ell_not_2p and v.ell_coprime_level
    assert v.p_is_minus_one_mod_ell and v.unramified_at_p
    assert v.irreducibility is not None and v.irreducibility.q == 3
    assert (v.level, v.v_min_disc_at_p) == (1406, 5)


def test_verdict_fails_at_37_mod_5(E):
    v = check_theorem_a(E, 37, 5)
    assert v.conclusion is Conclusion.HYPOTHESIS_FAILED
    assert v.failed_checks == ("p_is_minus_one_mod_ell", "unramified_at_p")
    assert v.p % v.ell == 2  # 37 = 2 (mod 5), not -1
    assert v.v_min_disc_at_p == 1


def test_verdict_fails_at_19_mod_7(E):
    v = check_theorem_a(E, 19, 7)
    assert v.conclusion is Conclusion.HYPOTHESIS_FAILED
    assert v.failed_checks == ("p_is_minus_one_mod_ell", "unramified_at_p")
    assert v.p % v.ell == 5  # 19 = 5 (mod 7), not -1
    assert v.v_min_disc_at_p == 5  # but 7 does not divide 5


def test_verdict_inconclusive_when_search_exhausted(E):
    v = check_theorem_a(E, 19, 5, search_bound=2)
    assert v.conclusion is Conclusion.INCONCLUSIVE
    assert v.failed_checks == ()
    assert v.irreducibility is None


def test_verdict_steinberg_failure(E):
    v = check_theorem_a(E, 3, 5)  # good reduction at 3
    assert v.conclusion is Conclusion.HYPOTHESIS_FAILED
    assert "steinberg_at_p" in v.failed_checks


def test_verdict_at_p_equal_to_ell_fails_four_checks(E):
    # ell = p = 19 divides 2p and the level 1406, 19 != -1 (mod 19), and the
    # unramifiedness criterion needs p != ell; only the Steinberg check holds
    v = check_theorem_a(E, 19, 19)
    assert v.conclusion is Conclusion.HYPOTHESIS_FAILED
    assert v.steinberg_at_p
    assert v.failed_checks == (
        "ell_not_2p",
        "ell_coprime_level",
        "p_is_minus_one_mod_ell",
        "unramified_at_p",
    )


def test_verdict_rejects_composite_inputs(E):
    with pytest.raises(ValueError):
        check_theorem_a(E, 4, 5)
    with pytest.raises(ValueError):
        check_theorem_a(E, 19, 15)


@pytest.mark.parametrize("ell", [2, 5])
def test_verdict_rejects_a_negative_search_bound_before_any_work(ell):
    model = make_model(1, 1, 1, -614, -5501)
    with pytest.raises(ValueError, match="search bound must be nonnegative"):
        check_theorem_a(model, 19, ell, -5)
    assert not {"bad_primes", "local_memo", "ap_memo"} & set(vars(model))


def test_verdict_reverification(E):
    for p, ell in ((19, 5), (37, 5), (19, 7)):
        v = check_theorem_a(E, p, ell)
        assert reverify_verdict(v), (p, ell)
    tampered = dataclasses.replace(check_theorem_a(E, 19, 5), unramified_at_p=False)
    assert not reverify_verdict(tampered)


def test_verdict_serialization_round_trip(E):
    for p, ell in ((19, 5), (37, 5)):
        v = check_theorem_a(E, p, ell)
        assert TheoremVerdict.from_dict(v.to_dict()) == v


# -- pair validation ---------------------------------------------------------------

@pytest.fixture(scope="module")
def pair_certificate(E, Eprime):
    return certify_congruence(E, Eprime, 5, QuadraticCharacter(19))


def test_validate_pair_consistent(E, Eprime, pair_certificate):
    report = validate_pair(E, Eprime, 19, pair_certificate)
    assert report.consistent
    assert report.p_is_minus_one_mod_ell and report.unramified_at_p
    assert report.inconsistencies == ()
    assert report.to_dict()["consistent"] is True


def test_validate_pair_rejects_equal_signs(E, Eprime, pair_certificate):
    with pytest.raises(ValueError, match="not opposite"):
        validate_pair(E, E, 19, pair_certificate)
    with pytest.raises(ValueError, match="not opposite"):
        validate_pair(E, Eprime, 37, pair_certificate)  # both nonsplit at 37


def test_validate_pair_rejects_wrong_certificate(E, Eprime, pair_certificate):
    swapped = dataclasses.replace(pair_certificate, curve_a=(0, -1, 1, -10, -20))
    with pytest.raises(ValueError, match="different curves"):
        validate_pair(E, Eprime, 19, swapped)


def test_validate_pair_rejects_unexcluded_prime(E, Eprime, pair_certificate):
    # a certificate whose twist does not vanish at p says nothing about p
    retwisted = dataclasses.replace(pair_certificate, twist=QuadraticCharacter(5))
    with pytest.raises(ValueError, match="does not exclude"):
        validate_pair(E, Eprime, 19, retwisted)


def test_validate_pair_rejects_failing_certificate(E, Eprime, isogeny_curve):
    failing = certify_congruence(E, isogeny_curve, 5, QuadraticCharacter(1))
    assert not failing.passed
    with pytest.raises(ValueError, match="not a passing"):
        validate_pair(E, Eprime, 19, failing)


def test_validate_pair_rejects_a_prime_that_is_not_steinberg(E, Eprime, pair_certificate):
    # both curves have good reduction at 3
    with pytest.raises(ValueError, match="not a Steinberg prime"):
        validate_pair(E, Eprime, 3, pair_certificate)


def test_validate_pair_reports_both_inconsistencies(E, Eprime, pair_certificate):
    # A and B are not congruent mod 7 after the twist by 19, as the reverse
    # implication predicts: 19 = 5 (mod 7) and 7 does not divide
    # v_19(min disc) = 5.  A passing certificate mod 7 has to be built by hand.
    assert not certify_congruence(E, Eprime, 7, pair_certificate.twist).passed
    forged = dataclasses.replace(pair_certificate, ell=7)
    report = validate_pair(E, Eprime, 19, forged)
    assert not report.consistent
    assert not report.p_is_minus_one_mod_ell and not report.unramified_at_p
    assert report.inconsistencies == ("p_is_minus_one_mod_ell", "unramified_at_p")


def test_validate_pair_checks_unramifiedness_on_both_curves():
    # N = 350, p = 2, ell = 3: v_2(min disc) is 3 on A but 2 on B, so B is
    # ramified at 2 and the pair is inconsistent whichever curve comes first
    A, B = make_model(1, 1, 0, 5, 5), make_model(1, 1, 1, -13, 31)
    cert = certify_congruence(A, B, 3, QuadraticCharacter(2))
    assert cert.passed and cert.sturm_bound_value == 240
    for first, second in ((A, B), (B, A)):
        report = validate_pair(first, second, 2, cert)
        assert report.inconsistencies == ("unramified_at_p",)
        assert report.p_is_minus_one_mod_ell and not report.unramified_at_p


def test_validate_pair_agrees_with_each_curves_verdict(E, Eprime, pair_certificate):
    # the pair report and the existence test decide the two conditions with
    # the same code: p = -1 (mod ell) on its own, unramifiedness on each curve
    A, B = make_model(1, 1, 0, 5, 5), make_model(1, 1, 1, -13, 31)
    N350 = certify_congruence(A, B, 3, QuadraticCharacter(2))
    for first, second, p, cert in ((E, Eprime, 19, pair_certificate), (A, B, 2, N350)):
        verdicts = [check_theorem_a(model, p, cert.ell) for model in (first, second)]
        for x, y in ((first, second), (second, first)):
            report = validate_pair(x, y, p, cert)
            for v in verdicts:
                assert report.p_is_minus_one_mod_ell == v.p_is_minus_one_mod_ell
            assert report.unramified_at_p == all(v.unramified_at_p for v in verdicts)
    assert [v.unramified_at_p for v in verdicts] == [True, False]


def test_validate_pair_refuses_ell_dividing_2p(E, Eprime, pair_certificate):
    # 26b1 and 26a1 have opposite signs at 13 and certify mod 2 after the
    # twist by 13, but the theorem assumes ell coprime to 2p
    A, B = make_model(1, -1, 1, -3, 3), make_model(1, 0, 1, -5, -8)
    cert = certify_congruence(A, B, 2, QuadraticCharacter(13))
    assert cert.passed and cert.sturm_bound_value == 91
    for first, second in ((A, B), (B, A)):
        with pytest.raises(ValueError, match="divides 2p"):
            validate_pair(first, second, 13, cert)
    with pytest.raises(ValueError, match="divides 2p"):
        validate_pair(E, Eprime, 19, dataclasses.replace(pair_certificate, ell=19))
