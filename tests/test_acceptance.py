"""Acceptance suite: the end-to-end guarantees, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import random
import time
from math import gcd

from steinberg import (
    QuadraticCharacter,
    ReductionType,
    a_p,
    certify_congruence,
    change_coordinates,
    check_theorem_a,
    conductor,
    count_points_enumeration,
    irreducibility_certificate,
    kronecker,
    make_model,
    parse_curve_file,
    primes_up_to,
    reverify_congruence,
    reverify_verdict,
    scan_level,
    tate_local,
    unramified_at,
    verify_irreducibility_certificate,
)

A_INVARIANTS_A = (1, 1, 1, -614, -5501)
A_INVARIANTS_B = (1, -1, 1, -1191, 507615)


def _report(n: int, desc: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL {desc}")
        raise
    print(f"ACCEPTANCE {n} PASS {desc}")


def _random_model(rng):
    while True:
        try:
            return make_model(*(rng.randint(-8, 8) for _ in range(5)))
        except ValueError:
            continue


def test_criterion_1_invariants_and_conductor():
    def check():
        a = make_model(*A_INVARIANTS_A)
        b = make_model(*A_INVARIANTS_B)
        assert a.disc == 2931701216
        assert b.disc == -111076295671808
        assert conductor(a) == 1406
        assert conductor(b) == 1406

        conductor(a)  # warm path before timing
        best = min(
            _timed(lambda: conductor(make_model(*A_INVARIANTS_A))) for _ in range(50)
        )
        assert best < 1e-3, f"conductor took {best * 1e3:.3f} ms"

    _report(1, "discriminants and conductor 1406 for both curves, under 1 ms", check)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_reduction_and_sign_tables():
    def check():
        a = make_model(*A_INVARIANTS_A)
        b = make_model(*A_INVARIANTS_B)
        expected = {
            (a, 2): (ReductionType.SPLIT_MULTIPLICATIVE, 5, 1, 1),
            (a, 19): (ReductionType.NONSPLIT_MULTIPLICATIVE, 5, 1, -1),
            (a, 37): (ReductionType.NONSPLIT_MULTIPLICATIVE, 1, 1, -1),
            (b, 2): (ReductionType.SPLIT_MULTIPLICATIVE, 15, 1, 1),
            (b, 19): (ReductionType.SPLIT_MULTIPLICATIVE, 5, 1, 1),
            (b, 37): (ReductionType.NONSPLIT_MULTIPLICATIVE, 2, 1, -1),
        }
        for (model, p), (rtype, v, f, sign) in expected.items():
            data = tate_local(model, p)
            assert (data.rtype, data.v_min_disc, data.f_p, data.a_p) == (
                rtype,
                v,
                f,
                sign,
            ), (model.a_invariants, p)

    _report(2, "reduction types, valuations and signs at 2, 19, 37 for both curves", check)


def test_criterion_3_point_count_at_3():
    def check():
        a = make_model(*A_INVARIANTS_A)
        assert 3 + 1 - a_p(a, 3) == 2
        assert a_p(a, 3) == 2

    _report(3, "curve A has 2 points over F_3, so a_3 = 2", check)


def test_criterion_4_irreducibility_certificate():
    def check():
        a = make_model(*A_INVARIANTS_A)
        cert = irreducibility_certificate(a, 5, 100)
        assert cert is not None
        assert cert.q == 3 and cert.a_q == 2
        assert (cert.trace_mod_ell, cert.det_mod_ell) == (2, 3)
        assert cert.disc_mod_ell == 2
        assert verify_irreducibility_certificate(cert)

    _report(4, "mod-5 irreducibility witnessed at q = 3 with nonresidue disc 2", check)


def test_criterion_5_ramification_dichotomy():
    def check():
        a = make_model(*A_INVARIANTS_A)
        assert unramified_at(a, 19, 5) is True
        assert unramified_at(a, 37, 5) is False

    _report(5, "mod-5 representation unramified at 19, ramified at 37", check)


def test_criterion_6_theorem_verdicts():
    def check():
        a = make_model(*A_INVARIANTS_A)
        good = check_theorem_a(a, 19, 5)
        assert good.conclusion.value == "existence_certified"
        assert good.failed_checks == ()

        bad_p = check_theorem_a(a, 37, 5)
        assert bad_p.conclusion.value == "hypothesis_failed"
        assert bad_p.failed_checks == ("p_is_minus_one_mod_ell", "unramified_at_p")
        assert 37 % 5 == 2

        bad_ell = check_theorem_a(a, 19, 7)
        assert bad_ell.conclusion.value == "hypothesis_failed"
        assert bad_ell.failed_checks == ("p_is_minus_one_mod_ell", "unramified_at_p")
        assert 19 % 7 == 5

    _report(6, "verdicts: certified at (19,5), hypothesis failures at (37,5) and (19,7)", check)


def test_criterion_7_congruence_certificate():
    def check():
        a = make_model(*A_INVARIANTS_A)
        b = make_model(*A_INVARIANTS_B)
        t0 = time.perf_counter()
        cert = certify_congruence(a, b, 5, QuadraticCharacter(19))
        elapsed = time.perf_counter() - t0
        assert cert.passed
        assert cert.twisted_level_value == 26714
        assert cert.sturm_bound_value == 7220
        assert cert.primes_checked == 922
        assert cert.excluded_primes == (19,)
        assert elapsed <= 5.0, f"certification took {elapsed:.2f} s"

    _report(7, "twisted congruence mod 5 certified to Sturm bound 7220 within 5 s", check)


def test_criterion_8_property_suites():
    def check():
        rng = random.Random(190537)

        # Hasse bound on random curves at every good prime up to 1000
        small_primes = primes_up_to(1000)
        for _ in range(50):
            m = _random_model(rng)
            bad = {p for p in small_primes if m.disc % p == 0}
            for p in small_primes:
                if p in bad:
                    continue
                ap = a_p(m, p)
                assert ap * ap <= 4 * p, (m.a_invariants, p, ap)

        # enumeration agrees with the character-sum count
        a = make_model(*A_INVARIANTS_A)
        for m in (a, _random_model(rng), _random_model(rng)):
            for p in primes_up_to(200):
                if p == 2 or m.disc % p == 0:
                    continue
                assert count_points_enumeration(m, p) == p + 1 - a_p(m, p)

        # c4^3 - c6^2 = 1728 disc and 4 b8 = b2 b6 - b4^2 on random models
        for _ in range(1000):
            m = _random_model(rng)
            assert m.c4**3 - m.c6**2 == 1728 * m.disc
            assert 4 * m.b8 == m.b2 * m.b6 - m.b4**2

        # local data of the worked curve is coordinate-change invariant,
        # including on non-minimal blow-ups of the model
        base = {p: tate_local(a, p) for p in (2, 19, 37)}
        for u, r, s, t in ((1, 1, 0, 0), (-1, 2, -1, 3), (1, -3, 2, -5), (-1, 0, 4, 1)):
            moved = change_coordinates(a, u, r, s, t)
            for p, data in base.items():
                assert tate_local(moved, p) == data, (u, r, s, t, p)
        a1, a2, a3, a4, a6 = a.a_invariants
        for w in (2, 5):
            blown = make_model(
                a1 * w, a2 * w**2, a3 * w**3, a4 * w**4, a6 * w**6
            )
            for p, data in base.items():
                assert tate_local(blown, p) == data, (w, p)

        # kronecker: complete multiplicativity in both arguments, periodicity
        for _ in range(400):
            x, y = rng.randint(-60, 60), rng.randint(-60, 60)
            n, m_ = rng.randint(1, 60), rng.randint(1, 60)
            assert kronecker(x * y, n) == kronecker(x, n) * kronecker(y, n)
            assert kronecker(x, n * m_) == kronecker(x, n) * kronecker(x, m_)
            if n % 2 == 1:
                assert kronecker(x + n, n) == kronecker(x, n)

        # twisting twice by the same character restores a_p away from it
        chi = QuadraticCharacter(19)
        for n in range(-60, 61):
            assert chi(n) ** 2 == (1 if gcd(n, 19) == 1 else 0)

        # every certificate type re-verifies from its stored data
        irr = irreducibility_certificate(a, 5, 100)
        assert irr is not None and verify_irreducibility_certificate(irr)
        for p, ell in ((19, 5), (37, 5), (19, 7)):
            assert reverify_verdict(check_theorem_a(a, p, ell))
        b = make_model(*A_INVARIANTS_B)
        assert reverify_congruence(certify_congruence(a, b, 5, chi))
        failing = certify_congruence(a, make_model(0, -1, 1, -10, -20), 5, QuadraticCharacter(1))
        assert not failing.passed and reverify_congruence(failing)

    _report(8, "property suites: Hasse, counting methods, invariants, kronecker, re-verification", check)


def test_criterion_9_level_scan(tmp_path):
    def check():
        path = tmp_path / "curves.txt"
        path.write_text(
            "exA [1,1,1,-614,-5501]\n"
            "exB [1,-1,1,-1191,507615]\n"
            "dec1 [0,-1,1,-10,-20]\n"
            "dec2 [0,0,0,0,1]\n",
            encoding="utf-8",
        )
        with open(path, encoding="utf-8") as handle:
            records = parse_curve_file(handle)
        report = scan_level(records, 19, 5, QuadraticCharacter(19))
        assert report.level == 1406
        assert [(pair.label_a, pair.label_b) for pair in report.candidates] == [
            ("exA", "exB")
        ]
        assert report.candidates[0].certificate.passed

    _report(9, "level scan isolates exactly the worked pair among decoys", check)