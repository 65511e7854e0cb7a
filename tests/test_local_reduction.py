import random

import pytest

from steinberg import (
    LocalData,
    ReductionType,
    change_coordinates,
    conductor,
    factorize,
    kronecker,
    make_model,
    steinberg_primes,
    tate_local,
    valuation,
)

# Cremona-table conductors spanning the decision tree: multiplicative,
# tame additive at several primes, wild additive at 2 and 3, both square
# and fifth-power 2-parts, and a high prime-square level.
KNOWN_CONDUCTORS = [
    ("11a1", (0, -1, 1, -10, -20), 11),
    ("11a2", (0, -1, 1, -7820, -263580), 11),
    ("27a4", (0, 0, 1, -30, 63), 27),
    ("36a2", (0, 0, 0, -15, 22), 36),
    ("36a4", (0, 0, 0, 0, 1), 36),
    ("32a3", (0, 0, 0, -11, -14), 32),
    ("49a2", (1, -1, 0, -37, -78), 49),
    ("121b1", (0, -1, 1, -7, 10), 121),
    ("256a1", (0, 1, 0, -3, 1), 256),
    ("361a1", (0, 0, 1, -38, 90), 361),
    ("4489a1", (0, 0, 1, -7370, 243528), 4489),
]


def random_model(rng, span=20):
    while True:
        try:
            return make_model(*(rng.randint(-span, span) for _ in range(5)))
        except ValueError:
            continue


def test_worked_curve_local_data(E):
    at2 = tate_local(E, 2)
    assert at2 == LocalData(2, ReductionType.SPLIT_MULTIPLICATIVE, 5, 1, 1)
    at19 = tate_local(E, 19)
    assert at19 == LocalData(19, ReductionType.NONSPLIT_MULTIPLICATIVE, 5, 1, -1)
    at37 = tate_local(E, 37)
    assert at37 == LocalData(37, ReductionType.NONSPLIT_MULTIPLICATIVE, 1, 1, -1)
    at5 = tate_local(E, 5)
    assert at5.rtype is ReductionType.GOOD
    assert (at5.v_min_disc, at5.f_p) == (0, 0)


def test_worked_curve_conductor_and_signs(E, Eprime):
    assert E.bad_primes == Eprime.bad_primes == (2, 19, 37)
    assert conductor(E) == 1406
    assert steinberg_primes(E) == [(2, 1), (19, -1), (37, -1)]
    assert conductor(Eprime) == 1406
    assert steinberg_primes(Eprime) == [(2, 1), (19, 1), (37, -1)]
    assert tate_local(Eprime, 19).rtype is ReductionType.SPLIT_MULTIPLICATIVE


@pytest.mark.parametrize("label,ai,N", KNOWN_CONDUCTORS, ids=[v[0] for v in KNOWN_CONDUCTORS])
def test_known_conductors(label, ai, N):
    assert conductor(make_model(*ai)) == N


def test_short_model_additive_exponents():
    # disc -432 = -2^4 * 3^3; type IV at 2 (f = 4-2) and III at 3 (f = 3-1)
    m = make_model(0, 0, 0, 0, 1)
    at2 = tate_local(m, 2)
    at3 = tate_local(m, 3)
    assert (at2.rtype, at2.v_min_disc, at2.f_p, at2.a_p) == (ReductionType.ADDITIVE, 4, 2, 0)
    assert (at3.rtype, at3.v_min_disc, at3.f_p, at3.a_p) == (ReductionType.ADDITIVE, 3, 2, 0)
    assert steinberg_primes(m) == []


def test_wild_conductor_exponents():
    assert tate_local(make_model(0, 1, 0, -3, 1), 2).f_p == 8
    assert tate_local(make_model(0, 0, 1, -30, 63), 3).f_p == 3
    assert tate_local(make_model(0, 0, 0, -11, -14), 2).f_p == 5


def test_non_minimal_models_classify_like_minimal(E):
    for p in (2, 3, 5, 19, 37):
        big = make_model(*(a * p ** e for e, a in zip((1, 2, 3, 4, 6), E.a_invariants)))
        assert tate_local(big, p) == tate_local(E, p), p


def test_doubly_non_minimal_model(E):
    p = 19
    big = make_model(*(a * p ** (2 * e) for e, a in zip((1, 2, 3, 4, 6), E.a_invariants)))
    assert tate_local(big, p) == tate_local(E, p)


def test_local_data_invariant_under_coordinate_change(E):
    rng = random.Random(37)
    for _ in range(60):
        u = rng.choice((1, -1))
        r, s, t = (rng.randint(-9, 9) for _ in range(3))
        m = change_coordinates(E, u, r, s, t)
        for p in (2, 3, 19, 37):
            assert tate_local(m, p) == tate_local(E, p), (u, r, s, t, p)


def test_conductor_exponent_bounds_on_random_curves():
    rng = random.Random(41)
    for _ in range(60):
        m = random_model(rng)
        for p, _ in factorize(m.disc):
            data = tate_local(m, p)
            cap = 8 if p == 2 else 5 if p == 3 else 2
            assert 0 <= data.f_p <= cap, (m, p)
            assert data.v_min_disc <= valuation(m.disc, p)
            if data.rtype in (
                ReductionType.SPLIT_MULTIPLICATIVE,
                ReductionType.NONSPLIT_MULTIPLICATIVE,
            ):
                assert data.f_p == 1 and data.v_min_disc >= 1
                assert data.a_p == (1 if data.rtype is ReductionType.SPLIT_MULTIPLICATIVE else -1)
            elif data.rtype is ReductionType.ADDITIVE:
                assert data.f_p >= 2 and data.a_p == 0
            else:
                assert data.f_p == 0


def test_split_test_agrees_with_minus_c6_criterion():
    # at p >= 5 on a p-minimal model, split <=> -c6 is a square mod p
    rng = random.Random(43)
    seen = 0
    for _ in range(200):
        m = random_model(rng)
        for p, _ in factorize(m.disc):
            if p < 5:
                continue
            data = tate_local(m, p)
            if data.f_p != 1 or data.v_min_disc != valuation(m.disc, p):
                continue
            seen += 1
            expect_split = kronecker(-m.c6, p) == 1
            assert (data.rtype is ReductionType.SPLIT_MULTIPLICATIVE) == expect_split, (m, p)
    assert seen > 50


def test_tate_local_rejects_composite_p(E):
    with pytest.raises(ValueError):
        tate_local(E, 6)
    with pytest.raises(ValueError):
        tate_local(E, 1)


def test_local_data_serialization_round_trip(E):
    for p in (2, 5, 19, 37):
        data = tate_local(E, p)
        assert LocalData.from_dict(data.to_dict()) == data
