import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import steinberg.frobenius as frob
from steinberg import (
    ApTable,
    a_p,
    ap_table,
    count_points_enumeration,
    factorize,
    is_prime,
    make_model,
    primes_up_to,
    tate_local,
)
from steinberg.frobenius import count_reduced_points


def random_model(rng, span=20):
    while True:
        try:
            return make_model(*(rng.randint(-span, span) for _ in range(5)))
        except ValueError:
            continue


def good_primes(model, bound):
    bad = {p for p, _ in factorize(model.disc)}
    return [p for p in primes_up_to(bound) if p not in bad]


# -- golden counts -------------------------------------------------------------

def test_count_points_golden(E):
    assert 3 + 1 - a_p(E, 3) == 2
    assert a_p(E, 3) == 2


def test_count_points_short_model():
    m = make_model(0, 0, 0, 0, 1)
    assert 5 + 1 - a_p(m, 5) == 6
    assert count_points_enumeration(m, 5) == 6
    assert a_p(m, 5) == 0


def test_count_points_on_non_minimal_good_model(E):
    # good at 3 even though 3^12 divides this model's discriminant
    big = make_model(*(a * 3 ** e for e, a in zip((1, 2, 3, 4, 6), E.a_invariants)))
    assert 3 + 1 - a_p(big, 3) == 3 + 1 - a_p(E, 3) == 2
    with pytest.raises(ValueError):
        count_points_enumeration(big, 3)


def test_enumeration_rejects_singular_reduction(E):
    with pytest.raises(ValueError):
        count_points_enumeration(E, 19)


def test_a_p_and_enumeration_reject_a_composite_p():
    m = make_model(0, -1, 1, -10, -20)  # 11a1: odd discriminant, nonsingular mod 4
    with pytest.raises(ValueError, match="not prime"):
        a_p(m, 4)
    with pytest.raises(ValueError, match="not prime"):
        count_points_enumeration(m, 4)


# -- the two counting methods agree --------------------------------------------

def test_enumeration_matches_legendre_sum_on_battery():
    rng = random.Random(47)
    for _ in range(3):
        m = random_model(rng, span=15)
        for p in good_primes(m, 200):
            if p <= 3:
                continue
            assert count_reduced_points(m, p) == count_points_enumeration(m, p), (m, p)


def test_enumeration_matches_legendre_sum_worked_curve(E):
    for p in good_primes(E, 150):
        if p > 3:
            assert count_reduced_points(E, p) == count_points_enumeration(E, p)


@pytest.mark.parametrize("ai", [(1, 1, 1, -614, -5501), (1, -1, 1, -1191, 507615), (0, 0, 0, 0, 1), (0, 0, 0, -1, 0)])
def test_enumeration_matches_kernel_across_mestre_cutoff(ai):
    # 200 < p < 400 covers the Legendre sum (p <= 229) and baby-step/giant-step
    m = make_model(*ai)
    primes = [p for p in good_primes(m, 400) if p > 200]
    assert min(primes) <= frob._MESTRE_BOUND < max(primes)
    for p in primes:
        assert count_reduced_points(m, p) == count_points_enumeration(m, p), (ai, p)


@settings(derandomize=True, deadline=None)
@given(
    ai=st.tuples(*[st.integers(-10, 10)] * 5),
    p=st.sampled_from(primes_up_to(400)),
)
def test_enumeration_matches_kernel_hypothesis(ai, p):
    try:
        m = make_model(*ai)
    except ValueError:
        assume(False)
    assume(m.disc % p != 0)
    assert count_reduced_points(m, p) == count_points_enumeration(m, p)


def test_kernel_raises_when_candidates_do_not_narrow():
    # below Mestre's bound the candidates may never narrow: y^2 = x^3 + x has
    # 20 points over F_29 and its twist 40, and both group exponents have two
    # multiples in the Hasse interval; the loop over x ends and raises
    with pytest.raises(ArithmeticError):
        frob._shanks_mestre(1, 0, 29)


# -- against the independent Legendre sum in oracles.py ---------------------------

@pytest.mark.parametrize("ai", [(1, 1, 1, -614, -5501), (1, -1, 1, -1191, 507615)], ids=["A", "B"])
def test_every_good_count_up_to_the_paper_sturm_bound_matches_the_oracle(ai):
    # 7220 is the Sturm bound at level 26714, where the paper's pair is certified
    model = make_model(*ai)
    entries = ap_table(model, 7220).entries
    for p in good_primes(model, 7220):
        if p > 3:
            assert p + 1 - entries[p] == oracles.count_points(model, p), p


def test_kernel_matches_the_oracle_on_every_curve_over_the_first_prime_above_mestre():
    # every nonsingular y^2 = x^3 + A·x + B over F_233: besides the common
    # path this reaches each rare branch of baby-step/giant-step (an early
    # x-repeat, S = O, a giant point O or ±S, doubling a point of order 2)
    p = 233
    assert primes_up_to(p)[-2] <= frob._MESTRE_BOUND < p
    chi = oracles.residue_symbols(p)
    for A in range(p):
        for B in range(p):
            if (4 * A * A * A + 27 * B * B) % p:
                assert frob._shanks_mestre(A, B, p) == oracles.short_count(A, B, p, chi), (A, B)


# -- closed forms at large primes --------------------------------------------------

def next_prime(n, residue, modulus):
    """The least prime q > n with q = residue (mod modulus)."""
    q = n + 1
    while q % modulus != residue or not is_prime(q):
        q += 1
    return q


@pytest.mark.parametrize("start", [2**25, 10**9])
@pytest.mark.parametrize(
    "ai, residue, modulus",
    [((0, 0, 0, 0, 1), 2, 3), ((0, 0, 0, -1, 0), 3, 4)],
    ids=["x3+1", "x3-x"],
)
def test_supersingular_count_at_large_primes(ai, residue, modulus, start):
    p = next_prime(start, residue, modulus)
    m = make_model(*ai)
    assert count_reduced_points(m, p) == p + 1
    assert p + 1 - a_p(m, p) == p + 1


def test_hasse_bound_and_twist_sum_near_a_million(E):
    p = next_prime(10**6, 1, 2)
    ap = a_p(E, p)
    assert ap * ap <= 4 * p
    # the twist of y^2 = x^3 + A·x + B by a nonresidue d is y^2 = x^3 + A·d^2·x + B·d^3
    A, B = -27 * E.c4, -54 * E.c6
    d = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
    twist = make_model(0, 0, 0, A * d * d, B * d ** 3)
    assert count_reduced_points(make_model(0, 0, 0, A, B), p) == p + 1 - a_p(E, p)
    assert p + 1 - a_p(E, p) + count_reduced_points(twist, p) == 2 * p + 2


# -- Hasse bound ----------------------------------------------------------------

def test_hasse_bound_on_random_curves():
    rng = random.Random(53)
    for _ in range(50):
        m = random_model(rng)
        bad = {p for p, _ in factorize(m.disc)}
        table = ap_table(m, 1000)
        for p, ap in table.entries.items():
            if p not in bad:
                assert ap * ap <= 4 * p, (m, p, ap)


def test_hasse_bound_near_sturm_scale(E):
    for p in (7193, 7211, 7219):
        ap = a_p(E, p)
        assert ap * ap <= 4 * p


# -- ap_table --------------------------------------------------------------------

def test_ap_table_golden(E):
    table = ap_table(E, 40)
    assert table.entries[2] == 1
    assert table.entries[3] == 2
    assert table.entries[5] == 3
    assert table.entries[19] == -1
    assert table.entries[37] == -1
    assert set(table.entries) == set(primes_up_to(40))


def test_ap_table_empty_below_two(E):
    assert ap_table(E, 1).entries == {}


def test_ap_table_matches_pointwise_a_p(E):
    table = ap_table(E, 100)
    for p in (2, 3, 19, 37, 97):
        assert table.entries[p] == a_p(E, p)


def test_ap_table_rejects_negative_bound(E):
    with pytest.raises(ValueError):
        ap_table(E, -1)


def test_ap_table_refuses_a_negative_bound_before_counting():
    model = make_model(1, 1, 1, -614, -5501)
    with pytest.raises(ValueError, match="nonnegative"):
        ap_table(model, -1)
    assert model.ap_memo == {}


def test_ap_table_serialization(E):
    data = ap_table(E, 10).to_dict()
    assert data["bound"] == 10
    assert data["entries"] == [[2, 1], [3, 2], [5, 3], [7, 4]]


# -- the per-model memo ----------------------------------------------------------

A = (1, 1, 1, -614, -5501)


def test_ap_table_reads_a_prefix_of_the_memo():
    fresh_500 = ap_table(make_model(*A), 500).entries
    fresh_2000 = ap_table(make_model(*A), 2000).entries
    grown = make_model(*A)
    assert ap_table(grown, 500).entries == fresh_500
    assert ap_table(grown, 2000).entries == fresh_2000
    shrunk = make_model(*A)
    assert ap_table(shrunk, 2000).entries == fresh_2000
    assert ap_table(shrunk, 500).entries == fresh_500


def test_memo_on_a_non_minimal_model_holds_the_minimal_traces():
    # scaled by u = 5: 5^12 divides the discriminant, yet the curve has good
    # reduction at 5, which the memo must take from Tate's algorithm
    scaled = tuple(a * 5 ** k for a, k in zip(A, (1, 2, 3, 4, 6)))
    model = make_model(*scaled)
    assert 5 in model.bad_primes
    ap_table(model, 2000)
    independent = make_model(*scaled)
    assert model.ap_memo == {p: tate_local(independent, p).a_p for p in primes_up_to(2000)}
    assert model.ap_memo[5] == tate_local(make_model(*A), 5).a_p == 3


def test_memo_belongs_to_one_model_object(kernel_calls):
    first = make_model(*A)
    ap_table(first, 300)
    counted = len(kernel_calls)
    assert counted > 0
    ap_table(first, 300)
    assert a_p(first, 293) == ap_table(first, 300).entries[293]
    assert len(kernel_calls) == counted
    second = make_model(*A)
    assert second == first
    ap_table(second, 300)
    assert len(kernel_calls) == 2 * counted


def test_ap_table_round_trips_through_json(E):
    table = ap_table(E, 200)
    data = json.loads(json.dumps(table.to_dict()))
    assert list(data) == ["curve", "bound", "entries"]
    assert ApTable.from_dict(data) == table
