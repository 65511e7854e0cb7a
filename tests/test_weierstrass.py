import random

import pytest

from steinberg import change_coordinates, make_model, parse_curve, valuation


def random_model(rng, span=20):
    while True:
        try:
            return make_model(*(rng.randint(-span, span) for _ in range(5)))
        except ValueError:
            continue


def test_worked_curve_discriminant(E):
    assert E.disc == 2 ** 5 * 19 ** 5 * 37
    assert (E.b2, E.b4, E.b6) == (5, -1227, -22003)


def test_short_model_discriminant():
    m = make_model(0, 0, 0, 0, 1)
    assert m.disc == -432
    assert m.c4 == 0


def test_b_and_c_identities_on_random_models():
    rng = random.Random(101)
    for _ in range(1000):
        m = random_model(rng)
        assert m.c4 ** 3 - m.c6 ** 2 == 1728 * m.disc
        assert 4 * m.b8 == m.b2 * m.b6 - m.b4 ** 2


def test_make_model_rejects_singular():
    with pytest.raises(ValueError):
        make_model(0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        make_model(1, 0, 0, 0, 0)


def test_make_model_rejects_non_integers():
    with pytest.raises(ValueError):
        make_model(0, 0, 0, 0, 1.5)
    with pytest.raises(ValueError):
        make_model(0, 0, 0, "0", 1)


def test_model_equality_and_repr(E):
    same = make_model(1, 1, 1, -614, -5501)
    assert same == E
    assert same.a_invariants == (1, 1, 1, -614, -5501)
    assert "[1, 1, 1, -614, -5501]" in repr(E)


# -- parse_curve ---------------------------------------------------------------

def test_parse_curve_golden(E):
    assert parse_curve("[1,1,1,-614,-5501]") == E
    assert parse_curve("  [ 1 , 1 , 1 , -614 , -5501 ]  ") == E


def test_parse_curve_rejects_malformed():
    for bad in ("1,1,1,-614,-5501", "[1,1,1,-614]", "[1,1,1,-614,-5501,0]", "[a,b,c,d,e]", "[]"):
        with pytest.raises(ValueError):
            parse_curve(bad)


def test_parse_curve_rejects_singular():
    with pytest.raises(ValueError):
        parse_curve("[0,0,0,0,0]")


# -- change_coordinates --------------------------------------------------------

def test_change_coordinates_unit_scale_preserves_discriminant(E):
    rng = random.Random(23)
    for _ in range(200):
        u = rng.choice((1, -1))
        r, s, t = (rng.randint(-9, 9) for _ in range(3))
        m = change_coordinates(E, u, r, s, t)
        assert m.disc == E.disc
        assert m.c4 == E.c4


def test_change_coordinates_round_trip(E):
    rng = random.Random(29)
    for _ in range(200):
        r, s, t = (rng.randint(-9, 9) for _ in range(3))
        m = change_coordinates(E, 1, r, s, t)
        back = change_coordinates(m, 1, -r, -s, s * r - t)
        assert back == E


def test_change_coordinates_rescale(E):
    # blowing the coefficients up by p^i and rescaling by u = p round-trips
    p = 7
    big = make_model(*(a * p ** e for e, a in zip((1, 2, 3, 4, 6), E.a_invariants)))
    assert big.disc == E.disc * p ** 12
    assert change_coordinates(big, p, 0, 0, 0) == E


def test_change_coordinates_rejects_non_integral():
    m = make_model(1, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        change_coordinates(m, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        change_coordinates(m, 0, 0, 0, 0)


# -- valuation -------------------------------------------------------------------

def test_valuation_fixed_values():
    assert valuation(2931701216, 2) == 5
    assert valuation(2931701216, 19) == 5
    assert valuation(2931701216, 37) == 1
    assert valuation(-432, 3) == 3
    assert valuation(7, 5) == 0


def test_valuation_is_additive():
    rng = random.Random(31)
    for p in (2, 3, 19):
        for _ in range(200):
            m = rng.randint(1, 10 ** 6)
            n = rng.randint(1, 10 ** 6)
            assert valuation(m * n, p) == valuation(m, p) + valuation(n, p)


def test_valuation_rejects_zero():
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_valuation_rejects_p_below_2():
    for p in (0, 1):
        with pytest.raises(ValueError, match="p must be a prime"):
            valuation(8, p)
