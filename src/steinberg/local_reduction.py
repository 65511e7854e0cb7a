"""Local reduction data at a prime: Tate's algorithm, conductor, Steinberg primes.

The classification runs the complete algorithm, including the wild subcases at
p = 2 and p = 3 and the restart step on non-minimal models, so the conductor
exponent and the valuation of the minimal discriminant are exact for every
integral input model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arith import is_prime, kronecker
from .record import Record, json_at
from .weierstrass import WeierstrassModel, change_coordinates, valuation

__all__ = [
    "ReductionType",
    "LocalData",
    "tate_local",
    "conductor",
    "steinberg_primes",
]


class ReductionType(enum.Enum):
    GOOD = "good"
    SPLIT_MULTIPLICATIVE = "split_multiplicative"
    NONSPLIT_MULTIPLICATIVE = "nonsplit_multiplicative"
    ADDITIVE = "additive"


@dataclass(frozen=True)
class LocalData(Record):
    """Reduction data of a curve at one prime.

    v_min_disc is the valuation of the discriminant of a p-minimal model;
    f_p the conductor exponent; a_p the trace of Frobenius (the full trace
    at good primes, the sign +-1 at multiplicative primes, 0 at additive
    ones).
    """

    p: int
    rtype: ReductionType = json_at("reduction_type")
    v_min_disc: int
    f_p: int = json_at("conductor_exponent")
    a_p: int


def _inv(a: int, p: int) -> int:
    return pow(a, -1, p)


def _move_singular_point(E: WeierstrassModel, p: int) -> WeierstrassModel:
    """Translate so the singular point of the reduction lies at (0, 0).

    Afterwards p divides a3, a4 and a6.  The reduction must be singular
    (p | disc).  For p = 2 squaring is the identity on F_2 and for p = 3
    cubing is the identity on F_3, which collapses the root extractions.
    """
    a1, a2, a3, a4, a6 = E.a_invariants
    if p == 2:
        if E.b2 % 2 == 0:
            r = a4 % 2
            t = (r * (1 + a2 + a4) + a6) % 2
        else:
            r = a3 % 2
            t = (r + a4) % 2
    elif p == 3:
        if E.b2 % 3 == 0:
            r = -E.b6 % 3
        else:
            r = -E.b2 * E.b4 % 3
        t = (a1 * r + a3) % 3
    else:
        if E.c4 % p == 0:
            r = -E.b2 * _inv(12, p) % p
        else:
            r = -(E.c6 + E.b2 * E.c4) * _inv(12 * E.c4, p) % p
        t = -(a1 * r + a3) * _inv(2, p) % p
    E = change_coordinates(E, 1, r, 0, t)
    assert E.a3 % p == 0 and E.a4 % p == 0 and E.a6 % p == 0
    return E


def _tangent_splits(a1: int, a2: int, p: int) -> bool:
    """Whether T^2 + a1·T - a2 (the tangent cone at the node) splits over F_p."""
    if p == 2:
        return any((T * T + a1 * T - a2) % 2 == 0 for T in (0, 1))
    # discriminant b2 is nonzero mod p at a node, so kronecker is +-1
    return kronecker(a1 * a1 + 4 * a2, p) == 1


def _normalize_additive(E: WeierstrassModel, p: int) -> WeierstrassModel:
    """Arrange p | a1, a2 and p^2 | a3, a4 and p^3 | a6 (Tate step 6 entry).

    Requires p | b2, p^3 | b6 and p^3 | b8, which the preceding type II-IV
    tests guarantee; those valuations force the remaining divisibilities once
    a1 and a3 are centered.
    """
    if p == 2:
        s = E.a2 % 2
        E = change_coordinates(E, 1, 0, s, 0)
        t = 2 * ((E.a6 // 4) % 2)
        E = change_coordinates(E, 1, 0, 0, t)
    else:
        half = _inv(2, p)
        s = -E.a1 * half % p
        E = change_coordinates(E, 1, 0, s, 0)
        half2 = _inv(2, p * p)
        t = -E.a3 * half2 % (p * p)
        E = change_coordinates(E, 1, 0, 0, t)
    assert E.a1 % p == 0 and E.a2 % p == 0
    assert E.a3 % p ** 2 == 0 and E.a4 % p ** 2 == 0 and E.a6 % p ** 3 == 0
    return E


def _instar_length(E: WeierstrassModel, p: int) -> int:
    """Length n of the I_n* chain once the cubic's double root sits at T = 0.

    Alternates between a quadratic in Y (coefficients a3/my, a6/(mx·my)) and
    one in X (a2/p, a4/(p·mx), a6/(mx·my)); each repeated root extends the
    chain and sharpens the relevant valuation by one.
    """
    n = 1
    mx = p * p
    my = p * p
    while True:
        a2t = E.a2 // p
        a3t = E.a3 // my
        a6t = E.a6 // (mx * my)
        if (a3t * a3t + 4 * a6t) % p != 0:
            return n
        gamma = a6t % 2 if p == 2 else -a3t * _inv(2, p) % p
        E = change_coordinates(E, 1, 0, 0, my * gamma)
        my *= p
        n += 1
        a2t = E.a2 // p
        a4t = E.a4 // (p * mx)
        a6t = E.a6 // (mx * my)
        if (a4t * a4t - 4 * a2t * a6t) % p != 0:
            return n
        delta = a6t % 2 if p == 2 else -a4t * _inv(2 * a2t, p) % p
        E = change_coordinates(E, 1, mx * delta, 0, 0)
        mx *= p
        n += 1


def tate_local(model: WeierstrassModel, p: int) -> LocalData:
    """Classify the reduction of the model at the prime p.

    Restarts on the rescaled model whenever step 11 detects non-minimality,
    so the output describes a p-minimal model regardless of the input scale.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    E = model
    while True:
        n = valuation(E.disc, p)
        if n == 0:
            from .frobenius import count_reduced_points  # deferred: frobenius imports us

            npoints = count_reduced_points(E.a_invariants, p)
            return LocalData(p, ReductionType.GOOD, 0, 0, p + 1 - npoints)

        E = _move_singular_point(E, p)
        if E.b2 % p != 0:
            # nodal: multiplicative reduction, type I_n
            if _tangent_splits(E.a1 % p, E.a2 % p, p):
                return LocalData(p, ReductionType.SPLIT_MULTIPLICATIVE, n, 1, 1)
            return LocalData(p, ReductionType.NONSPLIT_MULTIPLICATIVE, n, 1, -1)

        # cuspidal: additive reduction, walk the Kodaira tree
        if E.a6 % p ** 2 != 0:  # type II
            return LocalData(p, ReductionType.ADDITIVE, n, n, 0)
        if E.b8 % p ** 3 != 0:  # type III
            return LocalData(p, ReductionType.ADDITIVE, n, n - 1, 0)
        if E.b6 % p ** 3 != 0:  # type IV
            return LocalData(p, ReductionType.ADDITIVE, n, n - 2, 0)

        E = _normalize_additive(E, p)
        b = E.a2 // p
        c = E.a4 // p ** 2
        d = E.a6 // p ** 3
        # -discriminant of T^3 + b·T^2 + c·T + d, and the triple-root obstruction
        w = 27 * d * d - b * b * c * c + 4 * b ** 3 * d - 18 * b * c * d + 4 * c ** 3
        x = 3 * c - b * b

        if w % p != 0:  # three distinct roots: type I0*
            return LocalData(p, ReductionType.ADDITIVE, n, n - 4, 0)

        if x % p != 0:  # exactly one double root: type I_m*
            if p == 2:
                beta = c % 2
            else:
                beta = (b * c - 9 * d) * _inv(2 * x, p) % p
            E = change_coordinates(E, 1, p * beta, 0, 0)
            m = _instar_length(E, p)
            return LocalData(p, ReductionType.ADDITIVE, n, n - 4 - m, 0)

        # triple root: move it to T = 0
        if p == 2:
            alpha = b % 2
        elif p == 3:
            alpha = -d % 3
        else:
            alpha = -b * _inv(3, p) % p
        E = change_coordinates(E, 1, p * alpha, 0, 0)
        assert E.a2 % p ** 2 == 0 and E.a4 % p ** 3 == 0 and E.a6 % p ** 4 == 0

        a3t = E.a3 // p ** 2
        a6t = E.a6 // p ** 4
        if (a3t * a3t + 4 * a6t) % p != 0:  # type IV*
            return LocalData(p, ReductionType.ADDITIVE, n, n - 6, 0)

        gamma = a6t % 2 if p == 2 else -a3t * _inv(2, p) % p
        E = change_coordinates(E, 1, 0, 0, p * p * gamma)
        if E.a4 % p ** 4 != 0:  # type III*
            return LocalData(p, ReductionType.ADDITIVE, n, n - 7, 0)
        if E.a6 % p ** 6 != 0:  # type II*
            return LocalData(p, ReductionType.ADDITIVE, n, n - 8, 0)

        # step 11: non-minimal model, rescale by u = p and start over
        E = change_coordinates(E, p, 0, 0, 0)


def conductor(model: WeierstrassModel) -> int:
    """Product of p^f_p over the primes dividing the discriminant."""
    N = 1
    for p in model.bad_primes:
        N *= p ** tate_local(model, p).f_p
    return N


def steinberg_primes(model: WeierstrassModel) -> list[tuple[int, int]]:
    """Multiplicative primes of the curve with their signs, ascending.

    These are exactly the primes dividing the conductor once; the sign is
    +1 for split and -1 for nonsplit reduction (the eigenvalue a_p).
    """
    out = []
    for p in model.bad_primes:
        data = tate_local(model, p)
        if data.f_p == 1:
            out.append((p, data.a_p))
    return out
