"""Point counts over F_p and traces of Frobenius.

`count_reduced_points` picks one of three counting methods from p alone:

- p <= 3: plain (x, y) enumeration, which is also the independent oracle
  behind `count_points_enumeration`;
- 3 < p <= 229: the Legendre sum p + 1 + sum_x chi(x^3 + A·x + B) on the
  short model y^2 = x^3 + A·x + B with A = -27·c4, B = -54·c6, whose count
  mod p equals that of the input model for p > 3;
- p > 229: Shanks–Mestre baby-step/giant-step on the same short model.  The
  x-values 0, 1, 2, ... give points on E or on its quadratic twist E'; each
  point leaves the N in the Hasse interval with N·P = O (read as
  2p + 2 - N for a point of E'), and these candidate sets are intersected
  until one value is left.  Mestre's theorem guarantees that E or E' has a
  point whose order has a single multiple in the Hasse interval once
  p > 229 (Cohen, A Course in Computational Algebraic Number Theory,
  §7.4.3).  Below 230 it guarantees nothing, which is why the cutoff is 229.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import is_prime, primes_up_to
from .local_reduction import ReductionType, tate_local
from .weierstrass import WeierstrassModel

__all__ = [
    "count_points",
    "count_points_enumeration",
    "count_reduced_points",
    "a_p",
    "ApTable",
    "ap_table",
]

# above this prime Mestre's theorem guarantees that baby-step/giant-step ends
_MESTRE_BOUND = 229


def _enumerate_reduced(ai: tuple[int, int, int, int, int], p: int) -> int:
    a1, a2, a3, a4, a6 = (a % p for a in ai)
    count = 1  # the point at infinity
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == rhs:
                count += 1
    return count


def _short_model(ai: tuple[int, int, int, int, int], p: int) -> tuple[int, int]:
    """(A, B) mod p of y^2 = x^3 + A·x + B, isomorphic to the input for p > 3."""
    a1, a2, a3, a4, a6 = ai
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    return -27 * c4 % p, -54 * c6 % p


def _legendre_sum(A: int, B: int, p: int) -> int:
    is_square = bytearray(p)
    for z in range(1, p):
        is_square[z * z % p] = 1
    count = p + 1
    for x in range(p):
        f = (x * x * x + A * x + B) % p
        if f:
            count += 1 if is_square[f] else -1
    return count


# Affine points of y^2 = x^3 + a·x + b over F_p as (x, y) pairs, None for O.
# The group law does not read b.

def _add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _mul(n: int, P, a: int, p: int):
    R = None
    for bit in bin(n)[2:]:
        R = _add(R, R, a, p)
        if bit == "1":
            R = _add(R, P, a, p)
    return R


def _hasse_orders(P, a: int, p: int) -> set[int]:
    """Every N in the Hasse interval [p + 1 - w, p + 1 + w], w = isqrt(4p),
    with N·P = O, by baby steps j·P (j <= m) and giant steps of 2m + 1."""
    w = isqrt(4 * p)
    low, high = p + 1 - w, p + 1 + w
    m = isqrt(w) + 1
    baby = {}  # x(j·P) -> (j, y(j·P))
    Q = None
    for j in range(1, m + 1):
        Q = _add(Q, P, a, p)
        hit = baby.get(Q[0])
        if hit is not None:
            # y(P) != 0, so P has order n >= 3 and j·P first repeats an x as
            # -(n - j)·P, before it reaches O: an order this small is j + j'
            order = j + hit[0]
            return set(range(-(-low // order) * order, high + 1, order))
        baby[Q[0]] = (j, Q[1])

    s = 2 * m + 1
    reach = (w + m) // s  # every t in [-w, w] is i·s + e with |i| <= reach, |e| <= m
    base = p + 1 - reach * s
    R = _mul(base, P, a, p)
    step = _add(_add(Q, Q, a, p), P, a, p)  # Q = m·P
    found = set()
    for _ in range(2 * reach + 1):
        if R is None:
            found.add(base)
        else:
            hit = baby.get(R[0])
            if hit is not None:
                j, y = hit
                # R = j·P or R = -j·P; both when j·P has order 2 (y = 0)
                if R[1] == y:
                    found.add(base - j)
                if R[1] == -y % p:
                    found.add(base + j)
        R = _add(R, step, a, p)
        base += s
    return {N for N in found if low <= N <= high}


def _shanks_mestre(A: int, B: int, p: int) -> int:
    candidates = None
    for x in range(p):
        f = (x * x * x + A * x + B) % p
        if f == 0:
            continue
        # (x·f, f^2) lies on y^2 = x^3 + A·f^2·x + B·f^3: E itself when f is
        # a square, the twist E' otherwise, with #E + #E' = 2p + 2
        f2 = f * f % p
        orders = _hasse_orders((x * f % p, f2), A * f2 % p, p)
        if pow(f, (p - 1) // 2, p) != 1:
            orders = {2 * p + 2 - N for N in orders}
        candidates = orders if candidates is None else candidates & orders
        if len(candidates) == 1:
            return candidates.pop()
    raise ArithmeticError(f"no single point count mod {p} for y^2 = x^3 + {A}x + {B}")


def count_reduced_points(ai: tuple[int, int, int, int, int], p: int) -> int:
    """#E(F_p) for the reduction of the given coefficients (must be nonsingular).

    This is the raw kernel: it trusts the caller about good reduction at p
    and about the model being p-minimal.
    """
    if p <= 3:
        return _enumerate_reduced(ai, p)
    A, B = _short_model(ai, p)
    if p <= _MESTRE_BOUND:
        return _legendre_sum(A, B, p)
    return _shanks_mestre(A, B, p)


def count_points_enumeration(model: WeierstrassModel, p: int) -> int:
    """Independent O(p^2) oracle: try every (x, y) in F_p x F_p, plus infinity."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if model.disc % p == 0:
        raise ValueError(f"the model is singular mod {p}")
    return _enumerate_reduced(model.a_invariants, p)


def count_points(model: WeierstrassModel, p: int) -> int:
    """#E(F_p) at a prime of good reduction (computed on a p-minimal model)."""
    data = tate_local(model, p)
    if data.rtype is not ReductionType.GOOD:
        raise ValueError(f"bad reduction at {p} ({data.rtype.value})")
    return p + 1 - data.a_p


def a_p(model: WeierstrassModel, p: int) -> int:
    """Trace of Frobenius at p: p + 1 - #E(F_p) at good primes, the sign
    +-1 at multiplicative primes, 0 at additive ones."""
    return tate_local(model, p).a_p


@dataclass(frozen=True)
class ApTable:
    """a_p for every prime p <= bound, as a plain dict keyed by p."""

    model: WeierstrassModel
    bound: int
    entries: dict

    def to_dict(self) -> dict:
        return {
            "curve": list(self.model.a_invariants),
            "bound": self.bound,
            "entries": [[p, self.entries[p]] for p in sorted(self.entries)],
        }


def ap_table(model: WeierstrassModel, bound: int) -> ApTable:
    """Tabulate a_p over all primes up to bound.

    Primes dividing the discriminant go through the local classification
    (which also covers non-minimal-but-good primes); away from the
    discriminant the model is already p-minimal with good reduction, so the
    counting kernel applies directly.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    special = set(model.bad_primes)
    ai = model.a_invariants
    entries = {}
    for p in primes_up_to(bound):
        if p in special:
            entries[p] = tate_local(model, p).a_p
        else:
            entries[p] = p + 1 - count_reduced_points(ai, p)
    return ApTable(model, bound, entries)
