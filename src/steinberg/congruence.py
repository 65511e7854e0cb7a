"""Sturm bounds, quadratic twists, and finite congruence certificates.

A congruence between the twists by psi of two curves is certified by
checking a_n(A) = a_n(B) (mod ell) up to the Sturm bound of the depleted
level at every n prime to the twist modulus d that can differ: the primes,
and the prime powers at primes where exactly one curve is good.  psi(n) is
+-1 wherever it is nonzero, so the twist is only a mask; the primes dividing
d are excluded and reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .arith import factorize, is_prime, kronecker
from .frobenius import ap_table, memo_a_p
from .local_reduction import conductor
from .record import Record, json_at
from .weierstrass import WeierstrassModel, make_model

__all__ = [
    "QuadraticCharacter",
    "index_gamma0",
    "sturm_bound",
    "CongruenceCertificate",
    "compare_traces",
    "certify_congruence",
    "reverify_congruence",
]


@dataclass(frozen=True)
class QuadraticCharacter(Record):
    """The real character n -> kronecker(n, modulus); modulus 1 is trivial."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus == 0:
            raise ValueError("modulus must be nonzero")

    def __call__(self, n: int) -> int:
        return kronecker(n, self.modulus)

    def level(self, N: int) -> int:
        """lcm(N, d^2), a level holding the depleted forms of level-N newforms
        (a_n replaced by 0 where gcd(n, d) > 1).  Depleting f at a prime q | d
        leaves f if q^2 | N (a_q = 0), f - a_q f|V_q if q || N, and
        f - a_q f|V_q + q f|V_{q^2} if q does not divide N, so v_q rises to
        max(v_q(N), 2): lcm(N, rad(d)^2), which divides lcm(N, d^2)
        (Atkin-Lehner, Math. Ann. 185, 1970)."""
        if N < 1:
            raise ValueError("level must be positive")
        return lcm(N, self.modulus ** 2)


def index_gamma0(M: int) -> int:
    """Index of Gamma_0(M) in SL_2(Z): M times prod (1 + 1/p) over p | M."""
    if M < 1:
        raise ValueError("level must be positive")
    idx = M
    for p, _ in factorize(M):
        idx = idx // p * (p + 1)
    return idx


def sturm_bound(M: int, k: int) -> int:
    """floor(k * [SL_2(Z) : Gamma_0(M)] / 12), the conservative Sturm bound.

    Two weight-k forms on Gamma_0(M) whose coefficients agree mod ell up to
    this bound are congruent mod ell.
    """
    if k < 1:
        raise ValueError("weight must be positive")
    return k * index_gamma0(M) // 12


def _read_status(status: str) -> bool:
    if status not in ("pass", "fail"):
        raise ValueError(f"status must be 'pass' or 'fail', got {status!r}")
    return status == "pass"


@dataclass(frozen=True)
class CongruenceCertificate(Record):
    """Outcome of a finite congruence check between two coefficient sequences.

    curve_a / curve_b are the a-invariant tuples; twisted_level is the level
    of the depleted forms; counterexample, when the check fails, is the least
    offending n with a_n of both curves: a prime, or a prime power at a prime
    where only one curve is good.
    """

    curve_a: tuple[int, int, int, int, int]
    curve_b: tuple[int, int, int, int, int]
    ell: int
    twist: QuadraticCharacter
    twisted_level_value: int = json_at("twisted_level")
    sturm_bound_value: int = json_at("sturm_bound")
    primes_checked: int
    excluded_primes: tuple[int, ...]
    passed: bool = json_at("status", codec=(lambda passed: "pass" if passed else "fail", _read_status))
    counterexample: tuple[int, int, int] | None


def _prime_power_trace(a_q: int, q: int, k: int, good: bool) -> int:
    """a_{q^k} from a_q: the Hecke recursion at a good prime, a_q^k at a bad one."""
    if not good:
        return a_q ** k
    prev, cur = 1, a_q
    for _ in range(k - 1):
        prev, cur = cur, a_q * cur - q * prev
    return cur


def compare_traces(
    model_a: WeierstrassModel,
    model_b: WeierstrassModel,
    primes: tuple[int, ...],
    ell: int,
    twist: QuadraticCharacter,
    conductors: tuple[int, int],
) -> CongruenceCertificate:
    """Compare a_n(A) with a_n(B) mod ell for each n prime to the twist
    modulus up to the Sturm bound, in ascending order, and return the
    certificate of the outcome.

    The bound is the Sturm bound of twist.level(lcm(conductors)), which this
    computes and records with its level; primes must hold every prime up to
    it, ascending, and each a_p is read through `memo_a_p`.  a_n is
    multiplicative, and agreement at a prime q carries over to every q^k
    when both curves are good at q (the same Hecke recursion) or both are
    bad (a_{q^k} = a_q^k).  So n runs over the primes, plus the powers q^k
    (k >= 2) of each prime q that divides exactly one of the two conductors.
    Primes dividing the twist modulus are excluded and listed, and a failure
    stops at the least counterexample (n, a_n(A), a_n(B)).
    """
    level = twist.level(lcm(*conductors))
    bound = sturm_bound(level, 2)
    level_a, level_b = conductors
    powers = {}  # q^k -> (q, k)
    for q in primes:
        if q * q > bound:
            break
        if (level_a % q == 0) != (level_b % q == 0) and twist.modulus % q != 0:
            k, qk = 2, q * q
            while qk <= bound:
                powers[qk] = (q, k)
                k, qk = k + 1, qk * q
    excluded = []
    checked = 0
    counterexample = None
    for n in sorted([*primes, *powers]) if powers else primes:
        if gcd(n, twist.modulus) != 1:
            excluded.append(n)
            continue
        if n in powers:
            q, k = powers[n]
            ta = _prime_power_trace(memo_a_p(model_a, q), q, k, level_a % q != 0)
            tb = _prime_power_trace(memo_a_p(model_b, q), q, k, level_b % q != 0)
        else:
            checked += 1
            ta, tb = memo_a_p(model_a, n), memo_a_p(model_b, n)
        if (ta - tb) % ell != 0:
            counterexample = (n, ta, tb)
            break
    return CongruenceCertificate(
        curve_a=model_a.a_invariants,
        curve_b=model_b.a_invariants,
        ell=ell,
        twist=twist,
        twisted_level_value=level,
        sturm_bound_value=bound,
        primes_checked=checked,
        excluded_primes=tuple(excluded),
        passed=counterexample is None,
        counterexample=counterexample,
    )


def certify_congruence(
    model_a: WeierstrassModel,
    model_b: WeierstrassModel,
    ell: int,
    twist: QuadraticCharacter,
) -> CongruenceCertificate:
    """Check a_n(A) = a_n(B) (mod ell) for every n prime to the twist
    modulus up to the depleted level's Sturm bound, via `compare_traces`."""
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    levels = conductor(model_a), conductor(model_b)
    bound = sturm_bound(twist.level(lcm(*levels)), 2)
    # the tables fill each model's a_p memo, which the comparison reads;
    # their keys are the primes <= bound, ascending
    primes = tuple(ap_table(model_a, bound).entries)
    ap_table(model_b, bound)
    return compare_traces(model_a, model_b, primes, ell, twist, levels)


def reverify_congruence(cert: CongruenceCertificate) -> bool:
    """Recompute the certificate from its stored inputs and compare."""
    fresh = certify_congruence(
        make_model(*cert.curve_a),
        make_model(*cert.curve_b),
        cert.ell,
        cert.twist,
    )
    return fresh == cert
