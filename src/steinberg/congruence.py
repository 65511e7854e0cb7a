"""Sturm bounds, quadratic twists, and finite congruence certificates.

A congruence a_p(A) * psi(p) = a_p(B) * psi(p) (mod ell) between the twisted
coefficient sequences of two curves is certified by checking every prime up
to the Sturm bound of the ambient twisted level; primes where the twist
vanishes are excluded and reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .arith import factorize, is_prime, kronecker, primes_up_to
from .frobenius import ap_table
from .local_reduction import conductor
from .record import Record, json_at
from .weierstrass import WeierstrassModel, make_model

__all__ = [
    "QuadraticCharacter",
    "index_gamma0",
    "sturm_bound",
    "twisted_level",
    "CongruenceCertificate",
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


def index_gamma0(M: int) -> int:
    """Index of Gamma_0(M) in SL_2(Z): M times prod (1 + 1/p) over p | M."""
    if M < 1:
        raise ValueError("level must be positive")
    idx = M
    for p, _ in factorize(M) if M > 1 else []:
        assert idx % p == 0
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


def twisted_level(N: int, d: int) -> int:
    """Level containing the twist of a level-N form by n -> kronecker(n, d):
    lcm(N, m^2) for a modulus m of that character (Shimura, Prop. 3.64).
    m = |d|, except m = 4|d| when d = 2 (mod 4): kronecker(n, 2) depends on
    n mod 8."""
    if N < 1:
        raise ValueError("level must be positive")
    if d == 0:
        raise ValueError("twist modulus must be nonzero")
    m = 4 * abs(d) if d % 4 == 2 else abs(d)
    return lcm(N, m * m)


@dataclass(frozen=True)
class CongruenceCertificate(Record):
    """Outcome of a finite congruence check between two coefficient sequences.

    curve_a / curve_b are the a-invariant tuples; counterexample, when the
    check fails, is the least offending prime together with both traces.
    """

    curve_a: tuple[int, int, int, int, int]
    curve_b: tuple[int, int, int, int, int]
    ell: int
    twist: QuadraticCharacter
    twisted_level_value: int = json_at("twisted_level")
    sturm_bound_value: int = json_at("sturm_bound")
    primes_checked: int
    excluded_primes: tuple[int, ...]
    passed: bool = json_at("status")
    counterexample: tuple[int, int, int] | None

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["status"] = "pass" if self.passed else "fail"
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CongruenceCertificate":
        return super().from_dict({**data, "status": data["status"] == "pass"})


def certify_congruence(
    model_a: WeierstrassModel,
    model_b: WeierstrassModel,
    ell: int,
    twist: QuadraticCharacter,
) -> CongruenceCertificate:
    """Check psi(p)·a_p(A) = psi(p)·a_p(B) (mod ell) for all primes p up to
    the Sturm bound of the common twisted level.

    Primes with psi(p) = 0 are excluded from the comparison and listed in the
    certificate.  Primes are scanned in increasing order, so a failure
    reports the least counterexample.
    """
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    level = lcm(conductor(model_a), conductor(model_b))
    M = twisted_level(level, twist.modulus)
    bound = sturm_bound(M, 2)
    table_a = ap_table(model_a, bound).entries
    table_b = ap_table(model_b, bound).entries

    excluded = []
    checked = 0
    counterexample = None
    for p in primes_up_to(bound):
        chi = twist(p)
        if chi == 0:
            excluded.append(p)
            continue
        checked += 1
        ta, tb = table_a[p], table_b[p]
        if (chi * ta - chi * tb) % ell != 0:
            counterexample = (p, ta, tb)
            break

    return CongruenceCertificate(
        curve_a=model_a.a_invariants,
        curve_b=model_b.a_invariants,
        ell=ell,
        twist=twist,
        twisted_level_value=M,
        sturm_bound_value=bound,
        primes_checked=checked,
        excluded_primes=tuple(excluded),
        passed=counterexample is None,
        counterexample=counterexample,
    )


def reverify_congruence(cert: CongruenceCertificate) -> bool:
    """Recompute the certificate from its stored inputs and compare."""
    fresh = certify_congruence(
        make_model(*cert.curve_a),
        make_model(*cert.curve_b),
        cert.ell,
        cert.twist,
    )
    return fresh == cert
