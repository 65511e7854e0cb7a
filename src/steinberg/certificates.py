"""Finite certificates about the mod-ell Galois representation of a curve.

Irreducibility is witnessed by one good prime q whose Frobenius
characteristic polynomial X^2 - a_q·X + q has nonsquare discriminant mod
ell (no root mod ell means no one-dimensional sub); oddness of the
representation upgrades this to absolute irreducibility for odd ell.
Unramifiedness at a multiplicative prime p != ell is decided by the
valuation criterion ell | v_p(min disc).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arith import check_sieve_bound, is_prime, kronecker
from .congruence import CongruenceCertificate
from .frobenius import a_p
from .local_reduction import conductor, tate_local
from .record import Record, json_at
from .weierstrass import WeierstrassModel, make_model

__all__ = [
    "DEFAULT_SEARCH_BOUND",
    "IrreducibilityCertificate",
    "irreducibility_certificate",
    "verify_irreducibility_certificate",
    "unramified_at",
    "Conclusion",
    "TheoremVerdict",
    "check_theorem_a",
    "reverify_verdict",
    "PairConsistency",
    "validate_pair",
]


DEFAULT_SEARCH_BOUND = 100  # for the witness search when no bound is given


@dataclass(frozen=True)
class IrreducibilityCertificate(Record):
    """Witness that the mod-ell representation is (absolutely) irreducible.

    q is a good auxiliary prime, coprime to ell times the conductor, with
    disc(X^2 - a_q·X + q) = a_q^2 - 4q a nonresidue mod ell.  The search
    issues the least such q; a verifier checks the witness at q alone.
    """

    curve: tuple[int, int, int, int, int]
    ell: int
    q: int
    a_q: int
    trace_mod_ell: int = json_at("charpoly", 0)
    det_mod_ell: int = json_at("charpoly", 1)
    disc_mod_ell: int
    nonresidue_witness: bool


def _witness(model: WeierstrassModel, ell: int, q: int) -> IrreducibilityCertificate | None:
    """The certificate at the prime q, or None when q divides ell times the
    conductor or a_q^2 - 4q is a square mod ell."""
    if q == ell or (q in model.bad_primes and tate_local(model, q).f_p):
        return None
    aq = a_p(model, q)
    disc = (aq * aq - 4 * q) % ell
    if kronecker(disc, ell) != -1:
        return None
    return IrreducibilityCertificate(
        curve=model.a_invariants,
        ell=ell,
        q=q,
        a_q=aq,
        trace_mod_ell=aq % ell,
        det_mod_ell=q % ell,
        disc_mod_ell=disc,
        nonresidue_witness=True,
    )


def irreducibility_certificate(
    model: WeierstrassModel, ell: int, search_bound: int = DEFAULT_SEARCH_BOUND
) -> IrreducibilityCertificate | None:
    """Walk good primes q <= search_bound upward to the first irreducibility
    witness; the bound is capped like a sieve bound, but nothing is sieved.

    Returns None when the walk is exhausted; absence of a witness proves
    nothing (the representation may still be irreducible, or reducible as
    for a curve with a rational ell-isogeny).
    """
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"ell must be an odd prime, got {ell}")
    check_sieve_bound(search_bound)
    for q in filter(is_prime, range(2, search_bound + 1)):
        cert = _witness(model, ell, q)
        if cert is not None:
            return cert
    return None


def verify_irreducibility_certificate(cert: IrreducibilityCertificate) -> bool:
    """Recompute the certificate at its prime q from its own curve and compare."""
    model = make_model(*cert.curve)
    if not is_prime(cert.q) or not is_prime(cert.ell) or cert.ell == 2:
        return False
    return _witness(model, cert.ell, cert.q) == cert


def unramified_at(model: WeierstrassModel, p: int, ell: int) -> bool:
    """Whether the mod-ell representation is unramified at the multiplicative
    prime p, by the valuation criterion ell | v_p(min disc).

    Requires p != ell and multiplicative reduction at p; anything else is a
    caller error, not a negative answer.
    """
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    if p == ell:
        raise ValueError("the criterion needs p != ell")
    data = tate_local(model, p)
    if data.f_p != 1:
        raise ValueError(f"reduction at {p} is not multiplicative (f_p = {data.f_p})")
    return data.v_min_disc % ell == 0


class Conclusion(enum.Enum):
    EXISTENCE_CERTIFIED = "existence_certified"
    HYPOTHESIS_FAILED = "hypothesis_failed"
    INCONCLUSIVE = "inconclusive"


def _forced_conditions(models: tuple[WeierstrassModel, ...], p: int, ell: int) -> dict[str, bool]:
    """The two conditions an opposite-sign partner mod ell forces at p:
    p = -1 (mod ell), and every model multiplicative and unramified at p."""
    return {
        "p_is_minus_one_mod_ell": (p + 1) % ell == 0,
        "unramified_at_p": p != ell
        and all(tate_local(m, p).f_p == 1 and unramified_at(m, p, ell) for m in models),
    }


@dataclass(frozen=True)
class TheoremVerdict(Record):
    """Outcome of the existence test at (p, ell), with enough witnesses stored
    that every boolean can be recomputed without redoing the search."""

    curve: tuple[int, int, int, int, int]
    p: int
    ell: int
    search_bound: int
    steinberg_at_p: bool = json_at("checks", "steinberg_at_p")
    a_p: int = json_at("witnesses", "a_p")
    level: int = json_at("witnesses", "level")
    v_min_disc_at_p: int = json_at("witnesses", "v_min_disc_at_p")
    ell_not_2p: bool = json_at("checks", "ell_not_2p")
    ell_coprime_level: bool = json_at("checks", "ell_coprime_level")
    irreducibility: IrreducibilityCertificate | None = json_at("checks", "irreducibility")
    p_is_minus_one_mod_ell: bool = json_at("checks", "p_is_minus_one_mod_ell")
    unramified_at_p: bool = json_at("checks", "unramified_at_p")
    failed_checks: tuple[str, ...]
    conclusion: Conclusion


def check_theorem_a(
    model: WeierstrassModel, p: int, ell: int, search_bound: int = DEFAULT_SEARCH_BOUND
) -> TheoremVerdict:
    """Evaluate the hypotheses under which a p-new eigenform with the opposite
    sign at p must exist: p multiplicative (Steinberg), ell coprime to 2p and
    to the level, the mod-ell representation irreducible, p = -1 (mod ell),
    and the representation unramified at p.
    """
    if search_bound < 0:
        raise ValueError(f"search bound must be nonnegative, got {search_bound}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    data = tate_local(model, p)
    N = conductor(model)

    checks = {
        "steinberg_at_p": data.f_p == 1,
        "ell_not_2p": ell != 2 and ell != p,
        "ell_coprime_level": N % ell != 0,
        **_forced_conditions((model,), p, ell),
    }
    cert = irreducibility_certificate(model, ell, search_bound) if ell != 2 else None
    failed = tuple(name for name, ok in checks.items() if not ok)
    if failed:
        conclusion = Conclusion.HYPOTHESIS_FAILED
    elif cert is None:
        conclusion = Conclusion.INCONCLUSIVE
    else:
        conclusion = Conclusion.EXISTENCE_CERTIFIED

    return TheoremVerdict(
        curve=model.a_invariants,
        p=p,
        ell=ell,
        search_bound=search_bound,
        a_p=data.a_p,
        level=N,
        v_min_disc_at_p=data.v_min_disc,
        irreducibility=cert,
        failed_checks=failed,
        conclusion=conclusion,
        **checks,
    )


def reverify_verdict(verdict: TheoremVerdict) -> bool:
    """Re-run all checks from the stored curve and compare with the verdict."""
    fresh = check_theorem_a(
        make_model(*verdict.curve), verdict.p, verdict.ell, verdict.search_bound
    )
    return fresh == verdict


@dataclass(frozen=True)
class PairConsistency(Record):
    """Consistency report for a certified opposite-sign pair: the reverse
    implication says the congruence forces p = -1 (mod ell) and
    unramifiedness at p, so both must hold."""

    p: int
    ell: int
    p_is_minus_one_mod_ell: bool
    unramified_at_p: bool
    consistent: bool
    inconsistencies: tuple[str, ...]


def validate_pair(
    model_a: WeierstrassModel,
    model_b: WeierstrassModel,
    p: int,
    cert: CongruenceCertificate,
) -> PairConsistency:
    """Given two curves congruent mod ell = `cert.ell` away from p with
    opposite signs at the Steinberg prime p, assert the conditions the
    congruence forces: p = -1 (mod ell), and each curve unramified at p.

    Precondition violations (wrong certificate, equal signs, p not
    multiplicative, p not dividing the twist modulus, ell | 2p) raise ValueError;
    failed conditions are reported in the result instead.  The
    unramifiedness half needs the representation itself, so
    `consistent: false` contradicts the theorem only when the mod-ell
    representation is irreducible: the N = 350 pair [1,1,0,5,5],
    [1,1,1,-13,31] at p = 2, ell = 3 reports ("unramified_at_p",), yet both
    curves have a rational 3-isogeny.
    """
    data_a = tate_local(model_a, p)
    data_b = tate_local(model_b, p)
    if data_a.f_p != 1 or data_b.f_p != 1:
        raise ValueError(f"p = {p} is not a Steinberg prime of both curves")
    if data_a.a_p != -data_b.a_p:
        raise ValueError(f"signs at p = {p} are not opposite")
    if not cert.passed:
        raise ValueError("certificate is not a passing one")
    if {cert.curve_a, cert.curve_b} != {model_a.a_invariants, model_b.a_invariants}:
        raise ValueError("certificate is for different curves")
    if cert.twist.modulus % p != 0:
        raise ValueError(f"certificate does not exclude p = {p} (p does not divide the twist modulus)")
    ell = cert.ell
    if ell in (2, p):
        raise ValueError(f"ell = {ell} divides 2p = {2 * p}; the theorem needs ell coprime to 2p")

    conditions = _forced_conditions((model_a, model_b), p, ell)
    failed = tuple(name for name, ok in conditions.items() if not ok)
    return PairConsistency(p, ell, consistent=not failed, inconsistencies=failed, **conditions)
