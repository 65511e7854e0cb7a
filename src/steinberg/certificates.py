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

from .arith import is_prime, kronecker, primes_up_to
from .congruence import CongruenceCertificate
from .frobenius import a_p
from .local_reduction import conductor, tate_local
from .record import Record, json_at
from .weierstrass import WeierstrassModel, make_model

__all__ = [
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


@dataclass(frozen=True)
class IrreducibilityCertificate(Record):
    """Witness that the mod-ell representation is (absolutely) irreducible.

    q is the least good auxiliary prime, coprime to ell times the conductor,
    with disc(X^2 - a_q·X + q) = a_q^2 - 4q a nonresidue mod ell.
    """

    curve: tuple[int, int, int, int, int]
    ell: int
    q: int
    a_q: int
    trace_mod_ell: int = json_at("charpoly", 0)
    det_mod_ell: int = json_at("charpoly", 1)
    disc_mod_ell: int
    nonresidue_witness: bool


def irreducibility_certificate(
    model: WeierstrassModel, ell: int, search_bound: int = 100
) -> IrreducibilityCertificate | None:
    """Scan good primes q <= search_bound for an irreducibility witness.

    Returns None when the scan is exhausted; absence of a witness proves
    nothing (the representation may still be irreducible, or reducible as
    for a curve with a rational ell-isogeny).
    """
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"ell must be an odd prime, got {ell}")
    N = conductor(model)
    for q in primes_up_to(search_bound):
        if (ell * N) % q == 0:
            continue
        aq = a_p(model, q)
        disc = (aq * aq - 4 * q) % ell
        if kronecker(disc, ell) == -1:
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
    return None


def verify_irreducibility_certificate(
    model: WeierstrassModel, cert: IrreducibilityCertificate
) -> bool:
    """Recompute every field of the certificate from the model."""
    if cert.curve != model.a_invariants:
        return False
    if not is_prime(cert.q) or not is_prime(cert.ell) or cert.ell == 2:
        return False
    if (cert.ell * conductor(model)) % cert.q == 0:
        return False
    aq = a_p(model, cert.q)
    disc = (aq * aq - 4 * cert.q) % cert.ell
    return (
        aq == cert.a_q
        and cert.trace_mod_ell == aq % cert.ell
        and cert.det_mod_ell == cert.q % cert.ell
        and cert.disc_mod_ell == disc
        and cert.nonresidue_witness
        and kronecker(disc, cert.ell) == -1
    )


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


_CHECK_NAMES = (
    "steinberg_at_p",
    "ell_not_2p",
    "ell_coprime_level",
    "p_is_minus_one_mod_ell",
    "unramified_at_p",
)


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
    model: WeierstrassModel, p: int, ell: int, search_bound: int = 100
) -> TheoremVerdict:
    """Evaluate the hypotheses under which a p-new eigenform with the opposite
    sign at p must exist: p multiplicative (Steinberg), ell coprime to 2p and
    to the level, the mod-ell representation irreducible, p = -1 (mod ell),
    and the representation unramified at p.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    data = tate_local(model, p)
    N = conductor(model)

    steinberg = data.f_p == 1
    ell_not_2p = ell != 2 and ell != p
    ell_coprime_level = N % ell != 0
    cert = irreducibility_certificate(model, ell, search_bound) if ell != 2 else None
    minus_one = (p + 1) % ell == 0
    unramified = steinberg and p != ell and unramified_at(model, p, ell)

    flags = dict(
        zip(_CHECK_NAMES, (steinberg, ell_not_2p, ell_coprime_level, minus_one, unramified))
    )
    failed = tuple(name for name in _CHECK_NAMES if not flags[name])
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
        steinberg_at_p=steinberg,
        a_p=data.a_p,
        level=N,
        v_min_disc_at_p=data.v_min_disc,
        ell_not_2p=ell_not_2p,
        ell_coprime_level=ell_coprime_level,
        irreducibility=cert,
        p_is_minus_one_mod_ell=minus_one,
        unramified_at_p=unramified,
        failed_checks=failed,
        conclusion=conclusion,
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
    ell: int,
    cert: CongruenceCertificate,
) -> PairConsistency:
    """Given two curves congruent mod ell away from p with opposite signs at
    the Steinberg prime p, assert the conditions the congruence forces.

    Precondition violations (wrong certificate, equal signs, p not
    multiplicative, twist not vanishing at p) raise ValueError; genuine
    mathematical inconsistencies are reported in the result instead.
    """
    data_a = tate_local(model_a, p)
    data_b = tate_local(model_b, p)
    if data_a.f_p != 1 or data_b.f_p != 1:
        raise ValueError(f"p = {p} is not a Steinberg prime of both curves")
    if data_a.a_p != -data_b.a_p:
        raise ValueError(f"signs at p = {p} are not opposite")
    if not cert.passed:
        raise ValueError("certificate is not a passing one")
    if cert.ell != ell:
        raise ValueError(f"certificate modulus {cert.ell} does not match ell = {ell}")
    pair = {model_a.a_invariants, model_b.a_invariants}
    if {cert.curve_a, cert.curve_b} != pair:
        raise ValueError("certificate is for different curves")
    if cert.twist(p) != 0:
        raise ValueError(f"certificate does not exclude p = {p} (twist nonzero there)")

    minus_one = (p + 1) % ell == 0
    unramified = unramified_at(model_a, p, ell) if p != ell else False
    inconsistencies = []
    if not minus_one:
        inconsistencies.append("p_is_minus_one_mod_ell")
    if not unramified:
        inconsistencies.append("unramified_at_p")
    return PairConsistency(
        p=p,
        ell=ell,
        p_is_minus_one_mod_ell=minus_one,
        unramified_at_p=unramified,
        consistent=not inconsistencies,
        inconsistencies=tuple(inconsistencies),
    )
