"""Certificates for opposite-sign congruences between rational newforms at a
Steinberg prime.

The library classifies the local reduction of integral Weierstrass models,
computes traces of Frobenius, and assembles finite, re-verifiable
certificates: irreducibility of the mod-ell representation, the existence
test at a multiplicative prime p with p = -1 (mod ell), and twisted
congruences checked up to the Sturm bound.
"""

__version__ = "0.1.0"

from .arith import (
    MAX_SIEVE_BOUND,
    PROVEN_PRIME_LIMIT,
    FactorizationError,
    SieveLimitError,
    factorize,
    is_prime,
    kronecker,
    primes_up_to,
)
from .certificates import (
    Conclusion,
    IrreducibilityCertificate,
    PairConsistency,
    TheoremVerdict,
    check_theorem_a,
    irreducibility_certificate,
    reverify_verdict,
    unramified_at,
    validate_pair,
    verify_irreducibility_certificate,
)
from .congruence import (
    CongruenceCertificate,
    QuadraticCharacter,
    certify_congruence,
    index_gamma0,
    reverify_congruence,
    sturm_bound,
)
from .dataset import CurveRecord, ScanReport, parse_curve_file, scan_level
from .frobenius import ApTable, a_p, ap_table, count_points_enumeration
from .local_reduction import LocalData, ReductionType, conductor, steinberg_primes, tate_local
from .weierstrass import WeierstrassModel, change_coordinates, make_model, parse_curve, valuation

__all__ = [
    "__version__",
    "primes_up_to", "MAX_SIEVE_BOUND", "SieveLimitError",
    "PROVEN_PRIME_LIMIT", "is_prime", "kronecker",
    "FactorizationError", "factorize",
    "WeierstrassModel", "make_model", "parse_curve", "change_coordinates", "valuation",
    "ReductionType", "LocalData", "tate_local", "conductor", "steinberg_primes",
    "count_points_enumeration", "a_p", "ApTable", "ap_table",
    "QuadraticCharacter", "index_gamma0", "sturm_bound",
    "CongruenceCertificate", "certify_congruence", "reverify_congruence",
    "IrreducibilityCertificate", "irreducibility_certificate", "verify_irreducibility_certificate",
    "unramified_at", "Conclusion", "TheoremVerdict", "check_theorem_a", "reverify_verdict",
    "PairConsistency", "validate_pair",
    "CurveRecord", "parse_curve_file", "ScanReport", "scan_level",
]
