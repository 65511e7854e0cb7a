"""Every certificate record reads back from its own JSON."""

import json

import pytest

from steinberg import (
    QuadraticCharacter,
    certify_congruence,
    check_theorem_a,
    irreducibility_certificate,
    make_model,
    parse_curve_file,
    scan_level,
    tate_local,
    validate_pair,
)

C11 = make_model(0, -1, 1, -10, -20)
TABLE = """\
ex1 [1,1,1,-614,-5501]
ex2 [1,-1,1,-1191,507615]
ex3 [-3,0,0,-1189,506425]
dec [0,-1,1,-10,-20]
"""

NAMES = (
    "local_multiplicative", "local_good", "character", "congruence_pass", "congruence_fail",
    "irreducibility", "verdict", "verdict_no_witness", "pair_consistency", "skipped",
    "candidate", "scan_report",
)


@pytest.fixture(scope="module")
def records(E, Eprime):
    chi = QuadraticCharacter(19)
    cert = certify_congruence(E, Eprime, 5, chi)
    report = scan_level(parse_curve_file(TABLE), 19, 5, chi)
    assert report.candidates and report.skipped
    return {
        "local_multiplicative": tate_local(E, 19),
        "local_good": tate_local(E, 5),
        "character": chi,
        "congruence_pass": cert,
        "congruence_fail": certify_congruence(E, C11, 5, QuadraticCharacter(1)),
        "irreducibility": irreducibility_certificate(E, 5),
        "verdict": check_theorem_a(E, 19, 5),
        "verdict_no_witness": check_theorem_a(E, 19, 5, search_bound=2),
        "pair_consistency": validate_pair(E, Eprime, 19, cert),
        "skipped": report.skipped[0],
        "candidate": report.candidates[0],
        "scan_report": report,
    }


def test_round_trip_covers_every_record_type(records):
    assert set(records) == set(NAMES)
    kinds = {type(r).__name__ for r in records.values()}
    assert kinds == {
        "LocalData", "QuadraticCharacter", "CongruenceCertificate",
        "IrreducibilityCertificate", "TheoremVerdict", "PairConsistency",
        "SkippedRecord", "CandidatePair", "ScanReport",
    }


@pytest.mark.parametrize("name", NAMES)
def test_round_trip(records, name):
    record = records[name]
    data = json.loads(json.dumps(record.to_dict()))
    assert type(record).from_dict(data) == record
