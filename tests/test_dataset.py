import io
from pathlib import Path

import pytest

from steinberg import (
    QuadraticCharacter,
    certify_congruence,
    change_coordinates,
    conductor,
    make_model,
    parse_curve_file,
    primes_up_to,
    scan_level,
    tate_local,
)
from steinberg import congruence
from steinberg.dataset import CurveRecord

GOLDEN_TABLE = Path(__file__).parent / "golden" / "scan_table.txt"
TABLE = """\
# demonstration curve table
ex1   [1,1,1,-614,-5501]
ex2\t[1,-1,1,-1191,507615]

dec1  [0,-1,1,-10,-20]
dec2  [0, 0, 0, 0, 1]
"""


@pytest.fixture(scope="module")
def records():
    return parse_curve_file(TABLE)


# -- parsing ---------------------------------------------------------------------

def test_parse_golden(records):
    assert [rec.label for rec in records] == ["ex1", "ex2", "dec1", "dec2"]
    assert records[0].model == make_model(1, 1, 1, -614, -5501)
    assert records[3].model == make_model(0, 0, 0, 0, 1)
    assert [conductor(rec.model) for rec in records] == [1406, 1406, 11, 36]


def test_parse_accepts_file_objects():
    assert parse_curve_file(io.StringIO(TABLE)) == parse_curve_file(TABLE)


def test_parse_accepts_crlf_line_endings():
    text = "a [0,-1,1,-10,-20]\r\nb [1,1,1,-614,-5501]\r\n"
    labels = [rec.label for rec in parse_curve_file(text)]
    assert labels == ["a", "b"]


def test_parse_reports_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        parse_curve_file("# ok\na [0,-1,1,-10,-20]\njustalabel\n")


def test_parse_rejects_duplicate_labels():
    text = "a [0,-1,1,-10,-20]\n# fine\na [1,1,1,-614,-5501]\n"
    with pytest.raises(ValueError, match="line 3: duplicate label 'a'"):
        parse_curve_file(text)


def test_parse_rejects_singular_model_with_context():
    with pytest.raises(ValueError, match=r"line 2 \(bad\)"):
        parse_curve_file("a [0,-1,1,-10,-20]\nbad [0,0,0,0,0]\n")


def test_parse_names_the_line_of_a_discriminant_it_cannot_factor():
    # discriminant -432 * 1009^668: over 1000 digits left after trial division
    text = f"a [0,-1,1,-10,-20]\nbig [0,0,0,0,{1009 ** 334}]\n"
    with pytest.raises(ValueError, match=r"line 2 \(big\): .*more than 1000 digits"):
        parse_curve_file(text)


def test_parse_rejects_malformed_curve_with_context():
    with pytest.raises(ValueError, match=r"line 1 \(x\)"):
        parse_curve_file("x [1,2,3]\n")


# -- level scan --------------------------------------------------------------------

def test_scan_finds_the_opposite_sign_pair(records):
    report = scan_level(records, 19, 5, QuadraticCharacter(19))
    assert report.level == 1406
    assert (report.p, report.ell) == (19, 5)
    assert dict(report.sign_table) == {"ex1": -1, "ex2": 1}

    assert len(report.candidates) == 1
    pair = report.candidates[0]
    assert {pair.label_a, pair.label_b} == {"ex1", "ex2"}
    assert pair.certificate.passed
    assert pair.certificate.sturm_bound_value == 7220
    assert pair.certificate.excluded_primes == (19,)

    reasons = {rec.label: rec.reason for rec in report.skipped}
    assert reasons == {
        "dec1": "conductor 11 != scan level 1406",
        "dec2": "conductor 36 != scan level 1406",
    }
    assert report.notes == ()


def test_scan_report_serialization(records):
    report = scan_level(records, 19, 5, QuadraticCharacter(19))
    data = report.to_dict()
    assert data["level"] == 1406
    assert data["sign_table"] == [["ex1", -1], ["ex2", 1]]
    assert data["candidates"][0]["labels"] == ["ex1", "ex2"]
    assert data["candidates"][0]["certificate"]["status"] == "pass"
    assert len(data["skipped"]) == 2


def test_scan_skips_good_primes(records):
    # both level-1406 curves have good reduction at 5
    report = scan_level(records, 5, 5, QuadraticCharacter(19))
    assert report.level == 1406
    assert report.sign_table == ()
    assert report.candidates == ()
    reasons = {rec.label: rec.reason for rec in report.skipped}
    assert reasons["ex1"] == "not multiplicative at 5 (f_p = 0)"
    assert reasons["ex2"] == "not multiplicative at 5 (f_p = 0)"
    assert any("not ruled out" in note for note in report.notes)


def test_scan_modal_level_tie_breaks_small(records):
    # one curve each at levels 11 and 36: the tie resolves to 11
    pair = [rec for rec in records if rec.label in ("dec1", "dec2")]
    report = scan_level(pair, 11, 5, QuadraticCharacter(1))
    assert report.level == 11
    assert [label for label, _ in report.sign_table] == ["dec1"]
    sign = dict(report.sign_table)["dec1"]
    assert sign == tate_local(pair[0].model, 11).a_p
    assert {rec.label for rec in report.skipped} == {"dec2"}
    assert report.candidates == ()


@pytest.mark.parametrize("ell", [25, 10, 4, 1, 0, -5])
def test_scan_rejects_an_ell_that_is_not_prime(ell):
    records = parse_curve_file(GOLDEN_TABLE.read_text(encoding="utf-8"))
    with pytest.raises(ValueError, match=f"ell = {ell} is not prime"):
        scan_level(records, 19, ell, QuadraticCharacter(19))


def test_scan_rejects_a_p_that_is_not_prime_before_reading_a_record():
    def unread():
        raise AssertionError("a record was read")
        yield

    for records in ([], unread()):
        with pytest.raises(ValueError, match="p = 4 is not prime"):
            scan_level(records, 4, 5, QuadraticCharacter(19))


def test_scan_empty_input():
    report = scan_level([], 19, 5, QuadraticCharacter(19))
    assert report.level == 0
    assert report.candidates == ()
    assert report.notes == ("no records supplied",)

# -- screening against certification ---------------------------------------------------

A = (1, 1, 1, -614, -5501)
B = (1, -1, 1, -1191, 507615)
COPIES = ((1, 0, 0, 0), (-1, 2, -1, 3), (1, -3, 1, -2))  # (u, r, s, t), u = +-1


def sweep_table():
    """3 copies of A (sign -1 at 19), 3 of B (sign +1), and the quadratic
    twist of A by 5, whose conductor 1406·25 gets it skipped."""
    rows = []
    for name, ai in (("A", A), ("B", B)):
        for i, urst in enumerate(COPIES):
            rows.append(CurveRecord(f"{name}{i}", change_coordinates(make_model(*ai), *urst)))
    base = make_model(*A)
    rows.append(CurveRecord("twist5", make_model(0, 0, 0, -27 * base.c4 * 25, -54 * base.c6 * 125)))
    return rows


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_scan_reports_exactly_the_pairs_that_certify(ell):
    twist = QuadraticCharacter(19)
    reference = sweep_table()
    expected = {}
    for rec_a in reference[:3]:
        for rec_b in reference[3:6]:
            cert = certify_congruence(rec_a.model, rec_b.model, ell, twist)
            if cert.passed:
                expected[rec_a.label, rec_b.label] = cert
    assert (len(expected) == 9) == (ell == 5)

    report = scan_level(sweep_table(), 19, ell, twist)
    assert [rec.label for rec in report.skipped] == ["twist5"]
    got = {(pair.label_a, pair.label_b): pair.certificate for pair in report.candidates}
    assert got == expected


def test_scan_counts_each_curve_at_most_once_and_stops_refuted_pairs_early(kernel_calls):
    twist = QuadraticCharacter(19)
    scan_level(sweep_table(), 19, 3, twist)  # every pair fails at a small prime
    assert 0 < len(kernel_calls) < 100
    kernel_calls.clear()
    report = scan_level(sweep_table(), 19, 5, twist)  # all 9 pairs pass
    assert len(report.candidates) == 9
    assert len(kernel_calls) <= 6 * len(primes_up_to(7220))


def test_scan_certifies_each_pair_by_its_one_comparison(monkeypatch):
    def refuse(*args):
        raise AssertionError("scan built an a_p table")

    monkeypatch.setattr(congruence, "ap_table", refuse)
    report = scan_level(sweep_table(), 19, 5, QuadraticCharacter(19))
    assert len(report.candidates) == 9
