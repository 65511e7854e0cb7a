import io
import json
import os
import subprocess
import sys

import pytest

import steinberg
from steinberg.cli import run

CURVE_A = "[1,1,1,-614,-5501]"
CURVE_B = "[1,-1,1,-1191,507615]"
CURVE_11A1 = "[0,-1,1,-10,-20]"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    assert err == ""
    return code, json.loads(out)


# -- envelope and exit codes ---------------------------------------------------

def test_envelope_structure():
    code, env = invoke_json("sturm", "--level", "26714")
    assert code == 0
    assert set(env) == {"command", "inputs", "result", "version"}
    assert env["command"] == "sturm"
    assert env["inputs"] == {"level": 26714, "weight": 2}
    assert env["version"] == steinberg.__version__
    assert env["result"] == {
        "level": 26714,
        "weight": 2,
        "index": 43320,
        "sturm_bound": 7220,
    }


def test_sturm_weight_flag():
    code, env = invoke_json("sturm", "--level", "11", "--weight", "4")
    assert code == 0
    assert env["result"]["sturm_bound"] == 4


def test_usage_errors_exit_2():
    cases = [
        ("localdata", "[1,2,3]"),  # not five coefficients
        ("localdata", CURVE_A, "--prime", "0"),
        ("localdata", CURVE_A, "--prime", "10"),
        ("ap", CURVE_A, "--bound", "-1"),
        ("check-theorem", CURVE_A, "--p", "4", "--ell", "5"),
        ("check-theorem", CURVE_A, "--p", "19", "--ell", "15"),
        ("sturm", "--level", "0"),
        ("sturm",),  # missing required --level
        ("certify", CURVE_A, CURVE_B, "--ell", "5", "--twist", "0"),
        ("certify", CURVE_A, CURVE_B, "--ell", "6"),
        ("scan", "/no/such/file.txt", "--p", "19", "--ell", "5"),
        ("no-such-command",),
    ]
    for argv in cases:
        code, out, err = invoke(*argv)
        assert code == 2, argv
        assert out == "", argv
        assert "error:" in err, argv


# -- localdata -------------------------------------------------------------------

def test_localdata_default_runs_all_bad_primes():
    code, env = invoke_json("localdata", CURVE_A)
    assert code == 0
    result = env["result"]
    assert result["conductor"] == 1406
    rows = {rec["p"]: rec for rec in result["local_data"]}
    assert set(rows) == {2, 19, 37}
    assert rows[2]["reduction_type"] == "split_multiplicative"
    assert rows[19]["reduction_type"] == "nonsplit_multiplicative"
    assert rows[37]["reduction_type"] == "nonsplit_multiplicative"
    assert [rows[p]["v_min_disc"] for p in (2, 19, 37)] == [5, 5, 1]
    assert result["steinberg_primes"] == [[2, 1], [19, -1], [37, -1]]


def test_localdata_factors_the_discriminant_once(monkeypatch):
    factorize = steinberg.factorize
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("steinberg.") and getattr(module, "factorize", None) is factorize:
            monkeypatch.setattr(module, "factorize", counting)
    code, _ = invoke_json("localdata", CURVE_A)
    assert code == 0
    assert len(calls) == 1


def test_localdata_single_prime():
    code, env = invoke_json("localdata", CURVE_A, "--prime", "5")
    assert code == 0
    (row,) = env["result"]["local_data"]
    assert row == {
        "p": 5,
        "reduction_type": "good",
        "v_min_disc": 0,
        "conductor_exponent": 0,
        "a_p": 3,
    }
    assert env["inputs"]["prime"] == 5


# -- ap ---------------------------------------------------------------------------

def test_ap_table_golden():
    code, env = invoke_json("ap", CURVE_A, "--bound", "40")
    assert code == 0
    assert env["result"]["entries"] == [
        [2, 1], [3, 2], [5, 3], [7, 4], [11, -5], [13, -2],
        [17, 0], [19, -1], [23, -3], [29, -4], [31, 6], [37, -1],
    ]


# -- check-theorem ------------------------------------------------------------------

def test_check_theorem_certified_exits_0():
    code, env = invoke_json("check-theorem", CURVE_A, "--p", "19", "--ell", "5")
    assert code == 0
    result = env["result"]
    assert result["conclusion"] == "existence_certified"
    assert result["failed_checks"] == []
    assert result["checks"]["irreducibility"]["q"] == 3


def test_check_theorem_failure_exits_1():
    code, env = invoke_json("check-theorem", CURVE_A, "--p", "37", "--ell", "5")
    assert code == 1
    result = env["result"]
    assert result["conclusion"] == "hypothesis_failed"
    assert result["failed_checks"] == ["p_is_minus_one_mod_ell", "unramified_at_p"]


def test_check_theorem_inconclusive_exits_1():
    code, env = invoke_json(
        "check-theorem", CURVE_A, "--p", "19", "--ell", "5", "--search-bound", "2"
    )
    assert code == 1
    assert env["result"]["conclusion"] == "inconclusive"


# -- certify -------------------------------------------------------------------------

def test_certify_pass_exits_0():
    code, env = invoke_json("certify", CURVE_A, CURVE_A, "--ell", "5")
    assert code == 0
    assert env["result"]["status"] == "pass"
    assert env["result"]["sturm_bound"] == 380
    assert env["inputs"]["twist"] == {"modulus": 1}


def test_certify_failure_exits_1():
    code, env = invoke_json("certify", CURVE_A, CURVE_11A1, "--ell", "5")
    assert code == 1
    assert env["result"]["status"] == "fail"
    assert env["result"]["counterexample"] == [2, 1, -2]


# -- scan ------------------------------------------------------------------------------

@pytest.fixture()
def table_file(tmp_path):
    path = tmp_path / "curves.txt"
    path.write_text(
        "# fixture table\n"
        f"ex1 {CURVE_A}\n"
        f"ex2 {CURVE_B}\n"
        f"dec1 {CURVE_11A1}\n"
        "dec2 [0,0,0,0,1]\n",
        encoding="utf-8",
    )
    return str(path)


def test_scan_finds_pair(table_file):
    code, env = invoke_json("scan", table_file, "--p", "19", "--ell", "5")
    assert code == 0
    result = env["result"]
    assert result["twist"] == {"modulus": 19}  # defaults to p
    assert result["level"] == 1406
    assert [pair["labels"] for pair in result["candidates"]] == [["ex1", "ex2"]]
    assert result["candidates"][0]["certificate"]["status"] == "pass"


def test_scan_without_pair_exits_1(table_file):
    code, env = invoke_json("scan", table_file, "--p", "5", "--ell", "5")
    assert code == 1
    assert env["result"]["candidates"] == []
    assert env["result"]["notes"]


def test_scan_reports_parse_errors_as_usage(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("a [1,2,3]\n", encoding="utf-8")
    code, out, err = invoke("scan", str(path), "--p", "19", "--ell", "5")
    assert code == 2
    assert "line 1" in err


# -- the built-in worked example --------------------------------------------------------

def test_paper_example_end_to_end():
    code, out, err = invoke("paper-example")
    assert code == 0 and err == ""
    env = json.loads(out)
    result = env["result"]
    assert result["verdict"]["conclusion"] == "existence_certified"
    assert result["congruence"]["status"] == "pass"
    assert result["congruence"]["sturm_bound"] == 7220
    assert result["congruence"]["excluded_primes"] == [19]
    assert result["pair_consistency"]["consistent"] is True
    signs_a = {rec["p"]: rec["a_p"] for rec in result["local_data_a"]}
    signs_b = {rec["p"]: rec["a_p"] for rec in result["local_data_b"]}
    assert signs_a == {2: 1, 19: -1, 37: -1}
    assert signs_b == {2: 1, 19: 1, 37: -1}


def test_paper_example_is_deterministic():
    first = invoke("paper-example")
    second = invoke("paper-example")
    assert first == second


# -- pretty renderings --------------------------------------------------------------------

def test_pretty_localdata():
    code, out, err = invoke("localdata", CURVE_A, "--pretty")
    assert code == 0
    assert "conductor: 1406" in out
    assert "steinberg primes: 2:+1, 19:-1, 37:-1" in out
    assert not out.startswith("{")


def test_pretty_certify_failure():
    code, out, _ = invoke("certify", CURVE_A, CURVE_11A1, "--ell", "5", "--pretty")
    assert code == 1
    assert "status: FAIL at p=2" in out


def test_pretty_check_theorem():
    code, out, _ = invoke("check-theorem", CURVE_A, "--p", "19", "--ell", "5", "--pretty")
    assert code == 0
    assert "conclusion: existence_certified" in out
    assert "irreducibility: q=3" in out


def test_pretty_paper_example():
    code, out, _ = invoke("paper-example", "--pretty")
    assert code == 0
    assert "== pair consistency ==" in out
    assert "consistent: True" in out


def test_pretty_paper_example_conductor_comes_from_local_data():
    from steinberg.cli import _pretty_paper_example

    _, example = invoke_json("paper-example")
    _, local = invoke_json("localdata", CURVE_11A1)
    result = dict(example["result"], local_data_b=local["result"]["local_data"])
    out = io.StringIO()
    _pretty_paper_example(result, out)
    text = out.getvalue()
    assert "conductor: 1406\n" in text
    assert "conductor: 11\n" in text


# -- module execution ------------------------------------------------------------------------

def test_module_invocation():
    # the child process runs the package this test imported, installed or not
    src = os.path.dirname(os.path.dirname(steinberg.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "steinberg", "sturm", "--level", "11"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["result"]["sturm_bound"] == 2