import io
import json
import os
import resource
import subprocess
import sys
from collections import Counter

import pytest

import steinberg
import steinberg.local_reduction as local_reduction
from steinberg.cli import run

CURVE_A = "[1,1,1,-614,-5501]"
CURVE_B = "[1,-1,1,-1191,507615]"
CURVE_11A1 = "[0,-1,1,-10,-20]"
# 15a1 and its quadratic twist by -7 (conductor 735 = 15 * 7^2)
CURVE_15A1 = "[1,1,1,-10,-10]"
CURVE_15A1_TWIST = "[0,0,0,-636363,90368838]"
# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
# discriminant -P * (432 P + 1), both factors prime, with 20 and 22 digits
HOSTILE_P = 10000000000000000381


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    assert err == ""
    return code, json.loads(out)


def invoke_module(*argv, **kwargs):
    """`python -m steinberg argv` in a child process, on the package this test
    imported, installed or not."""
    src = os.path.dirname(os.path.dirname(steinberg.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "steinberg", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        **kwargs,
    )


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
        ("check-theorem", CURVE_A, "--p", "19", "--ell", "5", "--search-bound", "-1"),
        ("sturm", "--level", "0"),
        ("sturm", "--level", "11", "--weight", "0"),
        ("sturm",),  # missing required --level
        ("certify", CURVE_A, CURVE_B, "--ell", "5", "--twist", "0"),
        ("certify", CURVE_A, CURVE_B, "--ell", "6"),
        ("scan", "/no/such/file.txt", "--p", "19", "--ell", "5"),
        ("scan", "/no/such/file.txt", "--p", "19", "--ell", "5", "--twist", "0"),
        ("no-such-command",),
        # not prime, or beyond the range where primality is proven
        ("check-theorem", CURVE_A, "--p", "19", "--ell", str(PSI_12)),
        ("check-theorem", CURVE_A, "--p", "19", "--ell", str(PSI_13)),
        ("check-theorem", CURVE_A, "--p", str(PSI_13), "--ell", "5"),
        ("localdata", CURVE_A, "--prime", str(PSI_13)),
        ("certify", CURVE_A, CURVE_B, "--ell", str(PSI_13)),
        ("scan", "/no/such/file.txt", "--p", "19", "--ell", str(PSI_12)),
        # levels that cannot be factored into proven primes
        ("sturm", "--level", "3317044064679887385962123"),
        ("sturm", "--level", str(1009 ** 334)),
    ]
    for argv in cases:
        code, out, err = invoke(*argv)
        assert code == 2, argv
        assert out == "", argv
        assert "error:" in err, argv


@pytest.mark.parametrize(
    "argv, argument, reason",
    [
        (("localdata", "[1,2,3]"), "curve", "expected 5 coefficients"),
        (("localdata", "[0,0,0,0,0]"), "curve", "singular model"),
        (("certify", CURVE_A, CURVE_B, "--ell", "5", "--twist", "0"), "--twist", "modulus must be nonzero"),
        # refused while argv is read, before the table is opened
        (("scan", "/no/such/file.txt", "--p", "19", "--ell", "5", "--twist", "0"), "--twist", "modulus must be nonzero"),
    ],
    ids=["short curve", "singular curve", "certify twist", "scan twist"],
)
def test_argument_errors_name_the_argument_and_keep_the_reason(argv, argument, reason):
    code, out, err = invoke(*argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: argument {argument}: ")
    assert reason in err


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


def test_localdata_on_a_twist_factors_the_discriminant_once(monkeypatch):
    # curve A twisted by 1000003: the large prime is found past trial division,
    # which must not call the public factorize again
    factorize = steinberg.factorize
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("steinberg.") and getattr(module, "factorize", None) is factorize:
            monkeypatch.setattr(module, "factorize", counting)
    E = steinberg.make_model(1, 1, 1, -614, -5501)
    d = 1_000_003
    curve = f"[0,0,0,{-27 * E.c4 * d * d},{-54 * E.c6 * d ** 3}]"
    code, env = invoke_json("localdata", curve)
    assert code == 0
    assert [row["p"] for row in env["result"]["local_data"]] == [2, 3, 19, 37, d]
    assert len(calls) == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ("localdata", CURVE_A),
        ("check-theorem", CURVE_A, "--p", "19", "--ell", "5"),
        ("paper-example",),
    ],
)
def test_tate_runs_once_per_model_and_prime(argv, monkeypatch):
    # every pass of Tate's algorithm starts from the valuation of the
    # discriminant at p; these models are minimal, so no pass restarts
    valuation = local_reduction.valuation
    runs = []

    def counting(n, p):
        runs.append((n, p))
        return valuation(n, p)

    monkeypatch.setattr(local_reduction, "valuation", counting)
    code, _ = invoke_json(*argv)
    assert code == 0
    assert {p for _, p in runs} >= {2, 19, 37}
    assert max(Counter(runs).values()) == 1


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


def test_certify_compares_prime_powers_where_reduction_types_differ():
    # 15a1 is good at 7 and its twist by -7 is additive there: a_7 agrees
    # mod 2, but a_49 is -7 against 0
    code, env = invoke_json("certify", CURVE_15A1, CURVE_15A1_TWIST, "--ell", "2")
    assert code == 1
    result = env["result"]
    assert (result["twisted_level"], result["sturm_bound"]) == (735, 224)
    assert result["status"] == "fail"
    assert result["counterexample"] == [49, -7, 0]
    code, out, _ = invoke("certify", CURVE_15A1, CURVE_15A1_TWIST, "--ell", "2", "--pretty")
    assert code == 1
    assert "status: FAIL at n=49 (a_n = -7 vs 0)" in out


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


def test_scan_at_2_certifies_at_the_depleted_level(tmp_path):
    # the default twist is p = 2 and 2 || 350, so depletion at 2 puts the
    # level at lcm(350, 2^2) = 700; the sieve stops at its Sturm bound
    path = tmp_path / "n350.txt"
    path.write_text("a [1,1,0,5,5]\nb [1,1,1,-13,31]\n", encoding="utf-8")
    code, env = invoke_json("scan", str(path), "--p", "2", "--ell", "3")
    assert code == 0
    [pair] = env["result"]["candidates"]
    assert pair["labels"] == ["a", "b"]
    cert = pair["certificate"]
    assert (cert["status"], cert["twisted_level"], cert["sturm_bound"]) == ("pass", 700, 240)
    assert cert["excluded_primes"] == [2]
    assert cert["primes_checked"] + len(cert["excluded_primes"]) == len(steinberg.primes_up_to(240))


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


def test_scan_reports_an_unreadable_file_as_usage(tmp_path):
    path = tmp_path / "absent.txt"
    code, out, err = invoke("scan", str(path), "--p", "19", "--ell", "5")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")


def test_scan_fails_fast_on_a_discriminant_it_cannot_factor(tmp_path):
    path = tmp_path / "hostile.txt"
    path.write_text(
        f"ex1 {CURVE_A}\nbad [1,0,0,0,{HOSTILE_P}]\nex2 {CURVE_B}\n",
        encoding="utf-8",
    )
    proc = invoke_module("scan", str(path), "--p", "19", "--ell", "5", timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "line 2 (bad): Pollard rho found no factor of a 41-digit cofactor" in proc.stderr


@pytest.mark.parametrize(
    "p, ell, message",
    [("4", "5", "p = 4 is not prime"), ("19", "25", "ell = 25 is not prime")],
    ids=["p", "ell"],
)
def test_scan_checks_p_and_ell_before_it_reads_the_table(tmp_path, p, ell, message):
    path = tmp_path / "hostile.txt"
    path.write_text(
        f"ex1 {CURVE_A}\nbad [1,0,0,0,{HOSTILE_P}]\nex2 {CURVE_B}\n",
        encoding="utf-8",
    )
    proc = invoke_module("scan", str(path), "--p", p, "--ell", ell, timeout=2)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def _limit_address_space():
    # 1 GiB: a sieve that allocates before checking its bound fails here
    # with MemoryError instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv",
    [
        ("ap", CURVE_A, "--bound", str(10**12)),
        ("check-theorem", CURVE_A, "--p", "19", "--ell", "5", "--search-bound", str(10**12)),
        # twisted level lcm(1406, 1000003^2), Sturm bound about 4e14
        ("certify", CURVE_A, CURVE_B, "--ell", "5", "--twist", "1000003"),
    ],
    ids=["ap", "check-theorem", "certify"],
)
def test_bounds_above_the_sieve_limit_exit_2(argv):
    proc = invoke_module(*argv, timeout=30, preexec_fn=_limit_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert f"above the sieve limit {steinberg.MAX_SIEVE_BOUND}" in proc.stderr


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


def test_pretty_check_theorem_at_ell_2_says_no_search_ran():
    # check_theorem_a skips the witness search for ell = 2, so there is no
    # search bound to report
    code, out, _ = invoke("check-theorem", "[1,-1,1,-3,3]", "--p", "13", "--ell", "2", "--pretty")
    assert code == 1
    assert "  irreducibility: not searched (ell = 2)\n" in out
    assert "no witness" not in out
    assert "ell_not_2p: FAILED" in out


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
    proc = invoke_module("sturm", "--level", "11")
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["result"]["sturm_bound"] == 2