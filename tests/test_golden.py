"""Byte-for-byte pins on the CLI's stdout.

Every subcommand, as JSON and with --pretty, is compared with a file under
tests/golden/.  A golden file changes only when the output is meant to
change; regenerate them all with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import io
import json
from pathlib import Path

import pytest

from steinberg.cli import run

GOLDEN = Path(__file__).parent / "golden"
A = "[1,1,1,-614,-5501]"
B = "[1,-1,1,-1191,507615]"
C11 = "[0,-1,1,-10,-20]"
TABLE = "scan_table.txt"  # read relative to GOLDEN, so the JSON inputs stay fixed

# name -> (argv, exit code); each also runs with --pretty
CASES = {
    "sturm": (["sturm", "--level", "26714"], 0),
    "localdata": (["localdata", A], 0),
    "localdata_prime": (["localdata", B, "--prime", "19"], 0),
    "ap": (["ap", A, "--bound", "60"], 0),
    "check_theorem": (["check-theorem", A, "--p", "19", "--ell", "5"], 0),
    "check_theorem_failed": (["check-theorem", A, "--p", "37", "--ell", "5"], 1),
    "check_theorem_inconclusive": (
        ["check-theorem", A, "--p", "19", "--ell", "5", "--search-bound", "2"],
        1,
    ),
    "certify_pass": (["certify", A, B, "--ell", "5", "--twist", "19"], 0),
    "certify_fail": (["certify", A, C11, "--ell", "5"], 1),
    "scan": (["scan", TABLE, "--p", "19", "--ell", "5"], 0),
    "scan_no_pair": (["scan", TABLE, "--p", "5", "--ell", "5"], 1),
    "paper_example": (["paper-example"], 0),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    assert err.getvalue() == ""
    return code, out.getvalue()


@pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, pretty, monkeypatch):
    argv, expected_code = CASES[name]
    monkeypatch.chdir(GOLDEN)
    code, out = _run(argv + ["--pretty"] * pretty)
    assert code == expected_code
    suffix = ".pretty.txt" if pretty else ".json"
    assert out == (GOLDEN / f"{name}{suffix}").read_text(encoding="utf-8")


POSITIONAL = ("curve", "curve_a", "curve_b", "file")


def _argv_from_inputs(command, inputs):
    """The argv that `inputs` echoes: curves as "[a1,...,a6]", a twist as its
    modulus, None left out; paper-example takes no options."""
    argv = [command]
    if command == "paper-example":
        return argv
    for key, value in inputs.items():
        if value is None:
            continue
        if isinstance(value, list):
            value = "[" + ",".join(map(str, value)) + "]"
        elif isinstance(value, dict):
            value = value["modulus"]
        argv += [str(value)] if key in POSITIONAL else [f"--{key.replace('_', '-')}", str(value)]
    return argv


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.stem)
def test_inputs_replay_to_the_same_envelope(path, monkeypatch):
    expected = path.read_text(encoding="utf-8")
    envelope = json.loads(expected)
    monkeypatch.chdir(GOLDEN)
    assert _run(_argv_from_inputs(envelope["command"], envelope["inputs"]))[1] == expected


if __name__ == "__main__":
    import os

    os.chdir(GOLDEN)
    for name, (argv, _) in CASES.items():
        for suffix, extra in ((".json", []), (".pretty.txt", ["--pretty"])):
            Path(name + suffix).write_text(_run(argv + extra)[1], encoding="utf-8")
