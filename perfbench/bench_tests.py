"""Tests of the benchmark itself: seeded inputs, the output checker and the tracer.

    python3 -m pytest perfbench/bench_tests.py
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from steinberg import cli, frobenius  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402


@pytest.fixture
def workdir():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as path:
        yield Path(path)


def run(op):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(op.argv), out, err)
    return code, out.getvalue(), err.getvalue()


def corrupt(text: str, path, change) -> str:
    envelope = json.loads(text)
    node = envelope
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return json.dumps(envelope, indent=2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name, workdir):
    def ops(seed):
        wl = workloads.build(name, seed, workdir)
        return [wl.op(i) for i in range(2 * wl.round_size)] + wl.warmup(), getattr(wl, "table_text", None)

    assert ops(7) == ops(7)
    assert ops(7) != ops(8)


def test_benchmark_json_states_each_workload_and_why():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }


def test_rounds_repeat_the_same_shapes(workdir):
    wl = workloads.build("local_batch", 3, workdir)
    first = [wl.op(i) for i in range(wl.round_size)]
    second = [wl.op(i + wl.round_size) for i in range(wl.round_size)]
    for a, b in zip(first, second):
        assert a.argv[0] == b.argv[0] and a.expect["base"] == b.expect["base"] and a.expect["u"] == b.expect["u"]
        assert len(workloads.prime_factors(a.expect["d"])) == len(workloads.prime_factors(b.expect["d"]))
        assert a.argv != b.argv


def test_twist_moduli_are_one_mod_four_and_coprime_to_the_level(workdir):
    wl = workloads.build("local_batch", 5, workdir)
    for i in range(wl.round_size):
        d = wl.op(i).expect["d"]
        assert d % 4 == 1
        assert all(d % q for q in (2, 3, 5, 19, 37))


@pytest.mark.parametrize(
    "name, index, path, change",
    [
        ("certify_pair", 0, ("result", "primes_checked"), lambda v: v - 1),
        ("certify_pair", 0, ("result", "excluded_primes"), lambda v: []),
        ("local_batch", 0, ("result", "conductor"), lambda v: v // 4),
        ("local_batch", 7, ("result", "local_data", -1, "a_p"), lambda v: v + 1),
        ("local_batch", 8, ("result", "steinberg_primes", 1, 1), lambda v: -v),
        ("local_batch", 12, ("result", "witnesses", "level"), lambda v: 1406),
        ("local_batch", 20, ("result", "checks", "irreducibility", "a_q"), lambda v: -v),
        ("scan_sweep", 1, ("result", "candidates"), lambda v: v[1:]),
        ("scan_sweep", 0, ("result", "skipped"), lambda v: v[1:]),
    ],
)
def test_checker_accepts_the_real_output_and_rejects_a_corrupted_one(name, index, path, change, workdir):
    op = workloads.build(name, 11, workdir).op(index)
    code, out, err = run(op)
    assert checks.Checker().check(op, code, out, err) is None
    assert checks.Checker().check(op, code, corrupt(out, path, change), err) is not None


def test_expected_nonzero_exit_is_not_a_failure(workdir):
    op = workloads.build("scan_sweep", 2, workdir).op(0)  # ell = 3: no candidate, exit 1
    code, out, err = run(op)
    assert code == 1
    assert checks.Checker().check(op, code, out, err) is None
    assert checks.Checker().check(op, 0, out, err) is not None


def test_ap_tables_are_spot_checked_then_compared_across_copies(workdir):
    wl = workloads.build("ap_wide", 4, workdir)
    first, second = wl.op(0), wl.op(2)  # two copies of A
    checker = checks.Checker()
    code, out, err = run(first)
    # a wrong a_p at a spot-checked prime is caught before the table becomes the reference
    assert checker.check(first, code, corrupt(out, ("result", "entries", 10, 1), lambda v: v + 1), err)
    assert checker.check(first, code, out, err) is None
    code, out, err = run(second)
    assert checker.check(second, code, out, err) is None
    # anywhere else, the copy must agree with the reference entry by entry
    assert checker.check(second, code, corrupt(out, ("result", "entries", 1500, 1), lambda v: v + 2), err)


def test_tracer_spans_nest_and_the_originals_come_back(workdir):
    kernel = frobenius.count_reduced_points
    op = workloads.build("local_batch", 1, workdir).op(12)  # check-theorem on a twist
    with Tracer() as tracer:
        tracer.op = 0
        code, out, err = run(op)
    assert code == 0
    assert frobenius.count_reduced_points is kernel
    roots = [s for s in tracer.spans if s[4] == -1]
    assert [s[1] for s in roots] == ["cli.run"]
    values = tracer.summarize(1)
    total_self = sum(values[f"{module}.{fname}.self_ms"] for module, names in TARGETS.items() for fname in names)
    assert total_self == pytest.approx((roots[0][3] - roots[0][2]) * 1000)
    assert values["certificates.check_theorem_a.calls"] == 1
    # tate_local imports the kernel at call time; the rebinding must reach it
    assert values["frobenius.count_reduced_points.calls"] > 0


def test_useful_ratio_is_one_when_every_coefficient_is_needed(workdir):
    op = workloads.build("certify_pair", 1, workdir).op(0)
    with Tracer() as tracer:
        tracer.op = 0
        run(op)
    values = tracer.summarize(1)
    assert values["frobenius.ap_table.calls"] == 2
    assert values["frobenius.ap_table.useful_ratio"] == 1.0
    assert values["local_reduction.conductor.per_curve"] == 1.0
