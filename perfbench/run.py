"""Benchmark of the steinberg command line, end to end and layer by layer.

One run measures one workload (see workloads.py) as a closed loop: one client,
one process, one thread, each op a call of `steinberg.cli.run(argv, out, err)`
(the `steinberg` entry point minus interpreter start), the next op sent when
the previous one returns.  Every output is checked against values derived from
how its input was built (checks.py).

    python3 perfbench/run.py --workload certify_pair --seed 1 --seconds 22 --trace 0

With --trace 0 the last line of stdout is a JSON object whose metrics are the
`end_to_end` ones of BENCHMARK.json; with --trace 1 the run first times whole
rounds of ops untraced, then the same number of seconds of rounds with spans
around each layer (tracing.py), and reports the `per_layer` metrics, per op.
The spans are written to perfbench/out/spans-<workload>.jsonl.

    python3 perfbench/run.py --steadiness

runs every workload in two sets of ten seeds each (1..10, then 11..20),
prints each end-to-end metric's quartile spread against its bound and how far
the second set's median moved from the first, and fails if either is over the
bound.  `python3 -m pytest perfbench/bench_tests.py` runs the benchmark's own
tests.
"""

from __future__ import annotations

import os

# numpy's thread pools stay at one thread, here and in every process started from here
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_STARTS = 15  # cold starts per run, spread over its timed window; setup_s is their median
SETUP_ARGV = ("-m", "steinberg", "sturm", "--level", "1")
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples beyond it
STEADY_RUNS = 10  # seeds per workload and set in --steadiness
STEADY_SETS = 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass
class Phase:
    """Latencies (s), checker failures and stdout size of a stretch of ops."""

    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    stdout_chars: int = 0
    next_index: int = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def extend(self, later: Phase) -> None:
        self.latencies += later.latencies
        self.failures += later.failures
        self.stdout_chars += later.stdout_chars
        self.next_index = later.next_index


def run_ops(cli, checker, wl, first: int, seconds: float, whole_rounds: bool, tracer=None) -> Phase:
    """Ops first, first+1, ... until `seconds` have passed (and a round is complete, if asked).

    Only the `cli.run` call is timed: building the op and checking its output
    are the client's think time, outside the latency.
    """
    phase = Phase()
    i = first
    begin = time.perf_counter()
    while True:
        op = wl.op(i)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i - first
        t0 = time.perf_counter()
        code = cli.run(list(op.argv), out, err)
        phase.latencies.append(time.perf_counter() - t0)
        text = out.getvalue()
        phase.stdout_chars += len(text)
        reason = checker.check(op, code, text, err.getvalue())
        if reason:
            phase.failures.append(f"op {i} ({op.argv[0]}): {reason}")
        i += 1
        if time.perf_counter() - begin >= seconds and not (whole_rounds and (i - first) % wl.round_size):
            break
    phase.next_index = i
    return phase


def cold_start() -> tuple[float, str | None]:
    """Wall time of a fresh interpreter running `python -m steinberg sturm --level 1`, and a failure if any."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    want = {"level": 1, "weight": 2, "index": 1, "sturm_bound": 0}
    if proc.returncode != 0 or json.loads(proc.stdout or "{}").get("result") != want:
        return elapsed, f"cold start: exit {proc.returncode}, {proc.stdout[:200]!r} {proc.stderr[:200]!r}"
    return elapsed, None


def tail(latencies) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args, wl) -> dict:
    import numpy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process, 1 thread",
        "input_size": wl.size,
        "why": wl.why,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def result_line(spec_metrics, values: dict, attempted: int, failures: list, correct: bool) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics})


def measure(args) -> int:
    if not (ROOT / "src" / "steinberg" / "__init__.py").is_file():
        print(f"error: no steinberg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import steinberg.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported steinberg from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    from checks import Checker
    from tracing import Tracer
    from workloads import build

    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = build(args.workload, args.seed, Path(workdir))
        print("meta " + json.dumps(metadata(args, wl)))
        checker = Checker()
        untimed_failures = []
        for op in wl.warmup():
            out, err = io.StringIO(), io.StringIO()
            reason = checker.check(op, cli.run(list(op.argv), out, err), out.getvalue(), err.getvalue())
            if reason:
                untimed_failures.append(f"warm-up ({op.argv[0]}): {reason}")

        if not args.trace:
            # the cold starts are spread over the timed window, so that setup_s and the
            # op latencies see the same stretch of the machine's speed; each slice aims at
            # where the ops' own time should be, so one slice's overrun is not repeated
            phase, setup_times, spent = Phase(), [], 0.0
            for k in range(SETUP_STARTS):
                elapsed, reason = cold_start()
                setup_times.append(elapsed)
                if reason:
                    untimed_failures.append(reason)
                t0 = time.perf_counter()
                target = (k + 1) * args.seconds / SETUP_STARTS - spent
                phase.extend(run_ops(cli, checker, wl, phase.next_index, target, whole_rounds=False))
                spent += time.perf_counter() - t0
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            failures = phase.failures
            n = len(phase.latencies)
            tail_ms, tail_pct = tail(phase.latencies)
            values = {
                "ops_per_s": phase.ops_per_s,
                "op_p50_ms": statistics.median(phase.latencies) * 1000,
                "op_tail_ms": tail_ms * 1000,
                "fail_ratio": len(failures) / n,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setup_times),
            }
            notes = {
                "op_tail_ms": f"p{tail_pct:.1f} of {n} ops",
                "fail_ratio": f"{len(failures)} of {n} ops",
                "setup_s": f"median of {len(setup_times)} cold starts of python {' '.join(SETUP_ARGV)}",
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            units["fail_ratio"] = "1"
            for name, value in values.items():
                print(f"{name:<12} {value:.6g} {units[name]}  {notes.get(name, '')}".rstrip())
            spec_metrics = spec["end_to_end"]
        else:
            half = args.seconds / 2
            untraced = run_ops(cli, checker, wl, 0, half, whole_rounds=True)
            with Tracer() as tracer:
                traced = run_ops(cli, checker, wl, untraced.next_index, half, whole_rounds=True, tracer=tracer)
            tracer.write(OUT / f"spans-{wl.name}.jsonl")
            values = tracer.summarize(len(traced.latencies))
            values["cli.stdout_bytes"] = traced.stdout_chars / len(traced.latencies)
            values["trace.overhead_ratio"] = untraced.ops_per_s / traced.ops_per_s
            failures = untraced.failures + traced.failures
            n = len(untraced.latencies) + len(traced.latencies)
            print(f"traced {len(traced.latencies)} ops ({len(traced.latencies) // wl.round_size} rounds); per op:")
            for name in sorted(values):
                print(f"  {name:<55} {values[name]:.6g}")
            spec_metrics = spec["per_layer"]

    for reason in (untimed_failures + failures)[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(result_line(spec_metrics, values, n, failures, correct=not (failures or untimed_failures)))
    return 0


def quartile_spread(values) -> tuple[float, float]:
    """(median, (q3 - q1) / median) with quartiles as statistics.quantiles(n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def steadiness(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    runs: dict = {}  # (set, workload) -> list of result objects
    for s in range(STEADY_SETS):
        for k in range(STEADY_RUNS):
            seed = s * STEADY_RUNS + k + 1
            for name in names:
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
                cmd += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"set {s + 1} seed {seed} {name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                runs.setdefault((s, name), []).append(result)
                shown = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
                print(
                    f"set {s + 1} seed {seed:>3} {name:<13} {time.perf_counter() - t0:5.1f}s "
                    f"correct={result['correct']} failed={result['failed']}/{result['attempted']} {shown}",
                    file=sys.stderr,
                )
    ok = all(r["correct"] and r["failed"] == 0 for rs in runs.values() for r in rs)
    report = []
    print(f"{'workload':<13} {'metric':<12} {'set':>3} {'median':>11} {'spread':>7} {'bound':>6}  verdict")
    for name in names:
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(STEADY_SETS):
                median, spread = quartile_spread([r["metrics"][m]["value"] for r in runs[s, name]])
                medians.append(median)
                if spread > bound:
                    verdict = "over bound"
                    ok = False
                else:
                    verdict = "below a third of bound" if spread < bound / 3 else "within bound"
                print(f"{name:<13} {m:<12} {s + 1:>3} {median:>11.5g} {spread:>7.3f} {bound:>6.3f}  {verdict}")
                report.append({"workload": name, "metric": m, "set": s + 1, "median": median, "spread": spread})
            for s in range(1, STEADY_SETS):
                change = (medians[s] - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                verdict = "worse than set 1 by more than the bound" if worse > bound else "agrees with set 1"
                ok = ok and worse <= bound
                print(f"{name:<13} {m:<12} {s + 1:>3} median moved {change:+.3f} vs set 1: {verdict}")
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(
        json.dumps({"report": report, "runs": {f"{s + 1}/{n}": r for (s, n), r in runs.items()}}, indent=1),
        encoding="utf-8",
    )
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true", help="run every workload over 2 x 10 seeds")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
