"""Benchmark of the isoadams engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads (see BENCHMARK.json and perfbench/README.md for why each
exists and which layer it puts on the critical path):

- iso-identify   the isotropic identification through the CLI,
                 classical t <= 32, s <= 12;
- product-table  classical resolution to s <= 14, t <= 48, every
                 in-window Yoneda product of generator classes and a
                 seed-drawn batch of Massey brackets;
- milnor-arith   seed-drawn Milnor products against the duality
                 oracle, and associativity triples.

Each job runs in a fresh single-threaded worker process (closed loop:
one job at a time).  A run repeats jobs with the seed's inputs while
the next one fits in --seconds, always at least one, and reports
medians with their sample counts.  `setup_s` is timed from starting a
worker until it has imported isoadams and built its inputs; extra
set-up-only workers are started so every run has several samples.

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of traced jobs and
trace.overhead_ratio, from traced and untraced jobs run alternately on
the same inputs, whose outputs must be byte-identical.  A run stamp
(git SHA, Python, nproc, host, seed), every job record and the
per-layer table go to perfbench/results/.

The exit code is 0 when every check passed, 1 when a correctness check
failed (the result line then says "correct": false), and 2 when the
benchmark could not run at all; then no result line is printed.
--smoke runs every workload at a tiny size, traced and untraced, checks
the result schema against BENCHMARK.json and that tracing changes no
output byte.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("iso-identify", "product-table", "milnor-arith")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # a run must end well inside 180 s


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def _stamp(workload: str, seed: int, trace: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def _spawn(workload: str, seed: int, size: str, trace: int, job: int, setup_only: bool, deadline: float):
    """Run one worker; returns (setup seconds, result record or None)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", str(trace), "--job", str(job),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed hash seed keeps set and dict iteration orders, and so the
    # work done, the same from job to job
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} job {job} did not finish before the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed during set-up (exit {proc.returncode})")
    if setup_only:
        return setup_s, None
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{workload} job {job} printed no result")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def run(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """One measured run; returns the full record (metrics, jobs, checks)."""
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    setups: list[float] = []
    jobs: list[dict] = []
    # with tracing, alternate untraced and traced jobs so the overhead
    # ratio compares jobs run under the same machine conditions
    modes = (0, 1) if trace else (0,)
    longest = 0.0
    while True:
        t_round = time.perf_counter()
        for mode in modes:
            setup_s, record = _spawn(workload, seed, size, mode, len(jobs), False, deadline)
            setups.append(setup_s)
            jobs.append(record)
        longest = max(longest, time.perf_counter() - t_round)
        if time.perf_counter() - t_start + longest > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(workload, seed, size, 0, len(setups), True, deadline)[0])

    plain = [j for j in jobs if not j["trace"]]
    traced = [j for j in jobs if j["trace"]]
    digests = {j["digest"] for j in jobs}
    problems = [p for j in jobs for p in j["problems"]]
    if len(digests) != 1:
        problems.append(f"jobs on the same inputs gave {len(digests)} different outputs")
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    samples = {
        "solve_s": [j["solve_s"] for j in plain],
        "setup_s": setups,
        "peak_rss_mb": [j["peak_rss_mb"] for j in plain],
    }
    if trace:
        metrics = {
            name: statistics.median(j["layers"][name] for j in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_ratio"] = statistics.median(
            j["solve_s"] for j in traced
        ) / statistics.median(samples["solve_s"])
    else:
        metrics = {name: statistics.median(v) for name, v in samples.items()}
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "problems": problems[:20],
        "digests": sorted(d for d in digests if d),
        "jobs": jobs,
    }


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _report(record: dict, stamp: dict, trace: int) -> dict:
    """Print the human-readable lines and build the final result line."""
    units = _units()
    print(f"# {stamp['workload']} seed={stamp['seed']} trace={trace} sha={stamp['git_sha']} "
          f"python={stamp['python']} nproc={stamp['nproc']} host={stamp['host']}")
    for name, values in record["samples"].items():
        if values:
            print(f"{name:>14} median {statistics.median(values):.6g} {units[name]}"
                  f"  (n={len(values)}, min {min(values):.6g}, max {max(values):.6g})")
    error_rate = record["failed"] / record["attempted"]
    print(f"{'error_rate':>14} {error_rate:.6g}  ({record['failed']} failed of {record['attempted']} attempted)")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    if trace:
        for name, value in record["metrics"].items():
            print(f"{name:>40} {value:.6g} {units[name]}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in record["metrics"].items()},
    }


def _check_schema(result: dict, trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if set(result["metrics"]) != set(wanted):
        errors.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(wanted))}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != wanted.get(name):
            errors.append(f"metric {name}: {m}")
        elif not isinstance(m["value"], (int, float)):
            errors.append(f"metric {name} value {m['value']!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted < 1")
    return errors


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced: the result
    schema matches BENCHMARK.json, every check passes, and traced jobs
    produce the same output bytes as untraced ones."""
    failures = []
    for workload in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            record = run(workload, seed=1, seconds=0, trace=trace, size="smoke")
            result = _report(record, _stamp(workload, 1, trace), trace)
            errors = _check_schema(result, trace)
            if not record["correct"]:
                errors.append("correctness checks failed")
            digests.update(record["digests"])
            failures += [f"{workload} trace={trace}: {e}" for e in errors]
        if len(digests) != 1:
            failures.append(f"{workload}: traced and untraced outputs differ")
    for failure in failures:
        print("SMOKE FAIL", failure)
    print("smoke:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, schema and trace checks")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        stamp = dict(_stamp(args.workload, args.seed, args.trace), seconds=args.seconds)
        record = run(args.workload, args.seed, args.seconds, args.trace)
        result = _report(record, stamp, args.trace)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"stamp": stamp, "result": result, **record}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
