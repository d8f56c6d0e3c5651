"""One benchmark job in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --size full|smoke
                                --trace 0|1 [--job K] [--setup-only]

Imports isoadams from the `src/` directory of the checkout this file
sits in, builds the seeded inputs and prints `READY` (the parent times
set-up up to that line).  Then it runs the workload's entry function
once, timed, checks the output and prints one `RESULT {json}` line.
With --trace 1 the library's layer functions are wrapped first and the
result carries the per-layer figures of the job.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import isoadams  # noqa: E402

if Path(isoadams.__file__).resolve().parent != ROOT / "src" / "isoadams":
    sys.exit(f"isoadams imported from {isoadams.__file__}, not from this checkout")

import spans  # noqa: E402
import workloads  # noqa: E402

WORKDIR = BENCH / "results" / "work"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--job", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    prepare, solve, check, digest = workloads.WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text())[args.workload][args.size]
    WORKDIR.mkdir(parents=True, exist_ok=True)
    inputs = prepare(workloads.SIZES[args.workload][args.size], args.seed, WORKDIR, reference)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer(job=args.job)
        spans.instrument(tracer)
    error = None
    t0 = time.perf_counter()
    try:
        output = solve(inputs)
    except Exception as err:  # the job's one operation failed; report it
        output, error = None, f"{type(err).__name__}: {err}"
    solve_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if output is None:
        attempted, failed, problems, out_digest = 1, 1, [error], None
    else:
        attempted, failed, problems = check(inputs, output, reference)
        out_digest = digest(output)
    record = {
        "job": args.job,
        "trace": args.trace,
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": out_digest,
    }
    if tracer is not None:
        from isoadams import milnor

        record["spans"] = len(tracer)
        record["layers"] = spans.layer_metrics(tracer, milnor.multiply_mono.cache_info())
    print("RESULT " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
