"""End-to-end benchmark of the single-linkage pipeline, one workload per process.

Usage, from the repository root::

    python3 e2ebench/run.py --workload graph-1m --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and the tracing overhead.  Every line
before the last is a human-readable ``name value unit (samples)`` row;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
operation and output check passed.  ``--workload all`` runs each
workload in its own child process.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread, set before numpy is imported: the k-NN matmul
# otherwise takes both cores of a small box for no measured gain.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro  # noqa: E402,F401  -- fails fast outside a checkout

import spans  # noqa: E402
import workloads  # noqa: E402


def parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke tests")
    return ap.parse_args(argv)


def run_one(args: argparse.Namespace) -> dict:
    run = workloads.Run()
    tracer = spans.Tracer() if args.trace else None
    try:
        workloads.WORKLOADS[args.workload](run, args.seed, args.seconds, tracer, args.tiny)
    except Exception:  # report what was measured, then fail the run
        traceback.print_exc()
        run.check("workload ran to the end", False)

    rows: dict[str, tuple[float, str, str]] = {}
    if tracer is None:
        wanted = workloads.END_TO_END
        rows = dict(run.metrics)
    else:
        layers = tracer.layer_metrics()
        rows = {name: (value, spans.unit_of(name), "") for name, value in layers.items()}
        if "trace.overhead_s" in run.metrics:
            rows["trace.overhead_s"] = run.metrics["trace.overhead_s"]
        wanted = tuple((name, spans.unit_of(name)) for name in spans.PER_LAYER)
    metrics = {}
    for name, unit in wanted:
        if name not in rows:
            run.check(f"metric {name} measured", False)
            continue
        value, unit, note = rows[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload:14s} {name:28s} {value:14.6g} {unit:6s} {note}")
    if "host_speed_factor" in run.metrics:
        value, unit, note = run.metrics["host_speed_factor"]
        print(f"{args.workload:14s} {'host_speed_factor':28s} {value:14.6g} {unit:6s} {note}")
    print(f"{args.workload:14s} {'threads pinned':28s} {os.environ['OMP_NUM_THREADS']:>14s}")
    for problem in run.problems:
        print(f"{args.workload:14s} FAILED {problem}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in a fresh process; metrics are keyed workload/name."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        out["correct"] = out["correct"] and result["correct"]
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            out["metrics"][f"{name}/{metric}"] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
