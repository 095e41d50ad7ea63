"""Run-to-run spread of the benchmark's metrics.

Runs one workload ``--runs`` times untraced (``--trace 0``), each in a
fresh process with its own seed (``--seed``, ``--seed + 1``, ...), and
prints for every end-to-end metric its median, first and third quartiles (``statistics.quantiles(n=4)``), the
quartile distance as a share of the median, and the max/min ratio.
These figures set the bounds in ``BENCHMARK.json``::

    python3 e2ebench/spread.py --workload dynamic-100k --runs 10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    walls = []
    failed = 0
    for i in range(args.runs):
        cmd = [sys.executable, str(RUN), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        walls.append(time.perf_counter() - t0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failed += 1
            print(f"run {i} (seed {args.seed + i}) failed:\n{proc.stdout}{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(float(entry["value"]))
            units[name] = entry["unit"]
        print(f"run {i} seed {args.seed + i}: {walls[-1]:.1f} s wall, "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {args.runs - failed}/{args.runs} runs ok, "
          f"wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} "
          f"{'max/min':>8s} unit")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        lo = min(vals)
        ratio = max(vals) / lo if lo > 0 else float("inf")
        share = (q3 - q1) / med if med else float("inf")
        print(f"{name:28s} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:8.3f} {ratio:8.3f} "
              f"{units[name]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
