"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 10 [--workloads survey packed certify]

Runs ``run.py --trace 0`` once per (seed, workload), alternating the
workload order between seeds, and prints for each metric its median and
its quartile spread: (Q3 - Q1) / median over the runs, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  A spread must stay
below the metric's bound in BENCHMARK.json (a third of it to be safe).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in args.workloads}
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        for name in order:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{name} seed={seed}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"{name} seed={seed} ({time.monotonic() - start:.0f}s): " + " ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()
            ), flush=True)

    print()
    print(f"{'workload':<9} {'metric':<16} {'median':>10} {'spread':>8} {'bound':>6}")
    for name, metrics in values.items():
        for metric, series in metrics.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            print(f"{name:<9} {metric:<16} {median:>10.4g} {spread:>8.3f} "
                  f"{bounds.get(metric, float('nan')):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
