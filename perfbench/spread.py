"""Run the benchmark once per seed and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads s3-fixture,a4-p2 --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out summary.json]

For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, which is the spread the benchmark's bounds are checked against.
Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    import numpy

    summary = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in parse_seeds(args.seeds)]
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        summary["workloads"][workload] = {
            "seeds": parse_seeds(args.seeds),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"{workload:14s} {name:44s} median {m['median']:.6g}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
