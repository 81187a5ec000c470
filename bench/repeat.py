#!/usr/bin/env python3
"""Run bench/run.py once per seed and summarise each end-to-end metric across the runs.

    python3 bench/repeat.py --workloads circulant-long,edge-l1 --seeds 1-10 --seconds 25

For every workload and metric it prints the median of the per-run values and
their spread, the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. --json writes every
per-run value and summary to a file. Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--json", help="write per-run values and summaries here")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        values: dict = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0, "values": vals}
            print(f"{workload} {name}: median {med:.4g}, spread {summary[name]['spread']:.3f}")
        report[workload] = summary
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
