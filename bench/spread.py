"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py [--runs 10] [--seconds 30] [--out FILE] [WORKLOAD ...]

Runs bench/run.py once per seed (1..runs) on each workload and reports,
per metric, the median, the quartiles and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median.  Then runs each workload once traced, on seed 0.
With --out the figures are also written as JSON, together with the
machine facts of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from workloads import NAMES  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.splitlines()
    facts = json.loads(next(x for x in lines if x.startswith("facts "))[6:])
    return json.loads(lines[-1]), facts


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=list(NAMES))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", default=None)
    args = p.parse_args()

    report = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(1, args.runs + 1):
            result, facts = one_run(workload, seed, args.seconds)
            report.setdefault("facts", facts)
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {"failed": failed, "metrics": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals,
            }
            print(f"{workload:14s} {name:14s} median {med:12.6g}  spread {(q3 - q1) / med:6.3f}",
                  flush=True)
        print(f"{workload:14s} failed ops {failed}", flush=True)
        traced, _ = one_run(workload, 0, args.seconds, trace=1)
        summary["failed_traced"] = traced["failed"] + (not traced["correct"])
        summary["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        report["workloads"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
