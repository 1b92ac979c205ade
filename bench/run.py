"""chipfire benchmark entry point.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload from the root of a checkout, each measurement in a
fresh single-threaded interpreter (bench/worker.py), checks every
output, prints one line per metric and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 repeats the
untraced measurement, then runs the same work again with a span around
each layer's entry point, and reports the per-layer metrics.
Workloads and the reasons for them are listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import layer_metrics  # noqa: E402

SETUP_SAMPLES = 5
BUDGET_S = 170.0
# One thread everywhere: numpy's BLAS must not fan out, and hash
# randomisation is pinned so runs of one seed are identical.
CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "experiments.enumerate.s": "s",
    "experiments.graphs": "count",
    "experiments.self_s": "s",
    "experiments.cases": "count",
    "experiments.report_bytes": "bytes",
    "experiments.new_class_ratio": "ratio",
    "linsys.linear_system.calls": "count",
    "linsys.linear_system.s": "s",
    "linsys.members": "count",
    "rank.calls": "count",
    "rank.s": "s",
    "toric.toric_rank.calls": "count",
    "toric.toric_rank.s": "s",
    "toric.toric_rank.self_s": "s",
    "toric.effective_test.calls": "count",
    "toric.effective_test.s": "s",
    "toric.effective_test.pass_ratio": "ratio",
    "toric.memo_hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class WorkerError(RuntimeError):
    pass


class Runner:
    def __init__(self, args: argparse.Namespace, tmp: str):
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + BUDGET_S

    def worker(self, mode: str, *extra: str) -> dict:
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--mode", mode, "--tmp", self.tmp, *extra,
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerError("time budget used up")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} worker ran past the {BUDGET_S:.0f} s budget")
        if proc.returncode != 0:
            raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def measure(self) -> list[dict]:
        """Untraced runs, each in a fresh process, until --seconds of
        measured time have passed: one sweep per process, or one process
        of closed-loop ops."""
        runs: list[dict] = []
        busy = 0.0
        while busy < self.args.seconds:
            res = self.worker("measure", "--seconds", repr(self.args.seconds - busy))
            if res["ops"] == 0:
                raise WorkerError("a measure worker completed no op")
            runs.append(res)
            busy += res["busy_s"]
        return runs


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(runs: list[dict], setups: list[float]) -> tuple[dict, dict]:
    ops = sum(r["ops"] for r in runs)
    busy = sum(r["busy_s"] for r in runs)
    lat = [x for r in runs for x in r["lat_ms"]]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / busy,
        "cpu_ms_per_op": sum(r["cpu_s"] for r in runs) * 1000 / ops,
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": percentile(lat, 0.9),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
    }
    notes = {"ops": ops, "busy_s": busy, "latency_samples": len(lat),
             "setup_samples": len(setups), "processes": len(runs)}
    return values, notes


def per_layer(runs: list[dict], traced: dict) -> tuple[dict, dict]:
    with open(traced["spans"]) as fh:
        dump = json.load(fh)
    values = layer_metrics(dump["spans"], dump["counts"])
    values["trace.overhead_ratio"] = traced["busy_s"] / runs[0]["busy_s"]
    notes = {"ops": traced["ops"], "spans": len(dump["spans"])}
    return values, notes


def commit() -> str:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main() -> int:
    p = argparse.ArgumentParser(description="chipfire benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    facts = {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg_at_start": os.getloadavg(),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        runner = Runner(args, tmp)
        runs = runner.measure()
        if args.trace:
            traced = runner.worker("trace", "--ops", str(runs[0]["ops"]))
            values, notes = per_layer(runs, traced)
            runs.append(traced)
            units = LAYER_UNITS
        else:
            setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
            values, notes = end_to_end(runs, setups)
            units = END_TO_END_UNITS
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    facts["numpy"] = runs[0]["numpy"]
    print("facts " + json.dumps(facts))
    print("notes " + json.dumps(notes))
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
