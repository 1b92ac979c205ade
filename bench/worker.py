"""One benchmark process.

Imports chipfire from this checkout's src/, builds one workload's inputs
from the seed, runs it in the requested mode and prints one JSON line.
bench/run.py starts a fresh interpreter for every call, so no cache of
the program survives from one measurement to the next.

Modes:
  setup    import and build inputs only; report the time that took
  measure  run the workload (one sweep, or closed-loop ops until
           --seconds of op time have passed, or exactly --ops ops)
  trace    as measure, with spans around each layer, written to --spans
  golden   run --ops ops untimed and print their digests
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from itertools import chain, islice  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import chipfire  # noqa: E402

if not Path(chipfire.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"chipfire was imported from {chipfire.__file__}, not from {ROOT / 'src'}")

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 5


def peak_rss_mb() -> float:
    """Peak resident set of this process so far; taken right after the
    timed phase, so the checks that follow do not count."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_golden(name: str):
    path = BENCH / "golden.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(name)


def run_sweep(sweep, args, tracer) -> dict:
    out_path = Path(args.tmp) / "report.csv"
    argv = sweep.argv(args.seed, str(out_path))
    setup_s = time.perf_counter() - _T0
    if args.mode == "setup":
        return {"setup_s": setup_s}
    if tracer is not None:
        tracing.install(tracer)
    buf = io.StringIO()
    problems = []
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = chipfire.cli.main(argv)
    except Exception as exc:  # a crash is a failed run, not a benchmark error
        code, problems = None, [f"cli raised {exc!r}"]
    busy, cpu = time.perf_counter() - t0, time.process_time() - c0
    rss_mb = peak_rss_mb()
    cases = sweep.summary["cases"]
    data = out_path.read_bytes() if out_path.exists() else b""
    digest = workloads.normalized_digest(data, args.seed)
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        summary = json.loads(buf.getvalue())
    except ValueError:
        summary = None
    if summary != sweep.summary:
        problems.append(f"summary {summary} != {sweep.summary}")
    golden = load_golden(sweep.name) if args.mode != "golden" else None
    if digest == golden:
        # byte-identical to a report whose rows were checked when recorded
        rows, bad = cases, 0
    else:
        if golden is not None:
            problems.append(f"report digest {digest} != golden {golden}")
        try:
            rows, bad = workloads.bad_rows(data)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            rows, bad = 0, 0
            problems.append(f"report unreadable: {exc!r}")
    if rows != cases:
        problems.append(f"{rows} rows in the report, expected {cases}")
    failed = cases if problems else bad
    if bad:
        problems.append(f"{bad} rows fail an identity check")
    if args.mode == "golden":
        if problems:
            sys.exit(f"{sweep.name}: not recording a report that fails its checks: {problems}")
        return {"golden": digest}
    if tracer is not None:
        tracer.counts["experiments.cases"] = rows
        tracer.counts["experiments.report_bytes"] = len(data)
    return {
        "setup_s": setup_s,
        "ops": cases,
        "busy_s": busy,
        "cpu_s": cpu,
        "lat_ms": [busy * 1000],
        "rss_mb": rss_mb,
        "attempted": cases,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
    }


def run_closed_loop(loop, args, tracer) -> dict:
    stream = loop.ops(args.seed)
    first = list(islice(stream, len(loop.schedule)))
    setup_s = time.perf_counter() - _T0
    if args.mode == "setup":
        return {"setup_s": setup_s}
    if tracer is not None:
        tracing.install(tracer)
    done = []
    busy = cpu = 0.0
    for op in chain(first, stream):
        if len(done) == args.ops or (args.ops is None and busy >= args.seconds):
            break
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out, err = loop.run(op, args.seed), None
        except Exception as exc:  # a raising op is a failed op
            out, err = None, repr(exc)
        dt = time.perf_counter() - t0
        cpu += time.process_time() - c0
        busy += dt
        done.append((op, out, err, dt))
    rss_mb = peak_rss_mb()

    recorded = args.seed == workloads.GOLDEN_SEED and args.mode != "golden"
    golden = load_golden(loop.name) if recorded else None
    digests, problems = [], []
    failed = 0
    for op, out, err, _ in done:
        found = [err] if err else []
        digest = None
        if not err:
            issues, digest = loop.check(op, out)
            found += issues
            if golden is not None and op.index < len(golden) and digest != golden[op.index]:
                found.append(f"digest {digest} != golden {golden[op.index]}")
        digests.append(digest)
        if found:
            failed += 1
            problems.append(f"op {op.index} {op.stratum} {op.coeffs}: {'; '.join(found)}")
    if args.mode == "golden":
        if failed:
            sys.exit(f"{loop.name}: not recording ops that fail their checks: {problems[:MAX_PROBLEMS]}")
        return {"golden": digests}
    return {
        "setup_s": setup_s,
        "ops": len(done),
        "busy_s": busy,
        "cpu_s": cpu,
        "lat_ms": [dt * 1000 for *_, dt in done],
        "rss_mb": rss_mb,
        "attempted": len(done),
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure", "trace", "golden"))
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--tmp", required=True, help="scratch directory for reports and spans")
    args = p.parse_args()

    tracer = tracing.Tracer() if args.mode == "trace" else None
    if args.workload in workloads.SWEEPS:
        result = run_sweep(workloads.SWEEPS[args.workload], args, tracer)
    else:
        result = run_closed_loop(workloads.CLOSED_LOOPS[args.workload], args, tracer)
    for line in result.get("problems", ()):
        print(f"{args.workload}: {line}", file=sys.stderr)
    if tracer is not None:
        spans = Path(args.tmp) / "spans.json"
        tracer.dump(str(spans))
        result["spans"] = str(spans)
    result["numpy"] = numpy.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
