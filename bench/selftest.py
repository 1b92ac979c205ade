"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one real op of each closed-loop workload, checks that the honest
result passes, then tampers with it in several ways and checks that
each tampering is caught.  Does the same for a report: a flipped rank
or an anomaly in a CSV row, and a changed byte anywhere, must be caught
by the row checks or the digest.  Also checks that the metric
names and units the benchmark prints are the ones BENCHMARK.json
declares.  Exits non-zero on the first check that lets a tampered
result through.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import chipfire as cf  # noqa: E402

import workloads  # noqa: E402
from run import END_TO_END_UNITS, LAYER_UNITS  # noqa: E402


def expect(caught: bool, what: str) -> None:
    print(f"{'ok  ' if caught else 'FAIL'} {what}")
    if not caught:
        sys.exit(1)


def bump(res, by=1):
    return dataclasses.replace(res, rank=res.rank + by)


def closed_loops() -> None:
    golden = json.loads((BENCH / "golden.json").read_text())
    for name, loop in workloads.CLOSED_LOOPS.items():
        ops = list(islice(loop.ops(workloads.GOLDEN_SEED), len(loop.schedule)))
        # not a tree: there the closed forms alone would catch every tampering
        op = next(o for o in ops if o.genus > 0)
        out = loop.run(op, workloads.GOLDEN_SEED)
        problems, digest = loop.check(op, out)
        expect(not problems and digest == golden[name][op.index], f"{name}: honest result passes")

        tampered = {}
        if name == "linsys_sparse":
            members, r, r_dual = out
            tampered["dropped member"] = (members[1:], r, r_dual)
            moved = cf.Divisor((members[0].coeffs[0] + 1, members[0].coeffs[1] - 1, *members[0].coeffs[2:]))
            tampered["member moved one chip"] = ((moved, *members[1:]), r, r_dual)
            tampered["rank off by one"] = (members, bump(r), r_dual)
            tampered["both ranks off by one"] = (members, bump(r), bump(r_dual))
        else:
            t, t_dual, r, r_dual = out
            tampered["toric rank off by one"] = (bump(t), t_dual, r, r_dual)
            tampered["both toric ranks off by one"] = (bump(t), bump(t_dual), r, r_dual)
            tampered["toric rank above rank"] = (bump(t, 5), bump(t_dual, 5), r, r_dual)
            w = t.witness_failure.coeffs
            other = cf.Divisor(w[::-1]) if w[::-1] != w else cf.Divisor((w[0] + 1,) + w[1:])
            tampered["other witness"] = (dataclasses.replace(t, witness_failure=other), t_dual, r, r_dual)
        for what, bad in tampered.items():
            problems, digest = loop.check(op, bad)
            expect(bool(problems) or digest != golden[name][op.index], f"{name}: {what}")


def reports() -> None:
    csv = (
        "# chipfire-report v1\n# config mode=exhaustive seed=7 toric=True\n# columns x\n"
        "# graph 0 n=2 genus=1 adj=0,2;2,0\n"
        "0,0,2,1,0,0|0,0,0,0,0,0,0,1,\n"
        "1,0,2,1,0,1|-1,-1,-1,0,-1,-1,0,1,\n"
        "# summary cases=2\n"
    ).encode()
    expect(workloads.bad_rows(csv) == (2, 0), "report: honest report passes")
    expect(workloads.bad_rows(csv.replace(b"0,0,2,1,0,0|0,0,", b"0,0,2,1,0,0|0,1,"))[1] == 1,
           "report: rank off by one")
    expect(workloads.bad_rows(csv.replace(b"0,0,0,0,0,1,", b"0,0,1,1,0,1,"))[1] == 1,
           "report: toric rank above rank")
    expect(workloads.bad_rows(csv.replace(b",-1,-1,0,1,\n", b",-1,-1,0,1,trial-disagreement\n"))[1] == 1,
           "report: anomaly flagged")
    digest = workloads.normalized_digest(csv, 7)
    expect(digest == workloads.normalized_digest(csv.replace(b"seed=7", b"seed=0"), 0),
           "report: digest ignores the seed echo")
    expect(digest != workloads.normalized_digest(csv.replace(b"n=2", b"n=3"), 7),
           "report: digest sees a changed byte")


def declared_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == END_TO_END_UNITS, "end-to-end metrics match BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == LAYER_UNITS, "per-layer metrics match BENCHMARK.json")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "workloads match BENCHMARK.json")


if __name__ == "__main__":
    closed_loops()
    reports()
    declared_metrics()
