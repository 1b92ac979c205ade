"""Spans and counts around the public entry points of chipfire's layers.

Each wrapped name is replaced where its callers look it up (the module
global or package attribute they read at call time), so the program
itself is unchanged.  Spans are (name, start, end, parent index) and
stay in memory until `dump` writes them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, owner: object, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call;
        on_result(result) may return a substitute result and bump counts."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    out = on_result(out)
                return out
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()

        setattr(owner, attr, wrapper)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Replace owner.attr by a wrapper that only counts calls."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark workloads reach."""
    import chipfire as cf
    import chipfire.cli as cli
    import chipfire.experiments as experiments
    import chipfire.toric as toric

    def graphs(gen):
        out = list(gen)  # materialize inside the span
        tracer.counts["experiments.graphs"] += len(out)
        return iter(out)

    def members(ls):
        tracer.counts["linsys.members"] += len(ls.divisors)
        return ls

    def verdict(outcome):
        tracer.counts["toric.effective_test.passed"] += bool(outcome.passed)
        return outcome

    tracer.span(cli, "run_exhaustive", "experiments.run_exhaustive")
    tracer.span(experiments, "enumerate_treeless_graphs", "experiments.enumerate", graphs)
    tracer.span(experiments, "rank", "rank")
    tracer.span(experiments, "toric_rank", "toric.toric_rank")
    tracer.span(cf, "rank", "rank")
    tracer.span(cf, "toric_rank", "toric.toric_rank")
    tracer.span(cf, "linear_system", "linsys.linear_system", members)
    tracer.span(toric, "toric_effective_test", "toric.effective_test", verdict)
    tracer.count(toric.ToricMemo, "outcome", "toric.memo_outcome")


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-name call counts, total seconds and self seconds (duration
    minus the time covered by direct child spans)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_time[i]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cases = counts.get("experiments.cases", 0)
    tests = calls["toric.effective_test"]
    lookups = counts.get("toric.memo_outcome", 0)
    return {
        "experiments.enumerate.s": total["experiments.enumerate"],
        "experiments.graphs": counts.get("experiments.graphs", 0),
        "experiments.self_s": self_s["experiments.run_exhaustive"],
        "experiments.cases": cases,
        "experiments.report_bytes": counts.get("experiments.report_bytes", 0),
        "experiments.new_class_ratio": ratio(calls["rank"], 2 * cases),
        "linsys.linear_system.calls": calls["linsys.linear_system"],
        "linsys.linear_system.s": total["linsys.linear_system"],
        "linsys.members": counts.get("linsys.members", 0),
        "rank.calls": calls["rank"],
        "rank.s": total["rank"],
        "toric.toric_rank.calls": calls["toric.toric_rank"],
        "toric.toric_rank.s": total["toric.toric_rank"],
        "toric.toric_rank.self_s": self_s["toric.toric_rank"],
        "toric.effective_test.calls": tests,
        "toric.effective_test.s": total["toric.effective_test"],
        "toric.effective_test.pass_ratio": ratio(counts.get("toric.effective_test.passed", 0), tests),
        "toric.memo_hit_ratio": 1 - tests / lookups if lookups else 0.0,
    }
