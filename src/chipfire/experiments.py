"""Experiment drivers: exhaustive low-genus sweeps and random high-genus
spot checks, with seeded, byte-reproducible reports.

Reports are deterministic functions of (config, seed).  Wall-clock time
is kept on the in-memory report object but never written to report
files, and the worker count only changes scheduling, never content:
per-graph work is fanned out whole, results are assembled in graph
order, and every random draw is derived from the master seed plus the
position of the draw, not from pool scheduling.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace
from math import comb
from multiprocessing import Pool
from typing import IO, Iterator, Sequence

import numpy as np

from .graphs import (
    Divisor,
    Multigraph,
    canonical_divisor,
    degree,
    genus,
    is_connected,
)
from .linsys import _class_keys_batch
from .rank import RankResult, _window_divisors_array, rank
from .toric import (
    DEFAULT_PRIME,
    ToricConfig,
    ToricMemo,
    derive_seed,
    is_prime,
    toric_rank,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CaseRecord",
    "ExperimentReport",
    "random_connected_graph",
    "random_effective_divisor",
    "enumerate_treeless_graphs",
    "run_exhaustive",
    "run_random_sweep",
    "encode_adjacency",
]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_MODES = ("exhaustive", "random-sweep", "single")
_FORMATS = ("json", "csv")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run.

    degree_min/degree_max default (None) to the per-graph range
    [0, genus - 1], and window defaults to the per-graph genus; prime
    defaults to the package-wide modulus.  workers, output_path and
    output_format affect only scheduling and destination, never report
    content, and are therefore not echoed into report files.
    """

    mode: str = "exhaustive"
    max_vertices: int = 5
    genus_min: int = 1
    genus_max: int = 2
    degree_min: int | None = None
    degree_max: int | None = None
    window: int | None = None
    prime: int | None = None
    trials: int = 3
    toric_mode: str = "block-projection"
    seed: int = 0
    toric: bool = True
    nonzero_entries: bool = False
    output_format: str = "json"
    output_path: str | None = None
    workers: int = 1
    cases: int = 10
    min_genus: int = 4
    n_min: int = 5
    n_max: int = 10
    max_multiplicity: int = 3

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.output_format not in _FORMATS:
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if self.max_vertices < 1:
            raise ConfigError("max_vertices must be at least 1")
        if self.genus_min > self.genus_max:
            raise ConfigError("empty genus range")
        if self.genus_min < 0:
            raise ConfigError("genus cannot be negative")
        if self.degree_min is not None and self.degree_max is not None:
            if self.degree_min > self.degree_max:
                raise ConfigError("empty degree range")
        if self.window is not None and self.window < 0:
            raise ConfigError("window must be nonnegative")
        if self.prime is not None and not is_prime(self.prime):
            raise ConfigError(f"{self.prime} fails the primality check")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.toric_mode not in ("block-projection", "random-vector"):
            raise ConfigError(f"unknown toric mode {self.toric_mode!r}")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.cases < 0:
            raise ConfigError("cases cannot be negative")
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigError("need 1 <= n_min <= n_max")
        if self.max_multiplicity < 1:
            raise ConfigError("max_multiplicity must be at least 1")

    def resolved_prime(self) -> int:
        return DEFAULT_PRIME if self.prime is None else self.prime

    def toric_config(self) -> ToricConfig:
        return ToricConfig(
            prime=self.resolved_prime(),
            trials=self.trials,
            mode=self.toric_mode,
            seed=self.seed,
            nonzero_entries=self.nonzero_entries,
        )


@dataclass(frozen=True)
class CaseRecord:
    """One (graph, divisor) evaluation.

    residual fields store r(D) - r(K - D) - degree(D) - 1 + genus, which
    is zero exactly when the identity holds; they are recorded even when
    zero.  Toric fields are None when the toric check was disabled.
    """

    case: int
    graph_id: int
    n: int
    genus: int
    degree: int
    divisor: tuple[int, ...]
    rank: int
    rank_dual: int
    residual: int
    toric_rank: int | None
    toric_rank_dual: int | None
    toric_residual: int | None
    passed: bool
    anomalies: tuple[str, ...] = ()


@dataclass
class ExperimentReport:
    """Outcome of a driver run.

    cases holds every record when no output path was given; with a path
    the records stream to the file and cases stays empty.  violations
    and anomalies keep at most 100 reproducer records each (full counts
    are in the summary).  wall_clock_seconds is measured but excluded
    from report files so reruns stay byte-identical.
    """

    config: ExperimentConfig
    graphs: tuple[Multigraph, ...]
    case_count: int
    violation_count: int
    anomaly_count: int
    violations: tuple[CaseRecord, ...]
    anomalies: tuple[CaseRecord, ...]
    summary: dict
    cases: tuple[CaseRecord, ...] = ()
    wall_clock_seconds: float = 0.0


# ---------------------------------------------------------------------------
# generators


def random_connected_graph(n: int, rng_seed: int) -> Multigraph:
    """Random simple graph on n vertices, resampled until connected.

    Each upper-triangle entry is an independent fair coin, drawn in
    row-major order from random.Random(rng_seed), so the result is a
    pure function of (n, rng_seed).
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(rng_seed)
    while True:
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                adj[i][j] = adj[j][i] = rng.randrange(2)
        if is_connected(adj):
            return Multigraph.from_adjacency(adj)


def _unrank_composition(n: int, d: int, index: int) -> tuple[int, ...]:
    """index-th (lexicographic) nonnegative n-vector summing to d."""
    out = []
    remaining = d
    for i in range(n - 1):
        x = 0
        while True:
            block = comb(remaining - x + n - i - 2, n - i - 2)
            if index < block:
                break
            index -= block
            x += 1
        out.append(x)
        remaining -= x
    out.append(remaining)
    return tuple(out)


def random_effective_divisor(n: int, d: int, rng_seed: int) -> Divisor:
    """Uniform effective divisor of degree d on n vertices (exact
    uniformity via unranking, no rejection)."""
    total = comb(d + n - 1, n - 1)
    index = random.Random(rng_seed).randrange(total)
    return Divisor(_unrank_composition(n, d, index))


def _degree_class_canonical(adj: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Canonical form: lexicographic minimum of the adjacency matrix over
    all vertex permutations that respect the degree multiset.

    Sorting vertices by degree first means only permutations inside
    equal-degree classes need to be tried; exact for these sizes, not a
    general isomorphism engine.
    """
    from itertools import permutations

    n = len(adj)
    degs = [sum(row) for row in adj]
    order = sorted(range(n), key=lambda v: (degs[v], v))
    groups: list[list[int]] = []
    for v in order:
        if groups and degs[groups[-1][-1]] == degs[v]:
            groups[-1].append(v)
        else:
            groups.append([v])

    best: tuple[tuple[int, ...], ...] | None = None
    perms_per_group = [list(permutations(g)) for g in groups]

    def rec(gi: int, prefix: list[int]) -> None:
        nonlocal best
        if gi == len(perms_per_group):
            form = tuple(tuple(adj[a][b] for b in prefix) for a in prefix)
            if best is None or form < best:
                best = form
            return
        for perm in perms_per_group[gi]:
            rec(gi + 1, prefix + list(perm))

    rec(0, [])
    if best is None:
        raise RuntimeError("canonical form search tried no permutation")
    return best


def _edge_cells(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def enumerate_treeless_graphs(
    max_n: int,
    genus_range: tuple[int, int],
    max_multiplicity: int = 3,
) -> Iterator[Multigraph]:
    """All connected multigraphs equal to their own 2-core, up to
    isomorphism.

    Emits graphs with n <= max_n, every vertex degree >= 2, edge
    multiplicities in [0, max_multiplicity], and genus inside
    genus_range; attaching pendant trees changes neither side of the
    identity under test, so only these cores are worth sweeping.
    Deterministic order: n ascending, then genus, then canonical form.
    """
    g_lo, g_hi = genus_range
    for n in range(2, max_n + 1):
        for g in range(max(g_lo, 0), g_hi + 1):
            if g < 1:
                continue  # a connected genus-0 graph is a tree: has leaves
            e_total = n + g - 1
            cells = _edge_cells(n)
            if e_total > len(cells) * max_multiplicity:
                continue
            seen: set[tuple[tuple[int, ...], ...]] = set()
            forms: list[tuple[tuple[int, ...], ...]] = []
            adj = [[0] * n for _ in range(n)]
            degs = [0] * n

            def rec(k: int, remaining: int) -> None:
                if remaining < 0:
                    return
                if k == len(cells):
                    if remaining == 0 and degs[n - 1] >= 2 and is_connected(adj):
                        form = _degree_class_canonical(
                            tuple(tuple(row) for row in adj)
                        )
                        if form not in seen:
                            seen.add(form)
                            forms.append(form)
                    return
                if remaining > (len(cells) - k) * max_multiplicity:
                    return
                i, j = cells[k]
                for m in range(max_multiplicity + 1):
                    adj[i][j] = adj[j][i] = m
                    degs[i] += m
                    degs[j] += m
                    # once a vertex's final incident cell is set, its
                    # degree is fixed; prune below the 2-core threshold
                    if j == n - 1 and degs[i] < 2:
                        pass
                    else:
                        rec(k + 1, remaining - m)
                    degs[i] -= m
                    degs[j] -= m
                adj[i][j] = adj[j][i] = 0

            rec(0, e_total)
            for form in sorted(forms):
                yield Multigraph(form)


def encode_adjacency(G: Multigraph) -> str:
    """Row-wise adjacency encoding: entries comma-joined, rows
    semicolon-joined."""
    return ";".join(",".join(str(x) for x in row) for row in G.adj)


# ---------------------------------------------------------------------------
# report sinks

_CASE_FIELDS = (
    "case",
    "graph_id",
    "n",
    "genus",
    "degree",
    "divisor",
    "rank",
    "rank_dual",
    "residual",
    "toric_rank",
    "toric_rank_dual",
    "toric_residual",
    "passed",
    "anomalies",
)

_ECHO_FIELDS = (
    "mode",
    "max_vertices",
    "genus_min",
    "genus_max",
    "degree_min",
    "degree_max",
    "window",
    "prime",
    "trials",
    "toric_mode",
    "seed",
    "toric",
    "nonzero_entries",
    "cases",
    "min_genus",
    "n_min",
    "n_max",
    "max_multiplicity",
)


def _config_echo(config: ExperimentConfig) -> dict:
    echo = {name: getattr(config, name) for name in _ECHO_FIELDS}
    echo["prime"] = config.resolved_prime()
    return echo


def _case_json(rec: CaseRecord) -> dict:
    return {
        "case": rec.case,
        "graph_id": rec.graph_id,
        "n": rec.n,
        "genus": rec.genus,
        "degree": rec.degree,
        "divisor": list(rec.divisor),
        "rank": rec.rank,
        "rank_dual": rec.rank_dual,
        "residual": rec.residual,
        "toric_rank": rec.toric_rank,
        "toric_rank_dual": rec.toric_rank_dual,
        "toric_residual": rec.toric_residual,
        "passed": rec.passed,
        "anomalies": list(rec.anomalies),
    }


class _Sink:
    """Streaming report writer; the base class discards output."""

    def start(self, config: ExperimentConfig, graphs: Sequence[Multigraph]) -> None:
        pass

    def start_graph(self, gid: int, G: Multigraph) -> None:
        pass

    def case(self, rec: CaseRecord) -> None:
        pass

    def finish(self, summary: dict) -> None:
        pass


class _JsonSink(_Sink):
    def __init__(self, fh: IO[str]):
        self.fh = fh
        self.first = True

    def start(self, config: ExperimentConfig, graphs: Sequence[Multigraph]) -> None:
        head = {
            "format": "chipfire-report",
            "version": 1,
            "config": _config_echo(config),
            "graphs": [
                {
                    "id": gid,
                    "n": G.n,
                    "genus": genus(G),
                    "adj": encode_adjacency(G),
                }
                for gid, G in enumerate(graphs)
            ],
        }
        text = json.dumps(head, separators=(",", ":"))
        self.fh.write(text[:-1] + ',"cases":[')

    def case(self, rec: CaseRecord) -> None:
        if not self.first:
            self.fh.write(",")
        self.first = False
        self.fh.write(json.dumps(_case_json(rec), separators=(",", ":")))

    def finish(self, summary: dict) -> None:
        self.fh.write('],"summary":' + json.dumps(summary, separators=(",", ":")) + "}\n")


class _CsvSink(_Sink):
    def __init__(self, fh: IO[str]):
        self.fh = fh

    def start(self, config: ExperimentConfig, graphs: Sequence[Multigraph]) -> None:
        w = self.fh.write
        w("# chipfire-report v1\n")
        echo = _config_echo(config)
        w("# config " + " ".join(f"{k}={echo[k]}" for k in _ECHO_FIELDS) + "\n")
        w("# columns " + ",".join(_CASE_FIELDS) + "\n")

    def start_graph(self, gid: int, G: Multigraph) -> None:
        self.fh.write(
            f"# graph {gid} n={G.n} genus={genus(G)} adj={encode_adjacency(G)}\n"
        )

    def case(self, rec: CaseRecord) -> None:
        def cell(x: object) -> str:
            return "" if x is None else str(int(x)) if isinstance(x, bool) else str(x)

        row = [
            cell(rec.case),
            cell(rec.graph_id),
            cell(rec.n),
            cell(rec.genus),
            cell(rec.degree),
            "|".join(str(x) for x in rec.divisor),
            cell(rec.rank),
            cell(rec.rank_dual),
            cell(rec.residual),
            cell(rec.toric_rank),
            cell(rec.toric_rank_dual),
            cell(rec.toric_residual),
            cell(rec.passed),
            ";".join(rec.anomalies),
        ]
        self.fh.write(",".join(row) + "\n")

    def finish(self, summary: dict) -> None:
        parts = " ".join(f"{k}={summary[k]}" for k in sorted(summary))
        self.fh.write("# summary " + parts + "\n")


def _open_sink(config: ExperimentConfig) -> tuple[_Sink, IO[str] | None]:
    if config.output_path is None:
        return _Sink(), None
    fh = open(config.output_path, "w", newline="")
    if config.output_format == "json":
        return _JsonSink(fh), fh
    return _CsvSink(fh), fh


# ---------------------------------------------------------------------------
# exhaustive driver


def _graph_cases(
    graph_id: int, G: Multigraph, config: ExperimentConfig
) -> list[CaseRecord]:
    """All divisor cases for one graph, in deterministic order.

    Rank results are cached per divisor class: equivalent divisors have
    literally the same linear system, hence the same rank and the same
    toric rank, so each class is solved once per graph.
    """
    n = G.n
    g = genus(G)
    K = canonical_divisor(G)
    K_row = np.array(K.coeffs, dtype=np.int64)
    deg_lo = 0 if config.degree_min is None else config.degree_min
    deg_hi = (g - 1) if config.degree_max is None else config.degree_max
    window = g if config.window is None else config.window

    tcfg = config.toric_config() if config.toric else None
    memo = ToricMemo(G, tcfg) if tcfg is not None else None
    rank_cache: dict[tuple, RankResult] = {}
    toric_cache: dict[tuple, RankResult] = {}

    def graph_rank(row: np.ndarray, key: tuple) -> RankResult:
        got = rank_cache.get(key)
        if got is None:
            got = rank(G, Divisor(tuple(int(x) for x in row)))
            rank_cache[key] = got
        return got

    def toric_rank_cached(row: np.ndarray, key: tuple) -> RankResult:
        got = toric_cache.get(key)
        if got is None:
            got = toric_rank(G, Divisor(tuple(int(x) for x in row)), tcfg, memo)
            toric_cache[key] = got
        return got

    records: list[CaseRecord] = []
    local = 0
    for d in range(deg_lo, deg_hi + 1):
        divisors = _window_divisors_array(n, d, window)
        if len(divisors) == 0:
            continue
        keys = [tuple(int(x) for x in k) for k in _class_keys_batch(G, divisors)]
        dual_keys = [
            tuple(int(x) for x in k)
            for k in _class_keys_batch(G, K_row[None, :] - divisors)
        ]
        for idx in range(len(divisors)):
            row = divisors[idx]
            r = graph_rank(row, keys[idx]).rank
            r_dual = graph_rank(K_row - row, dual_keys[idx]).rank
            residual = r - r_dual - d - 1 + g
            anomalies: list[str] = []
            if memo is not None:
                before = len(memo.trial_disagreements())
                rt = toric_rank_cached(row, keys[idx]).rank
                rt_dual = toric_rank_cached(K_row - row, dual_keys[idx]).rank
                t_residual = rt - rt_dual - d - 1 + g
                if len(memo.trial_disagreements()) > before:
                    anomalies.append("trial-disagreement")
                if rt > r:
                    anomalies.append("toric-rank-exceeds-rank")
            else:
                rt = rt_dual = t_residual = None
            passed = residual == 0 and (t_residual is None or t_residual == 0)
            records.append(
                CaseRecord(
                    case=local,
                    graph_id=graph_id,
                    n=n,
                    genus=g,
                    degree=d,
                    divisor=tuple(int(x) for x in row),
                    rank=r,
                    rank_dual=r_dual,
                    residual=residual,
                    toric_rank=rt,
                    toric_rank_dual=rt_dual,
                    toric_residual=t_residual,
                    passed=passed,
                    anomalies=tuple(anomalies),
                )
            )
            local += 1
    return records


def _graph_worker(args: tuple[int, tuple, ExperimentConfig]) -> tuple[int, list[CaseRecord]]:
    graph_id, adj, config = args
    return graph_id, _graph_cases(graph_id, Multigraph(adj), config)


_REPRODUCER_CAP = 100


def _assemble(
    config: ExperimentConfig,
    graphs: Sequence[Multigraph],
    per_graph: Iterator[tuple[int, list[CaseRecord]]],
    t0: float,
) -> ExperimentReport:
    sink, fh = _open_sink(config)
    keep = config.output_path is None
    try:
        sink.start(config, graphs)
        kept: list[CaseRecord] = []
        violations: list[CaseRecord] = []
        anomalous: list[CaseRecord] = []
        case_count = violation_count = anomaly_count = 0
        for graph_id, records in per_graph:
            sink.start_graph(graph_id, graphs[graph_id])
            for rec in records:
                rec = replace(rec, case=case_count)
                case_count += 1
                if not rec.passed:
                    violation_count += 1
                    if len(violations) < _REPRODUCER_CAP:
                        violations.append(rec)
                if rec.anomalies:
                    anomaly_count += 1
                    if len(anomalous) < _REPRODUCER_CAP:
                        anomalous.append(rec)
                if keep:
                    kept.append(rec)
                sink.case(rec)
        summary = {
            "graphs": len(graphs),
            "cases": case_count,
            "violations": violation_count,
            "anomalies": anomaly_count,
            "toric": config.toric,
        }
        sink.finish(summary)
    finally:
        if fh is not None:
            fh.close()
    return ExperimentReport(
        config=config,
        graphs=tuple(graphs),
        case_count=case_count,
        violation_count=violation_count,
        anomaly_count=anomaly_count,
        violations=tuple(violations),
        anomalies=tuple(anomalous),
        summary=summary,
        cases=tuple(kept),
        wall_clock_seconds=time.perf_counter() - t0,
    )


def run_exhaustive(config: ExperimentConfig) -> ExperimentReport:
    """Sweep every divisor window over every 2-core graph in range.

    Work is split at graph granularity; report content is identical for
    any worker count because results are consumed in graph order and all
    randomness is seed-derived.
    """
    t0 = time.perf_counter()
    config.validate()
    if config.mode != "exhaustive":
        raise ConfigError(f"run_exhaustive needs mode='exhaustive', got {config.mode!r}")
    graphs = list(
        enumerate_treeless_graphs(
            config.max_vertices,
            (config.genus_min, config.genus_max),
            config.max_multiplicity,
        )
    )
    tasks = [(gid, G.adj, config) for gid, G in enumerate(graphs)]
    if config.workers > 1 and len(tasks) > 1:
        with Pool(config.workers) as pool:
            return _assemble(config, graphs, pool.imap(_graph_worker, tasks), t0)
    return _assemble(config, graphs, map(_graph_worker, tasks), t0)


# ---------------------------------------------------------------------------
# random sweep driver


def run_random_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Random high-genus spot check.

    Draws random connected graphs with n in [n_min, n_max], keeps those
    with genus >= min_genus, tests one random effective divisor of
    degree genus - 1 on each, and stops after `cases` kept cases.  Runs
    sequentially regardless of config.workers: cases are cheap and few,
    and the rejection stream is easiest to keep reproducible as a single
    sequence.
    """
    t0 = time.perf_counter()
    config.validate()
    if config.mode != "random-sweep":
        raise ConfigError(
            f"run_random_sweep needs mode='random-sweep', got {config.mode!r}"
        )
    tcfg = config.toric_config() if config.toric else None

    graphs: list[Multigraph] = []

    def cases() -> Iterator[tuple[int, list[CaseRecord]]]:
        attempt = 0
        produced = 0
        while produced < config.cases:
            n = config.n_min + derive_seed(config.seed, "sweep-n", attempt) % (
                config.n_max - config.n_min + 1
            )
            G = random_connected_graph(n, derive_seed(config.seed, "sweep-graph", attempt))
            g = genus(G)
            attempt += 1
            if g < config.min_genus:
                continue
            D = random_effective_divisor(
                n, g - 1, derive_seed(config.seed, "sweep-divisor", attempt - 1)
            )
            K = canonical_divisor(G)
            r = rank(G, D).rank
            r_dual = rank(G, K - D).rank
            residual = r - r_dual - degree(D) - 1 + g
            anomalies: list[str] = []
            if tcfg is not None:
                memo = ToricMemo(G, tcfg)
                rt = toric_rank(G, D, tcfg, memo).rank
                rt_dual = toric_rank(G, K - D, tcfg, memo).rank
                t_residual = rt - rt_dual - degree(D) - 1 + g
                if memo.trial_disagreements():
                    anomalies.append("trial-disagreement")
                if rt > r:
                    anomalies.append("toric-rank-exceeds-rank")
            else:
                rt = rt_dual = t_residual = None
            passed = residual == 0 and (t_residual is None or t_residual == 0)
            rec = CaseRecord(
                case=produced,
                graph_id=produced,
                n=n,
                genus=g,
                degree=degree(D),
                divisor=D.coeffs,
                rank=r,
                rank_dual=r_dual,
                residual=residual,
                toric_rank=rt,
                toric_rank_dual=rt_dual,
                toric_residual=t_residual,
                passed=passed,
                anomalies=tuple(anomalies),
            )
            graphs.append(G)
            yield produced, [rec]
            produced += 1

    # sweep cases are few; materialize so the graph table is complete
    # before the sink writes its header
    drawn = list(cases())
    return _assemble(config, graphs, iter(drawn), t0)
