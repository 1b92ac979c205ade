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
import os
import random
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import groupby, permutations, product, repeat
from math import comb
from multiprocessing import Pool
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .graphs import (
    Divisor,
    Multigraph,
    _connected,
    canonical_divisor,
    genus,
)
from .linsys import _class_keys_batch, _compositions_array, _row_keys
from .rank import rank
from .toric import (
    DEFAULT_PRIME,
    ToricConfig,
    ToricMemo,
    _check_int_fields,
    derive_seed,
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


_MODES = ("exhaustive", "random-sweep")
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
    prime: int = DEFAULT_PRIME
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
        _check_int_fields(self, ConfigError)
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
        try:
            self.toric_config()
        except ValueError as exc:  # prime, trials, toric_mode
            raise ConfigError(str(exc)) from exc
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.cases < 0:
            raise ConfigError("cases cannot be negative")
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigError("need 1 <= n_min <= n_max")
        if self.max_multiplicity < 1:
            raise ConfigError("max_multiplicity must be at least 1")
        # a simple connected graph on n vertices has genus at most
        # C(n, 2) - n + 1; past that the random sweep would draw forever
        top_genus = comb(self.n_max, 2) - self.n_max + 1
        if self.mode == "random-sweep" and self.cases > 0:
            # a tree has genus 0 and no effective divisor of degree g - 1 = -1
            if self.min_genus < 1:
                raise ConfigError("min_genus must be at least 1 for a random sweep")
            if self.min_genus > top_genus:
                raise ConfigError(
                    f"min_genus {self.min_genus} exceeds {top_genus}, the largest genus "
                    f"of a simple connected graph on at most {self.n_max} vertices"
                )

    def toric_config(self) -> ToricConfig:
        return ToricConfig(
            prime=self.prime,
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
    the records stream to the file and cases stays empty.  The run keeps
    only the column blocks, each with its first case number, and cases
    builds the records on first read.  violations and anomalies keep at
    most 100 reproducer records each (full counts are in the summary).
    wall_clock_seconds is measured but excluded from report files so
    reruns stay byte-identical.
    """

    config: ExperimentConfig
    graphs: tuple[Multigraph, ...]
    case_count: int
    violation_count: int
    anomaly_count: int
    violations: tuple[CaseRecord, ...]
    anomalies: tuple[CaseRecord, ...]
    summary: dict
    wall_clock_seconds: float = 0.0
    blocks: tuple[tuple[int, _CaseBlock], ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def cases(self) -> tuple[CaseRecord, ...]:
        return tuple(r for first, b in self.blocks for r in b.records(first, np.arange(len(b))))


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
        if _connected(adj):
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
    if n < 1 or d < 0:
        raise ValueError(f"no effective divisor of degree {d} on {n} vertices")
    total = comb(d + n - 1, n - 1)
    index = random.Random(rng_seed).randrange(total)
    return Divisor(_unrank_composition(n, d, index))


def _is_canonical(adj: tuple[tuple[int, ...], ...]) -> bool:
    """True iff no relabelling inside adj's equal-degree groups gives a
    lexicographically smaller matrix; degrees must be non-decreasing."""
    degs = [sum(row) for row in adj]
    groups = [permutations(grp) for _, grp in groupby(range(len(adj)), key=degs.__getitem__)]
    return all(
        tuple(tuple(adj[a][b] for b in p) for a in p) >= adj
        for p in (sum(perms, ()) for perms in product(*groups))
    )


def enumerate_treeless_graphs(
    max_n: int,
    genus_range: tuple[int, int],
    max_multiplicity: int = 3,
) -> Iterator[Multigraph]:
    """All connected multigraphs equal to their own 2-core, up to
    isomorphism, generated lazily.

    Emits graphs with n <= max_n, every vertex degree >= 2, edge
    multiplicities in [0, max_multiplicity], and genus inside
    genus_range; attaching pendant trees changes neither side of the
    identity under test, so only these cores are worth sweeping.
    Deterministic order: n ascending, then genus, then adjacency matrix.

    The search is degree-sorted (the pruning behind orderly generation):
    the upper-triangle cells are set in row-major order, so vertex i's
    degree is final once cell (i, n - 1) is set, and a branch dies there
    unless that degree is >= 2 and >= the degree of vertex i - 1.  A leaf
    is emitted only if it is canonical, the smallest matrix among the
    relabellings inside its equal-degree groups; no canonical form is
    built.  Every class has exactly one such leaf, since its smallest
    degree-sorted form is one the search reaches, and leaves arrive in
    lexicographic order because multiplicities ascend cell by cell.
    """
    g_lo, g_hi = genus_range
    for n in range(2, max_n + 1):
        cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for g in range(max(g_lo, 1), g_hi + 1):  # genus 0 means a tree: has leaves
            adj = [[0] * n for _ in range(n)]
            degs = [0] * n

            def rec(k: int, remaining: int) -> Iterator[Multigraph]:
                if k == len(cells):
                    if remaining == 0 and degs[n - 1] >= degs[n - 2] and _connected(adj):
                        leaf = tuple(map(tuple, adj))  # adj is mutated in place
                        if _is_canonical(leaf):
                            yield Multigraph(leaf)
                    return
                if remaining > (len(cells) - k) * max_multiplicity:
                    return
                i, j = cells[k]
                for m in range(min(max_multiplicity, remaining) + 1):
                    adj[i][j] = adj[j][i] = m
                    degs[i] += m
                    degs[j] += m
                    # vertex i's degree is final once its last cell is set
                    if j < n - 1 or (degs[i] >= 2 and (i == 0 or degs[i] >= degs[i - 1])):
                        yield from rec(k + 1, remaining - m)
                    degs[i] -= m
                    degs[j] -= m
                adj[i][j] = adj[j][i] = 0

            yield from rec(0, n + g - 1)


def encode_adjacency(G: Multigraph) -> str:
    """Row-wise adjacency encoding: entries comma-joined, rows
    semicolon-joined."""
    return ";".join(",".join(str(x) for x in row) for row in G.adj)


# ---------------------------------------------------------------------------
# case blocks

_ANOMALY_NAMES = ("trial-disagreement", "toric-rank-exceeds-rank")
# bits of _CaseBlock.anomalies, in _ANOMALY_NAMES order
_TRIAL_DISAGREEMENT = 1
_TORIC_EXCEEDS_RANK = 2
# anomaly bit set -> the names it holds
_ANOMALY_SETS = tuple(
    tuple(name for bit, name in enumerate(_ANOMALY_NAMES) if code >> bit & 1)
    for code in range(1 << len(_ANOMALY_NAMES))
)


@dataclass
class _CaseBlock:
    """Cases of one graph as columns, row i being the block's i-th case.

    Toric columns are None when the toric check is off.  disagreement is
    nonzero on rows whose D or K - D lies in a class whose toric rank
    search read a trial-disagreeing verdict.  Residuals, passed and the
    anomaly bit sets are derived from these columns.
    """

    graph_id: int
    n: int
    genus: int
    degree: np.ndarray
    divisor: np.ndarray
    rank: np.ndarray
    rank_dual: np.ndarray
    toric_rank: np.ndarray | None
    toric_rank_dual: np.ndarray | None
    disagreement: np.ndarray
    residual: np.ndarray = field(init=False)
    toric_residual: np.ndarray | None = field(init=False)
    passed: np.ndarray = field(init=False)
    anomalies: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        expected = self.degree + 1 - self.genus
        self.residual = self.rank - self.rank_dual - expected
        self.passed = self.residual == 0
        if self.toric_rank is None:
            self.toric_residual = None
            self.anomalies = np.zeros(len(self), dtype=np.int64)
            return
        self.toric_residual = self.toric_rank - self.toric_rank_dual - expected
        self.passed &= self.toric_residual == 0
        self.anomalies = (self.disagreement != 0) * _TRIAL_DISAGREEMENT + (
            self.toric_rank > self.rank
        ) * _TORIC_EXCEEDS_RANK

    def __len__(self) -> int:
        return len(self.degree)

    def records(self, first: int, rows: np.ndarray) -> list[CaseRecord]:
        """CaseRecords of the given rows; row i is case number first + i."""

        def col(values: np.ndarray | None) -> list:
            return [None] * len(rows) if values is None else values[rows].tolist()

        return [
            CaseRecord(
                first + i, self.graph_id, self.n, self.genus, d, tuple(div),
                r, r_dual, res, t, t_dual, t_res, p, _ANOMALY_SETS[a],
            )
            for i, d, div, r, r_dual, res, t, t_dual, t_res, p, a in zip(
                rows.tolist(),
                col(self.degree),
                col(self.divisor),
                col(self.rank),
                col(self.rank_dual),
                col(self.residual),
                col(self.toric_rank),
                col(self.toric_rank_dual),
                col(self.toric_residual),
                col(self.passed),
                col(self.anomalies),
            )
        ]


# ---------------------------------------------------------------------------
# report sinks

_CASE_FIELDS = tuple(f.name for f in fields(CaseRecord))
_ECHO_FIELDS = tuple(
    f.name for f in fields(ExperimentConfig)
    if f.name not in ("output_format", "output_path", "workers")
)


def _config_echo(config: ExperimentConfig) -> dict:
    return {name: getattr(config, name) for name in _ECHO_FIELDS}


def _int_cells(values: np.ndarray) -> list[str]:
    """str() of each entry.  Columns here take few distinct values, so
    each value in their range is spelled once and looked up."""
    if len(values) == 0:
        return []
    lo, hi = int(values.min()), int(values.max())
    if hi - lo > len(values):
        return list(map(str, values.tolist()))
    spelled = np.array([str(x) for x in range(lo, hi + 1)], dtype=object)
    return spelled[values - lo].tolist()


def _block_cells(
    b: _CaseBlock,
    first: int,
    null: str,
    booleans: tuple[str, str],
    separator: str,
    anomalies: Sequence[str],
) -> Iterator[tuple[str, ...]]:
    """The cell text of each row, in _CASE_FIELDS order.  null spells a
    disabled toric column, booleans spells passed, separator joins the
    divisor entries and anomalies spells each anomaly bit set."""
    m = len(b)
    toric = (b.toric_rank, b.toric_rank_dual, b.toric_residual)
    return zip(
        map(str, range(first, first + m)),
        repeat(str(b.graph_id), m),
        repeat(str(b.n), m),
        repeat(str(b.genus), m),
        _int_cells(b.degree),
        map(separator.join, zip(*map(_int_cells, b.divisor.T))),
        _int_cells(b.rank),
        _int_cells(b.rank_dual),
        _int_cells(b.residual),
        *(repeat(null, m) if c is None else _int_cells(c) for c in toric),
        [booleans[p] for p in b.passed.tolist()],
        [anomalies[a] for a in b.anomalies.tolist()],
    )


class _Sink:
    """Streaming report writer; the base class writes no file and keeps
    each block with its first case number instead."""

    def __init__(self, fh: IO[str] | None = None):
        self.fh = fh
        self.blocks: list[tuple[int, _CaseBlock]] = []

    def start(self, config: ExperimentConfig, graphs: Sequence[Multigraph]) -> None:
        pass

    def start_graph(self, gid: int, G: Multigraph) -> None:
        pass

    def cases(self, block: _CaseBlock, first: int) -> None:
        self.blocks.append((first, block))

    def finish(self, summary: dict) -> None:
        pass


_JSON_ROW = (
    "{"
    + ",".join(f'"{k}":[%s]' if k == "divisor" else f'"{k}":%s' for k in _CASE_FIELDS)
    + "}"
)
_JSON_ANOMALIES = tuple(json.dumps(list(s), separators=(",", ":")) for s in _ANOMALY_SETS)


class _JsonSink(_Sink):
    first = True

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

    def cases(self, block: _CaseBlock, first: int) -> None:
        rows = _block_cells(block, first, "null", ("false", "true"), ",", _JSON_ANOMALIES)
        text = ",".join([_JSON_ROW % row for row in rows])
        if text:
            self.fh.write(text if self.first else "," + text)
            self.first = False

    def finish(self, summary: dict) -> None:
        self.fh.write('],"summary":' + json.dumps(summary, separators=(",", ":")) + "}\n")


_CSV_ANOMALIES = tuple(";".join(s) for s in _ANOMALY_SETS)


class _CsvSink(_Sink):
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

    def cases(self, block: _CaseBlock, first: int) -> None:
        rows = _block_cells(block, first, "", ("0", "1"), "|", _CSV_ANOMALIES)
        if len(block):
            self.fh.write("\n".join(map(",".join, rows)) + "\n")

    def finish(self, summary: dict) -> None:
        parts = " ".join(f"{k}={summary[k]}" for k in sorted(summary))
        self.fh.write("# summary " + parts + "\n")


@contextmanager
def _report_file(path: str | None) -> Iterator[IO[str] | None]:
    """Yield a file to write the report to, or None without a path.

    The report goes to a temporary file in the same directory, which
    replaces path only once the block completes; on any exception the
    temporary file is removed and whatever was at path stays untouched.
    """
    if path is None:
        yield None
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# exhaustive driver


def _solve_cases(
    graph_id: int, G: Multigraph, config: ExperimentConfig, divisors: np.ndarray
) -> _CaseBlock:
    """The cases of one graph, one per row of divisors, in row order.

    Equivalent divisors have literally the same linear system, hence the
    same rank and the same toric rank.  So the rows D and their duals
    K - D are grouped by class key, each class is solved once, and the
    results are broadcast back to the rows.
    """
    m = len(divisors)
    tcfg = config.toric_config() if config.toric else None
    memo = ToricMemo(G, tcfg) if tcfg is not None else None
    rows = np.concatenate([divisors, canonical_divisor(G).as_array() - divisors])
    _, first, inverse = np.unique(
        _row_keys(_class_keys_batch(G, rows)), return_index=True, return_inverse=True
    )
    # per class: rank, toric rank, and whether the toric search read a
    # trial-disagreeing verdict
    per_class = np.zeros((len(first), 3), dtype=np.int64)
    for j, i in enumerate(first.tolist()):
        D = Divisor(tuple(rows[i].tolist()))
        per_class[j, 0] = rank(G, D).rank
        if memo is not None:
            before = memo.disagreement_reads
            per_class[j, 1] = toric_rank(G, D, tcfg, memo).rank
            per_class[j, 2] = memo.disagreement_reads > before
    sol = per_class[inverse].reshape(2, m, 3)
    toric = memo is not None
    return _CaseBlock(
        graph_id=graph_id,
        n=G.n,
        genus=genus(G),
        degree=divisors.sum(axis=1),
        divisor=divisors,
        rank=sol[0, :, 0],
        rank_dual=sol[1, :, 0],
        toric_rank=sol[0, :, 1] if toric else None,
        toric_rank_dual=sol[1, :, 1] if toric else None,
        disagreement=sol[0, :, 2] | sol[1, :, 2],
    )


def _graph_cases(graph_id: int, G: Multigraph, config: ExperimentConfig) -> _CaseBlock:
    """All window divisors of every degree in range for one graph, in
    deterministic order: degree ascending, then lexicographic."""
    g = genus(G)
    deg_lo = 0 if config.degree_min is None else config.degree_min
    deg_hi = (g - 1) if config.degree_max is None else config.degree_max
    window = g if config.window is None else config.window
    rows = [np.empty((0, G.n), dtype=np.int64)]
    rows += (_compositions_array(G.n, d, -window, d + window) for d in range(deg_lo, deg_hi + 1))
    return _solve_cases(graph_id, G, config, np.concatenate(rows))


def _graph_worker(args: tuple[int, tuple, ExperimentConfig]) -> _CaseBlock:
    graph_id, adj, config = args
    return _graph_cases(graph_id, Multigraph(adj), config)


_REPRODUCER_CAP = 100


def _assemble(
    config: ExperimentConfig,
    graphs: Sequence[Multigraph],
    blocks: Iterable[_CaseBlock],
    t0: float,
) -> ExperimentReport:
    violations: list[CaseRecord] = []
    anomalous: list[CaseRecord] = []
    case_count = violation_count = anomaly_count = 0
    with _report_file(config.output_path) as fh:
        if fh is None:
            sink = _Sink()
        elif config.output_format == "json":
            sink = _JsonSink(fh)
        else:
            sink = _CsvSink(fh)
        sink.start(config, graphs)
        for block in blocks:
            sink.start_graph(block.graph_id, graphs[block.graph_id])
            sink.cases(block, case_count)
            failed = np.flatnonzero(~block.passed)
            flagged = np.flatnonzero(block.anomalies)
            violation_count += len(failed)
            anomaly_count += len(flagged)
            violations += block.records(case_count, failed[: _REPRODUCER_CAP - len(violations)])
            anomalous += block.records(case_count, flagged[: _REPRODUCER_CAP - len(anomalous)])
            case_count += len(block)
        summary = {
            "graphs": len(graphs),
            "cases": case_count,
            "violations": violation_count,
            "anomalies": anomaly_count,
            "toric": config.toric,
        }
        sink.finish(summary)
    return ExperimentReport(
        config=config,
        graphs=tuple(graphs),
        case_count=case_count,
        violation_count=violation_count,
        anomaly_count=anomaly_count,
        violations=tuple(violations),
        anomalies=tuple(anomalous),
        summary=summary,
        wall_clock_seconds=time.perf_counter() - t0,
        blocks=tuple(sink.blocks),
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
    sequence.  Each case is a one-row block of its own graph.
    """
    t0 = time.perf_counter()
    config.validate()
    if config.mode != "random-sweep":
        raise ConfigError(
            f"run_random_sweep needs mode='random-sweep', got {config.mode!r}"
        )

    # sweep cases are few; draw them all first so the graph table is
    # complete before the sink writes its header
    graphs: list[Multigraph] = []
    blocks: list[_CaseBlock] = []
    attempt = 0
    while len(blocks) < config.cases:
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
        blocks.append(
            _solve_cases(len(graphs), G, config, np.array([D.coeffs], dtype=np.int64))
        )
        graphs.append(G)
    return _assemble(config, graphs, blocks, t0)
