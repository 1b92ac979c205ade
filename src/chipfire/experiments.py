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
from functools import cached_property, lru_cache
from itertools import chain, groupby, permutations, product
from math import comb
from multiprocessing import Pool
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import (
    Divisor,
    Multigraph,
    _as_ints,
    _connected,
    canonical_divisor,
    genus,
)
from .linsys import _class_codes, _class_members, _window_table
from .rank import rank
from .toric import (
    ToricConfig,
    ToricMemo,
    _check_field_types,
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
    [0, genus - 1], and window defaults to the per-graph genus; the toric
    fields default to ToricConfig's.  workers, output_path and
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
    prime: int = ToricConfig.prime
    trials: int = ToricConfig.trials
    toric_mode: str = ToricConfig.mode
    seed: int = ToricConfig.seed
    toric: bool = True
    nonzero_entries: bool = ToricConfig.nonzero_entries
    output_format: str = "json"
    output_path: str | None = None
    workers: int = 1
    cases: int = 10
    min_genus: int = 4
    n_min: int = 5
    n_max: int = 10
    max_multiplicity: int = 3

    def validate(self) -> None:
        _check_field_types(self, ConfigError)
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
    pure function of (n, rng_seed).  Both must be integers (numpy
    integers included): a float or a bool raises TypeError instead of
    being hashed or read as 0/1.
    """
    n, rng_seed = _as_ints((n, rng_seed))
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
    uniformity via unranking, no rejection).  Arguments are checked as
    in ``random_connected_graph``."""
    n, d, rng_seed = _as_ints((n, d, rng_seed))
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
    Once iteration starts, an argument that is not an integer raises
    TypeError, and an empty or negative genus_range or a
    max_multiplicity below 1 raises ValueError.

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
    max_n, g_lo, g_hi, max_multiplicity = _as_ints((max_n, *genus_range, max_multiplicity))
    if g_lo > g_hi or g_lo < 0:
        raise ValueError(f"genus range {genus_range} is empty or negative")
    if max_multiplicity < 1:
        raise ValueError("max_multiplicity must be at least 1")
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
    """Cases of one graph, row i being the block's i-th case.

    Every column but the divisor is a property of the divisor class of
    the row: classes[i] is the class of row i, and the other columns hold
    one entry per class.  Toric columns are None when the toric check is
    off.  disagreement is nonzero on the classes where the toric rank
    search of D or of K - D read a trial-disagreeing verdict.  Residuals,
    passed and the anomaly bit sets are derived from these columns.
    tables lists the (degree, window) of the window tables
    (_window_table) whose rows, in order, are divisor; None when the
    divisors were drawn one by one.
    """

    graph_id: int
    n: int
    genus: int
    divisor: np.ndarray
    classes: np.ndarray
    tables: tuple[tuple[int, int], ...] | None
    degree: np.ndarray
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
            self.anomalies = np.zeros(len(self.degree), dtype=np.int64)
            return
        self.toric_residual = self.toric_rank - self.toric_rank_dual - expected
        self.passed &= self.toric_residual == 0
        self.anomalies = (self.disagreement != 0) * _TRIAL_DISAGREEMENT + (
            self.toric_rank > self.rank
        ) * _TORIC_EXCEEDS_RANK

    def __len__(self) -> int:
        return len(self.divisor)

    def records(self, first: int, rows: np.ndarray) -> list[CaseRecord]:
        """CaseRecords of the given rows; row i is case number first + i."""
        classes = self.classes[rows]

        def col(values: np.ndarray | None) -> list:
            return [None] * len(rows) if values is None else values[classes].tolist()

        return [
            CaseRecord(
                first + i, self.graph_id, self.n, self.genus, d, tuple(div),
                r, r_dual, res, t, t_dual, t_res, p, _ANOMALY_SETS[a],
            )
            for i, d, div, r, r_dual, res, t, t_dual, t_res, p, a in zip(
                rows.tolist(),
                col(self.degree),
                self.divisor[rows].tolist(),
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


def _spell_divisors(divisors: np.ndarray, separator: str) -> list[str]:
    """Each row's entries, spelled by str, joined by separator.  The
    exhaustive sweep spells each window table once (_divisor_cells)."""
    return list(map(separator.join, zip(*(map(str, col) for col in divisors.T.tolist()))))


@lru_cache(maxsize=64)
def _divisor_cells(n: int, d: int, window: int, separator: str) -> tuple[str, ...]:
    """The divisor cell of each row of _window_table(n, d, window).
    Graphs with the same n and genus share their tables, hence these."""
    return tuple(_spell_divisors(_window_table(n, d, window), separator))


class _RowFormat(NamedTuple):
    """How a sink spells a case row.  opening, middle and tail are the
    row's text around its case number and divisor cell: opening comes
    before the case number, middle takes the graph_id, n, genus and
    degree cells, and tail the cells after the divisor, with the row
    terminator.  null spells a disabled toric cell, booleans spells
    passed, separator joins the divisor entries and anomalies spells
    each anomaly bit set."""

    opening: str
    middle: str
    tail: str
    null: str
    booleans: tuple[str, str]
    separator: str
    anomalies: tuple[str, ...]


def _row_format(
    template: str,
    null: str,
    booleans: tuple[str, str],
    separator: str,
    anomalies: tuple[str, ...],
) -> _RowFormat:
    """Split template, one %s per _CASE_FIELDS entry in that order, at
    the case and divisor cells."""
    pieces = template.split("%s")
    cut = _CASE_FIELDS.index("divisor") + 1
    middle, tail = "%s".join(pieces[1:cut]), "%s".join(pieces[cut:])
    return _RowFormat(pieces[0], middle, tail, null, booleans, separator, anomalies)


# 0 .. 999 as they end a number below 1000, and as they end a larger one
_LAST_DIGITS = (tuple(map(str, range(1000))), tuple(f"{i:03d}" for i in range(1000)))


def _case_cells(opening: str, first: int, m: int) -> tuple[list[str], list[str]]:
    """The text of the case numbers first .. first + m - 1, each after
    opening, as two strings a number: opening with the thousands, and
    the last three digits.  Both lists are built from repeats and slices
    of ready strings, so no number is spelled on its own."""
    thousands: list[str] = []
    units: list[str] = []
    for k in range(first // 1000, (first + m - 1) // 1000 + 1):
        lo, hi = max(first - 1000 * k, 0), min(first + m - 1000 * k, 1000)
        thousands += [opening + str(k) if k else opening] * (hi - lo)
        units += _LAST_DIGITS[k > 0][lo:hi]
    return thousands, units


def _block_text(b: _CaseBlock, first: int, fmt: _RowFormat) -> str:
    """The rows of b as text, case numbers from first.

    Only the case number and the divisor vary within a class, so the
    middle and the tail of a row are spelled once per class, the divisor
    cells once per window table (_divisor_cells), the case numbers a
    thousand at a time (_case_cells), and each row is the join of five
    ready strings.
    """
    toric = (b.toric_rank, b.toric_rank_dual, b.toric_residual)

    def cells(values: np.ndarray | None) -> list[str]:
        return [fmt.null] * len(b.degree) if values is None else list(map(str, values.tolist()))

    middle = [fmt.middle % (b.graph_id, b.n, b.genus, d) for d in b.degree.tolist()]
    tail = [
        fmt.tail % row
        for row in zip(
            cells(b.rank),
            cells(b.rank_dual),
            cells(b.residual),
            *map(cells, toric),
            [fmt.booleans[p] for p in b.passed.tolist()],
            [fmt.anomalies[a] for a in b.anomalies.tolist()],
        )
    ]
    if b.tables is None:
        divisors = _spell_divisors(b.divisor, fmt.separator)
    else:
        divisors = chain.from_iterable(
            _divisor_cells(b.n, d, window, fmt.separator) for d, window in b.tables
        )
    m = len(b)
    out = [""] * (5 * m)
    out[0::5], out[1::5] = _case_cells(fmt.opening, first, m)
    out[2::5] = np.array(middle, dtype=object)[b.classes].tolist()
    out[3::5] = divisors
    out[4::5] = np.array(tail, dtype=object)[b.classes].tolist()
    return "".join(out)


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


# rows end in a comma, which the sink drops after a block's last row
_JSON_ROWS = _row_format(
    "{"
    + ",".join(f'"{k}":[%s]' if k == "divisor" else f'"{k}":%s' for k in _CASE_FIELDS)
    + "},",
    "null",
    ("false", "true"),
    ",",
    tuple(json.dumps(list(s), separators=(",", ":")) for s in _ANOMALY_SETS),
)


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
        text = _block_text(block, first, _JSON_ROWS)[:-1]
        if text:
            self.fh.write(text if self.first else "," + text)
            self.first = False

    def finish(self, summary: dict) -> None:
        self.fh.write('],"summary":' + json.dumps(summary, separators=(",", ":")) + "}\n")


_CSV_ROWS = _row_format(
    ",".join(["%s"] * len(_CASE_FIELDS)) + "\n",
    "",
    ("0", "1"),
    "|",
    tuple(";".join(s) for s in _ANOMALY_SETS),
)


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
        self.fh.write(_block_text(block, first, _CSV_ROWS))

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


def _scan_classes(G: Multigraph, memo: ToricMemo | None, reps: np.ndarray) -> np.ndarray:
    """Rank, toric rank and trial-disagreement bit of the class of each
    row of reps, one removal scan each (``rank`` and ``toric_rank``)."""
    per_class = np.zeros((len(reps), 3), dtype=np.int64)
    for j, rep in enumerate(reps.tolist()):
        D = Divisor(tuple(rep))
        per_class[j, 0] = rank(G, D).rank
        if memo is not None:
            before = memo.disagreement_reads
            per_class[j, 1] = toric_rank(G, D, memo.config, memo).rank
            per_class[j, 2] = memo.disagreement_reads > before
    return per_class


def _recurse_classes(G: Multigraph, memo: ToricMemo | None, reps: np.ndarray) -> np.ndarray:
    """Rank, toric rank and trial-disagreement bit of the class of each
    row of reps, all solved as one recursion over classes (Baker-Norine):

        r(c) = -1 if |c| is empty, else 1 + min over v of r(c - e_v).

    The toric rank is the same recursion with "some member of |c| passes
    the toric test" (T(c), decided by memo.survives on |c|) in place of
    "|c| is nonempty", and the disagreement bit of c says whether
    deciding T on c, or on a class its toric recursion descends into,
    read a disagreeing verdict.

    The classes met are collected degree by degree from the top down:
    the given rows of that degree and the children c - e_v of the
    effective classes one degree up are grouped by class code, in one
    batch per degree.  T is decided only on the given classes and on the
    children of classes where it holds.  |c| comes from one batch read
    per degree (``linsys._class_members``).  Then the ranks are solved
    from degree 0 up, one array per degree.
    """
    n = G.n
    eye = np.eye(n, dtype=np.int64)
    degrees = reps.sum(axis=1)
    # per degree, top down: the given rows and their classes; effective,
    # T and own disagreement per class; and the classes of the children
    # of the effective classes, one degree down.  Below degree 0 every
    # child is the one class of degree -1, at position 0
    descent = []
    # the children of the degree above, and whether T holds at their parent
    pending, pending_toric = reps[:0], np.zeros(0, dtype=bool)
    for k in range(int(degrees.max(initial=-1)), -1, -1):
        given = np.flatnonzero(degrees == k)
        rows = np.concatenate([reps[given], pending])
        _, first, inverse = np.unique(_class_codes(G, rows), return_index=True, return_inverse=True)
        if descent:
            descent[-1][-1] = inverse[len(given) :].reshape(-1, n)
        wanted = np.zeros(len(first), dtype=bool)
        wanted[inverse[: len(given)]] = memo is not None
        wanted[inverse[len(given) :][pending_toric]] = True
        reps_k = rows[first]
        members = _class_members(G, k, reps_k)
        effective = np.array([len(m) > 0 for m in members], dtype=bool)
        passes = np.zeros(len(members), dtype=bool)
        own = np.zeros(len(members), dtype=bool)
        for j in np.flatnonzero(effective & wanted).tolist():
            before = memo.disagreement_reads
            passes[j] = memo.survives(members[j])
            own[j] = memo.disagreement_reads > before
        descent.append([given, inverse[: len(given)], effective, passes, own, [[0]]])
        pending = (reps_k[effective][:, None, :] - eye).reshape(-1, n)
        pending_toric = np.repeat(passes[effective], n)
    # bottom-up, one (rank, toric rank, disagreement) row per class,
    # starting from the one class of degree -1, which has no effective
    # member; given rows of negative degree keep that row
    sol = np.array([[-1, -1, 0]], dtype=np.int64)
    per_class = np.tile(sol, (len(reps), 1))
    for given, positions, effective, passes, own, children in reversed(descent):
        below = sol[children]
        least = 1 + below.min(axis=1)
        tested = passes[effective]
        sol = np.full((len(effective), 3), -1, dtype=np.int64)
        sol[:, 2] = own
        sol[effective, 0] = least[:, 0]
        sol[effective, 1] = np.where(tested, least[:, 1], -1)
        sol[effective, 2] |= tested & below[..., 2].any(axis=1)
        per_class[given] = sol[positions]
    return per_class


def _solve_cases(
    graph_id: int,
    G: Multigraph,
    config: ExperimentConfig,
    divisors: np.ndarray,
    solve_classes: Callable[[Multigraph, ToricMemo | None, np.ndarray], np.ndarray],
    tables: tuple[tuple[int, int], ...] | None = None,
) -> _CaseBlock:
    """The cases of one graph, one per row of divisors, in row order.

    Equivalent divisors have literally the same linear system, hence the
    same rank and the same toric rank, and so have their duals K - D.
    So the rows are grouped by class code, solve_classes solves the
    class of one representative D and of its K - D once each, and the
    block keeps the row -> class index.  The exhaustive driver passes
    _recurse_classes, which solves a graph's classes together; the
    random sweep passes _scan_classes, since the recursion would walk
    the whole effective down-set of its one high-degree class.  tables
    is passed on to the block.
    """
    memo = ToricMemo(G, config.toric_config()) if config.toric else None
    _, first, classes = np.unique(
        _class_codes(G, divisors), return_index=True, return_inverse=True
    )
    reps = divisors[first]
    c = len(reps)
    # per class of D, then of K - D: rank, toric rank, and whether the
    # toric search read a trial-disagreeing verdict
    sol = solve_classes(G, memo, np.concatenate([reps, canonical_divisor(G).as_array() - reps]))
    toric = memo is not None
    return _CaseBlock(
        graph_id=graph_id,
        n=G.n,
        genus=genus(G),
        divisor=divisors,
        classes=classes,
        tables=tables,
        degree=reps.sum(axis=1),
        rank=sol[:c, 0],
        rank_dual=sol[c:, 0],
        toric_rank=sol[:c, 1] if toric else None,
        toric_rank_dual=sol[c:, 1] if toric else None,
        disagreement=sol[:c, 2] | sol[c:, 2],
    )


def _graph_cases(task: tuple[int, Multigraph, ExperimentConfig]) -> _CaseBlock:
    """All window divisors of every degree in range for one graph, in
    deterministic order: degree ascending, then lexicographic.  task is
    (graph id, graph, config), one pickle for a pool worker."""
    graph_id, G, config = task
    g = genus(G)
    deg_lo = 0 if config.degree_min is None else config.degree_min
    deg_hi = (g - 1) if config.degree_max is None else config.degree_max
    window = g if config.window is None else config.window
    tables = tuple((d, window) for d in range(deg_lo, deg_hi + 1))
    rows = [np.empty((0, G.n), dtype=np.int64)]
    rows += (_window_table(G.n, d, window) for d, window in tables)
    return _solve_cases(graph_id, G, config, np.concatenate(rows), _recurse_classes, tables)


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
            failed = np.flatnonzero(~block.passed[block.classes])
            flagged = np.flatnonzero(block.anomalies[block.classes])
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
    tasks = [(gid, G, config) for gid, G in enumerate(graphs)]
    if config.workers > 1 and len(tasks) > 1:
        with Pool(min(config.workers, len(tasks))) as pool:
            return _assemble(config, graphs, pool.imap(_graph_cases, tasks), t0)
    return _assemble(config, graphs, map(_graph_cases, tasks), t0)


# ---------------------------------------------------------------------------
# random sweep driver


# reachable genera can still be too rare to draw: K_10 (genus 36) comes
# up once in 2^45 fair-coin graphs on 10 vertices
_MAX_REJECTED_DRAWS = 10_000


def run_random_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Random high-genus spot check.

    Draws random connected graphs with n in [n_min, n_max], keeps those
    with genus >= min_genus, tests one random effective divisor of
    degree genus - 1 on each, and stops after `cases` kept cases.  Raises
    ConfigError after _MAX_REJECTED_DRAWS rejected draws in a row.  Runs
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
    attempt = rejected = 0
    while len(blocks) < config.cases:
        n = config.n_min + derive_seed(config.seed, "sweep-n", attempt) % (
            config.n_max - config.n_min + 1
        )
        G = random_connected_graph(n, derive_seed(config.seed, "sweep-graph", attempt))
        g = genus(G)
        attempt += 1
        if g < config.min_genus:
            rejected += 1
            if rejected == _MAX_REJECTED_DRAWS:
                raise ConfigError(
                    f"min_genus {config.min_genus}: {rejected} graphs drawn in a row "
                    f"on {config.n_min}..{config.n_max} vertices all had a smaller genus"
                )
            continue
        rejected = 0
        D = random_effective_divisor(
            n, g - 1, derive_seed(config.seed, "sweep-divisor", attempt - 1)
        )
        rows = np.array([D.coeffs], dtype=np.int64)
        blocks.append(_solve_cases(len(graphs), G, config, rows, _scan_classes))
        graphs.append(G)
    return _assemble(config, graphs, blocks, t0)
