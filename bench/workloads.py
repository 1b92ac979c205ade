"""Seeded inputs, operations and output checks for the benchmark workloads.

Two kinds of workload:

* sweeps run the user command ``chipfire exhaustive`` once per process
  through ``chipfire.cli.main``; an op is one case row of the report;
* closed loops call the library one op at a time, each op on a distinct
  (graph, divisor class), so the process-wide member cache never serves
  a hit that a user running one command would not get.

The seed only picks concrete instances.  The cycle of strata (graph
family, size, degree) that the ops walk through is the same for every
seed, so runs with different seeds do comparable work.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from itertools import count
from math import comb
from typing import Callable, Iterator

import numpy as np

import chipfire as cf
import chipfire.cli

# ---------------------------------------------------------------------------
# graphs and divisor classes, built without the program's own helpers


def relabel(adj: list[list[int]], perm: list[int]) -> list[list[int]]:
    n = len(adj)
    return [[adj[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def path_adj(n: int) -> list[list[int]]:
    adj = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        adj[i][i + 1] = adj[i + 1][i] = 1
    return adj


def cycle_adj(n: int) -> list[list[int]]:
    adj = path_adj(n)
    adj[0][n - 1] = adj[n - 1][0] = 1
    return adj


def theta_adj(inner: tuple[int, int, int]) -> list[list[int]]:
    """Vertices 0 and 1 joined by three paths with the given numbers of
    inner vertices (at most one of them zero, so the graph is simple)."""
    n = 2 + sum(inner)
    adj = [[0] * n for _ in range(n)]
    nxt = 2
    for k in inner:
        prev = 0
        for _ in range(k):
            adj[prev][nxt] = adj[nxt][prev] = 1
            prev, nxt = nxt, nxt + 1
        adj[prev][1] = adj[1][prev] = 1
    return adj


def complete_adj(n: int) -> list[list[int]]:
    return [[int(i != j) for j in range(n)] for i in range(n)]


def random_simple_adj(n: int, g: int, rng: random.Random) -> list[list[int]]:
    """Connected simple graph on n vertices with genus g: a random
    recursive spanning tree plus g random extra edges."""
    adj = [[0] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):
        u, v = order[k], order[rng.randrange(k)]
        adj[u][v] = adj[v][u] = 1
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if not adj[i][j]]
    for i, j in rng.sample(free, g):
        adj[i][j] = adj[j][i] = 1
    return adj


def genus_of(adj: list[list[int]]) -> int:
    n = len(adj)
    return sum(map(sum, adj)) // 2 - n + 1


class ClassKey:
    """Complete invariant of divisor classes on one connected graph.

    With L0 the Laplacian minus row and column 0, and k = det(L0) the
    number of spanning trees, D ~ D' iff deg D = deg D' and
    adj(L0) (D - D')[1:] is 0 mod k.  The key is (deg D, adj(L0) D[1:]
    mod k).  Exact for the small graphs used here; the adjugate is
    checked against L0 before use.
    """

    def __init__(self, adj: list[list[int]]):
        a = np.array(adj, dtype=np.int64)
        lap = np.diag(a.sum(axis=1)) - a
        l0 = lap[1:, 1:]
        self.k = int(round(np.linalg.det(l0)))
        self.adjugate = np.rint(np.linalg.inv(l0) * self.k).astype(np.int64)
        if not (l0 @ self.adjugate == self.k * np.eye(len(l0), dtype=np.int64)).all():
            raise ArithmeticError("inexact adjugate")

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """One key row (degree first) per divisor row."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.adjugate.shape[0] + 1)
        red = (rows[:, 1:] @ self.adjugate.T) % self.k
        return np.concatenate([rows.sum(axis=1, keepdims=True), red], axis=1)

    def key(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(int(x) for x in self.keys(np.array(coeffs))[0])


# ---------------------------------------------------------------------------
# closed-loop ops


@dataclass
class Op:
    index: int
    stratum: str
    adj: list[list[int]]
    coeffs: tuple[int, ...]
    keyer: ClassKey

    @property
    def degree(self) -> int:
        return sum(self.coeffs)

    @property
    def genus(self) -> int:
        return genus_of(self.adj)


def _draw_stream(seed: int, schedule: list, draw: Callable) -> Iterator[Op]:
    """Endless op stream walking `schedule` cyclically.

    Instance i, in pass c over the schedule, is draw(stratum, c, rng)
    with rng seeded by (seed, i, attempt); a draw whose (graph, class)
    was already used is redrawn, and a stratum that yields nothing new
    in 200 attempts is left out from then on.
    """
    seen: set = set()
    dead: set[int] = set()
    keyers: dict = {}
    i = 0
    for cycle in count():
        if len(dead) == len(schedule):
            return
        for s, stratum in enumerate(schedule):
            if s in dead:
                continue
            for attempt in range(200):
                rng = random.Random(f"{seed}:{i}:{attempt}")
                adj, coeffs = draw(stratum, cycle, rng)
                frozen = tuple(map(tuple, adj))
                keyer = keyers.get(frozen)
                if keyer is None:
                    keyer = keyers[frozen] = ClassKey(adj)
                ident = (frozen, keyer.key(coeffs))
                if ident not in seen:
                    seen.add(ident)
                    yield Op(i, str(stratum), adj, coeffs, keyer)
                    i += 1
                    break
            else:
                dead.add(s)


def _concentrated(n: int, d: int, rng: random.Random) -> tuple[int, ...]:
    coeffs = [0] * n
    coeffs[rng.randrange(n)] = d
    return tuple(coeffs)


def _spread(n: int, d: int, rng: random.Random) -> tuple[int, ...]:
    coeffs = [0] * n
    for _ in range(d):
        coeffs[rng.randrange(n)] += 1
    return tuple(coeffs)


# linsys_sparse: sparse graphs, all chips on one vertex, degree about n.
# Costs on a 2-core Xeon range from 10 to 350 ms, three quarters of it in
# the Fourier-Motzkin box walk of linear_system and the rest in the rank
# scan.  path_graph(7) stops at
# degree 3 because degree 5 alone takes 4 s.  The two cycle_graph(6)
# strata have narrow cost ranges and sit at the middle of the mix, which
# keeps the median latency steady from seed to seed.
LINSYS_SCHEDULE = [
    ("path", 5, 7),
    ("path", 6, 5),
    ("path", 7, 3),
    ("cycle", 6, 7),
    ("cycle", 6, 8),
    ("cycle", 7, 7),
    ("theta", 6, 8),
    ("theta", 7, 8),
    ("theta", 7, 9),
]
_THETA = {6: (1, 1, 2), 7: (1, 2, 2)}


def _draw_linsys(stratum, cycle: int, rng: random.Random):
    family, n, d = stratum
    base = {"path": path_adj, "cycle": cycle_adj}.get(family)
    adj = base(n) if base else theta_adj(_THETA[n])
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(adj, perm), _concentrated(n, d, rng)


# toric_dense: K4, K5 and random simple graphs with n = 6..7 and genus
# 3..8, at degrees g - 1..g + 2, chips spread uniformly.  About 90% of
# toric_rank is toric_effective_test.  K6 at degree 2g - 2 is left out: it
# takes 30 s alone.  The random graphs come from a fixed pool of four
# graphs per (n, genus), one for each degree in every pass, rotating
# over the passes; the seed draws the divisors.  Graph shape decides
# most of an op's time and memory, so with graphs drawn per seed the
# peak memory of a run depended on the seed.
TORIC_POOL = 4  # graphs per (n, genus), one per degree g - 1..g + 2
TORIC_SCHEDULE = (
    [("K", 4, d) for d in range(2, 6)]
    + [("K", 5, d) for d in range(5, 9)]
    + [("random", n, g, k) for g in range(3, 9) for n in (6, 7) for k in range(TORIC_POOL)]
)


def _draw_toric(stratum, cycle: int, rng: random.Random):
    if stratum[0] == "K":
        _, n, d = stratum
        adj = complete_adj(n)
    else:
        _, n, g, k = stratum
        d = g - 1 + k
        pool_rng = random.Random(f"pool:{n}:{g}:{(k + cycle) % TORIC_POOL}")
        adj = random_simple_adj(n, g, pool_rng)
    return adj, _spread(n, d, rng)


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _rank_fields(res) -> tuple:
    return res.rank, res.witness_failure.coeffs


def run_linsys(op: Op, seed: int):
    """One solve: the complete linear system of D, then rank of D and
    of K - D."""
    G = cf.Multigraph.from_adjacency(op.adj)
    D = cf.Divisor(op.coeffs)
    members = cf.linear_system(G, D).divisors
    K = cf.canonical_divisor(G)
    return members, cf.rank(G, D), cf.rank(G, K - D)


def check_linsys(op: Op, out) -> tuple[list[str], str]:
    members, r, r_dual = out
    d, g, n = op.degree, op.genus, len(op.coeffs)
    problems = []
    rows = np.array([m.coeffs for m in members], dtype=np.int64).reshape(-1, n)
    if (rows < 0).any():
        problems.append("non-effective member")
    if len(rows) and (op.keyer.keys(rows) != np.array(op.keyer.key(op.coeffs))).any():
        problems.append("member outside the class of D")
    if [m.coeffs for m in members] != sorted({m.coeffs for m in members}):
        problems.append("members not sorted and distinct")
    if op.coeffs not in {m.coeffs for m in members}:
        problems.append("D missing from |D|")
    problems += _rr_problems("rank", r, r_dual, d, g)
    if g == 0:
        if len(members) != comb(d + n - 1, n - 1):
            problems.append("tree |D| differs from C(d+n-1, n-1)")
        if r.rank != d:
            problems.append("tree rank differs from degree")
    digest = _digest(tuple(m.coeffs for m in members), _rank_fields(r), _rank_fields(r_dual))
    return problems, digest


def run_toric(op: Op, seed: int):
    """One Riemann-Roch check, toric and graph side, with a fresh memo
    shared by D and K - D."""
    G = cf.Multigraph.from_adjacency(op.adj)
    D = cf.Divisor(op.coeffs)
    K = cf.canonical_divisor(G)
    cfg = cf.ToricConfig(seed=seed)
    memo = cf.ToricMemo(G, cfg)
    t = cf.toric_rank(G, D, cfg, memo)
    t_dual = cf.toric_rank(G, K - D, cfg, memo)
    return t, t_dual, cf.rank(G, D), cf.rank(G, K - D)


def check_toric(op: Op, out) -> tuple[list[str], str]:
    t, t_dual, r, r_dual = out
    d, g = op.degree, op.genus
    problems = _rr_problems("toric rank", t, t_dual, d, g)
    problems += _rr_problems("rank", r, r_dual, d, g)
    if t.rank > r.rank or t_dual.rank > r_dual.rank:
        problems.append("toric rank exceeds rank")
    digest = _digest(*map(_rank_fields, (t, t_dual, r, r_dual)))
    return problems, digest


def _rr_problems(what: str, r, r_dual, d: int, g: int) -> list[str]:
    problems = []
    if r.rank - r_dual.rank != d + 1 - g:
        problems.append(f"{what}: Riemann-Roch fails")
    for res, deg in ((r, d), (r_dual, 2 * g - 2 - d)):
        w = res.witness_failure.coeffs
        if sum(w) != res.rank + 1 or min(w) < 0:
            problems.append(f"{what}: witness is not an effective divisor of degree rank + 1")
        if res.rank > max(deg, -1):
            problems.append(f"{what}: exceeds the degree")
    return problems


@dataclass(frozen=True)
class ClosedLoop:
    name: str
    schedule: list
    draw: Callable[[object, int, random.Random], tuple]
    run: Callable[[Op, int], object]
    check: Callable[[Op, object], tuple[list[str], str]]

    def ops(self, seed: int) -> Iterator[Op]:
        return _draw_stream(seed, self.schedule, self.draw)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class Sweep:
    name: str
    flags: tuple[str, ...]
    summary: dict

    def argv(self, seed: int, out_path: str) -> list[str]:
        return ["exhaustive", *self.flags, "--format", "csv", "--toric", "--workers", "1",
                "--seed", str(seed), "--out", out_path]


def normalized_digest(data: bytes, seed: int) -> str:
    """sha256 of a CSV report with its seed echo set to 0.

    Every rank in a report is exact, so a report depends on the seed
    only through that echo; the digest is therefore the same for every
    seed.
    """
    data = re.sub(rb"( seed=)%d( )" % seed, rb"\g<1>0\2", data, count=1)
    return hashlib.sha256(data).hexdigest()


def bad_rows(data: bytes) -> tuple[int, int]:
    """(rows, rows failing a check) of a CSV report, recomputing both
    Riemann-Roch identities and toric_rank <= rank from the row fields."""
    rows = bad = 0
    genus = {}
    for line in data.decode().splitlines():
        if line.startswith("# graph "):
            _, _, gid, _, g, _ = line.split(" ", 5)
            genus[int(gid)] = int(g.split("=")[1])
        elif not line.startswith("#"):
            f = line.split(",")
            g, d = int(f[3]), int(f[4])
            r, rd, t, td = int(f[6]), int(f[7]), int(f[9]), int(f[10])
            ok = (
                genus.get(int(f[1])) == g
                and sum(map(int, f[5].split("|"))) == d
                and r - rd == d + 1 - g
                and t - td == d + 1 - g
                and t <= r
                and td <= rd
                and f[12] == "1"
                and not f[13]
            )
            rows += 1
            bad += not ok
    return rows, bad


# sweep6_json (n <= 6, genus <= 2, JSON sink) was dropped: on a shared
# 2-core VM four workloads only fit the time budget at 15 s per run,
# too short to average out the machine's speed swings.
SWEEPS = {
    s.name: s
    for s in (
        Sweep(
            "sweep5_csv",
            ("--max-vertices", "5", "--genus-min", "1", "--genus-max", "3"),
            {"graphs": 60, "cases": 219813, "violations": 0, "anomalies": 0, "toric": True},
        ),
    )
}

CLOSED_LOOPS = {
    w.name: w
    for w in (
        ClosedLoop("linsys_sparse", LINSYS_SCHEDULE, _draw_linsys, run_linsys, check_linsys),
        ClosedLoop("toric_dense", TORIC_SCHEDULE, _draw_toric, run_toric, check_toric),
    )
}

NAMES = (*SWEEPS, *CLOSED_LOOPS)

# Golden digests hold for this seed (closed loops) or for every seed
# (the sweep, whose digest ignores the seed echo).
GOLDEN_SEED = 0
