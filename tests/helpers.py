"""Shared test utilities: independent oracles and small-graph catalogs.

Everything here is deliberately naive.  The oracles recompute answers by
brute force or by a different algorithm entirely, so agreement with the
library is evidence and not circularity.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

import chipfire as cf


def canonical_adjacency(adj) -> tuple[tuple[int, ...], ...]:
    """Lexicographically minimal adjacency matrix over all vertex
    permutations.  Brute force; fine for n <= 6."""
    n = len(adj)
    return min(
        tuple(tuple(adj[p[i]][p[j]] for j in range(n)) for i in range(n))
        for p in itertools.permutations(range(n))
    )


def all_connected_simple_graphs(n: int) -> list[cf.Multigraph]:
    """Every connected simple graph on n labeled vertices."""
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for bits in itertools.product((0, 1), repeat=len(cells)):
        adj = [[0] * n for _ in range(n)]
        for (i, j), b in zip(cells, bits):
            adj[i][j] = adj[j][i] = b
        if cf.is_connected(adj):
            out.append(cf.Multigraph.from_adjacency(adj))
    return out


def connected_multigraphs_up_to_iso(max_n: int, max_mult: int) -> list[cf.Multigraph]:
    out = []
    for n in range(1, max_n + 1):
        cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
        seen = set()
        for vals in itertools.product(range(max_mult + 1), repeat=len(cells)):
            adj = [[0] * n for _ in range(n)]
            for (i, j), v in zip(cells, vals):
                adj[i][j] = adj[j][i] = v
            if not cf.is_connected(adj):
                continue
            canon = canonical_adjacency(adj)
            if canon not in seen:
                seen.add(canon)
                out.append(cf.Multigraph(canon))
    return out


def pruefer_trees(n: int):
    """Adjacency matrix of the labelled tree of each Pruefer sequence on
    n >= 3 vertices, in the order of itertools.product."""
    for seq in itertools.product(range(n), repeat=n - 2):
        deg = [1] * n
        for v in seq:
            deg[v] += 1
        adj = [[0] * n for _ in range(n)]
        leaves = [v for v in range(n) if deg[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            leaf = heapq.heappop(leaves)
            adj[leaf][v] = adj[v][leaf] = 1
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(leaves, v)
        u, w = heapq.heappop(leaves), heapq.heappop(leaves)
        adj[u][w] = adj[w][u] = 1
        yield adj


def tree_code(adj) -> str:
    """AHU code of a tree rooted at its centre, the smaller of the two
    codes when there are two centres (Aho, Hopcroft and Ullman 1974).
    Two trees get the same code iff they are isomorphic."""
    n = len(adj)
    nbrs = [[j for j in range(n) if adj[i][j]] for i in range(n)]
    deg = [len(vs) for vs in nbrs]
    layer, left = [v for v in range(n) if deg[v] <= 1], n
    while left > 2:  # peel the leaves until the centre is left
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in nbrs[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in nbrs[v] if w != parent)) + ")"

    return min(code(c, -1) for c in layer)


@lru_cache(maxsize=8)
def trees_up_to_iso(n: int) -> tuple[cf.Multigraph, ...]:
    """All trees on n vertices up to isomorphism, decoded from Pruefer
    sequences.  Each class is represented by the canonical form
    (canonical_adjacency) of its first tree in Pruefer order; trees are
    grouped by tree_code, so the brute-force form is built once per
    class.  Cached: several tests read the catalog."""
    if n == 1:
        return (cf.Multigraph.from_adjacency([[0]]),)
    if n == 2:
        return (cf.path_graph(2),)
    seen, out = set(), []
    for adj in pruefer_trees(n):
        code = tree_code(adj)
        if code not in seen:
            seen.add(code)
            out.append(cf.Multigraph(canonical_adjacency(adj)))
    return tuple(out)


def cycle_with_pendant_path(k: int, plen: int) -> cf.Multigraph:
    """k-cycle with a path of plen extra vertices hanging off vertex 0."""
    n = k + plen
    adj = [[0] * n for _ in range(n)]
    for i in range(k):
        j = (i + 1) % k
        adj[i][j] = adj[j][i] = 1
    prev = 0
    for t in range(plen):
        v = k + t
        adj[prev][v] = adj[v][prev] = 1
        prev = v
    return cf.Multigraph.from_adjacency(adj)


_OFFSET_CACHE: dict[tuple, np.ndarray] = {}


def _firing_offsets(G: cf.Multigraph, radius: int) -> np.ndarray:
    """Deduplicated L f over all firing vectors f with one coordinate
    pinned to zero and the rest in [-radius, radius], union over every
    choice of pinned coordinate.  Depends only on the graph, so sweeps
    of many divisors on one graph reuse it."""
    key = (G.adj, radius)
    got = _OFFSET_CACHE.get(key)
    if got is None:
        n = G.n
        L = cf.laplacian(G)
        fs = np.array(
            list(itertools.product(range(-radius, radius + 1), repeat=n - 1)),
            dtype=np.int64,
        )
        got = np.unique(
            np.concatenate(
                [
                    fs @ L[:, [c for c in range(n) if c != pin]].T
                    for pin in range(n)
                ]
            ),
            axis=0,
        )
        _OFFSET_CACHE[key] = got
    return got


def brute_members(G: cf.Multigraph, coeffs, radius: int = 10) -> set[tuple[int, ...]]:
    """Effective divisors reachable by firing vectors within the box,
    taking the union over every choice of pinned coordinate (mirroring
    the classical enumeration loop)."""
    D = np.array(coeffs, dtype=np.int64)
    if G.n == 1:
        return {tuple(D.tolist())} if D[0] >= 0 else set()
    cand = D + _firing_offsets(G, radius)
    eff = cand[(cand >= 0).all(axis=1)]
    return set(map(tuple, eff.tolist()))


def brute_rank(G: cf.Multigraph, coeffs, radius: int = 10) -> int:
    """Rank recomputed from scratch against the brute member sets."""
    n = G.n
    members = brute_members(G, coeffs, radius)
    if not members:
        return -1
    level = 0
    while True:
        for removal in itertools.product(range(level + 1), repeat=n):
            if sum(removal) != level:
                continue
            if not any(all(m[i] >= removal[i] for i in range(n)) for m in members):
                return level - 1
        level += 1


def flow_outcome(G: cf.Multigraph, coeffs) -> tuple[bool, int, tuple[bool, ...]]:
    """Exact generic-curve toric verdict (passed, kernel_dim,
    per_block_support) of an effective divisor, by combinatorics alone.

    The constraint matrix has independent generic entries, so its rank
    is its term rank (Edmonds 1967).  Every column of vertex v's block
    shares one zero pattern, so a maximum matching is an assignment of
    each edge row to one endpoint, vertex v taking at most d_v + 1 rows;
    it is grown one row at a time by augmenting paths.  With F rows
    assigned, kernel_dim = deg(d) + n - F.  Block v is supported iff some
    maximum assignment leaves v spare capacity: v has some, or can pass a
    row it holds along an alternating path to a vertex that has.
    """
    edges = G.edges()
    spare = [c + 1 for c in coeffs]
    holder: list[int | None] = [None] * len(edges)

    def path_to_spare(starts) -> tuple[int | None, dict]:
        # breadth-first over vertices; w -> u when w holds a row of edge wu
        parent = {s: None for s in starts}
        queue = list(starts)
        for w in queue:
            if spare[w]:
                return w, parent
            for r, (a, b) in enumerate(edges):
                if holder[r] == w and a + b - w not in parent:
                    parent[a + b - w] = (w, r)
                    queue.append(a + b - w)
        return None, parent

    for r, ends in enumerate(edges):
        w, parent = path_to_spare(ends)
        if w is None:
            continue
        spare[w] -= 1
        while parent[w] is not None:  # each row on the path moves one step on
            prev, moved = parent[w]
            holder[moved] = w
            w = prev
        holder[r] = w
    kernel_dim = sum(spare)
    support = tuple(path_to_spare((v,))[0] is not None for v in range(G.n))
    return kernel_dim >= 1 and all(support), kernel_dim, support


def subset_outcome(G: cf.Multigraph, coeffs) -> tuple[bool, int, tuple[bool, ...]]:
    """The exact toric verdict (passed, kernel_dim, per_block_support) in
    closed form over vertex subsets, by the max-flow min-cut dual of
    flow_outcome.

    With w = d + 1 and e(S) the edges inside S, the largest assignment
    leaves delta = max over S (the empty set included) of e(S) - w(S)
    rows unassigned, so kernel_dim = w(V) - |E| + delta.  Block v is
    supported iff every set S of largest excess misses v, that is
    max over S containing v of e(S) - w(S) < delta.
    """
    n = G.n
    edges = G.edges()
    excess = {}
    for size in range(n + 1):
        for S in itertools.combinations(range(n), size):
            inside = sum(a in S and b in S for a, b in edges)
            excess[S] = inside - sum(coeffs[u] + 1 for u in S)
    delta = max(excess.values())
    kernel_dim = sum(coeffs) + n - len(edges) + delta
    support = tuple(max(x for S, x in excess.items() if v in S) < delta for v in range(n))
    return kernel_dim >= 1 and all(support), kernel_dim, support


def break_divisors(G: cf.Multigraph) -> set[tuple[int, ...]]:
    """Every break divisor of G (An-Baker-Kuperberg-Shokrieh): for some
    spanning tree T, one chip on either endpoint of each edge outside T,
    parallel edges counted one by one."""
    n, edges = G.n, G.edges()
    found = set()
    for tree in itertools.combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for i in tree:
            a, b = root(edges[i][0]), root(edges[i][1])
            if a == b:
                break
            parent[a] = b
        else:
            rest = [edges[i] for i in range(len(edges)) if i not in tree]
            for ends in itertools.product(*rest):
                found.add(tuple(ends.count(v) for v in range(n)))
    return found


def brute_toric_rank(G: cf.Multigraph, coeffs, radius: int = 10) -> tuple[int, tuple[int, ...]]:
    """Toric rank and witness from the definition: scan levels upward,
    list the removals E of each level lexicographically, and let E
    survive iff some member of brute_members(G, D - E) passes the exact
    flow_outcome test.  Verdicts are cached per candidate only."""
    verdicts: dict[tuple[int, ...], bool] = {}

    def passes(m: tuple[int, ...]) -> bool:
        if m not in verdicts:
            verdicts[m] = flow_outcome(G, m)[0]
        return verdicts[m]

    level = 0
    while True:
        for removal in itertools.product(range(level + 1), repeat=G.n):
            if sum(removal) != level:
                continue
            rest = [c - e for c, e in zip(coeffs, removal)]
            if not any(passes(m) for m in sorted(brute_members(G, rest, radius))):
                return level - 1, removal
        level += 1


def greedy_winnable(G: cf.Multigraph, coeffs, max_rounds: int = 10_000) -> bool:
    """Debt-chasing play: the lowest-indexed vertex in debt borrows from
    its neighbors until no vertex is in debt or the round budget runs
    out.  Declares unwinnable on budget exhaustion, so only trust it on
    instances where the budget is generous."""
    state = list(coeffs)
    if sum(state) < 0:
        return False
    L = cf.laplacian(G)
    for _ in range(max_rounds):
        debtor = next((i for i, c in enumerate(state) if c < 0), None)
        if debtor is None:
            return True
        # borrowing at the debtor adds column `debtor` of the Laplacian
        for j in range(G.n):
            state[j] += int(L[j][debtor])
    return False


def naive_kernel_basis(M: cf.NodeConstraintMatrix) -> list[tuple[int, ...]]:
    """Canonical right-kernel basis of M over F_p by textbook Gauss-Jordan
    elimination: every row reduced modulo p after every update, pivots
    cleared above and below.  One vector per free column, 1 at the free
    position."""
    p = M.modulus
    ncols = M.n_cols
    rows = [list(r) for r in M.entries]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc] % p
        basis.append(tuple(v))
    return basis


@st.composite
def graph_and_divisor(draw):
    """A connected multigraph with n <= 5 and multiplicity <= 2, and a
    divisor whose positive chips number at most 8 // (n - 1)."""
    n = draw(st.integers(1, 5))
    adj = [[0] * n for _ in range(n)]
    for j in range(1, n):  # a spanning tree keeps the graph connected
        i = draw(st.integers(0, j - 1))
        adj[i][j] = adj[j][i] = draw(st.integers(1, 2))
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i][j] == 0:
                adj[i][j] = adj[j][i] = draw(st.integers(0, 2))
    chips = draw(st.integers(0, 8 // max(1, n - 1)))
    coeffs = [0] * n
    for v in draw(st.lists(st.integers(0, n - 1), min_size=chips, max_size=chips)):
        coeffs[v] += 1
    for v in range(n):
        if coeffs[v] == 0:
            coeffs[v] = -draw(st.integers(0, 1))
    return cf.Multigraph.from_adjacency(adj), tuple(coeffs)


def flag_verdicts(monkeypatch, flagged):
    """Make toric_effective_test report a trial disagreement on every
    (graph, coefficients) pair for which flagged(G, coeffs) holds."""
    real = cf.toric.toric_effective_test

    def flagging(G, d, config=None):
        out = real(G, d, config)
        if flagged(G, tuple(d.coeffs)):
            out = dataclasses.replace(out, trial_disagreement=True)
        return out

    monkeypatch.setattr(cf.toric, "toric_effective_test", flagging)
