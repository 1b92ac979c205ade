"""Chip-firing action and complete linear-system enumeration.

A firing vector f assigns an integer to each vertex; positive values
borrow (the vertex takes one chip from each neighbor per unit), negative
values lend.  The group action is ``D + L f`` with L the Laplacian.  The
complete linear system |D| is the set of effective divisors equivalent
to D, computed exactly in one of two ways:

1. Table.  Every member of |D| is a composition of d = deg(D), so when
   the table of compositions is small, ``C(d + n - 1, n - 1) * n <=
   _ELEMENT_BUDGET``, |D| is the rows of that table whose class code
   equals D's.  ``_class_members`` is the one reader of the table: it
   takes a batch of divisors of one degree, codes the table once, and
   answers one divisor with a mask over the codes and a batch with one
   stable sort of them.  The table is cached and already
   lexicographically sorted, and the class data is one cached Smith
   form per graph, so a read costs one key product over the table:
   O(C(d + n - 1, n - 1) * n * k) for k nontrivial invariant factors,
   plus the sort for a batch.
2. Walk.  Above the budget, Baker-Norine's greedy algorithm first finds
   one effective representative or proves there is none: a vertex in
   debt borrows, and D is unwinnable once every vertex has borrowed
   (negative degree is rejected up front).  Breadth-first search from
   it over the 2^n - 2 proper nonempty subset firings, keeping
   effective results only, then reaches all of |D| (van Dobben de Bruyn-Gijswijt): if E
   and E' = E - L f are both effective and f is not constant, let S be
   the set where f is largest.  Each v in S holds E(v) >= (L f)(v)
   chips, at least one per edge leaving S, so firing S from E stays
   effective, and it leaves E' = E - L 1_S - L (f - 1_S) with
   max f - min f smaller by one.  The walk costs O(|D| * 2^n * n) time.
   Frontier and subset table are processed in chunks, so no candidate
   block holds more than ``_ELEMENT_BUDGET`` entries.

Both give the same array, row for row.  All arithmetic is on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul
from typing import Sequence

import numpy as np

from .graphs import (
    Divisor,
    DivisorLike,
    Multigraph,
    _as_ints,
    _coerce_divisor,
    _divisor_from_ints,
    degree,
    laplacian,
)

__all__ = [
    "FiringVector",
    "LinearSystem",
    "apply_firing",
    "linear_system",
    "is_effective_equivalent",
]

# A firing vector is any length-n integer sequence; no wrapper class is
# needed beyond length validation at the point of use.
FiringVector = Sequence[int]


def apply_firing(G: Multigraph, D: DivisorLike, f: FiringVector) -> Divisor:
    """The divisor ``D + L f``.

    A unit borrowing at v (f[v] = +1) adds deg(v) chips at v and removes
    adj(v, w) chips from each neighbor w.  Total degree is conserved.
    Entries of f must be integers (numpy integers included); anything
    else, bool included, raises TypeError instead of being truncated.
    """
    D = _coerce_divisor(D, G.n)
    f = _as_ints(f)
    if len(f) != G.n:
        raise ValueError(f"firing vector has {len(f)} entries, graph has {G.n} vertices")
    moved = (sum(map(mul, row, f)) for row in laplacian(G).tolist())
    return Divisor(tuple(c + m for c, m in zip(D.coeffs, moved)))


# ---------------------------------------------------------------------------
# divisor class keys (internal)
# ---------------------------------------------------------------------------
#
# D and D' are linearly equivalent iff D - D' lies in the image of the
# Laplacian.  Diagonalizing L as U L V = S with unimodular U, V makes the
# test cheap: y is in im(L) iff (U y)_i is divisible by S_ii (rows with
# S_ii = 0 must vanish exactly).  The tuple of residues is a complete
# invariant of the divisor class; ``_class_codes`` folds it and the
# degree into one integer per divisor.  The experiment drivers group
# divisors by that code and solve each class once; the exhaustive one's
# rank recursion over classes finds the children c - e_v of a class by
# coding those representatives here too.  ``_class_members`` reads |c|
# off the coded composition table of c's degree, for one class or a
# batch, so key arithmetic lives in this module alone.  So a graph is
# diagonalized at most once while its entry stays in the cache.  Keys
# keep only the nontrivial invariant factors: rows with S_ii = 1 say
# nothing and are dropped, and the rows with S_ii > 1 are reduced mod
# S_ii, so key entries stay below the largest factor even where U itself
# has entries past 2^40.  On a connected graph the one row with S_ii = 0
# is +-(1, ..., 1), so a row of ones takes its place and the last key
# entry is the degree.  Factors themselves pass 2^40 on some 16-vertex
# graphs and 2^62 on some 24-vertex ones, so the int64 bound is checked
# per batch, on the products that can overflow, and a batch past it is
# keyed and coded over Python ints; every graph gets exact codes.  Only
# the key is derived; no reduced representative divisor is ever
# produced or exposed.


def _snf_left(M: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Diagonalize the integer matrix with row ops tracked: returns (U, diag)
    with U M V diagonal for some unimodular V (V is discarded).

    The row operations run on [M | I], so its right half becomes U; the
    column operations touch only the first m columns."""
    n, m = len(M), len(M[0])
    A = [list(map(int, row)) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    for t in range(min(n, m)):
        while True:
            pi, pj, pv = -1, -1, 0
            for i in range(t, n):
                for j in range(t, m):
                    v = abs(A[i][j])
                    if v and (pv == 0 or v < pv):
                        pi, pj, pv = i, j, v
            if pv == 0:
                break
            A[t], A[pi] = A[pi], A[t]
            if pj != t:
                for row in A:
                    row[t], row[pj] = row[pj], row[t]
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]
            dirty = False
            for i in range(t + 1, n):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    dirty = dirty or A[i][t] != 0
            for j in range(t + 1, m):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for row in A:
                        row[j] -= q * row[t]
                    dirty = dirty or A[t][j] != 0
            # rows and columns before t are clear already; the row loop
            # leaves row t alone and the column loop column t, so dirty
            # says whether both are clear
            if not dirty:
                break
        # pivot settled; continue with the trailing block
    diag = tuple(A[i][i] if i < m else 0 for i in range(min(n, m)))
    return tuple(tuple(row[m:]) for row in A), diag


@lru_cache(maxsize=256)
def _class_data(G: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """The key rows and the invariant factors above 1, both read-only:
    the rows of U for those factors, reduced mod their factor, then a
    row of ones, which keys the degree.  Both hold Python ints (dtype
    object) when a factor passes 2^62, int64 otherwise."""
    U, diag = _snf_left(laplacian(G).tolist())
    kept = [(tuple(x % s for x in row), s) for row, s in zip(U, diag) if s > 1]
    dtype = object if any(s >= 1 << 62 for _, s in kept) else np.int64
    rows = np.array([row for row, _ in kept] + [(1,) * G.n], dtype=dtype)
    moduli = np.array([s for _, s in kept], dtype=dtype)
    rows.flags.writeable = moduli.flags.writeable = False
    return rows, moduli


def _class_keys_batch(G: Multigraph, divisors: np.ndarray) -> np.ndarray:
    """Class keys for an (m, n) array of divisors, one key row each: the
    residues mod the invariant factors, then the degree.

    Each key entry is a sum of n products of a divisor entry and a key
    row entry, so int64 holds it while max|U| * n * max|D| < 2^63.  Past
    that the products are taken over Python ints and reduced before the
    cast; the residues are below their factor, so the keys fit int64
    again.  Where a factor passes 2^62 the keys stay Python ints.
    """
    U, moduli = _class_data(G)
    divisors = np.asarray(divisors, dtype=np.int64)
    largest = max(int(divisors.max(initial=0)), -int(divisors.min(initial=0)))
    if U.dtype == np.int64 and int(np.abs(U).max()) * G.n * largest < 1 << 63:
        keys = divisors @ U.T
    else:
        keys = divisors.astype(object) @ U.T.astype(object)
    keys[:, :-1] %= moduli
    return keys.astype(moduli.dtype, copy=False)


def _class_codes(G: Multigraph, divisors: np.ndarray) -> np.ndarray:
    """One class code per row of an (m, n) array of divisors; two rows
    get equal codes iff they are equivalent.

    The code is the key row read in mixed radix, with place values 1,
    s_1, s_1 s_2, ..., kappa over the invariant factors s_i, whose
    product kappa(G) is the number of spanning trees (Kirchhoff), so the
    degree is the top digit.  It is an int64 while kappa(G) times (the
    largest |degree| + 1) stays below 2^63, else a Python int (dtype
    object) of the same value.  Both sort, compare and hash, so
    np.unique and dicts group by them, across batches too.
    """
    keys = _class_keys_batch(G, divisors)
    places = list(accumulate(_class_data(G)[1].tolist(), mul, initial=1))
    if places[-1] * (int(np.abs(keys[:, -1]).max(initial=0)) + 1) >= 1 << 63:
        return keys.astype(object) @ np.array(places, dtype=object)
    return keys @ np.array(places, dtype=np.int64)


# ---------------------------------------------------------------------------
# linear systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSystem:
    """The complete linear system of a divisor: every effective divisor
    linearly equivalent to the base, deduplicated and lexicographically
    sorted."""

    base: Divisor
    divisors: tuple[Divisor, ...]

    def __len__(self) -> int:
        return len(self.divisors)

    def __iter__(self):
        return iter(self.divisors)

    def __contains__(self, d: DivisorLike) -> bool:
        return _coerce_divisor(d, len(self.base)) in self.divisors

    def is_empty(self) -> bool:
        return not self.divisors


# Largest number of entries in one broadcast block, for the member walk
# here and the domination tests of rank and toric_rank; also the largest
# composition table ``_class_members`` codes.
_ELEMENT_BUDGET = 1 << 20


def _effective_representative(L: np.ndarray, d: np.ndarray) -> np.ndarray | None:
    """One effective divisor equivalent to d, or None when there is none.

    Baker-Norine greedy algorithm.  A debtor borrows as many times as its
    own debt needs in one step; that is the same as choosing it again
    and again while it stays in debt.  It runs over Python ints, since
    debts can pass int64 on the way.  The representative is effective
    with d's degree, so it fits int64 whenever the degree does; a degree
    of 2^63 or more raises ValueError.
    """
    d = d.tolist()
    total = sum(d)
    if total < 0:
        return None
    if total >= 1 << 63:
        raise ValueError(f"divisor degree {total} is outside the int64 range")
    L = L.tolist()
    borrowed = set()
    while True:
        v = next((v for v, c in enumerate(d) if c < 0), None)
        if v is None:
            return np.array(d, dtype=np.int64)
        if len(borrowed) == len(d):
            return None
        times = d[v] // L[v][v]  # -ceil(-d[v] / deg(v)) borrowings
        d = [c - times * row[v] for c, row in zip(d, L)]
        borrowed.add(v)


def _subset_moves(L: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Divisor changes ``-L 1_S`` of firing S, for the subsets S whose
    vertex bitmasks run from start to stop - 1."""
    masks = np.arange(start, stop, dtype=np.int64)
    indicators = (masks[:, None] >> np.arange(L.shape[0])) & 1
    return -(indicators @ L)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque fixed-width key per row, for set operations on rows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


@lru_cache(maxsize=256)
def _compositions_array(n: int, d: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """All integer n-vectors with entries in [lo, hi] summing to d
    (hi defaults to d), lexicographically ascending, as a read-only
    array.

    Built one entry at a time: each prefix is repeated once per value
    its next entry can take while the entries after it can still make
    up the rest of d, and the last entry is what remains, kept only if
    it lies in [lo, hi].  Every prefix kept ends some row, so each of
    the n - 1 levels is O(rows * n) numpy work; when d is large against
    n most prefixes appear at the last levels, and the whole build is
    close to O(rows * n).
    """
    if hi is None:
        hi = d
    table = np.zeros((1, n), dtype=np.int64)
    left = np.array([d], dtype=np.int64)  # d minus the sum of each prefix
    for j in range(n - 1):
        after = n - 1 - j  # entries after entry j
        first = np.maximum(lo, left - after * hi)
        counts = np.maximum(np.minimum(hi, left - after * lo) - first + 1, 0)
        table = np.repeat(table, counts, axis=0)
        # prefix p's copies take first[p], first[p] + 1, ... at entry j
        table[:, j] = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(len(table))
        left = np.repeat(left, counts) - table[:, j]
    table[:, -1] = left
    arr = table[(lo <= left) & (left <= hi)]
    arr.flags.writeable = False
    return arr


def _window_table(n: int, d: int, window: int) -> np.ndarray:
    """The divisors of degree d on n vertices with entries in
    [-window, d + window], lexicographically ascending."""
    return _compositions_array(n, d, -window, d + window)


def _walk_members(G: Multigraph, D: Divisor) -> np.ndarray:
    """|D| by the reduction and the subset-firing walk."""
    L = laplacian(G)
    n = G.n
    rep = _effective_representative(L, D.as_array())
    if rep is None:
        return np.empty((0, n), dtype=np.int64)
    stop = (1 << n) - 1  # the proper nonempty subsets are 1 .. stop - 1
    move_step = max(1, _ELEMENT_BUDGET // n)
    levels = [rep[None, :]]
    previous = levels[0][:0]
    frontier = levels[0]
    while len(frontier):
        known = _row_keys(np.vstack([previous, frontier]))
        found = [known]
        for start in range(1, stop, move_step):
            moves = _subset_moves(L, start, min(start + move_step, stop))
            step = max(1, _ELEMENT_BUDGET // (len(moves) * n))
            for f0 in range(0, len(frontier), step):
                cand = (frontier[f0 : f0 + step, None, :] + moves[None, :, :]).reshape(-1, n)
                found.append(_row_keys(cand[(cand >= 0).all(axis=1)]))
        # Firing the complement of S undoes firing S, so the moves make |D|
        # an undirected graph: the neighbours of one breadth-first level lie
        # in the level before it, in it, or in the next one.  Those two
        # levels come first in found, so a key first seen past them is new.
        keys, first = np.unique(np.concatenate(found), return_index=True)
        previous, frontier = frontier, keys[first >= len(known)].view(np.int64).reshape(-1, n)
        levels.append(frontier)
    members = np.vstack(levels)  # the levels are disjoint
    return members[np.lexsort(members.T[::-1])]


def _class_members(G: Multigraph, k: int, reps: np.ndarray) -> list[np.ndarray]:
    """|c| for each row c of an (m, n) array of divisors of degree k,
    each a new array in lexicographic order.

    While the composition table of k fits the element budget, |c| is
    the rows of that table with c's class code: a mask for one row (a
    sort makes a single read about 40% dearer), else one stable sort of
    the table's codes, so a batch costs no mask per class.  Otherwise
    each |c| comes from the walk.
    """
    n = G.n
    if len(reps) and k >= 0 and comb(k + n - 1, n - 1) * n <= _ELEMENT_BUDGET:
        comps = _compositions_array(n, k)
        codes, wanted = _class_codes(G, comps), _class_codes(G, reps)
        if len(reps) == 1:
            return [comps[codes == wanted[0]]]
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        lo = np.searchsorted(codes, wanted, "left").tolist()
        hi = np.searchsorted(codes, wanted, "right").tolist()
        return [comps[order[a:b]] for a, b in zip(lo, hi)]
    return [_walk_members(G, Divisor(tuple(r))) for r in reps.tolist()]


@lru_cache(maxsize=8)
def _members(G: Multigraph, D: Divisor) -> np.ndarray:
    """The members of |D| as a read-only array, one row each in
    lexicographic order, the one-row case of ``_class_members``.  Keyed
    by the divisor itself: equivalent divisors are separate entries.
    The arrays can be of any size and callers re-read only the last
    divisor or two (D, then K - D), so few are kept."""
    arr = _class_members(G, degree(D), D.as_array()[None, :])[0]
    arr.flags.writeable = False
    return arr


# Member Divisors already handed out, keyed by their coefficients, so
# that systems kept side by side hold one object for a member they have
# in common.  The least recently used is dropped first, so once callers
# drop their systems at most maxsize Divisors stay alive: about 19 MB on
# eight vertices, the cache's own links included.
@lru_cache(maxsize=1 << 16)
def _member(coeffs: tuple[int, ...]) -> Divisor:
    return _divisor_from_ints(coeffs)


def linear_system(G: Multigraph, D: DivisorLike) -> LinearSystem:
    """All effective divisors linearly equivalent to D, or empty.

    A member that an earlier call returned comes back as the same
    Divisor while the ``_member`` cache holds it."""
    D = _coerce_divisor(D, G.n)
    return LinearSystem(D, tuple(map(_member, map(tuple, _members(G, D).tolist()))))


def is_effective_equivalent(G: Multigraph, D: DivisorLike) -> bool:
    """True iff some effective divisor is equivalent to D, i.e. |D| is
    nonempty.  Decided by the reduction alone, without enumerating |D|."""
    D = _coerce_divisor(D, G.n)
    return _effective_representative(laplacian(G), D.as_array()) is not None
