"""Chip-firing action and complete linear-system enumeration.

A firing vector f assigns an integer to each vertex; positive values
borrow (the vertex takes one chip from each neighbor per unit), negative
values lend.  The group action is ``D + L f`` with L the Laplacian.  The
complete linear system |D| is the set of effective divisors equivalent
to D, computed exactly in one of two ways:

1. Filter.  Every member of |D| is a composition of d = deg(D), so when
   the table of compositions is small, ``C(d + n - 1, n - 1) * n <=
   _ELEMENT_BUDGET``, |D| is the rows of that table whose class key
   equals D's.  The table is cached and already lexicographically
   sorted, and the class data is one cached Smith form per graph, so a
   call costs one key product over the table: O(C(d + n - 1, n - 1) * n
   * k) for k nontrivial invariant factors.
2. Walk.  Above the budget, or when a class key would leave the int64
   range, Baker-Norine's greedy algorithm first finds one effective
   representative or proves there is none: a vertex in debt borrows,
   and D is unwinnable once every vertex has borrowed (negative degree
   is rejected up front).  Breadth-first search from it over the
   2^n - 2 proper nonempty subset firings, keeping effective results
   only, then reaches all of |D| (van Dobben de Bruyn-Gijswijt): if E
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

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from math import comb
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
    moved = laplacian(G) @ np.array(f, dtype=np.int64)
    return Divisor(tuple(int(c) + int(m) for c, m in zip(D.coeffs, moved)))


# ---------------------------------------------------------------------------
# divisor class keys (internal)
# ---------------------------------------------------------------------------
#
# D and D' are linearly equivalent iff D - D' lies in the image of the
# Laplacian.  Diagonalizing L as U L V = S with unimodular U, V makes the
# test cheap: y is in im(L) iff (U y)_i is divisible by S_ii (rows with
# S_ii = 0 must vanish exactly).  The tuple of residues is a complete
# invariant of the divisor class.  The class solver of the experiment
# drivers groups divisors by it and solves each class once, and the
# filter path of the member enumeration reads |D| off the composition
# table with it; so a graph is diagonalized at most once while its
# entry stays in the cache.  Keys keep only the nontrivial invariant
# factors: rows with S_ii = 1 say nothing and are dropped, and the rows
# with S_ii > 1 are reduced mod S_ii, so key entries stay below the
# largest factor even where U itself has entries past 2^40.  (The row
# with S_ii = 0 is +-(1, ..., 1) on a connected graph.)  Factors
# themselves pass 2^40 on some 16-vertex graphs, so the int64 bound is
# checked per batch, on the product that can overflow.  Only the key is
# derived; no reduced representative divisor is ever produced or
# exposed.


def _snf_left(M: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Diagonalize the integer matrix with row ops tracked: returns (U, diag)
    with U M V diagonal for some unimodular V (V is discarded)."""
    A = [list(map(int, row)) for row in M]
    n = len(A)
    m = len(A[0])
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def add_row(src, dst, q):  # row[dst] += q * row[src]
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    def add_col(src, dst, q):
        for row in A:
            row[dst] += q * row[src]

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
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]
                U[t] = [-x for x in U[t]]
            dirty = False
            for i in range(n):
                if i != t and A[i][t]:
                    q = -(A[i][t] // A[t][t])
                    add_row(t, i, q)
                    if A[i][t]:
                        dirty = True
            for j in range(m):
                if j != t and A[t][j]:
                    q = -(A[t][j] // A[t][t])
                    add_col(t, j, q)
                    if A[t][j]:
                        dirty = True
            if not dirty and all(A[i][t] == 0 for i in range(n) if i != t) and all(
                A[t][j] == 0 for j in range(m) if j != t
            ):
                break
        # pivot settled; continue with the trailing block
    diag = tuple(A[i][i] if i < m else 0 for i in range(min(n, m)))
    return tuple(tuple(row) for row in U), diag


@lru_cache(maxsize=256)
def _class_data(G: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """The key rows of U (reduced mod their invariant factor) and those
    factors, for the invariant factors other than 1; both read-only."""
    U, diag = _snf_left(laplacian(G).tolist())
    kept = [(tuple(x % s for x in row) if s else row, s) for row, s in zip(U, diag) if s != 1]
    if any(s >= 1 << 62 for _, s in kept):
        raise OverflowError("invariant factor of the Laplacian past 2^62")
    rows = np.array([row for row, _ in kept], dtype=np.int64).reshape(len(kept), G.n)
    moduli = np.array([s for _, s in kept], dtype=np.int64)
    rows.flags.writeable = moduli.flags.writeable = False
    return rows, moduli


def _class_keys_batch(G: Multigraph, divisors: np.ndarray) -> np.ndarray:
    """Class keys for an (m, n) array of divisors, one key row each.

    Each key entry is a sum of n products of a divisor entry and a key
    row entry, so int64 holds it while max|U| * n * max|D| < 2^63.
    """
    U, moduli = _class_data(G)
    divisors = np.asarray(divisors, dtype=np.int64)
    largest = max(int(divisors.max(initial=0)), -int(divisors.min(initial=0)))
    if int(np.abs(U).max(initial=0)) * G.n * largest >= 1 << 63:
        raise OverflowError("class key past the int64 range")
    keys = divisors @ U.T
    return np.remainder(keys, moduli, out=keys, where=moduli != 0)


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

    def __contains__(self, d: object) -> bool:
        return d in self.divisors

    def is_empty(self) -> bool:
        return not self.divisors


# Largest number of entries in one broadcast block, for the member walk
# here and the domination tests of rank and toric_rank; also the largest
# composition table the member filter keys.
_ELEMENT_BUDGET = 1 << 20


def _effective_representative(L: np.ndarray, d: np.ndarray) -> np.ndarray | None:
    """One effective divisor equivalent to d, or None when there is none.

    Baker-Norine greedy algorithm.  A debtor borrows as many times as its
    own debt needs in one step; that is the same as choosing it again
    and again while it stays in debt.
    """
    if d.sum() < 0:
        return None
    d = d.copy()
    borrowed = np.zeros(len(d), dtype=bool)
    while True:
        debtors = np.flatnonzero(d < 0)
        if len(debtors) == 0:
            return d
        if borrowed.all():
            return None
        v = debtors[0]
        d -= (d[v] // L[v, v]) * L[:, v]  # ceil(-d[v] / deg(v)) borrowings
        borrowed[v] = True


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
    array."""
    if hi is None:
        hi = d
    if n == 1:
        arr = np.array([[d]] if lo <= d <= hi else [], dtype=np.int64).reshape(-1, 1)
    else:
        parts = [np.empty((0, n), dtype=np.int64)]
        for first in range(max(lo, d - (n - 1) * hi), min(hi, d - (n - 1) * lo) + 1):
            rest_sum = d - first
            # hi clipped to what one entry of the rest can reach, so that
            # equal sets share a cache key across levels
            rest = _compositions_array(n - 1, rest_sum, lo, min(hi, rest_sum - (n - 2) * lo))
            block = np.empty((len(rest), n), dtype=np.int64)
            block[:, 0] = first
            block[:, 1:] = rest
            parts.append(block)
        arr = np.vstack(parts)
    arr.flags.writeable = False
    return arr


def _filter_members(G: Multigraph, D: Divisor) -> np.ndarray:
    """|D| as the compositions of deg(D) in the class of D, in table
    order.  Raises OverflowError where class keys leave int64."""
    comps = _compositions_array(G.n, degree(D))
    key = _class_keys_batch(G, D.as_array()[None, :])
    return comps[(_class_keys_batch(G, comps) == key).all(axis=1)]


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


def _compute_members(G: Multigraph, D: Divisor) -> np.ndarray:
    """|D| by the filter while the composition table of deg(D) fits the
    element budget and its keys fit int64, else by the walk."""
    d = degree(D)
    if d >= 0 and comb(d + G.n - 1, G.n - 1) * G.n <= _ELEMENT_BUDGET:
        with suppress(OverflowError):
            return _filter_members(G, D)
    return _walk_members(G, D)


@lru_cache(maxsize=256)
def _members(G: Multigraph, D: Divisor) -> np.ndarray:
    """The members of |D| as a read-only array, one row each in
    lexicographic order.  Keyed by the divisor itself: equivalent
    divisors are separate entries."""
    arr = _compute_members(G, D)
    arr.flags.writeable = False
    return arr


def linear_system(G: Multigraph, D: DivisorLike) -> LinearSystem:
    """All effective divisors linearly equivalent to D, or empty."""
    D = _coerce_divisor(D, G.n)
    if degree(D) <= -1:
        return LinearSystem(D, ())
    return LinearSystem(D, tuple(_divisor_from_ints(tuple(row)) for row in _members(G, D).tolist()))


def is_effective_equivalent(G: Multigraph, D: DivisorLike) -> bool:
    """True iff some effective divisor is equivalent to D, i.e. |D| is
    nonempty.  Decided by the reduction alone, without enumerating |D|."""
    D = _coerce_divisor(D, G.n)
    return _effective_representative(laplacian(G), D.as_array()) is not None
