"""Divisor rank and the graph Riemann-Roch identity.

The rank of D is the largest r such that removing any r chips (any
effective divisor of degree r) leaves a divisor with nonempty linear
system; it is -1 when |D| itself is empty.  The search mirrors the
classical loop: compute |D| once, then test chip removals level by level
in lexicographic order until one fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .graphs import Divisor, DivisorLike, Multigraph, _coerce_divisor, canonical_divisor, degree, genus
from .linsys import _ELEMENT_BUDGET, _members_cached

__all__ = [
    "RankResult",
    "effective_divisors_of_degree",
    "non_effective_divisors_of_degree",
    "rank",
    "verify_rr_graph",
]


@dataclass(frozen=True)
class RankResult:
    """Rank value plus the lexicographically first chip removal of degree
    rank + 1 whose linear system is empty."""

    rank: int
    witness_failure: Divisor


@lru_cache(maxsize=256)
def _compositions_array(n: int, d: int) -> np.ndarray:
    """All nonnegative integer n-vectors summing to d, lexicographically
    ascending, as a read-only (C(d+n-1, n-1), n) array."""
    if n == 1:
        arr = np.array([[d]], dtype=np.int64)
    else:
        parts = []
        for first in range(d + 1):
            rest = _compositions_array(n - 1, d - first)
            block = np.empty((len(rest), n), dtype=np.int64)
            block[:, 0] = first
            block[:, 1:] = rest
            parts.append(block)
        arr = np.vstack(parts) if parts else np.empty((0, n), dtype=np.int64)
    arr.flags.writeable = False
    return arr


def effective_divisors_of_degree(n: int, d: int) -> tuple[Divisor, ...]:
    """The C(d+n-1, n-1) effective divisors of degree d on n vertices,
    lexicographically ascending."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if d < 0:
        raise ValueError("effective divisors have nonnegative degree")
    arr = _compositions_array(n, d)
    if len(arr) != comb(d + n - 1, n - 1):
        raise ArithmeticError("composition count does not match C(d + n - 1, n - 1)")
    return tuple(Divisor(tuple(int(x) for x in row)) for row in arr)


def _window_rows(n: int, d: int, window: int) -> list[tuple[int, ...]]:
    lo = -window
    hi = d + window
    out: list[tuple[int, ...]] = []
    row = [0] * n

    def rec(i: int, remaining: int) -> None:
        if i == n - 1:
            if lo <= remaining <= hi:
                row[i] = remaining
                out.append(tuple(row))
            return
        slots = n - 1 - i
        lo_i = max(lo, remaining - slots * hi)
        hi_i = min(hi, remaining - slots * lo)
        for x in range(lo_i, hi_i + 1):
            row[i] = x
            rec(i + 1, remaining - x)

    rec(0, d)
    return out


@lru_cache(maxsize=64)
def _window_divisors_array(n: int, d: int, window: int) -> np.ndarray:
    arr = np.array(_window_rows(n, d, window), dtype=np.int64).reshape(-1, n)
    arr.flags.writeable = False
    return arr


def non_effective_divisors_of_degree(n: int, d: int, window: int) -> tuple[Divisor, ...]:
    """Degree-d divisors with every entry in [-window, d + window],
    lexicographically ascending.

    Despite the name (kept for continuity with the experiment drivers)
    the set includes the effective divisors of degree d; it is the finite
    search window used when sweeping a whole degree class.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if window < 0:
        raise ValueError("window must be nonnegative")
    arr = _window_divisors_array(n, d, window)
    return tuple(Divisor(tuple(int(x) for x in row)) for row in arr)


def _dominance_blocks(removals: np.ndarray, members: np.ndarray):
    """Yield (chunk, dom) over consecutive chunks of removals, with
    ``dom[i, j]`` true iff members[j] >= chunk[i] componentwise.

    The comparison runs in blocks along both axes, so no broadcast holds
    more than ``_ELEMENT_BUDGET`` entries however large |D| is.
    """
    n = removals.shape[1]
    rows = max(1, _ELEMENT_BUDGET // (n * len(members)))
    cols = max(1, _ELEMENT_BUDGET // (n * rows))
    for start in range(0, len(removals), rows):
        chunk = removals[start : start + rows]
        dom = np.empty((len(chunk), len(members)), dtype=bool)
        for m0 in range(0, len(members), cols):
            block = members[m0 : m0 + cols]
            dom[:, m0 : m0 + cols] = (chunk[:, None, :] <= block[None, :, :]).all(axis=2)
        yield chunk, dom


def rank(G: Multigraph, D: DivisorLike) -> RankResult:
    """Baker-Norine rank of D with its failing removal witness.

    Terminates because any removal of degree(D) + 1 chips leaves negative
    degree, hence an empty linear system.
    """
    D = _coerce_divisor(D, G.n)
    n = G.n
    if degree(D) < 0:
        # negative total degree: no effective divisor is reachable, and
        # the underlying real firing polytope is already empty
        return RankResult(-1, Divisor.zero(n))
    _, members = _members_cached(G, D)
    if len(members) == 0:
        return RankResult(-1, Divisor.zero(n))
    level = 0
    while True:
        removals = _compositions_array(n, level)
        for chunk, dom in _dominance_blocks(removals, members):
            covered = dom.any(axis=1)
            if not covered.all():
                idx = int(np.argmin(covered))
                witness = Divisor(tuple(int(x) for x in chunk[idx]))
                return RankResult(level - 1, witness)
        level += 1
        if level > degree(D) + 1:
            raise RuntimeError("rank search exceeded its degree bound")


def verify_rr_graph(G: Multigraph, D: DivisorLike) -> bool:
    """Riemann-Roch for graphs:
    rank(D) - rank(K - D) == degree(D) + 1 - genus(G)."""
    D = _coerce_divisor(D, G.n)
    K = canonical_divisor(G)
    lhs = rank(G, D).rank - rank(G, K - D).rank
    return lhs == degree(D) + 1 - genus(G)
