"""Divisor rank and the graph Riemann-Roch identity.

The rank of D is the largest r such that removing any r chips (any
effective divisor of degree r) leaves a divisor with nonempty linear
system; it is -1 when |D| itself is empty.  The search mirrors the
classical loop: compute |D| once, then test chip removals level by level
in lexicographic order until one fails.  A removal survives when some
member dominates it, which ``_dominance_blocks`` decides for a block of
removals at a time.  toric_rank runs the same scan with a different
survival test, so both live in ``_rank_scan``, and both Riemann-Roch
checks read one residual, ``_rr_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from .graphs import (
    Divisor,
    DivisorLike,
    Multigraph,
    _coerce_divisor,
    _divisor_from_ints,
    canonical_divisor,
    degree,
    genus,
)
from .linsys import _ELEMENT_BUDGET, _compositions_array, _members, _window_table

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
    return tuple(Divisor(tuple(row)) for row in arr.tolist())


def non_effective_divisors_of_degree(n: int, d: int, window: int) -> tuple[Divisor, ...]:
    """Degree-d divisors with every entry in [-window, d + window],
    lexicographically ascending.

    Despite the name the set includes the effective divisors of degree
    d; it is the finite window the exhaustive driver sweeps per degree.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if window < 0:
        raise ValueError("window must be nonnegative")
    return tuple(Divisor(tuple(row)) for row in _window_table(n, d, window).tolist())


def _dominance_blocks(removals: np.ndarray, members: np.ndarray):
    """Yield (chunk, dom) over consecutive chunks of removals, with
    ``dom[i, j]`` true iff members[j] >= chunk[i] componentwise.

    dom starts as the 2-D comparison of the first coordinates, and the
    comparison of each other coordinate is ANDed into it in place, so
    each temporary is 2-D, one per coordinate.  Each member coordinate
    is read as one contiguous row of members.T.  Chunks hold as many
    removals as keep dom within ``_ELEMENT_BUDGET`` entries, and at
    least one; a one-removal dom is |D| entries, a byte per member
    against the 16n bytes the scan already holds per member.
    """
    n = removals.shape[1]
    rows = max(1, _ELEMENT_BUDGET // len(members))
    by_coordinate = np.ascontiguousarray(members.T)
    for start in range(0, len(removals), rows):
        chunk = removals[start : start + rows]
        wanted = chunk.T[:, :, None]
        dom = wanted[0] <= by_coordinate[0]
        for k in range(1, n):
            dom &= wanted[k] <= by_coordinate[k]
        yield chunk, dom


def _rank_scan(
    G: Multigraph, D: Divisor, survives: Callable[[np.ndarray], bool] | None = None
) -> RankResult:
    """The removal scan shared by rank and toric_rank.

    Without survives, a removal E survives iff some member of |D|
    dominates it.  With it, E survives iff survives(block) holds, where
    block is the array of m - E over the members m >= E in lexicographic
    order, exactly |D - E| and possibly empty; the caller decides which
    rows to test and in what order.  The scan stops at the first removal
    that does not survive, and terminates because no member dominates a
    removal of degree(D) + 1 chips.
    """
    n = G.n
    members = _members(G, D)
    if len(members) == 0:
        return RankResult(-1, Divisor.zero(n))
    for level in range(degree(D) + 2):
        for chunk, dom in _dominance_blocks(_compositions_array(n, level), members):
            if survives is None:
                failed = (~dom.any(axis=1)).nonzero()[0]
            else:
                failed = (i for i, row in enumerate(chunk) if not survives(members[dom[i]] - row))
            first = next(iter(failed), None)
            if first is not None:
                return RankResult(level - 1, _divisor_from_ints(tuple(chunk[first].tolist())))
    raise RuntimeError("rank search exceeded its degree bound")


def rank(G: Multigraph, D: DivisorLike) -> RankResult:
    """Baker-Norine rank of D with its failing removal witness."""
    return _rank_scan(G, _coerce_divisor(D, G.n))


def _rr_residual(
    G: Multigraph, D: DivisorLike, rank_of: Callable[[Divisor], int]
) -> tuple[int, int, int]:
    """(r, r_dual, residual) with r = rank_of(D), r_dual = rank_of(K - D)
    and residual = r - r_dual - (degree(D) + 1 - genus(G)), which is 0
    iff Riemann-Roch holds for D.  verify_rr_graph, verify_rr_toric and
    the CLI's rr-checks all read it."""
    D = _coerce_divisor(D, G.n)
    r = rank_of(D)
    r_dual = rank_of(canonical_divisor(G) - D)
    return r, r_dual, r - r_dual - degree(D) - 1 + genus(G)


def verify_rr_graph(G: Multigraph, D: DivisorLike) -> bool:
    """Riemann-Roch for graphs:
    rank(D) - rank(K - D) == degree(D) + 1 - genus(G)."""
    return _rr_residual(G, D, lambda E: rank(G, E).rank)[2] == 0
