"""Divisor rank and the graph Riemann-Roch identity.

The rank of D is the largest r such that removing any r chips (any
effective divisor of degree r) leaves a divisor with nonempty linear
system; it is -1 when |D| itself is empty.  The search mirrors the
classical loop: compute |D| once, then test chip removals level by level
in lexicographic order until one fails.  toric_rank runs the same scan
with a different survival test, so both live in ``_rank_scan``.
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
from .linsys import _ELEMENT_BUDGET, _compositions_array, _members

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
    arr = _compositions_array(n, d, -window, d + window)
    return tuple(Divisor(tuple(row)) for row in arr.tolist())


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


def _rank_scan(
    G: Multigraph, D: Divisor, passes: Callable[[np.ndarray], bool] | None = None
) -> RankResult:
    """The removal scan shared by rank and toric_rank.

    A removal E survives iff some member m of |D| dominates it and, when
    passes is given, passes(m - E) holds; the members m - E are exactly
    |D - E|.  passes is called lazily: members in order until one passes,
    and the scan stops at the first removal that does not survive.
    Terminates because no member dominates a removal of degree(D) + 1
    chips.
    """
    n = G.n
    if degree(D) < 0:
        # negative total degree: no effective divisor is reachable
        return RankResult(-1, Divisor.zero(n))
    members = _members(G, D)
    if len(members) == 0:
        return RankResult(-1, Divisor.zero(n))
    for level in range(degree(D) + 2):
        for chunk, dom in _dominance_blocks(_compositions_array(n, level), members):
            if passes is None:
                failed = (~dom.any(axis=1)).nonzero()[0]
            else:
                failed = (
                    i
                    for i, row in enumerate(chunk)
                    if not any(passes(members[j] - row) for j in dom[i].nonzero()[0])
                )
            first = next(iter(failed), None)
            if first is not None:
                return RankResult(level - 1, _divisor_from_ints(tuple(chunk[first].tolist())))
    raise RuntimeError("rank search exceeded its degree bound")


def rank(G: Multigraph, D: DivisorLike) -> RankResult:
    """Baker-Norine rank of D with its failing removal witness."""
    return _rank_scan(G, _coerce_divisor(D, G.n))


def verify_rr_graph(G: Multigraph, D: DivisorLike) -> bool:
    """Riemann-Roch for graphs:
    rank(D) - rank(K - D) == degree(D) + 1 - genus(G)."""
    D = _coerce_divisor(D, G.n)
    K = canonical_divisor(G)
    lhs = rank(G, D).rank - rank(G, K - D).rank
    return lhs == degree(D) + 1 - genus(G)
