"""Connected multigraphs, integer divisors, and point specialization.

The adjacency matrix is the primary representation: a symmetric matrix of
nonnegative integers with zero diagonal, where entry (i, j) counts the
edges joining vertices i and j.  Loops are rejected.  Connectivity is
checked at construction, so every ``Multigraph`` in circulation satisfies
the assumptions the rank theory downstream relies on.

Vertices carry 0-based indices internally.  ``PointPlacement`` uses
1-based component labels, matching the usual numbering of graph-curve
components, and ``specialize`` converts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "InvalidGraphError",
    "PlacementError",
    "Divisor",
    "Multigraph",
    "PointPlacement",
    "is_connected",
    "laplacian",
    "genus",
    "canonical_divisor",
    "degree",
    "max_vertex_degree",
    "specialize",
    "path_graph",
    "cycle_graph",
    "complete_graph",
]


class InvalidGraphError(ValueError):
    """Adjacency input is not a connected loopless multigraph."""


class PlacementError(ValueError):
    """A point placement references a component outside 1..n."""


def _as_ints(values: Iterable[object]) -> tuple[int, ...]:
    """values as a tuple of Python ints.  Integers are accepted (numpy
    integers included); anything else, bool and 1.5 among them, raises
    TypeError instead of being truncated or read as 0/1."""
    values = tuple(values)
    if bool in map(type, values):
        raise TypeError(f"expected integers, got {values!r}")
    return tuple(map(operator.index, values))


@dataclass(frozen=True, slots=True)
class Divisor:
    """Integer chip assignment on the vertices of a graph.

    Coefficients must be integers (numpy integers included); anything
    else, such as 1.5 or True, raises TypeError.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = _as_ints(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, n: int) -> "Divisor":
        return cls((0,) * n)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]

    def __add__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        self._check_length(other)
        return Divisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        self._check_length(other)
        return Divisor(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Divisor":
        return Divisor(tuple(-a for a in self.coeffs))

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def dominates(self, other: "Divisor") -> bool:
        """Componentwise ``self >= other``; other must be a Divisor."""
        if not isinstance(other, Divisor):
            raise TypeError(f"dominates needs a Divisor, got {type(other).__name__}")
        self._check_length(other)
        return all(a >= b for a, b in zip(self.coeffs, other.coeffs))

    def as_array(self) -> np.ndarray:
        """The coefficients as an int64 array; ValueError when one is
        outside the int64 range."""
        try:
            return np.array(self.coeffs, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"divisor {self.coeffs} has an entry outside int64") from None

    def _check_length(self, other: "Divisor") -> None:
        if len(other.coeffs) != len(self.coeffs):
            raise ValueError(
                f"divisor length mismatch: {len(self.coeffs)} vs {len(other.coeffs)}"
            )


DivisorLike = Union[Divisor, Sequence[int]]


def _divisor_from_ints(coeffs: tuple[int, ...]) -> Divisor:
    """Divisor over a tuple of Python ints, without the checks of
    __post_init__: for rows that ndarray.tolist() produced, which hold
    nothing else."""
    div = object.__new__(Divisor)
    object.__setattr__(div, "coeffs", coeffs)
    return div


def _coerce_divisor(d: DivisorLike, n: int | None = None) -> Divisor:
    div = d if isinstance(d, Divisor) else Divisor(tuple(d))
    if n is not None and len(div) != n:
        raise ValueError(f"divisor has {len(div)} entries, graph has {n} vertices")
    return div


def _validate_adjacency(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    if len(rows) == 0:
        raise InvalidGraphError("graph needs at least one vertex")
    n = len(rows)
    out = []
    for i, row in enumerate(rows):
        row = tuple(row)
        if len(row) != n:
            raise InvalidGraphError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise InvalidGraphError(f"entry ({i}, {j}) is not an integer: {v!r}")
            if v < 0:
                raise InvalidGraphError(f"entry ({i}, {j}) is negative")
        if row[i] != 0:
            raise InvalidGraphError(f"loop at vertex {i}: diagonal must be zero")
        row = tuple(int(v) for v in row)
        if sum(row) >= 1 << 63:
            raise InvalidGraphError(f"vertex {i} has degree outside the int64 range")
        out.append(row)
    for i in range(n):
        for j in range(i + 1, n):
            if out[i][j] != out[j][i]:
                raise InvalidGraphError(f"asymmetric entries at ({i}, {j})")
    return tuple(out)


def _connected(adj: Sequence[Sequence[int]]) -> bool:
    """Depth-first search over a nonempty integer adjacency matrix."""
    n = len(adj)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if adj[v][w] > 0 and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def is_connected(graph: "Multigraph | Sequence[Sequence[int]]") -> bool:
    """True iff the multigraph on the given adjacency matrix is connected.

    Accepts either a ``Multigraph`` (trivially true by construction) or a
    raw adjacency matrix, which is validated as ``Multigraph`` validates
    it: a non-integer, bool, negative, asymmetric or diagonal entry, or
    an empty matrix, raises ``InvalidGraphError``.  A single vertex
    counts as connected.
    """
    if isinstance(graph, Multigraph):
        return True
    return _connected(_validate_adjacency(graph))


@dataclass(frozen=True)
class Multigraph:
    """Connected multigraph stored by its adjacency matrix."""

    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        adj = _validate_adjacency(self.adj)
        if not _connected(adj):
            raise InvalidGraphError("graph is not connected")
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_adjacency(cls, rows: Sequence[Sequence[int]]) -> "Multigraph":
        return cls(tuple(tuple(r) for r in rows))

    @property
    def n(self) -> int:
        return len(self.adj)

    def adjacency_array(self) -> np.ndarray:
        """Fresh writable copy of the adjacency matrix."""
        return np.array(self.adj, dtype=np.int64)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical edge list: pairs (i, j) with i < j, each repeated
        once per parallel edge, ordered by (i, j, copy)."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                out.extend([(i, j)] * self.adj[i][j])
        return tuple(out)

    def edge_count(self) -> int:
        return sum(self.adj[i][j] for i in range(self.n) for j in range(i + 1, self.n))

    def vertex_degrees(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.adj)


def laplacian(G: Multigraph) -> np.ndarray:
    """Laplacian matrix ``diag(degrees) - adjacency`` as an integer array.

    Rows and columns each sum to zero; for connected G the kernel is the
    constant vectors, so the matrix has rank n - 1.
    """
    a = G.adjacency_array()
    return np.diag(a.sum(axis=1)) - a


def genus(G: Multigraph) -> int:
    """First Betti number |E| - |V| + 1 (0 exactly for trees)."""
    return G.edge_count() - G.n + 1


def canonical_divisor(G: Multigraph) -> Divisor:
    """The divisor with deg(v) - 2 chips at each vertex; its total degree
    is 2*genus - 2."""
    return Divisor(tuple(d - 2 for d in G.vertex_degrees()))


def degree(D: DivisorLike) -> int:
    """Total number of chips of a divisor.  A raw sequence must hold
    integers; 1.5 or True raises TypeError, as in ``Divisor``."""
    return sum(D.coeffs if isinstance(D, Divisor) else _as_ints(D))


def max_vertex_degree(G: Multigraph) -> int:
    """Largest vertex degree.  Utility only; nothing downstream keys on it."""
    return max(G.vertex_degrees())


@dataclass(frozen=True)
class PointPlacement:
    """Multiset of points on components, as (component, multiplicity) pairs.

    Components are labeled 1..n.  Multiplicities may be negative, so a
    placement can describe poles as well as points.  Both must be
    integers (numpy integers included); anything else, bool included,
    raises TypeError.
    """

    points: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pts = tuple(_as_ints((c, m)) for c, m in self.points)
        object.__setattr__(self, "points", pts)


def specialize(G: Multigraph, placement: "PointPlacement | Iterable[tuple[int, int]]") -> Divisor:
    """Sum the multiplicities landing on each component.

    Points in the smooth locus of a component contribute to that
    component's coefficient regardless of position, so the placement only
    records which component each point lies on.
    """
    if not isinstance(placement, PointPlacement):
        placement = PointPlacement(tuple(placement))
    n = G.n
    coeffs = [0] * n
    for comp, mult in placement.points:
        if not 1 <= comp <= n:
            raise PlacementError(f"component {comp} outside 1..{n}")
        coeffs[comp - 1] += mult
    return Divisor(tuple(coeffs))


def path_graph(n: int) -> Multigraph:
    """Path on n vertices (a tree; genus 0)."""
    adj = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        adj[i][i + 1] = adj[i + 1][i] = 1
    return Multigraph.from_adjacency(adj)


def cycle_graph(n: int) -> Multigraph:
    """Cycle on n >= 2 vertices; for n = 2 this is the double edge."""
    if n < 2:
        raise InvalidGraphError("cycle needs at least 2 vertices")
    adj = [[0] * n for _ in range(n)]
    if n == 2:
        adj[0][1] = adj[1][0] = 2
    else:
        for i in range(n):
            j = (i + 1) % n
            adj[i][j] += 1
            adj[j][i] += 1
    return Multigraph.from_adjacency(adj)


def complete_graph(n: int) -> Multigraph:
    adj = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    return Multigraph.from_adjacency(adj)
