"""Toric rank over a generic graph curve.

A divisor class is torically effective when some effective representative
d admits nonzero functions on the curve components that agree at the
nodes.  With one component per vertex and one node per edge, the
agreement conditions form a linear system: one row per edge, and for each
vertex i a block of d_i + 1 columns (the coefficients of a function basis
on component i).  Node points and basis evaluations are modeled by
uniform random elements of a large prime field, so every verdict here is
about a GENERIC curve with the given dual graph, not any specific curve.

False verdicts come only from accidental vanishing over the field and
are bounded by O(rows * cols / p) per matrix sample; with the default
modulus just above 10^10 and desk-scale graphs that is under 1e-7, and
the majority vote over independent samples drives it lower still.  Any
disagreement between samples is surfaced on the outcome, never retried
silently.

All randomness is position-addressed from explicit integer seeds, so
identical inputs give identical outcomes regardless of evaluation order.

Field elements are plain Python ints: products near p^2 ~ 1e20 exceed
64-bit range, so no field arithmetic here goes through numpy.  A trial
of toric_effective_test costs its blake2b entries and one elimination:
_fill writes each row as a list straight from the block spans of its
edge's two endpoints, and _eliminate reduces those lists in place, so
no NodeConstraintMatrix is built per trial (the public builders return
one, and kernel_basis and matrix_rank hand _eliminate fresh lists of its
entries).  The forward pass of _eliminate reduces the pivot row and
each elimination factor modulo p but leaves the rows it updates
unreduced (delayed modular reduction, as in Dumas-Giorgi-Pernet's
FFLAS-FFPACK), so their entries stay below rows * p^2, and it stops
each update at the pivot row's last nonzero entry; back-substitution
then gives the kernel basis at the pivot columns, one vector per free
column, and both toric modes read their verdicts off it.  Each test
hashes the (config.seed, G.adj, d.coeffs) prefix of its sample seeds
once, and each trial only its number.  The prime is checked once,
where it enters (ToricConfig and the two public matrix builders); the
per-trial matrices of toric_effective_test run no primality test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import compress
from operator import mul, sub
from typing import Sequence

import numpy as np

from .graphs import (
    Divisor,
    DivisorLike,
    Multigraph,
    _coerce_divisor,
    _divisor_from_ints,
)
from .linsys import _ELEMENT_BUDGET
from .rank import RankResult, _rank_scan, _rr_residual

__all__ = [
    "DEFAULT_PRIME",
    "NonEffectiveDivisorError",
    "NodeConstraintMatrix",
    "ToricConfig",
    "ToricOutcome",
    "ToricMemo",
    "is_prime",
    "next_prime",
    "derive_seed",
    "build_constraint_matrix",
    "constraint_matrix_from_pattern",
    "kernel_basis",
    "matrix_rank",
    "toric_effective_test",
    "toric_rank",
    "verify_rr_toric",
]


class NonEffectiveDivisorError(ValueError):
    """Raised when a constraint matrix is requested for a divisor with a
    negative coefficient."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for all inputs below 3.3e24."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def next_prime(m: int) -> int:
    """Smallest prime strictly greater than m."""
    c = m + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


DEFAULT_PRIME = 10_000_000_019  # next_prime(10**10)


def _check_prime(prime: int) -> None:
    if not is_prime(prime):
        raise ValueError(f"prime {prime} fails the primality check")


def _check_int_fields(obj: object, error: type[ValueError] = ValueError) -> None:
    """Raise error on a dataclass field annotated int, or int | None when
    set, that holds anything but an int: bool and float included."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" or (f.type == "int | None" and value is not None):
            if type(value) is not int:
                raise error(f"{f.name} must be an integer, got {value!r}")


_SEED_SEP = b"\x1f"


def _feed(h: hashlib.blake2b, *parts: object) -> hashlib.blake2b:
    """h after feeding it each part's repr and a separator, in order."""
    for part in parts:
        h.update(repr(part).encode())
        h.update(_SEED_SEP)
    return h


def derive_seed(*parts: object) -> int:
    """Collapse a tuple of hashable descriptors into a 64-bit seed.

    Uses a keyed position in a blake2b stream rather than Python's hash()
    so the value is stable across processes and interpreter runs.
    """
    return int.from_bytes(_feed(hashlib.blake2b(digest_size=8), *parts).digest(), "big")


def _field_element(seed: int, *tags: object, p: int, nonzero: bool = False) -> int:
    """Deterministic uniform field element addressed by (seed, tags)."""
    msg = ":".join([str(seed), *map(str, tags)]).encode()
    h = int.from_bytes(hashlib.blake2b(msg, digest_size=16).digest(), "big")
    if nonzero:
        return 1 + h % (p - 1)
    return h % p


_TORIC_MODES = ("block-projection", "random-vector")


@dataclass(frozen=True)
class ToricConfig:
    """Knobs for the generic-curve model.

    mode "block-projection" passes when the kernel is nontrivial and every
    vertex block is supported by some basis vector.  mode "random-vector"
    draws a single random kernel combination and requires every entry
    nonzero; it is stricter and has avoidable false negatives, but is kept
    for compatibility with the classical experiment scripts.
    """

    prime: int = DEFAULT_PRIME
    trials: int = 3
    mode: str = "block-projection"
    seed: int = 0
    nonzero_entries: bool = False

    def __post_init__(self) -> None:
        _check_int_fields(self)
        _check_prime(self.prime)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.mode not in _TORIC_MODES:
            raise ValueError(f"unknown toric mode {self.mode!r}")


@dataclass(frozen=True)
class NodeConstraintMatrix:
    """One row per edge (canonical order), one column block per vertex.

    Block i has width d_i + 1 for the candidate divisor d; the entry in
    row {i, j} may be nonzero only inside blocks i and j.  block_spans
    gives the half-open column range of each block.  modulus is taken as
    prime: the builders below and ToricConfig check it where it enters,
    and kernel_basis runs no check of its own.
    """

    entries: tuple[tuple[int, ...], ...]
    modulus: int
    block_spans: tuple[tuple[int, int], ...]

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        if self.entries:
            return len(self.entries[0])
        return self.block_spans[-1][1] if self.block_spans else 0


def _block_spans(d: Divisor) -> tuple[tuple[int, int], ...]:
    spans = []
    start = 0
    for c in d:
        spans.append((start, start + c + 1))
        start += c + 1
    return tuple(spans)


def _fill(
    row_runs: Sequence[Sequence[tuple[int, int]]], ncols: int, seed: int, prime: int, nonzero: bool
) -> list[list[int]]:
    """Fresh rows of ncols entries: generic field elements in the column
    ranges [lo, hi) that row_runs lists for each row, entry (r, c)
    addressed by (seed, r, c), and zeros elsewhere.

    Hashes the same bytes as _field_element(seed, r, c): a blake2b
    state fed "seed:" is copied and fed "r:" once per row, and that
    state is copied and fed "c" once per entry, so an entry costs one
    copy, one update and one digest.
    """
    suffixes = [b"%d" % c for c in range(ncols)]
    head = hashlib.blake2b(str(seed).encode() + b":", digest_size=16)
    modulus, offset = (prime - 1, 1) if nonzero else (prime, 0)
    rows = []
    for r, runs in enumerate(row_runs):
        base = head.copy()
        base.update(b"%d:" % r)
        row = [0] * ncols
        for lo, hi in runs:
            for c in range(lo, hi):
                h = base.copy()
                h.update(suffixes[c])
                row[c] = offset + int.from_bytes(h.digest(), "big") % modulus
        rows.append(row)
    return rows


def _is_flag(x: object) -> bool:
    """x is the integer 0 or 1 (numpy integers included); True, np.True_
    and 1.0 are not, as Multigraph and Divisor reject bools and floats."""
    return type(x) is not bool and isinstance(x, (int, np.integer)) and x in (0, 1)


def build_constraint_matrix(
    G: Multigraph,
    d: DivisorLike,
    rng_seed: int,
    *,
    prime: int = DEFAULT_PRIME,
    nonzero_entries: bool = False,
) -> NodeConstraintMatrix:
    """Node-compatibility matrix for an effective divisor d.

    Row r corresponds to edge r in canonical order (``G.edges()``); its
    generic entries occupy the two endpoint blocks and are addressed by
    (rng_seed, r, c), so the same seed always reproduces the same matrix.
    Columns total degree(d) + n and rows total |E| = n + g - 1.
    """
    d = _coerce_divisor(d, G.n)
    if not d.is_effective():
        raise NonEffectiveDivisorError(f"divisor {d.coeffs} has a negative coefficient")
    _check_prime(prime)
    spans = _block_spans(d)
    runs = [(spans[i], spans[j]) for i, j in G.edges()]
    rows = _fill(runs, spans[-1][1], rng_seed, prime, nonzero_entries)
    return NodeConstraintMatrix(tuple(map(tuple, rows)), prime, spans)


def constraint_matrix_from_pattern(
    mask_rows: Sequence[Sequence[int]],
    rng_seed: int,
    *,
    prime: int = DEFAULT_PRIME,
    block_spans: Sequence[tuple[int, int]] | None = None,
    nonzero_entries: bool = False,
) -> NodeConstraintMatrix:
    """Generic matrix with a prescribed zero pattern.

    mask_rows holds 0/1 flags; positions flagged 1 get a deterministic
    generic entry addressed exactly as in build_constraint_matrix.  When
    block_spans is omitted every column is its own width-1 block; given,
    the spans must be nonempty and cover the columns in order.
    """
    _check_prime(prime)
    ncols = len(mask_rows[0]) if len(mask_rows) else 0
    if ncols == 0 or any(len(r) != ncols or not all(map(_is_flag, r)) for r in mask_rows):
        raise ValueError("mask must be a nonempty rectangle of 0/1 flags")
    if block_spans is None:
        block_spans = [(c, c + 1) for c in range(ncols)]
    spans = tuple(map(tuple, block_spans))
    # block i must start where block i - 1 ends, the first at 0, the last ending at ncols
    if [0, *(hi for _, hi in spans)] != [*(lo for lo, _ in spans), ncols] or any(
        lo >= hi for lo, hi in spans
    ):
        raise ValueError(f"block spans {spans} do not tile {ncols} columns")
    runs = [[(c, c + 1) for c in compress(range(ncols), r)] for r in mask_rows]
    rows = _fill(runs, ncols, rng_seed, prime, nonzero_entries)
    return NodeConstraintMatrix(tuple(map(tuple, rows)), prime, spans)


def _eliminate(
    rows: list[list[int]], ncols: int, p: int
) -> tuple[list[int], list[int], list[list[int]]]:
    """Row reduction over F_p of the matrix whose rows, ncols entries in
    [0, p) each, are the lists in rows, as (pivots, free, ker): the pivot
    and free columns in ascending order, and ker[j], in [0, p), the
    entries at the pivot columns of the kernel vector that holds 1 at
    free[j] and 0 at the other free columns.

    Works in place: rows and the lists in it are reordered and
    overwritten, so callers hand it fresh lists.  The forward pass
    touches only the rows below a pivot and the columns right of it, up
    to the last nonzero entry of the pivot row.  The pivot row is
    normalized and reduced, and so is each factor row[c] % p; the rows
    it updates are not, so their entries stay below len(rows) * p^2 in
    absolute value.  Back-substitution then solves for one kernel vector
    per free column, pivot by pivot from the last; a free column left of
    pivot k holds 0 in reduced row k.
    """
    pivots: list[int] = []
    free: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            free.extend(range(c, ncols))
            break
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                break
        else:
            free.append(c)
            continue
        rows[r], rows[i] = rows[i], rows[r]
        piv, end = rows[r], ncols
        while not piv[end - 1]:
            end -= 1
        inv = pow(piv[c], -1, p)
        piv[c + 1 : end] = tail = [x * inv % p for x in piv[c + 1 : end]]
        for row in rows[r + 1 :]:
            f = row[c] % p
            if f:
                row[c + 1 : end] = map(sub, row[c + 1 : end], map(f.__mul__, tail))
        pivots.append(c)
    ker = []
    for fc in free:
        v = [0] * len(pivots)
        for k in range(len(pivots) - 1, -1, -1):
            row = rows[k]
            later = sum(map(mul, map(row.__getitem__, pivots[k + 1 :]), v[k + 1 :]))
            v[k] = -(later + (row[fc] if fc > pivots[k] else 0)) % p
        ker.append(v)
    return pivots, free, ker


def kernel_basis(M: NodeConstraintMatrix) -> list[tuple[int, ...]]:
    """Canonical basis of the right kernel {v : M v = 0 mod p}.

    One basis vector per free column of the reduced row echelon form,
    with a 1 in its free position and minus the reduced rows' entries in
    that column at the pivot positions, as _eliminate gives it.  Empty
    list iff M has full column rank.
    """
    pivots, free, ker = _eliminate([list(r) for r in M.entries], M.n_cols, M.modulus)
    basis = []
    for fc, at_pivots in zip(free, ker):
        v = [0] * M.n_cols
        v[fc] = 1
        for pc, x in zip(pivots, at_pivots):
            v[pc] = x
        basis.append(tuple(v))
    return basis


def matrix_rank(M: NodeConstraintMatrix) -> int:
    return M.n_cols - len(_eliminate([list(r) for r in M.entries], M.n_cols, M.modulus)[1])


@dataclass(frozen=True)
class ToricOutcome:
    """Verdict of one effectivity test.

    passed is the majority over all trials; kernel_dim, per_block_support
    and sample_seed describe the first trial that agrees with the
    majority.  trial_disagreement is set when the trials did not all
    agree (expected probability ~1/p; reported, never hidden).
    """

    passed: bool
    kernel_dim: int
    per_block_support: tuple[bool, ...]
    mode: str
    sample_seed: int
    trial_disagreement: bool = False


def _single_trial(
    rows: list[list[int]], spans: tuple[tuple[int, int], ...], sample_seed: int, config: ToricConfig
) -> tuple[bool, int, tuple[bool, ...]]:
    """(passed, kernel_dim, per_block_support) of one matrix sample: its
    fresh rows, eliminated in place, and its column blocks."""
    ncols = spans[-1][1]
    pivots, free, ker = _eliminate(rows, ncols, config.prime)
    kdim = len(free)
    if config.mode == "block-projection":
        # some basis vector is nonzero at column c iff c is free, or c is
        # a pivot where some basis vector holds a nonzero
        nonzero = [True] * ncols
        for pc, *at_pc in zip(pivots, *ker):
            nonzero[pc] = any(at_pc)
        support = tuple(any(nonzero[lo:hi]) for lo, hi in spans)
        return kdim >= 1 and all(support), kdim, support
    # the kernel vector with weight w_j at free column j: the w-weighted
    # sum of the basis vectors
    p = config.prime
    weights = [_field_element(sample_seed, "draw", j, p=p) for j in range(kdim)]
    vec = [0] * ncols
    for fc, w in zip(free, weights):
        vec[fc] = w
    for pc, *at_pc in zip(pivots, *ker):
        vec[pc] = sum(map(mul, weights, at_pc)) % p
    support = tuple(all(vec[lo:hi]) for lo, hi in spans)
    return all(support), kdim, support


def toric_effective_test(
    G: Multigraph, d: DivisorLike, config: ToricConfig | None = None
) -> ToricOutcome:
    """Does the generic curve admit compatible nonzero functions for d?

    Runs config.trials independent matrix samples and returns the
    majority verdict (an even split counts as a failure).  The reported
    kernel data comes from the first trial on the majority side.
    """
    if config is None:
        config = ToricConfig()
    d = _coerce_divisor(d, G.n)
    if not d.is_effective():
        raise NonEffectiveDivisorError(f"divisor {d.coeffs} has a negative coefficient")
    # derive_seed(config.seed, G.adj, d.coeffs, trial), hashing the
    # shared prefix once per test and the trial once per sample
    shared = _feed(hashlib.blake2b(digest_size=8), config.seed, G.adj, d.coeffs)
    spans = _block_spans(d)
    runs = [(spans[i], spans[j]) for i, j in G.edges()]
    trials = []
    for trial in range(config.trials):
        sample_seed = int.from_bytes(_feed(shared.copy(), trial).digest(), "big")
        rows = _fill(runs, spans[-1][1], sample_seed, config.prime, config.nonzero_entries)
        trials.append((*_single_trial(rows, spans, sample_seed, config), sample_seed))
    passes = sum(t[0] for t in trials)
    majority = passes * 2 > config.trials
    _, kdim, support, sample_seed = next(t for t in trials if t[0] == majority)
    return ToricOutcome(
        passed=majority,
        kernel_dim=kdim,
        per_block_support=support,
        mode=config.mode,
        sample_seed=sample_seed,
        trial_disagreement=0 < passes < config.trials,
    )


@dataclass
class ToricMemo:
    """Shared cache of effectivity verdicts for one (graph, config) pair,
    and the one place that decides whether a block of candidates holds
    a torically effective divisor (survives).

    toric_rank probes the same candidate representatives over and over
    (for D and for K - D, across many removals); verdicts depend only on
    the candidate's coefficients, so they are safe to share.
    disagreement_reads counts the verdicts outcome has returned, cache
    hits included, that have trial_disagreement set.
    """

    graph: Multigraph
    config: ToricConfig
    outcomes: dict[tuple[int, ...], ToricOutcome] = field(default_factory=dict)
    disagreement_reads: int = 0

    def outcome(self, d: Divisor) -> ToricOutcome:
        key = d.coeffs
        got = self.outcomes.get(key)
        if got is None:
            got = toric_effective_test(self.graph, d, self.config)
            self.outcomes[key] = got
        if got.trial_disagreement:
            self.disagreement_reads += 1
        return got

    def survives(self, block: np.ndarray) -> bool:
        """Whether some row of block, an (m, n) array of effective
        divisors, passes the effectivity test.

        The rows that the orientation condition predicts to pass
        (_predicted_passes) are probed first, then the rest, each group
        in lexicographic order, until one passes.  Every verdict is read
        through outcome, so the order changes only how many tests run,
        never the answer.  An empty block is False and asks no
        prediction.
        """
        if len(block) > 1:
            likely = self._predicted_passes(block)
            block = np.concatenate([block[likely], block[~likely]])
        return any(self.outcome(_divisor_from_ints(tuple(c))).passed for c in block.tolist())

    def trial_disagreements(self) -> list[tuple[int, ...]]:
        return [k for k, o in self.outcomes.items() if o.trial_disagreement]

    @cached_property
    def _subsets(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(indicators, inside) over the nonempty vertex sets S: column s
        of the (n, 2^n - 1) indicators is 1 on the s-th set, and inside[s]
        counts the edges with both ends in it.  None when the table alone
        passes _ELEMENT_BUDGET (n >= 17)."""
        n = self.graph.n
        if ((1 << n) - 1) * n > _ELEMENT_BUDGET:
            return None
        indicators = (np.arange(1, 1 << n) >> np.arange(n)[:, None]) & 1
        adj = np.array(self.graph.adj, dtype=np.int64)
        inside = ((adj @ indicators) * indicators).sum(axis=0) // 2
        return indicators, inside

    def _predicted_passes(self, cands: np.ndarray) -> np.ndarray:
        """Per row d of cands, whether e(S) < sum over u in S of (d_u + 1)
        for every nonempty vertex set S, with e(S) the edges inside S.

        By Hall's theorem this says that for every vertex v the edges can
        be oriented so that each u takes at most d_u + 1 of them and v at
        most d_v (An-Baker-Kuperberg-Shokrieh, Backman), which is exactly
        when the generic constraint matrix has a kernel reaching every
        block.  Only the probe order of survives reads it; verdicts come
        from toric_effective_test.  All False when there is no subset
        table, which leaves the order lexicographic.  Works in chunks of
        candidates, so no product holds more than _ELEMENT_BUDGET entries.
        """
        if self._subsets is None:
            return np.zeros(len(cands), dtype=bool)
        indicators, inside = self._subsets
        step = max(1, _ELEMENT_BUDGET // len(inside))
        return np.concatenate(
            [
                ((cands[s : s + step] + 1) @ indicators > inside).all(axis=1)
                for s in range(0, len(cands), step)
            ]
        )


def toric_rank(
    G: Multigraph,
    D: DivisorLike,
    config: ToricConfig | None = None,
    memo: ToricMemo | None = None,
) -> RankResult:
    """Toric analogue of rank: a removal E is survivable iff SOME member
    of |D - E| passes the effectivity test.

    Same removal scan as rank (``rank._rank_scan``); the witness is the
    first removal no representative survives.  Each removal's block of
    candidates, |D - E| in lexicographic order, goes to memo.survives,
    which owns the probe order.  Without a config, the memo's config is
    used, or the default if there is no memo.
    """
    if memo is None:
        memo = ToricMemo(G, config or ToricConfig())
    elif memo.graph is not G and memo.graph != G:
        raise ValueError("memo was built for a different graph")
    elif config is not None and memo.config != config:
        raise ValueError("memo was built for a different config")
    return _rank_scan(G, _coerce_divisor(D, G.n), memo.survives)


def verify_rr_toric(
    G: Multigraph,
    D: DivisorLike,
    config: ToricConfig | None = None,
    memo: ToricMemo | None = None,
) -> bool:
    """Riemann-Roch with toric ranks on both sides:
    toric_rank(D) - toric_rank(K - D) == degree(D) + 1 - genus(G).
    Without a memo, D and K - D share one built here."""
    if memo is None:
        memo = ToricMemo(G, config or ToricConfig())
    return _rr_residual(G, D, lambda E: toric_rank(G, E, config, memo).rank)[2] == 0
