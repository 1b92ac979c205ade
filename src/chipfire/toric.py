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
64-bit range, so no field arithmetic here goes through numpy.  Every
kernel comes from one row reduction, _eliminate.  Its forward pass
reduces the pivot row and each elimination factor modulo p but leaves
the rows it updates unreduced (delayed modular reduction, as in
Dumas-Giorgi-Pernet's FFLAS-FFPACK), so their entries stay below
rows * p^2; back-substitution then runs over the free columns only.
kernel_basis, matrix_rank and the block-projection verdict all read its
output.  The prime is checked once, where it enters (ToricConfig and the
two public matrix builders); the per-trial matrices of
toric_effective_test run no primality test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from itertools import compress
from typing import Sequence

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
from .rank import RankResult, _rank_scan

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
        if self.mode not in ("block-projection", "random-vector"):
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
    mask_rows: Sequence[Sequence[int]], rng_seed: int, prime: int, nonzero_entries: bool
) -> tuple[tuple[int, ...], ...]:
    """Generic field elements at the positions flagged 1, entry (r, c)
    addressed by (rng_seed, r, c); zeros elsewhere.

    Hashes the same bytes as _field_element(rng_seed, r, c): each row
    joins its prefix "rng_seed:r:" to column suffixes built once, and
    only the flagged columns are visited.
    """
    ncols = len(mask_rows[0]) if len(mask_rows) else 0
    suffixes = [b"%d" % c for c in range(ncols)]
    head = str(rng_seed).encode() + b":"
    modulus, offset = (prime - 1, 1) if nonzero_entries else (prime, 0)
    rows = []
    for r, mask in enumerate(mask_rows):
        prefix = head + b"%d:" % r
        row = [0] * ncols
        for c in compress(range(ncols), mask):
            digest = hashlib.blake2b(prefix + suffixes[c], digest_size=16).digest()
            row[c] = offset + int.from_bytes(digest, "big") % modulus
        rows.append(tuple(row))
    return tuple(rows)


def _pattern(G: Multigraph, d: Divisor) -> tuple[list[list[int]], tuple[tuple[int, int], ...]]:
    """Mask rows and block spans of d's constraint matrix: row r flags
    the two endpoint blocks of edge r in canonical order.  d must be
    effective."""
    spans = _block_spans(d)
    ncols = spans[-1][1]
    mask = []
    for i, j in G.edges():
        row = [0] * ncols
        for lo, hi in (spans[i], spans[j]):
            row[lo:hi] = [1] * (hi - lo)
        mask.append(row)
    return mask, spans


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
    mask, spans = _pattern(G, d)
    return NodeConstraintMatrix(_fill(mask, rng_seed, prime, nonzero_entries), prime, spans)


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
    if ncols == 0 or any(len(r) != ncols or not set(r) <= {0, 1} for r in mask_rows):
        raise ValueError("mask must be a nonempty rectangle of 0/1 flags")
    if block_spans is None:
        block_spans = [(c, c + 1) for c in range(ncols)]
    spans = tuple(map(tuple, block_spans))
    # block i must start where block i - 1 ends, the first at 0, the last ending at ncols
    if [0, *(hi for _, hi in spans)] != [*(lo for lo, _ in spans), ncols] or any(
        lo >= hi for lo, hi in spans
    ):
        raise ValueError(f"block spans {spans} do not tile {ncols} columns")
    return NodeConstraintMatrix(_fill(mask_rows, rng_seed, prime, nonzero_entries), prime, spans)


def _eliminate(M: NodeConstraintMatrix) -> tuple[list[int], list[int], list[list[int]]]:
    """Row reduction of M over F_p as (pivots, free, red): the pivot and
    free columns in ascending order, and red[k], the entries of reduced
    row k in the free columns, in [0, p).

    The forward pass touches only the rows below a pivot and the columns
    right of it.  The pivot row is normalized and reduced, and so is each
    factor row[c] % p; the rows it updates are not, so entries that
    start in [0, p) stay below n_rows * p^2 in absolute value.
    Back-substitution then runs over the free columns alone; a free
    column left of pivot k holds 0 in reduced row k.
    """
    p = M.modulus
    ncols = M.n_cols
    rows = [list(r) for r in M.entries]
    pivots: list[int] = []
    free: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            free.extend(range(c, ncols))
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pr is None:
            free.append(c)
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        tail = [x * inv % p for x in rows[r][c + 1 :]]
        rows[r][c + 1 :] = tail
        for row in rows[r + 1 :]:
            f = row[c] % p
            if f:
                row[c + 1 :] = [x - f * y for x, y in zip(row[c + 1 :], tail)]
        pivots.append(c)
    red: list[list[int]] = [[]] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        row = rows[k]
        acc = [row[fc] if fc > pivots[k] else 0 for fc in free]
        for pc, below in zip(pivots[k + 1 :], red[k + 1 :]):
            u = row[pc]
            if u:
                acc = [a - u * b for a, b in zip(acc, below)]
        red[k] = [a % p for a in acc]
    return pivots, free, red


def kernel_basis(M: NodeConstraintMatrix) -> list[tuple[int, ...]]:
    """Canonical basis of the right kernel {v : M v = 0 mod p}.

    One basis vector per free column of the reduced row echelon form,
    with a 1 in its free position and minus the reduced rows' entries in
    that column at the pivot positions.  The form comes from _eliminate:
    a forward pass with delayed modular reduction, then back-substitution
    over the free columns only.  Empty list iff M has full column rank.
    """
    p = M.modulus
    pivots, free, red = _eliminate(M)
    basis = []
    for j, fc in enumerate(free):
        v = [0] * M.n_cols
        v[fc] = 1
        for pc, row in zip(pivots, red):
            v[pc] = -row[j] % p
        basis.append(tuple(v))
    return basis


def matrix_rank(M: NodeConstraintMatrix) -> int:
    return M.n_cols - len(_eliminate(M)[1])


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


def _single_trial(M: NodeConstraintMatrix, sample_seed: int, config: ToricConfig) -> ToricOutcome:
    if config.mode == "block-projection":
        pivots, free, red = _eliminate(M)
        kdim = len(free)
        # some basis vector is nonzero at column c iff c is free, or c is
        # pivot k and reduced row k has a nonzero free entry
        nonzero = [False] * M.n_cols
        for c in free:
            nonzero[c] = True
        for pc, row in zip(pivots, red):
            nonzero[pc] = any(row)
        support = tuple(any(nonzero[lo:hi]) for lo, hi in M.block_spans)
        passed = kdim >= 1 and all(support)
    else:
        basis = kernel_basis(M)
        kdim = len(basis)
        p = config.prime
        vec = [0] * M.n_cols
        for k, bvec in enumerate(basis):
            coeff = _field_element(sample_seed, "draw", k, p=p)
            if coeff:
                vec = [(x + coeff * y) % p for x, y in zip(vec, bvec)]
        support = tuple(
            all(vec[c] for c in range(lo, hi)) for lo, hi in M.block_spans
        )
        passed = all(support)
    return ToricOutcome(
        passed=passed,
        kernel_dim=kdim,
        per_block_support=support,
        mode=config.mode,
        sample_seed=sample_seed,
    )


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
    mask, spans = _pattern(G, d)
    # derive_seed(config.seed, G.adj, d.coeffs, trial), hashing the
    # shared prefix once per test
    shared = _feed(hashlib.blake2b(digest_size=8), config.seed, G.adj, d.coeffs)
    outcomes = []
    for trial in range(config.trials):
        sample_seed = int.from_bytes(_feed(shared.copy(), trial).digest(), "big")
        entries = _fill(mask, sample_seed, config.prime, config.nonzero_entries)
        M = NodeConstraintMatrix(entries, config.prime, spans)
        outcomes.append(_single_trial(M, sample_seed, config))
    passes = sum(o.passed for o in outcomes)
    majority = passes * 2 > config.trials
    disagreement = 0 < passes < config.trials
    rep = next(o for o in outcomes if o.passed == majority)
    return ToricOutcome(
        passed=majority,
        kernel_dim=rep.kernel_dim,
        per_block_support=rep.per_block_support,
        mode=rep.mode,
        sample_seed=rep.sample_seed,
        trial_disagreement=disagreement,
    )


@dataclass
class ToricMemo:
    """Shared cache of effectivity verdicts for one (graph, config) pair.

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

    def trial_disagreements(self) -> list[tuple[int, ...]]:
        return [k for k, o in self.outcomes.items() if o.trial_disagreement]


def toric_rank(
    G: Multigraph,
    D: DivisorLike,
    config: ToricConfig | None = None,
    memo: ToricMemo | None = None,
) -> RankResult:
    """Toric analogue of rank: a removal E is survivable iff SOME member
    of |D - E| passes the effectivity test.

    Same removal scan as rank (``rank._rank_scan``); the witness is the
    first removal no representative survives.  Candidates m - E (for
    members m >= E) are exactly the members of |D - E|, tested in
    lexicographic order with verdicts shared through the memo.  Without
    a config, the memo's config is used, or the default if there is no memo.
    """
    if memo is None:
        memo = ToricMemo(G, config or ToricConfig())
    elif memo.graph is not G and memo.graph != G:
        raise ValueError("memo was built for a different graph")
    elif config is not None and memo.config != config:
        raise ValueError("memo was built for a different config")
    D = _coerce_divisor(D, G.n)
    return _rank_scan(
        G, D, lambda cand: memo.outcome(_divisor_from_ints(tuple(cand.tolist()))).passed
    )


def verify_rr_toric(
    G: Multigraph,
    D: DivisorLike,
    config: ToricConfig | None = None,
    memo: ToricMemo | None = None,
) -> bool:
    """Riemann-Roch with toric ranks on both sides:
    toric_rank(D) - toric_rank(K - D) == degree(D) + 1 - genus(G)."""
    D = _coerce_divisor(D, G.n)
    K = canonical_divisor(G)
    r = toric_rank(G, D, config, memo).rank
    r_dual = toric_rank(G, K - D, config, memo).rank
    return r - r_dual == degree(D) + 1 - genus(G)
