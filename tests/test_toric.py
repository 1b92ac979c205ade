import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chipfire as cf
from chipfire import (
    DEFAULT_PRIME,
    Divisor,
    NodeConstraintMatrix,
    NonEffectiveDivisorError,
    ToricConfig,
    ToricMemo,
    build_constraint_matrix,
    constraint_matrix_from_pattern,
    derive_seed,
    effective_divisors_of_degree,
    is_prime,
    kernel_basis,
    matrix_rank,
    next_prime,
    toric_effective_test,
    toric_rank,
    verify_rr_toric,
)
from chipfire.toric import _field_element

from .helpers import (
    break_divisors,
    brute_toric_rank,
    connected_multigraphs_up_to_iso,
    flow_outcome,
    graph_and_divisor,
    naive_kernel_basis,
    subset_outcome,
)

# Fixture: a 5x6 generic matrix with this exact support describes the
# divisor (0, 1, 1, 0) on the 4-vertex graph with edge set
# {01, 02, 12, 13, 23}, with column blocks of widths 1, 2, 2, 1.
STAR_PATTERN = (
    (1, 1, 1, 0, 0, 0),
    (1, 0, 0, 1, 1, 0),
    (0, 1, 1, 1, 1, 0),
    (0, 1, 1, 0, 0, 1),
    (0, 0, 0, 1, 1, 1),
)
STAR_GRAPH = cf.Multigraph.from_adjacency(
    [[0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 0]]
)
STAR_DIVISOR = Divisor((0, 1, 1, 0))
STAR_SPANS = ((0, 1), (1, 3), (3, 5), (5, 6))


@pytest.fixture(scope="module")
def sweep_divisors():
    """(graph, effective divisor) for every 2-core graph with n <= 5 and
    genus 1..3 and every degree g - 1..g + 1: 4,733 pairs."""
    return [
        (G, D)
        for G in cf.enumerate_treeless_graphs(5, (1, 3))
        for d in range(cf.genus(G) - 1, cf.genus(G) + 2)
        for D in effective_divisors_of_degree(G.n, d)
    ]


def test_break_divisors_are_one_per_class_and_the_passing_degree_g_divisors():
    # ABKS: the break divisors number kappa(G) and meet each class of
    # degree g once; they are the divisors of degree g that a generic
    # curve passes, by the exact subset oracle.  A divisor with d_v < 0
    # fails it (adding v to a set of largest excess keeps the excess
    # largest, so block v is unsupported), so the passing ones of degree
    # g lie in [0, g]; the window [-1, g + 1] tries a margin around that.
    graphs = list(cf.enumerate_treeless_graphs(5, (1, 3)))
    assert len(graphs) == 60
    classes = 0
    for G in graphs:
        g = cf.genus(G)
        moduli = cf.linsys._class_data(G)[1]
        kappa = int(np.prod(moduli))
        found = break_divisors(G)
        assert len(found) == kappa, G.adj
        rows = np.array(sorted(found), dtype=np.int64)
        assert len(np.unique(cf.linsys._class_codes(G, rows))) == kappa, G.adj
        window = cf.linsys._compositions_array(G.n, g, -1, g + 1).tolist()
        assert {tuple(d) for d in window if subset_outcome(G, d)[0]} == found, G.adj
        classes += kappa
    assert classes == 649


def test_is_prime():
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(97)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert not is_prime(4)
    assert not is_prime(561)  # Carmichael number, a classic pseudoprime trap
    assert is_prime(DEFAULT_PRIME)


def test_next_prime():
    assert next_prime(0) == 2
    assert next_prime(2) == 3
    assert next_prime(10) == 11
    assert next_prime(11) == 13
    assert DEFAULT_PRIME == next_prime(10**10) == 10_000_000_019


def test_derive_seed_stable_and_sensitive():
    a = derive_seed(0, "x", (1, 2))
    assert a == derive_seed(0, "x", (1, 2))
    assert a != derive_seed(0, "x", (1, 3))
    assert a != derive_seed(1, "x", (1, 2))
    assert derive_seed("ab", "c") != derive_seed("a", "bc")
    assert 0 <= a < 1 << 64


def test_trial_seeds_are_derive_seed_of_each_trial(monkeypatch):
    # the per-test hasher copied per trial gives derive_seed's values
    from chipfire import toric

    seen = []
    real_trial = toric._single_trial
    monkeypatch.setattr(
        toric,
        "_single_trial",
        lambda rows, spans, seed, cfg: seen.append(seed) or real_trial(rows, spans, seed, cfg),
    )
    G, d = cf.complete_graph(4), (2, 0, 1, 0)
    out = toric_effective_test(G, d, ToricConfig(seed=17, trials=4))
    assert seen == [derive_seed(17, G.adj, d, t) for t in range(4)]
    assert out.sample_seed in seen


def test_outcomes_are_independent_of_config_and_order():
    G = cf.complete_graph(4)
    base = ToricConfig()
    configs = [
        base,
        replace(base, seed=5),
        replace(base, prime=7),
        replace(base, mode="random-vector"),
        replace(base, trials=2),
        replace(base, nonzero_entries=True),
    ]
    divisors = [(1, 0, 2, 0), (0, 0, 0, 0), (2, 1, 0, 1), (0, 0, 1, 0)]

    def outcomes(order, graph=G):
        return {i: [toric_effective_test(graph, d, configs[i]) for d in divisors] for i in order}

    forward = outcomes(range(len(configs)))
    backward = outcomes(reversed(range(len(configs))))
    cold = {}
    for i in range(len(configs)):
        cold.update(outcomes([i]))
    assert forward == backward == cold
    # an equal graph built anew reads the same outcomes
    assert outcomes(range(len(configs)), cf.Multigraph(G.adj)) == forward
    for i, cfg in enumerate(configs):
        for d, o in zip(divisors, forward[i]):
            assert o.sample_seed in {derive_seed(cfg.seed, G.adj, d, t) for t in range(cfg.trials)}


def test_toric_config_validation():
    with pytest.raises(ValueError):
        ToricConfig(prime=10)
    with pytest.raises(ValueError):
        ToricConfig(trials=0)
    with pytest.raises(ValueError):
        ToricConfig(mode="guess")
    # integer fields are validated, not coerced or read as 0/1
    for kwargs in (
        dict(trials=2.5), dict(seed=1.5), dict(prime=10000000019.0),
        dict(trials=True), dict(seed=False), dict(prime="7"),
    ):
        with pytest.raises(ValueError):
            ToricConfig(**kwargs)
    cfg = ToricConfig()
    assert cfg.prime == DEFAULT_PRIME
    assert cfg.trials == 3
    assert cfg.mode == "block-projection"


def test_constraint_matrix_shape_single_edge():
    G = cf.path_graph(2)
    M = build_constraint_matrix(G, (0, 0), rng_seed=1)
    assert M.n_rows == 1
    assert M.n_cols == 2
    assert M.block_spans == ((0, 1), (1, 2))
    assert all(x != 0 for x in M.entries[0])  # generically nonzero


def test_constraint_matrix_row_supports_path():
    G = cf.path_graph(3)
    M = build_constraint_matrix(G, (0, 0, 0), rng_seed=5)
    supports = [tuple(c for c, x in enumerate(row) if x) for row in M.entries]
    assert supports == [(0, 1), (1, 2)]


def test_constraint_matrix_counts():
    cases = [
        (cf.cycle_graph(4), (1, 0, 2, 0)),
        (cf.complete_graph(4), (0, 0, 0, 0)),
        (cf.cycle_graph(2), (1, 1)),
        (cf.Multigraph.from_adjacency([[0, 3], [3, 0]]), (2, 0)),
    ]
    for G, coeffs in cases:
        M = build_constraint_matrix(G, coeffs, rng_seed=9)
        assert M.n_rows == G.edge_count() == G.n + cf.genus(G) - 1
        assert M.n_cols == cf.degree(Divisor(coeffs)) + G.n


def test_constraint_matrix_rejects_bad_inputs():
    G = cf.path_graph(2)
    with pytest.raises(NonEffectiveDivisorError):
        build_constraint_matrix(G, (1, -1), rng_seed=0)
    with pytest.raises(ValueError):
        build_constraint_matrix(G, (0, 0), rng_seed=0, prime=8)


def test_constraint_matrix_deterministic():
    G = cf.cycle_graph(3)
    a = build_constraint_matrix(G, (1, 0, 0), rng_seed=123)
    b = build_constraint_matrix(G, (1, 0, 0), rng_seed=123)
    c = build_constraint_matrix(G, (1, 0, 0), rng_seed=124)
    assert a.entries == b.entries
    assert a.entries != c.entries


@pytest.mark.parametrize(
    "G, coeffs, digest",
    [
        (
            cf.cycle_graph(4),
            (1, 0, 2, 0),
            "0a6be94983f7d97586a3f1f1a4a3c3a68a09da497752cd34ee619841eab6f4f7",
        ),
        (
            cf.complete_graph(4),
            (0, 1, 0, 2),
            "1c60a82e21920dfc1fce9dcabce3d3ed11d9497d2186e218c1adba36702148fe",
        ),
        (
            STAR_GRAPH,
            STAR_DIVISOR,
            "35e7776ed746252a52f75936ddaa2f8c1f3ddc88b00454d819a36f685c2f2cbb",
        ),
    ],
    ids=["C4", "K4", "star"],
)
def test_generic_matrices_are_pinned(G, coeffs, digest):
    # Every toric verdict and report byte rests on these entries: any
    # change to the element addressing or the fill shows up here first.
    h = hashlib.sha256()
    for seed in range(4):
        for prime in (5, 7, DEFAULT_PRIME):
            for nonzero in (False, True):
                M = build_constraint_matrix(G, coeffs, seed, prime=prime, nonzero_entries=nonzero)
                h.update(repr(M.entries).encode())
    assert h.hexdigest() == digest


def _oracle_entries(mask, seed, prime, nonzero):
    """The entries a generic matrix with this 0/1 mask must hold, each
    read off _field_element on its own."""
    return tuple(
        tuple(
            _field_element(seed, r, c, p=prime, nonzero=nonzero) if flag else 0
            for c, flag in enumerate(row)
        )
        for r, row in enumerate(mask)
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(1, 7).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(0, 1), min_size=ncols, max_size=ncols), min_size=1, max_size=6
        )
    ),
    graph_and_divisor(),
    st.integers(0, 2**64 - 1),
    st.sampled_from([5, 7, DEFAULT_PRIME]),
    st.booleans(),
)
def test_fill_matches_the_field_element_oracle(mask, case, seed, prime, nonzero):
    M = constraint_matrix_from_pattern(mask, seed, prime=prime, nonzero_entries=nonzero)
    assert M.entries == _oracle_entries(mask, seed, prime, nonzero)
    # the divisor's matrix flags the two endpoint blocks of each edge
    G, coeffs = case
    d = [max(c, 0) for c in coeffs]
    starts = [sum(d[:v]) + v for v in range(G.n + 1)]
    blocks = [range(starts[v], starts[v + 1]) for v in range(G.n)]
    graph_mask = [
        [int(c in blocks[i] or c in blocks[j]) for c in range(starts[-1])] for i, j in G.edges()
    ]
    M = build_constraint_matrix(G, d, seed, prime=prime, nonzero_entries=nonzero)
    assert M.entries == _oracle_entries(graph_mask, seed, prime, nonzero)


def test_star_pattern_reconstruction():
    M = build_constraint_matrix(STAR_GRAPH, STAR_DIVISOR, rng_seed=7)
    mask = tuple(tuple(int(bool(x)) for x in row) for row in M.entries)
    assert mask == STAR_PATTERN
    assert M.block_spans == STAR_SPANS


def test_pattern_matrix_matches_divisor_matrix():
    seed = 42
    from_graph = build_constraint_matrix(STAR_GRAPH, STAR_DIVISOR, rng_seed=seed)
    from_pattern = constraint_matrix_from_pattern(
        STAR_PATTERN, rng_seed=seed, block_spans=STAR_SPANS
    )
    assert from_pattern.entries == from_graph.entries
    assert from_pattern.block_spans == from_graph.block_spans


def test_pattern_matrix_validation_and_default_spans():
    with pytest.raises(ValueError):
        constraint_matrix_from_pattern([(1, 0), (1,)], rng_seed=0)
    with pytest.raises(ValueError):  # Z/9 is not a field
        constraint_matrix_from_pattern([(1, 1)], rng_seed=0, prime=9)
    for mask, spans in (
        ([], None),
        ([()], None),
        ([(1, 2)], None),
        ([(1, 1)], [(0, 5)]),
        ([(1, 1)], [(0, 1)]),
        ([(1, 1)], [(0, 1), (0, 2)]),
        ([(1, 1)], [(0, 0), (0, 2)]),
        # a flag is the integer 0 or 1, not a bool or a float
        ([(True, False, 1.0)], None),
        ([(True, 0)], None),
        ([(1, False)], None),
        ([(np.True_, 0)], None),
        ([(1.0, 0)], None),
        ([(1, 0), (0, 0.0)], None),
    ):
        with pytest.raises(ValueError):
            constraint_matrix_from_pattern(mask, rng_seed=0, block_spans=spans)
    with pytest.raises(ValueError):
        constraint_matrix_from_pattern([(True, False, 1.0)], 0, prime=7)
    # numpy integers are integers, as in Multigraph and Divisor
    M = constraint_matrix_from_pattern([tuple(np.array([1, 0, 1]))], rng_seed=3)
    assert M.entries == constraint_matrix_from_pattern([(1, 0, 1)], rng_seed=3).entries
    assert constraint_matrix_from_pattern([(1, 1)], 0, block_spans=[[0, 2]]).block_spans == ((0, 2),)
    M = constraint_matrix_from_pattern([(1, 1, 0)], rng_seed=0)
    assert M.block_spans == ((0, 1), (1, 2), (2, 3))


def test_kernel_basis_identity_and_zero():
    p = 101
    ident = NodeConstraintMatrix(((1, 0), (0, 1)), p, ((0, 1), (1, 2)))
    assert kernel_basis(ident) == []
    assert matrix_rank(ident) == 2

    zero = NodeConstraintMatrix(((0, 0, 0),), p, ((0, 1), (1, 2), (2, 3)))
    basis = kernel_basis(zero)
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert matrix_rank(zero) == 0


def test_kernel_vectors_annihilate_matrix():
    M = build_constraint_matrix(STAR_GRAPH, STAR_DIVISOR, rng_seed=3)
    basis = kernel_basis(M)
    assert len(basis) == 1
    p = M.modulus
    for vec in basis:
        for row in M.entries:
            assert sum(a * b for a, b in zip(row, vec)) % p == 0


def test_kernel_basis_canonical_form():
    # one vector per free column, unit entry at the free position
    p = 13
    M = NodeConstraintMatrix(((1, 2, 3), (2, 4, 6)), p, ((0, 3),))
    basis = kernel_basis(M)
    assert len(basis) == 2
    assert basis[0][1] == 1 and basis[0][2] == 0
    assert basis[1][2] == 1 and basis[1][1] == 0


@pytest.mark.parametrize("prime", [5, 7, DEFAULT_PRIME])
def test_kernel_matches_gauss_jordan_on_sweep_graphs(sweep_divisors, prime):
    for i, (G, D) in enumerate(sweep_divisors):
        M = build_constraint_matrix(G, D, i, prime=prime, nonzero_entries=i % 2 == 1)
        expected = naive_kernel_basis(M)
        assert kernel_basis(M) == expected, (G.adj, D.coeffs, i)
        assert matrix_rank(M) == M.n_cols - len(expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    graph_and_divisor(),
    st.integers(0, 2**64 - 1),
    st.sampled_from([5, 7, DEFAULT_PRIME]),
    st.booleans(),
)
def test_kernel_matches_gauss_jordan_on_random_multigraphs(case, seed, prime, nonzero):
    G, coeffs = case
    d = [max(c, 0) for c in coeffs]
    M = build_constraint_matrix(G, d, seed, prime=prime, nonzero_entries=nonzero)
    expected = naive_kernel_basis(M)
    assert kernel_basis(M) == expected
    assert matrix_rank(M) == M.n_cols - len(expected)


def test_toric_outcomes_are_pinned(sweep_divisors):
    # Recorded from the Gauss-Jordan kernel, before the trials moved to
    # one forward elimination and a prefix-hashed fill.
    h = hashlib.sha256()
    for mode in ("block-projection", "random-vector"):
        for nonzero in (False, True):
            cfg = ToricConfig(mode=mode, nonzero_entries=nonzero)
            for G, D in sweep_divisors:
                o = toric_effective_test(G, D, cfg)
                fields = (o.passed, o.kernel_dim, o.per_block_support, o.sample_seed)
                h.update(repr(fields).encode())
                assert fields[:3] == flow_outcome(G, D.coeffs), (mode, nonzero, G.adj, D)
    assert len(sweep_divisors) == 4733
    assert h.hexdigest() == "d8ff29813b6da6ad04af4abbbe1ce9143e461d4ddfbcf78b1928c834ee098f23"


def test_subset_oracle_matches_trials_flow_and_predictor_on_pinned_divisors(sweep_divisors):
    exact = [(subset_outcome(G, D.coeffs), flow_outcome(G, D.coeffs)) for G, D in sweep_divisors]
    assert all(by_subsets == by_flow for by_subsets, by_flow in exact)
    # delta > 0: some vertex set holds more edges than its blocks have columns
    assert any(
        kdim > sum(D.coeffs) + G.n - len(G.edges())
        for ((_, kdim, _), _), (G, D) in zip(exact, sweep_divisors)
    )
    memos = {}
    for ((passed, _, _), _), (G, D) in zip(exact, sweep_divisors):
        memo = memos.setdefault(G, ToricMemo(G, ToricConfig()))
        assert memo._predicted_passes(np.array([D.coeffs])).tolist() == [passed], (G.adj, D)
    for mode in ("block-projection", "random-vector"):
        for nonzero in (False, True):
            cfg = ToricConfig(mode=mode, nonzero_entries=nonzero)
            for (by_subsets, _), (G, D) in zip(exact, sweep_divisors):
                o = toric_effective_test(G, D, cfg)
                assert (o.passed, o.kernel_dim, o.per_block_support) == by_subsets, (G.adj, D)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(graph_and_divisor(), st.sampled_from(["block-projection", "random-vector"]), st.booleans())
def test_toric_test_matches_flow_oracle_on_linear_systems(case, mode, nonzero):
    G, coeffs = case
    cfg = ToricConfig(mode=mode, nonzero_entries=nonzero)
    memo = ToricMemo(G, cfg)
    for m in cf.linear_system(G, coeffs):
        o = toric_effective_test(G, m, cfg)
        exact = flow_outcome(G, m.coeffs)
        assert (o.passed, o.kernel_dim, o.per_block_support) == exact, m
        assert subset_outcome(G, m.coeffs) == exact, m
        assert memo._predicted_passes(np.array([m.coeffs])).tolist() == [exact[0]], m


def test_toric_test_pass_and_fail():
    path = cf.path_graph(3)
    out = toric_effective_test(path, (0, 0, 0))
    assert out.passed
    assert out.kernel_dim >= 1
    assert all(out.per_block_support)
    assert not out.trial_disagreement

    tri = cf.cycle_graph(3)
    out = toric_effective_test(tri, (0, 0, 0))
    assert not out.passed
    assert out.kernel_dim == 0


def test_toric_test_rejects_non_effective():
    with pytest.raises(NonEffectiveDivisorError):
        toric_effective_test(cf.path_graph(2), (1, -1))


def test_toric_test_deterministic():
    G = cf.cycle_graph(4)
    a = toric_effective_test(G, (1, 0, 1, 0))
    b = toric_effective_test(G, (1, 0, 1, 0))
    assert a == b


def test_toric_modes_agree_on_small_sweep():
    block = ToricConfig(mode="block-projection")
    randv = ToricConfig(mode="random-vector")
    for G in (cf.path_graph(3), cf.cycle_graph(3), cf.cycle_graph(4)):
        for coeffs in itertools.product(range(3), repeat=G.n):
            if sum(coeffs) > 3:
                continue
            a = toric_effective_test(G, coeffs, block)
            b = toric_effective_test(G, coeffs, randv)
            assert a.passed == b.passed, (G.adj, coeffs)


def test_toric_rank_on_trees_equals_degree():
    for G in (cf.path_graph(2), cf.path_graph(4)):
        for coeffs in itertools.product(range(3), repeat=G.n):
            if sum(coeffs) > 3:
                continue
            assert toric_rank(G, coeffs).rank == sum(coeffs)


def test_toric_rank_on_cycles():
    # genus 1: a single chip has toric rank 0.  The zero divisor fails
    # outright: a generic degree-0 bundle on a genus-1 curve has no
    # sections, so the toric rank sits strictly below the graph rank.
    for k in (3, 5):
        G = cf.cycle_graph(k)
        one = (1,) + (0,) * (k - 1)
        assert toric_rank(G, one).rank == 0
        assert toric_rank(G, Divisor.zero(k)).rank == -1
        assert cf.rank(G, Divisor.zero(k)).rank == 0


def _spread(n, d):
    """d chips spread as evenly as possible, the first vertices first."""
    return tuple(d // n + (v < d % n) for v in range(n))


def test_toric_rank_closed_form_past_brute_force_reach():
    # toric_rank(E) = max(deg E - g, -1) for E = D and K - D, with D spread
    # out or on one vertex: K6 (genus 10) at degrees 8..12, and random
    # 8-vertex graphs of genus 1, 3, 5 and 7 at degrees g - 1..g + 1
    cases = [(cf.complete_graph(6), range(8, 13))]
    for seed, g in ((28, 1), (5, 3), (9, 5), (3, 7)):
        G = cf.random_connected_graph(8, seed)
        assert cf.genus(G) == g
        cases.append((G, range(g - 1, g + 2)))
    checked = 0
    for G, degrees in cases:
        g, K = cf.genus(G), cf.canonical_divisor(G)
        memo = cf.ToricMemo(G, cf.ToricConfig())
        for d in degrees:
            for D in (Divisor(_spread(G.n, d)), Divisor((d,) + (0,) * (G.n - 1))):
                for E in (D, K - D):
                    assert toric_rank(G, E, memo=memo).rank == max(cf.degree(E) - g, -1), (G.adj, E)
                    checked += 1
    assert checked == 68


def test_toric_rank_negative_degree():
    G = cf.cycle_graph(3)
    out = toric_rank(G, (-1, 0, 0))
    assert out.rank == -1
    assert out.witness_failure == Divisor.zero(3)


def test_toric_rank_never_exceeds_graph_rank():
    for G in (cf.cycle_graph(3), cf.cycle_graph(4), cf.path_graph(3)):
        for coeffs in itertools.product(range(-1, 3), repeat=G.n):
            if not -1 <= sum(coeffs) <= 3:
                continue
            assert toric_rank(G, coeffs).rank <= cf.rank(G, coeffs).rank, (G.adj, coeffs)


def test_toric_memo_shares_verdicts():
    G = cf.cycle_graph(4)
    cfg = ToricConfig()
    memo = ToricMemo(G, cfg)
    toric_rank(G, (1, 0, 1, 0), cfg, memo)
    before = len(memo.outcomes)
    assert before > 0
    toric_rank(G, (1, 0, 1, 0), cfg, memo)
    assert len(memo.outcomes) == before
    assert memo.trial_disagreements() == []


def test_toric_memo_counts_disagreeing_reads(monkeypatch):
    G = cf.cycle_graph(4)
    cfg = ToricConfig()
    real = cf.toric.toric_effective_test
    calls = []

    def flag_zero(H, d, config=None):
        calls.append(d.coeffs)
        out = real(H, d, config)
        return replace(out, trial_disagreement=d.coeffs == (0, 0, 0, 0))

    monkeypatch.setattr(cf.toric, "toric_effective_test", flag_zero)
    memo = ToricMemo(G, cfg)
    assert memo.disagreement_reads == 0
    for _ in range(3):  # one test, then two cache hits
        memo.outcome(Divisor((0, 0, 0, 0)))
    memo.outcome(Divisor((1, 0, 0, 0)))
    assert calls == [(0, 0, 0, 0), (1, 0, 0, 0)]
    assert memo.disagreement_reads == 3
    assert memo.trial_disagreements() == [(0, 0, 0, 0)]


def test_toric_rank_matches_definition_oracle():
    cfg = ToricConfig(trials=1)
    for G in connected_multigraphs_up_to_iso(3, 2) + [cf.cycle_graph(4)]:
        g = cf.genus(G)
        for d in range(-1, 2 * g):
            for coeffs in itertools.product(range(-1, d + 2), repeat=G.n):
                if sum(coeffs) != d:
                    continue
                got = toric_rank(G, coeffs, cfg)
                expected = brute_toric_rank(G, coeffs)
                assert (got.rank, got.witness_failure.coeffs) == expected, (G.adj, coeffs)


def test_toric_candidate_sequence_is_pinned(monkeypatch):
    # The candidates reaching toric_effective_test, in order: the scan
    # probes each removal's block of |D - E| with the members that the
    # orientation condition predicts to pass first, and stops at the
    # first failing removal.  In plain lexicographic order the same scans
    # made 182 tests.
    real = cf.toric.toric_effective_test
    calls = []

    def spy(H, d, config=None):
        calls.append(",".join(map(str, d.coeffs)))
        return real(H, d, config)

    monkeypatch.setattr(cf.toric, "toric_effective_test", spy)
    cfg = ToricConfig()
    for G in (cf.cycle_graph(3), cf.cycle_graph(4), cf.cycle_graph(5), cf.complete_graph(4)):
        memo = ToricMemo(G, cfg)
        K = cf.canonical_divisor(G)
        for coeffs in itertools.product(range(-1, 3), repeat=G.n):
            D = Divisor(coeffs)
            toric_rank(G, D, cfg, memo)
            toric_rank(G, K - D, cfg, memo)
    assert len(calls) == 172
    digest = hashlib.sha256("\n".join(calls).encode()).hexdigest()
    assert digest == "c78b21dba16ed590fb108eda44fd09668de47737886c0513d83d2842f304c3b6"


PINNED_SCAN_GRAPHS = (cf.cycle_graph(3), cf.cycle_graph(4), cf.cycle_graph(5), cf.complete_graph(4))


def _scan_pinned_graphs(graphs=PINNED_SCAN_GRAPHS):
    """(rank, witness) of each toric_rank of the pinned candidate
    sequence, and per graph the candidates its memo was asked about."""
    cfg = ToricConfig()
    results, probed = [], []
    for G in graphs:
        memo = ToricMemo(G, cfg)
        K = cf.canonical_divisor(G)
        for coeffs in itertools.product(range(-1, 3), repeat=G.n):
            for D in (Divisor(coeffs), K - Divisor(coeffs)):
                got = toric_rank(G, D, cfg, memo)
                results.append((got.rank, got.witness_failure.coeffs))
        probed.append(set(memo.outcomes))
    return results, probed


def test_predicted_order_changes_only_the_probe_count(monkeypatch):
    ordered, ordered_probes = _scan_pinned_graphs()
    monkeypatch.setattr(
        ToricMemo, "_predicted_passes", lambda self, cands: np.zeros(len(cands), dtype=bool)
    )
    lexicographic, lexicographic_probes = _scan_pinned_graphs()
    assert ordered == lexicographic
    # An exact prediction probes only the first passing member of a block,
    # which lexicographic order probes too, so it never asks about more.
    assert all(a <= b for a, b in zip(ordered_probes, lexicographic_probes))
    assert sum(map(len, ordered_probes)) == 172
    assert sum(map(len, lexicographic_probes)) == 182


def test_predictions_are_chunked_within_the_element_budget(monkeypatch):
    G = cf.complete_graph(4)
    cands = cf.linsys._compositions_array(4, 5)  # 56 candidates, 15 nonempty subsets
    whole = ToricMemo(G, ToricConfig())._predicted_passes(cands)
    assert 0 < whole.sum() < len(whole)
    graphs = (cf.cycle_graph(4), G)
    expected, _ = _scan_pinned_graphs(graphs)
    for budget in (15 * 4, 15 * 4 - 1):  # 4 candidates a chunk, then no subset table
        monkeypatch.setattr(cf.toric, "_ELEMENT_BUDGET", budget)
        memo = ToricMemo(G, ToricConfig())
        chunked = budget == 15 * 4
        assert (memo._subsets is not None) == chunked
        want = whole.tolist() if chunked else [False] * len(cands)
        assert memo._predicted_passes(cands).tolist() == want
        assert _scan_pinned_graphs(graphs)[0] == expected


def _record_survival(monkeypatch):
    """Wrap ToricMemo.survives and toric_effective_test: returns the list
    of tested coefficients and the list of those tested outside survives."""
    real_survives, real_test = ToricMemo.survives, cf.toric.toric_effective_test
    depth, tests, outside = [0], [], []

    def survives(self, block):
        depth[0] += 1
        try:
            return real_survives(self, block)
        finally:
            depth[0] -= 1

    def effective_test(H, d, config=None):
        tests.append(d.coeffs)
        if not depth[0]:
            outside.append(d.coeffs)
        return real_test(H, d, config)

    monkeypatch.setattr(ToricMemo, "survives", survives)
    monkeypatch.setattr(cf.toric, "toric_effective_test", effective_test)
    return tests, outside


def test_every_effectivity_test_runs_inside_survives(monkeypatch):
    tests, outside = _record_survival(monkeypatch)
    K4 = cf.complete_graph(4)
    toric_rank(K4, (2, 1, 0, 0))
    assert verify_rr_toric(K4, (1, 1, 1, 0))
    report = cf.run_exhaustive(
        cf.ExperimentConfig(max_vertices=4, genus_min=1, genus_max=2, max_multiplicity=2)
    )
    assert report.summary["toric"] and report.violation_count == 0
    assert len(tests) > 20
    assert outside == []


def test_survives_of_an_empty_block_is_false_and_tests_nothing(monkeypatch):
    tests, _ = _record_survival(monkeypatch)
    predicted = []
    real_predict = ToricMemo._predicted_passes
    monkeypatch.setattr(
        ToricMemo, "_predicted_passes", lambda self, c: predicted.append(c) or real_predict(self, c)
    )
    memo = ToricMemo(cf.complete_graph(4), ToricConfig())
    assert memo.survives(np.empty((0, 4), dtype=np.int64)) is False
    assert tests == [] and predicted == [] and memo.outcomes == {}


@settings(max_examples=60, deadline=None)
@given(graph_and_divisor())
def test_survives_matches_the_flow_oracle(case):
    G, coeffs = case
    block = np.array([m.coeffs for m in cf.linear_system(G, coeffs)], dtype=np.int64)
    block = block.reshape(-1, G.n)
    exact = any(flow_outcome(G, row)[0] for row in block.tolist())
    assert ToricMemo(G, ToricConfig()).survives(block) == exact
    assert ToricMemo(G, ToricConfig()).survives(block[::-1]) == exact


def test_verify_rr_toric_shares_one_memo_between_d_and_its_dual(monkeypatch):
    tests, _ = _record_survival(monkeypatch)
    # on the first two, a memo per side would test one candidate twice
    G, cfg = cf.complete_graph(4), ToricConfig()
    for coeffs in ((-1, 1, 1, 1), (0, 0, 0, 2), (1, 1, 1, 0)):
        D = Divisor(coeffs)
        tests.clear()
        assert verify_rr_toric(G, D, cfg)
        alone = len(tests)
        tests.clear()
        memo = ToricMemo(G, cfg)
        toric_rank(G, D, cfg, memo)
        toric_rank(G, cf.canonical_divisor(G) - D, cfg, memo)
        assert alone == len(tests) == len(memo.outcomes), coeffs


def test_toric_memo_validation():
    G = cf.cycle_graph(3)
    other = cf.cycle_graph(4)
    cfg = ToricConfig()
    memo = ToricMemo(G, cfg)
    with pytest.raises(ValueError):
        toric_rank(other, (0, 0, 0, 0), cfg, memo)
    with pytest.raises(ValueError):
        toric_rank(G, (0, 0, 0), ToricConfig(trials=5), memo)


def test_toric_rank_without_config_uses_the_memos():
    G = cf.cycle_graph(3)
    cfg = ToricConfig(trials=1)
    for coeffs in ((1, 0, 0), (0, 0, 0), (2, -1, 1)):
        got = toric_rank(G, coeffs, None, ToricMemo(G, cfg))
        assert got == toric_rank(G, coeffs, cfg, ToricMemo(G, cfg))
        assert verify_rr_toric(G, coeffs, None, ToricMemo(G, cfg))
    with pytest.raises(ValueError, match="different config"):
        toric_rank(G, (1, 0, 0), ToricConfig(), ToricMemo(G, cfg))
    with pytest.raises(ValueError, match="different config"):
        verify_rr_toric(G, (1, 0, 0), ToricConfig(), ToricMemo(G, cfg))


def test_verify_rr_toric_on_small_graphs():
    theta = cf.Multigraph.from_adjacency([[0, 3], [3, 0]])  # genus 2
    cases = [
        (cf.path_graph(3), (1, 0, 1)),
        (cf.path_graph(3), (0, 0, 0)),
        (cf.cycle_graph(4), (1, 0, 0, 0)),
        (cf.cycle_graph(4), (-1, 2, 0, 0)),
        (theta, (1, 1)),
        (theta, (0, 0)),
    ]
    for G, coeffs in cases:
        assert verify_rr_toric(G, coeffs), (G.adj, coeffs)
