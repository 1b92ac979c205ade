import importlib
import itertools
from math import comb

import numpy as np
import pytest

import chipfire as cf
from chipfire import (
    Divisor,
    effective_divisors_of_degree,
    non_effective_divisors_of_degree,
    rank,
    verify_rr_graph,
)

from .helpers import brute_rank

rank_module = importlib.import_module("chipfire.rank")  # the attribute is the function


def test_effective_divisors_counts_and_order():
    divs = effective_divisors_of_degree(3, 2)
    assert len(divs) == comb(2 + 3 - 1, 3 - 1)
    coeff_rows = [d.coeffs for d in divs]
    assert coeff_rows == sorted(coeff_rows)
    assert coeff_rows[0] == (0, 0, 2)
    assert coeff_rows[-1] == (2, 0, 0)
    assert all(cf.degree(d) == 2 and d.is_effective() for d in divs)


def test_effective_divisors_degree_zero_and_errors():
    assert effective_divisors_of_degree(4, 0) == (Divisor.zero(4),)
    with pytest.raises(ValueError):
        effective_divisors_of_degree(3, -1)
    with pytest.raises(ValueError):
        effective_divisors_of_degree(0, 2)


def test_window_divisors_match_brute_enumeration():
    cases = [(2, 0, 2), (3, 1, 1), (3, -2, 2), (4, 3, 1), (1, 2, 0), (4, 3, 0), (2, -1, 0)]
    for n, d, window in cases:
        expected = sorted(
            coeffs
            for coeffs in itertools.product(range(-window, d + window + 1), repeat=n)
            if sum(coeffs) == d
        )
        got = [v.coeffs for v in non_effective_divisors_of_degree(n, d, window)]
        assert got == expected


def test_window_divisors_include_effective_ones():
    got = set(non_effective_divisors_of_degree(3, 2, 1))
    assert set(effective_divisors_of_degree(3, 2)) <= got


def test_window_divisors_validation():
    with pytest.raises(ValueError):
        non_effective_divisors_of_degree(0, 1, 1)
    with pytest.raises(ValueError):
        non_effective_divisors_of_degree(3, 1, -1)


def test_rank_single_vertex():
    G = cf.Multigraph.from_adjacency([[0]])
    for d in range(4):
        assert rank(G, (d,)).rank == d
    assert rank(G, (-1,)).rank == -1


def test_rank_known_values_on_cycle():
    G = cf.cycle_graph(4)
    assert rank(G, (0, 0, 0, 0)).rank == 0
    assert rank(G, (1, 0, 0, 0)).rank == 0
    assert rank(G, (1, 0, 1, 0)).rank == 1
    r = rank(G, (2, 0, 0, 0))
    assert r.rank == 1
    assert r.witness_failure == Divisor((0, 0, 0, 2))


def test_rank_negative_and_empty():
    G = cf.path_graph(3)
    out = rank(G, (1, -2, 0))
    assert out.rank == -1
    assert out.witness_failure == Divisor.zero(3)
    assert rank(G, (1, -3, 1)).rank == -1


def test_rank_of_canonical_divisor():
    # rank(K) = g - 1 on these graphs (plug D = K into the identity)
    for G in (cf.cycle_graph(3), cf.cycle_graph(2), cf.complete_graph(4)):
        K = cf.canonical_divisor(G)
        assert rank(G, K).rank == cf.genus(G) - 1


def test_rank_high_degree_is_degree_minus_genus():
    # degree > 2g - 2 pins the rank at deg - g
    for G in (cf.cycle_graph(4), cf.complete_graph(4)):
        g = cf.genus(G)
        D = Divisor((2 * g,) + (0,) * (G.n - 1))
        assert rank(G, D).rank == cf.degree(D) - g


def test_witness_is_lex_first_failure():
    G = cf.cycle_graph(4)
    out = rank(G, (1, 0, 1, 0))
    level = out.rank + 1
    failures = [
        E.coeffs
        for E in effective_divisors_of_degree(G.n, level)
        if not cf.is_effective_equivalent(G, Divisor((1, 0, 1, 0)) - E)
    ]
    assert out.witness_failure.coeffs == min(failures)


def test_rank_matches_brute_force():
    graphs = [cf.path_graph(3), cf.cycle_graph(3), cf.cycle_graph(2)]
    for G in graphs:
        for coeffs in itertools.product(range(-1, 3), repeat=G.n):
            assert rank(G, coeffs).rank == brute_rank(G, coeffs), (G.adj, coeffs)


def test_rank_reads_the_degree_exactly():
    # int64 sums these degrees to 2^63 - 1 and to -2^63: the first
    # would read as nonnegative and the reduction would not end, the
    # second as negative and give a rank of -1
    assert rank(cf.cycle_graph(4), (-(1 << 63), -1, 0, 0)).rank == -1
    assert not cf.is_effective_equivalent(cf.cycle_graph(4), (-(1 << 63), -1, 0, 0))
    with pytest.raises(ValueError, match="int64"):
        rank(cf.cycle_graph(4), ((1 << 63) - 1, 1, 0, 0))


@pytest.mark.parametrize(
    "func", [rank, cf.linear_system, cf.is_effective_equivalent, cf.toric_rank]
)
@pytest.mark.parametrize(
    "coeffs", [(1 << 63, 0, 0, 0), (-(1 << 63) - 1, 0, 0, 0), ((1 << 63) - 1, 1, 0, 0)]
)
def test_divisors_past_int64_raise_one_error(func, coeffs):
    # an entry outside int64 and a degree outside it raise the same error
    with pytest.raises(ValueError, match="int64"):
        func(cf.cycle_graph(4), coeffs)


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_rank_under_small_element_budget(monkeypatch, budget):
    # The budget chunks the domination test along removals (budget 1
    # forces one removal at a time against every member); ranks and
    # witnesses of rank and toric_rank must not depend on it.
    cfg = cf.ToricConfig(trials=1)
    cases = [
        (G, coeffs)
        for G in (cf.path_graph(3), cf.cycle_graph(3), cf.cycle_graph(2))
        for coeffs in itertools.product(range(-1, 3), repeat=G.n)
    ]
    expected = [(rank(G, c), cf.toric_rank(G, c, cfg)) for G, c in cases]
    monkeypatch.setattr(rank_module, "_ELEMENT_BUDGET", budget)
    for (G, coeffs), (r, t) in zip(cases, expected):
        assert rank(G, coeffs) == r, (G.adj, coeffs)
        assert r.rank == brute_rank(G, coeffs)
        assert cf.toric_rank(G, coeffs, cfg) == t, (G.adj, coeffs)


@pytest.mark.parametrize("budget, members", [(64, 20), (64, 150), (5, 7)])
def test_dominance_blocks_match_the_broadcast(monkeypatch, budget, members):
    # 20 members under a budget of 64 split the removals into chunks of
    # three; 150 (and 7 under 5) pass the budget, so each chunk is one
    # removal compared against every member at once
    rng = np.random.default_rng(budget + members)
    removals = rng.integers(0, 4, size=(40, 5))
    block = rng.integers(0, 4, size=(members, 5))
    want = (removals[:, None, :] <= block[None, :, :]).all(axis=2)
    monkeypatch.setattr(rank_module, "_ELEMENT_BUDGET", budget)
    got = list(rank_module._dominance_blocks(removals, block))
    assert len(got) == (14 if members <= budget else 40)
    assert np.array_equal(np.vstack([chunk for chunk, _ in got]), removals)
    assert np.array_equal(np.vstack([dom for _, dom in got]), want)
    assert want.any() and not want.all()
    for chunk, dom in got:
        assert dom.shape == (len(chunk), members)
        assert dom.size <= budget or len(chunk) == 1


def test_verify_rr_graph_sweep():
    for G in (cf.cycle_graph(4), cf.complete_graph(4), cf.cycle_graph(2)):
        for coeffs in itertools.product(range(-2, 3), repeat=G.n):
            assert verify_rr_graph(G, coeffs)
