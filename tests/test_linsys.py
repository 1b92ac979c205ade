import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings

import chipfire as cf
from chipfire import (
    Divisor,
    apply_firing,
    is_effective_equivalent,
    linear_system,
    verify_rr_graph,
)
from chipfire import linsys

from . import helpers
from .helpers import brute_members, graph_and_divisor


def test_apply_firing_constant_vector_is_identity():
    G = cf.cycle_graph(4)
    D = Divisor((3, -1, 0, 2))
    assert apply_firing(G, D, (1, 1, 1, 1)) == D
    assert apply_firing(G, D, (-2, -2, -2, -2)) == D


def test_apply_firing_conserves_degree():
    G = cf.complete_graph(4)
    D = Divisor((1, 0, -2, 5))
    for f in itertools.product((-1, 0, 2), repeat=4):
        assert cf.degree(apply_firing(G, D, f)) == cf.degree(D)


def test_apply_firing_single_borrow():
    G = cf.path_graph(3)
    out = apply_firing(G, Divisor.zero(3), (0, 1, 0))
    assert out.coeffs == (-1, 2, -1)


def test_apply_firing_rejects_non_integers():
    G = cf.path_graph(2)
    with pytest.raises(TypeError):
        apply_firing(G, (1, 0), (0.9, 0))
    with pytest.raises(TypeError):
        apply_firing(G, (1, 0), (True, 0))
    assert apply_firing(G, (1, 0), (np.int64(1), np.int32(0))).coeffs == (2, -1)


def test_apply_firing_length_check():
    G = cf.path_graph(3)
    with pytest.raises(ValueError):
        apply_firing(G, Divisor.zero(3), (0, 1))


def test_linear_system_members_are_sorted_effective_dedup():
    G = cf.cycle_graph(4)
    ls = linear_system(G, (2, 0, 0, 0))
    assert all(d.is_effective() for d in ls)
    assert list(ls.divisors) == sorted(ls.divisors, key=lambda d: d.coeffs)
    assert len(set(ls.divisors)) == len(ls.divisors)
    assert all(cf.degree(d) == 2 for d in ls)


def test_linear_system_negative_degree_empty():
    G = cf.path_graph(3)
    ls = linear_system(G, (0, 0, -1))
    assert ls.is_empty()
    assert len(ls) == 0


def test_linear_system_container_protocol():
    G = cf.path_graph(2)
    ls = linear_system(G, (1, 0))
    assert Divisor((1, 0)) in ls
    assert Divisor((0, 1)) in ls
    assert Divisor((2, -1)) not in ls
    assert len(ls) == 2
    assert ls.base == Divisor((1, 0))


def test_canonical_system_on_four_cycle():
    # genus 1, canonical divisor is zero: |K| = {0}
    G = cf.cycle_graph(4)
    ls = linear_system(G, cf.canonical_divisor(G))
    assert ls.divisors == (Divisor.zero(4),)


def test_linear_system_matches_brute_force_small():
    graphs = [
        cf.path_graph(3),
        cf.cycle_graph(3),
        cf.cycle_graph(2),
        cf.complete_graph(4),
        cf.Multigraph.from_adjacency([[0, 2, 0], [2, 0, 1], [0, 1, 0]]),
    ]
    for G in graphs:
        for coeffs in itertools.product(range(-1, 3), repeat=G.n):
            expected = brute_members(G, coeffs)
            got = {d.coeffs for d in linear_system(G, coeffs)}
            assert got == expected, (G.adj, coeffs)


def test_equivalent_divisors_share_system():
    G = cf.cycle_graph(5)
    D = Divisor((2, 0, 0, 0, 0))
    shifted = apply_firing(G, D, (0, 1, 1, 0, 0))
    assert linear_system(G, D).divisors == linear_system(G, shifted).divisors


# A simple graph on 10 vertices with invariant factors (1, ..., 1, 754495, 0)
# whose diagonalizing transform U has 50-bit entries.
WIDE_TRANSFORM_GRAPH = (
    (0, 0, 1, 1, 1, 0, 1, 1, 0, 1),
    (0, 0, 1, 0, 0, 1, 0, 0, 1, 1),
    (1, 1, 0, 0, 1, 1, 1, 0, 1, 0),
    (1, 0, 0, 0, 0, 0, 0, 1, 0, 1),
    (1, 0, 1, 0, 0, 1, 1, 1, 1, 1),
    (0, 1, 1, 0, 1, 0, 1, 1, 1, 0),
    (1, 0, 1, 0, 1, 1, 0, 1, 1, 0),
    (1, 0, 0, 1, 1, 1, 1, 0, 1, 1),
    (0, 1, 1, 0, 1, 1, 1, 1, 0, 0),
    (1, 1, 0, 1, 1, 0, 0, 1, 0, 0),
)


def test_class_keys_keep_only_nontrivial_factors():
    G = cf.Multigraph.from_adjacency(WIDE_TRANSFORM_GRAPH)
    rows, moduli = linsys._class_data(G)
    assert moduli.tolist() == [754495, 0]
    assert (rows[0] >= 0).all() and (rows[0] < 754495).all()
    assert abs(rows[1]).tolist() == [1] * 10
    assert cf.rank(G, Divisor.zero(10)).rank == 0
    D = Divisor((2, 3, 2, 3, 1, 3, 1, 0, 1, 2))  # degree g - 1 = 18
    assert cf.rank(G, D).rank == 2
    assert verify_rr_graph(G, D)
    fired = [
        apply_firing(G, D, f)
        for f in [(1, -2, 0, 3, 0, 0, 1, 0, 0, 5), (0,) * 9 + (7,), (4, 4, 4, 4, 4, 4, 4, 4, 4, 4)]
    ]
    keys = linsys._class_keys_batch(G, np.array([D.coeffs] + [E.coeffs for E in fired]))
    assert (keys == keys[0]).all()
    e_last, e_first = linsys._class_keys_batch(G, np.eye(10, dtype=np.int64)[[9, 0]])
    assert (e_last != e_first).any()


@pytest.mark.parametrize(
    "seed, factors", [(3, [2, 3_588_816_650_934, 0]), (6, [15_780_380_899_397, 0])]
)
def test_class_keys_past_40_bit_factors(seed, factors):
    # Invariant factors of 42 and 44 bits: key rows reduced mod them stay
    # below 2^44, so int64 keys hold for any divisor of moderate size.
    G = cf.random_connected_graph(16, seed)
    rows, moduli = linsys._class_data(G)
    assert moduli.tolist() == factors
    assert not rows.flags.writeable and not moduli.flags.writeable
    e = [Divisor(tuple(int(i == v) for i in range(16))) for v in range(2)]
    assert cf.rank(G, Divisor.zero(16)).rank == 0
    assert cf.rank(G, e[0]).rank == 0
    D = Divisor((3, 0, 1, 2) * 4)
    f = (1, -2, 0, 3) + (0,) * 11 + (5,)
    key_fired, key_D = linsys._class_keys_batch(G, np.array([apply_firing(G, D, f).coeffs, D.coeffs]))
    assert (key_fired == key_D).all()
    key_e0, key_e1 = linsys._class_keys_batch(G, np.array([e[0].coeffs, e[1].coeffs]))
    assert (key_e0 != key_e1).any()
    with pytest.raises(OverflowError):  # 2^44 * 16 * 10^7 > 2^63
        linsys._class_keys_batch(G, np.array([(10**7,) + (0,) * 15]))


def test_is_effective_equivalent():
    G = cf.cycle_graph(4)
    assert is_effective_equivalent(G, (1, -1, 1, 0))
    assert not is_effective_equivalent(G, (1, -1, -1, 0))
    assert not is_effective_equivalent(G, (0, 0, 0, -1))


def test_winnability_against_greedy_solver():
    from .helpers import greedy_winnable

    for G in (cf.cycle_graph(3), cf.cycle_graph(4), cf.path_graph(4)):
        for coeffs in itertools.product(range(-2, 3), repeat=G.n):
            assert is_effective_equivalent(G, coeffs) == greedy_winnable(G, coeffs), (
                G.adj,
                coeffs,
            )


def test_tree_closed_form_past_brute_force_reach():
    # On a tree every degree-d divisor is equivalent to every other, so |D|
    # is all C(d + n - 1, n - 1) effective divisors of degree d.
    ls = linear_system(cf.path_graph(8), (10,) + (0,) * 7)
    assert len(ls) == comb(17, 7) == 19_448
    assert all(d.is_effective() and cf.degree(d) == 10 for d in ls)
    assert list(ls.divisors) == sorted(ls.divisors, key=lambda d: d.coeffs)


@pytest.mark.parametrize("budget", [1, 5, 40])
def test_walk_under_small_element_budget(monkeypatch, budget):
    # The budget splits the subset table (budget < n) and the frontier;
    # the members must not depend on it.
    cases = [
        (cf.path_graph(5), (3, 0, 0, 0, 0)),
        (cf.cycle_graph(4), (2, -1, 1, 0)),
        (cf.complete_graph(4), (3, 0, -1, 2)),
        (cf.path_graph(3), (0, 0, -1)),
    ]
    expected = [linsys._compute_members(G, Divisor(c)) for G, c in cases]
    monkeypatch.setattr(linsys, "_ELEMENT_BUDGET", budget)
    for (G, c), want in zip(cases, expected):
        got = linsys._walk_members(G, Divisor(c))
        np.testing.assert_array_equal(got, want)
        assert {tuple(r) for r in got.tolist()} == brute_members(G, c)


def _assert_same_rows(got, want):
    # same array, row for row: shape, dtype and order, not just the set
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graph_and_divisor())
def test_member_filter_matches_walk_on_random_multigraphs(case):
    G, coeffs = case
    D = Divisor(coeffs)
    _assert_same_rows(linsys._filter_members(G, D), linsys._walk_members(G, D))


def test_member_filter_matches_walk_on_tree_windows():
    # every 97th window divisor that criterion 3 asks about (trees with
    # n <= 6, degrees 0..3, entries in [-2, d + 2])
    from .helpers import trees_up_to_iso

    checked = 0
    for T in (T for n in range(1, 7) for T in trees_up_to_iso(n)):
        for d in range(4):
            for row in linsys._compositions_array(T.n, d, -2, d + 2)[::97].tolist():
                D = Divisor(tuple(row))
                filtered = linsys._filter_members(T, D)
                _assert_same_rows(filtered, linsys._walk_members(T, D))
                assert len(filtered) == comb(d + T.n - 1, T.n - 1)
                checked += 1
    assert checked == 1_620


def test_member_paths_switch_at_the_element_budget(monkeypatch):
    G, D = cf.complete_graph(4), Divisor((3, 0, -1, 2))  # C(7, 3) * 4 = 140 entries
    walked = []
    real_walk = linsys._walk_members
    monkeypatch.setattr(linsys, "_walk_members", lambda G, D: walked.append(D) or real_walk(G, D))
    monkeypatch.setattr(linsys, "_ELEMENT_BUDGET", 140)
    by_filter = linsys._compute_members(G, D)
    assert walked == []
    monkeypatch.setattr(linsys, "_ELEMENT_BUDGET", 139)
    by_walk = linsys._compute_members(G, D)
    assert walked == [D]
    _assert_same_rows(by_filter, by_walk)
    assert {tuple(r) for r in by_walk.tolist()} == brute_members(G, D.coeffs)


def test_member_filter_falls_back_to_walk_on_overflow(monkeypatch):
    def overflow(G):
        raise OverflowError("invariant factor of the Laplacian past 2^62")

    G, D = cf.cycle_graph(5), Divisor((2, 0, 1, -1, 1))
    want = linsys._walk_members(G, D)
    monkeypatch.setattr(linsys, "_class_data", overflow)
    _assert_same_rows(linsys._compute_members(G, D), want)
    with pytest.raises(OverflowError):
        linsys._filter_members(G, D)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graph_and_divisor())
def test_linear_system_and_rr_on_random_multigraphs(case):
    G, coeffs = case
    # If E = D + L f with E effective and f >= 0 vanishing somewhere, every
    # cut {f >= t} carries a firing difference of at most the positive
    # chips P of D on each edge, so f <= P * (n - 1): this radius is enough.
    radius = max(1, sum(c for c in coeffs if c > 0) * (G.n - 1))
    try:
        expected = brute_members(G, coeffs, radius=radius)
    finally:
        helpers._OFFSET_CACHE.clear()  # one entry per random graph otherwise
    assert {d.coeffs for d in linear_system(G, coeffs)} == expected
    assert verify_rr_graph(G, coeffs)
    if G.n <= 4:  # the toric scan on n = 5 multigraphs takes minutes
        memo = cf.ToricMemo(G, cf.ToricConfig())
        assert cf.toric_rank(G, coeffs, memo=memo).rank <= cf.rank(G, coeffs).rank
        assert cf.verify_rr_toric(G, coeffs, memo=memo)


def test_member_cache_is_bounded_and_evicts_least_recent():
    G = cf.cycle_graph(3)
    divisors = [Divisor(c) for c in itertools.product(range(7), repeat=3)]  # 343 > 256
    linsys._members.cache_clear()
    first = [linear_system(G, D).divisors for D in divisors[:5]]
    for D in divisors:
        linear_system(G, D)
    info = linsys._members.cache_info()
    assert info.maxsize == 256 and info.currsize == 256
    assert info.misses == len(divisors) and info.hits == 5
    # the first divisors were evicted: asking again recomputes the same sets
    assert [linear_system(G, D).divisors for D in divisors[:5]] == first
    assert linsys._members.cache_info().misses == len(divisors) + 5
    for D in divisors[::17]:
        assert {d.coeffs for d in linear_system(G, D)} == brute_members(G, D.coeffs)


def test_member_arrays_are_read_only():
    members = linsys._members(cf.path_graph(3), Divisor((2, 0, 0)))
    assert len(members) == 6 and not members.flags.writeable
    with pytest.raises(ValueError):
        members[0, 0] = 7


def test_single_queries_diagonalize_each_graph_at_most_once(monkeypatch):
    # The member filter keys a small composition table by class, so single
    # queries diagonalize the Laplacian; the cached class data means at
    # most once per graph, however many queries follow.
    calls = []
    real_snf = linsys._snf_left
    monkeypatch.setattr(linsys, "_snf_left", lambda M: calls.append(tuple(map(tuple, M))) or real_snf(M))
    linsys._class_data.cache_clear()
    linsys._members.cache_clear()
    G = cf.Multigraph.from_adjacency(WIDE_TRANSFORM_GRAPH)
    D = Divisor((2, 3, 2, 3, 1, 3, 1, 0, 1, 2))
    for _ in range(2):
        assert cf.rank(G, D).rank == 2
        assert verify_rr_graph(G, D)
        assert D in linear_system(G, D)
        assert cf.rank(G, Divisor((1,) + (0,) * 9)).rank == 0  # degree 1: the filter
        assert cf.verify_rr_toric(cf.complete_graph(4), (1, 0, 0, 1))
        assert cf.rank(cf.cycle_graph(5), (2, 0, 0, 0, 0)).rank == 1
    linsys._class_data.cache_clear()
    assert len(calls) == len(set(calls)) == 3
