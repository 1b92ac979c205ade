import functools
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


def test_apply_firing_is_exact_past_int64():
    # L f is summed over Python ints: int64 would wrap the middle entry
    # to -2^63, and an entry of 2^70 would not convert at all
    G = cf.path_graph(3)
    assert apply_firing(G, (0, 0, 0), (0, 1 << 62, 0)).coeffs == (-(1 << 62), 1 << 63, -(1 << 62))
    assert apply_firing(G, (1, 0, 0), (1 << 70, 0, 0)).coeffs == (1 + (1 << 70), -(1 << 70), 0)


def test_reduction_is_exact_past_int64():
    # D ~ (1, 0, 0, 0) on a path.  In int64 the reduction wraps on the
    # way, to an "effective" row of entries near 2^63 whose degree reads
    # 1 only mod 2^64, and the walk from it does not end
    G = cf.path_graph(4)
    D = Divisor(
        (5593949872585389043, -4602849981370987337, -7401443257009722823, 6410343365795321118)
    )
    assert cf.degree(D) == 1
    rep = linsys._effective_representative(cf.laplacian(G), D.as_array())
    assert sum(rep.tolist()) == 1 and (rep >= 0).all()
    want = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    assert linsys._walk_members(G, D).tolist() == want


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


def test_membership_reads_every_divisor_form():
    # linear_system takes a tuple or a list for D, and so does `in`
    G = cf.cycle_graph(4)
    ls = linear_system(G, (2, 0, 0, 0))
    assert (2, 0, 0, 0) in ls and [0, 1, 0, 1] in ls and Divisor((0, 0, 2, 0)) in ls
    assert (1, 1, 0, 0) not in ls and [0, 0, 0, 2] not in ls
    with pytest.raises(ValueError, match="4 vertices"):
        (2, 0, 0) in ls
    with pytest.raises(TypeError):
        (2.0, 0, 0, 0) in ls


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compositions_array_matches_product_oracle(n):
    # negative lo, hi below lo, and d outside [n * lo, n * hi] included
    for lo, hi, d in itertools.product(range(-2, 2), range(-3, 4), range(-7, 9)):
        got = linsys._compositions_array(n, d, lo, hi)
        want = [r for r in itertools.product(range(lo, hi + 1), repeat=n) if sum(r) == d]
        assert got.dtype == np.int64 and got.shape == (len(want), n), (n, d, lo, hi)
        assert got.tolist() == [list(r) for r in want], (n, d, lo, hi)
        assert not got.flags.writeable
        assert linsys._compositions_array(n, d, lo, hi) is got
    # hi defaults to d
    for d in range(-1, 6):
        want = [list(r) for r in itertools.product(range(d + 1), repeat=n) if sum(r) == d]
        assert linsys._compositions_array(n, d).tolist() == want
        assert linsys._compositions_array(n, d) is linsys._compositions_array(n, d)


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
    assert moduli.tolist() == [754495]
    assert (rows[0] >= 0).all() and (rows[0] < 754495).all()
    assert rows[1].tolist() == [1] * 10  # the last key entry is the degree
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
    "seed, factors", [(3, [2, 3_588_816_650_934]), (6, [15_780_380_899_397])]
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
    # 2^44 * 16 * 10^7 > 2^63: keyed over Python ints, reduced before the
    # cast to int64, still exact
    big = Divisor((10**7,) + (0,) * 15)
    assert 10**7 * int(rows[:-1, 0].max()) >= 1 << 63
    exact = [10**7 * int(u) % s for u, s in zip(rows[:-1, 0], factors)] + [10**7]
    keys = linsys._class_keys_batch(G, np.array([big.coeffs, apply_firing(G, big, f).coeffs]))
    assert keys.dtype == np.int64
    assert keys.tolist() == [exact, exact]


def _groups(labels):
    """The first row of each row's group, grouping rows by equal labels."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


def _assert_codes_group_like_keys(G, rows):
    codes = linsys._class_codes(G, rows)
    keys = linsys._row_keys(linsys._class_keys_batch(G, rows))
    assert (_groups(codes) == _groups(keys)).all()
    return codes


def _shifted_rows(G, coeffs):
    """coeffs, divisors equivalent to it, divisors of its degree that
    mostly are not, its dual, and rows of other degrees."""
    n = G.n
    D = np.array(coeffs, dtype=np.int64)
    L = cf.laplacian(G)
    eye = np.eye(n, dtype=np.int64)
    return np.vstack(
        [
            D,
            D + L @ eye,  # one borrowing at each vertex
            D - 2 * (L @ eye),
            D + eye - eye[0],
            cf.canonical_divisor(G).as_array() - D,
            D + eye,
            -D,
        ]
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph_and_divisor())
def test_class_codes_group_like_class_keys(case):
    G, coeffs = case
    codes = _assert_codes_group_like_keys(G, _shifted_rows(G, coeffs))
    assert codes.dtype == np.int64


def test_class_codes_are_python_ints_past_the_int64_bound():
    # kappa(K_20) = 20^18 > 2^63: every batch is coded over Python ints,
    # in the same mixed radix
    G = cf.complete_graph(20)
    assert linsys._class_data(G)[1].tolist() == [20] * 18
    rows = _shifted_rows(G, (2, -1) + (0,) * 17 + (1,))
    codes = _assert_codes_group_like_keys(G, rows)
    assert codes.dtype == object and {type(c) for c in codes} == {int}
    keys = linsys._class_keys_batch(G, rows).tolist()
    assert codes.tolist() == [sum(k * 20**i for i, k in enumerate(key)) for key in keys]
    # kappa = 2 * 3,588,816,650,934 here: small degrees get int64 codes,
    # degree 10^7 passes the bound; codes of both batches compare
    H = cf.random_connected_graph(16, 3)
    small = _shifted_rows(H, (3, 0, 1, 2) * 4)
    low = _assert_codes_group_like_keys(H, small)
    assert low.dtype == np.int64
    big = small + np.eye(16, dtype=np.int64)[0] * 10**7
    high = _assert_codes_group_like_keys(H, big)
    assert high.dtype == object
    assert not np.isin(low, high).any()
    both = linsys._class_codes(H, np.vstack([small, big]))
    assert both.tolist() == low.tolist() + high.tolist()


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
    expected = [linsys._members.__wrapped__(G, Divisor(c)) for G, c in cases]
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
    _assert_same_rows(linsys._members.__wrapped__(G, D), linsys._walk_members(G, D))


def test_member_filter_matches_walk_on_tree_windows():
    # every 97th window divisor that criterion 3 asks about (trees with
    # n <= 6, degrees 0..3, entries in [-2, d + 2]), read as one batch
    # per tree and degree
    from .helpers import trees_up_to_iso

    checked = 0
    for T in (T for n in range(1, 7) for T in trees_up_to_iso(n)):
        for d in range(4):
            reps = linsys._compositions_array(T.n, d, -2, d + 2)[::97]
            for row, filtered in zip(reps.tolist(), linsys._class_members(T, d, reps)):
                _assert_same_rows(filtered, linsys._walk_members(T, Divisor(tuple(row))))
                assert len(filtered) == comb(d + T.n - 1, T.n - 1)
                checked += 1
    assert checked == 1_620


def test_batch_read_matches_single_reads_and_copies():
    # repeated classes and non-effective rows included; every array is a
    # copy, so none pins the composition table
    G = cf.complete_graph(4)
    reps = linsys._compositions_array(4, 3, -2, 5)[::7]
    batch = linsys._class_members(G, 3, reps)
    assert len(batch) == len(reps) > 20
    for row, members in zip(reps.tolist(), batch):
        D = Divisor(tuple(row))
        _assert_same_rows(members, linsys._members.__wrapped__(G, D))
        _assert_same_rows(members, linsys._walk_members(G, D))
        assert members.base is None
    assert [len(m) for m in linsys._class_members(G, 3, reps[:0])] == []


def test_member_paths_switch_at_the_element_budget(monkeypatch):
    G, D = cf.complete_graph(4), Divisor((3, 0, -1, 2))  # C(7, 3) * 4 = 140 entries
    walked = []
    real_walk = linsys._walk_members
    monkeypatch.setattr(linsys, "_walk_members", lambda G, D: walked.append(D) or real_walk(G, D))
    monkeypatch.setattr(linsys, "_ELEMENT_BUDGET", 140)
    by_filter = linsys._members.__wrapped__(G, D)
    assert walked == []
    monkeypatch.setattr(linsys, "_ELEMENT_BUDGET", 139)
    by_walk = linsys._members.__wrapped__(G, D)
    assert walked == [D]
    _assert_same_rows(by_filter, by_walk)
    assert {tuple(r) for r in by_walk.tolist()} == brute_members(G, D.coeffs)


def _fat_triangle(m):
    """The triangle with every edge m-fold: invariant factors m and 3m."""
    return cf.Multigraph.from_adjacency([[0, m, m], [m, 0, m], [m, m, 0]])


def test_member_table_answers_on_every_graph_and_matches_walk(monkeypatch):
    # multigraphs whose walk is cheap: one with int64 codes, one with an
    # invariant factor past 2^62 (2^62 + 1 parallel edges), one with
    # factors 2^61 and 3 * 2^61, and one with int64 keys but kappa =
    # 3 * 2^62 > 2^63
    cases = [
        (cf.cycle_graph(5), (2, 0, 1, -1, 1), np.int64),
        (cf.Multigraph.from_adjacency([[0, (1 << 62) + 1], [(1 << 62) + 1, 0]]), (2, 0), object),
        (_fat_triangle(1 << 61), (2, 0, 1), object),
        (_fat_triangle(1 << 31), (1, 2, 0), object),
    ]
    wanted = [linsys._walk_members(G, Divisor(coeffs)) for G, coeffs, _ in cases]
    monkeypatch.setattr(linsys, "_walk_members", None)  # the table must answer
    for (G, coeffs, code_type), want in zip(cases, wanted):
        D = Divisor(coeffs)
        E = apply_firing(G, D, (1,) + (0,) * (G.n - 1))
        assert len(want) > 0
        _assert_same_rows(linsys._members.__wrapped__(G, D), want)
        for members in linsys._class_members(G, cf.degree(D), np.array([D.coeffs, E.coeffs])):
            _assert_same_rows(members, want)
        codes = linsys._class_codes(G, np.array([D.coeffs, E.coeffs, (D + D).coeffs]))
        assert codes.dtype == code_type
        assert codes[0] == codes[1] != codes[2]


def test_member_filter_keys_past_the_int64_product_bound(monkeypatch):
    # the factor fits 2^62, but max|U| * n * 2 passes 2^63
    G = cf.random_connected_graph(20, 1)
    rows, moduli = linsys._class_data(G)
    assert moduli.tolist() == [258_646_455_464_187_608]
    assert int(np.abs(rows).max()) * 20 * 2 >= 1 << 63
    D = Divisor((2,) + (0,) * 19)
    # E's key products pass 2^63 before the reduction
    E = apply_firing(G, D, (0,) * 19 + (30,))
    assert abs(sum(int(u) * c for u, c in zip(rows[0], E.coeffs))) >= 1 << 63
    keys = linsys._class_keys_batch(G, np.array([D.coeffs, E.coeffs]))
    assert keys.tolist() == [[2 * int(rows[0, 0]), 2]] * 2
    want = linsys._walk_members(G, D)
    monkeypatch.setattr(linsys, "_walk_members", None)  # the table must answer
    _assert_same_rows(linsys._members.__wrapped__(G, D), want)


def test_class_data_remembers_an_overflowing_graph(monkeypatch):
    calls = []
    real_snf = linsys._snf_left
    monkeypatch.setattr(linsys, "_snf_left", lambda M: calls.append(1) or real_snf(M))
    linsys._class_data.cache_clear()
    linsys._members.cache_clear()
    G = cf.random_connected_graph(24, 0)  # an invariant factor past 2^63
    rows, moduli = linsys._class_data(G)
    assert rows.dtype == moduli.dtype == object and moduli.max() >= 1 << 63
    D = Divisor((2,) + (0,) * 23)
    # the walk over 2^24 subset firings is too slow here; the table answers
    monkeypatch.setattr(linsys, "_walk_members", None)
    for _ in range(2):
        assert linear_system(G, D).divisors == (D,)
        linsys._members.cache_clear()
    assert len(calls) == 1
    # D, its firings, and the unit divisors: np.unique groups the codes
    L = cf.laplacian(G)
    eye = np.eye(24, dtype=np.int64)
    fired = D.as_array() + L @ eye
    codes = linsys._class_codes(G, np.vstack([D.as_array(), fired, eye]))
    assert len(calls) == 1
    _, classes = np.unique(codes, return_inverse=True)
    assert (classes[: 1 + 24] == classes[0]).all()
    assert len(set(classes[1 + 24 :].tolist())) == 24
    assert classes[0] not in classes[1 + 24 :]
    linsys._class_data.cache_clear()


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
    memo = cf.ToricMemo(G, cf.ToricConfig())
    toric = cf.toric_rank(G, coeffs, memo=memo).rank
    assert toric <= cf.rank(G, coeffs).rank
    assert cf.verify_rr_toric(G, coeffs, memo=memo)
    # the closed form max(deg E - g, -1), for E = D and K - D; K - D reads
    # the verdicts verify_rr_toric left in the memo
    g, dual = cf.genus(G), cf.canonical_divisor(G) - Divisor(coeffs)
    assert toric == max(sum(coeffs) - g, -1)
    assert cf.toric_rank(G, dual, memo=memo).rank == max(cf.degree(dual) - g, -1)


def test_member_cache_is_bounded_and_evicts_least_recent():
    G = cf.cycle_graph(3)
    divisors = [Divisor(c) for c in itertools.product(range(4), repeat=3)]  # 64 > 8
    linsys._members.cache_clear()
    first = [linear_system(G, D).divisors for D in divisors[:5]]
    for D in divisors:
        linear_system(G, D)
    info = linsys._members.cache_info()
    assert info.maxsize == 8 and info.currsize == 8
    assert info.misses == len(divisors) and info.hits == 5
    # the first divisors were evicted: asking again recomputes the same sets
    assert [linear_system(G, D).divisors for D in divisors[:5]] == first
    assert linsys._members.cache_info().misses == len(divisors) + 5
    for D in divisors[::5]:
        assert {d.coeffs for d in linear_system(G, D)} == brute_members(G, D.coeffs)


def test_rank_toric_rank_and_linear_system_share_one_read_of_each_system():
    # D and K - D each cost one miss, however many callers read them
    G, D = cf.complete_graph(4), Divisor((1, 1, 0, 1))
    dual = cf.canonical_divisor(G) - D
    linsys._members.cache_clear()
    for E in (D, dual):
        linear_system(G, E)
        cf.rank(G, E)
        cf.toric_rank(G, E)
    info = linsys._members.cache_info()
    assert info.misses == 2 and info.hits == 4
    first, again = linear_system(G, D), linear_system(G, D)
    assert len(first) > 1 and first.divisors == again.divisors
    assert all(a is b for a, b in zip(first, again))


def test_linear_systems_share_their_common_members(monkeypatch):
    # a path and a cycle on six vertices at degree 7: on the tree every
    # composition is a member, so the cycle's members are among its own
    cycle, path = cf.cycle_graph(6), cf.path_graph(6)
    D, E = Divisor((7, 0, 0, 0, 0, 0)), Divisor((0, 3, 0, 4, 0, 0))
    linsys._member.cache_clear()
    linsys._members.cache_clear()
    on_cycle, on_path = linear_system(cycle, D), linear_system(path, E)
    for system, G in ((on_cycle, cycle), (on_path, path)):
        fresh = [Divisor(tuple(r)) for r in linsys._members(G, system.base).tolist()]
        assert list(system) == fresh
    assert len(on_path) == comb(7 + 5, 5)
    by_coeffs = {m.coeffs: m for m in on_path}
    assert all(by_coeffs[m.coeffs] is m for m in on_cycle)
    # members from the walk, past the table budget, are the same objects
    # in the same order
    walked = []
    real_walk = linsys._walk_members
    monkeypatch.setattr(linsys, "_walk_members", lambda G, D: walked.append(D) or real_walk(G, D))
    monkeypatch.setattr(linsys, "_ELEMENT_BUDGET", 64)
    linsys._members.cache_clear()
    again = linear_system(cycle, D)
    assert walked == [D]
    assert again == on_cycle and all(a is b for a, b in zip(again, on_cycle))


def _small_member_cache(monkeypatch):
    assert linsys._member.cache_parameters()["maxsize"] == 1 << 16
    small = functools.lru_cache(maxsize=100)(linsys._member.__wrapped__)
    monkeypatch.setattr(linsys, "_member", small)
    return small


def test_shared_members_stay_within_their_cap(monkeypatch):
    # the member cache is bounded; under a cap of 100, systems of 56 and
    # 70 members fill it and the least recent are evicted, and the
    # members are still the table rows in order
    small = _small_member_cache(monkeypatch)
    P5, P6 = cf.path_graph(5), cf.path_graph(6)
    first = linear_system(P6, (3, 0, 0, 0, 0, 0))
    second = linear_system(P5, (0, 4, 0, 0, 0))
    for system, G in ((first, P6), (second, P5)):
        assert list(system) == [Divisor(tuple(r)) for r in linsys._members(G, system.base).tolist()]
    assert (len(first), len(second)) == (comb(3 + 5, 5), comb(4 + 4, 4)) == (56, 70)
    info = small.cache_info()
    assert info.currsize == 100 and info.misses == 126
    assert all(small(m.coeffs) is m for m in second)
    assert small.cache_info().hits == 70


def test_member_arrays_are_read_only():
    members = linsys._members(cf.path_graph(3), Divisor((2, 0, 0)))
    assert len(members) == 6 and not members.flags.writeable
    with pytest.raises(ValueError):
        members[0, 0] = 7


def test_single_queries_diagonalize_each_graph_at_most_once(monkeypatch):
    # The table read codes a small composition table by class, so single
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
        assert cf.rank(G, Divisor((1,) + (0,) * 9)).rank == 0  # degree 1: the table
        assert cf.verify_rr_toric(cf.complete_graph(4), (1, 0, 0, 1))
        assert cf.rank(cf.cycle_graph(5), (2, 0, 0, 0, 0)).rank == 1
    linsys._class_data.cache_clear()
    assert len(calls) == len(set(calls)) == 3
