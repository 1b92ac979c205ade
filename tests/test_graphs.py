import copy
import pickle

import numpy as np
import pytest

import chipfire as cf
from chipfire import Divisor, InvalidGraphError, Multigraph, PlacementError, PointPlacement

from .helpers import canonical_adjacency, pruefer_trees, trees_up_to_iso


def test_divisor_arithmetic():
    a = Divisor((1, -2, 3))
    b = Divisor((0, 2, -1))
    assert (a + b).coeffs == (1, 0, 2)
    assert (a - b).coeffs == (1, -4, 4)
    assert (-a).coeffs == (-1, 2, -3)
    assert len(a) == 3
    assert a[2] == 3
    assert list(a) == [1, -2, 3]


def test_divisor_zero_and_effective():
    z = Divisor.zero(4)
    assert z.coeffs == (0, 0, 0, 0)
    assert z.is_effective()
    assert Divisor((0, 1)).is_effective()
    assert not Divisor((0, -1)).is_effective()


def test_divisor_dominates():
    assert Divisor((2, 1)).dominates(Divisor((1, 1)))
    assert Divisor((2, 1)).dominates(Divisor((2, 1)))
    assert not Divisor((2, 1)).dominates(Divisor((3, 0)))


def test_divisor_length_mismatch():
    with pytest.raises(ValueError):
        Divisor((1, 2)) + Divisor((1, 2, 3))
    with pytest.raises(ValueError):
        Divisor((1, 2)).dominates(Divisor((1,)))


def test_divisor_arithmetic_rejects_non_divisors():
    # a tuple or list is not coerced: + and - leave it to Python, which
    # raises TypeError, and dominates raises TypeError itself
    d = Divisor((1, 2))
    for other in ((1, 1), [1, 1], 1):
        with pytest.raises(TypeError):
            d + other
        with pytest.raises(TypeError):
            d - other
        with pytest.raises(TypeError):
            d.dominates(other)
    assert d.__add__((1, 1)) is NotImplemented
    assert d.__sub__([1, 1]) is NotImplemented
    assert (d + Divisor((1, 1))).coeffs == (2, 3)
    assert d.dominates(Divisor((0, 0)))


def test_divisor_coerces_integer_like():
    d = Divisor(tuple(np.array([1, 2], dtype=np.int64)))
    assert d.coeffs == (1, 2)
    assert all(isinstance(c, int) for c in d.coeffs)


def test_divisor_rejects_non_integers():
    with pytest.raises(TypeError):
        Divisor((1.5, 0))
    with pytest.raises(TypeError):
        Divisor(("1", 0))
    with pytest.raises(TypeError):
        Divisor((True, False))
    with pytest.raises(TypeError):
        Divisor((np.bool_(True), 0))


def test_divisor_is_slotted_and_survives_copies():
    d = Divisor((3, -1, 0))
    assert not hasattr(d, "__dict__")
    for clone in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
        assert clone == d and hash(clone) == hash(d) and clone.coeffs == (3, -1, 0)
    assert {d: 1}[pickle.loads(pickle.dumps(d))] == 1


def test_degree():
    assert cf.degree(Divisor((1, -2, 3))) == 2
    assert cf.degree([5, 5]) == 10
    assert cf.degree(Divisor.zero(3)) == 0
    for bad in ((1.5, 0), (True, 2)):
        with pytest.raises(TypeError):
            cf.degree(bad)


def test_vertex_degree_past_int64_is_rejected():
    # the Laplacian is int64, where a degree of 2^62 + 2^62 wraps to -2^63
    half = 1 << 62
    with pytest.raises(InvalidGraphError, match="int64"):
        Multigraph.from_adjacency([[0, half, half], [half, 0, 1], [half, 1, 0]])
    G = Multigraph.from_adjacency([[0, half, half - 1], [half, 0, 1], [half - 1, 1, 0]])
    assert cf.laplacian(G)[0, 0] == (1 << 63) - 1


def test_multigraph_validation():
    with pytest.raises(InvalidGraphError):
        Multigraph.from_adjacency([])
    with pytest.raises(InvalidGraphError):
        Multigraph.from_adjacency([[0, 1], [1, 0, 0]])
    with pytest.raises(InvalidGraphError):
        Multigraph.from_adjacency([[0, -1], [-1, 0]])
    with pytest.raises(InvalidGraphError):
        Multigraph.from_adjacency([[1]])
    with pytest.raises(InvalidGraphError):
        Multigraph.from_adjacency([[0, 1], [2, 0]])
    with pytest.raises(InvalidGraphError):
        Multigraph.from_adjacency([[0, 0], [0, 0]])
    with pytest.raises(InvalidGraphError):
        Multigraph.from_adjacency([[0, 0.5], [0.5, 0]])


def test_multigraph_rejects_bool_entries():
    with pytest.raises(InvalidGraphError):
        Multigraph.from_adjacency([[0, True], [True, 0]])
    with pytest.raises(InvalidGraphError):
        Multigraph.from_adjacency([[0, np.True_], [np.True_, 0]])


def test_single_vertex_is_connected():
    G = Multigraph.from_adjacency([[0]])
    assert G.n == 1
    assert cf.is_connected(G)
    assert cf.genus(G) == 0


def test_is_connected_on_raw_matrices():
    assert cf.is_connected([[0, 1], [1, 0]])
    assert not cf.is_connected([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert cf.is_connected([[0]])
    for bad in ([[0, 1.7], [1.7, 0]], [[0, True], [True, 0]], []):
        with pytest.raises(InvalidGraphError):
            cf.is_connected(bad)


def test_edges_canonical_order():
    G = Multigraph.from_adjacency([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
    assert G.edges() == ((0, 1), (0, 1), (0, 2))
    assert G.edge_count() == 3
    assert G.vertex_degrees() == (3, 2, 1)


def test_laplacian_four_cycle():
    G = cf.cycle_graph(4)
    expected = [
        [2, -1, 0, -1],
        [-1, 2, -1, 0],
        [0, -1, 2, -1],
        [-1, 0, -1, 2],
    ]
    assert cf.laplacian(G).tolist() == expected


def test_laplacian_rows_sum_to_zero():
    for G in (cf.path_graph(5), cf.complete_graph(4), cf.cycle_graph(2)):
        L = cf.laplacian(G)
        assert (L.sum(axis=0) == 0).all()
        assert (L.sum(axis=1) == 0).all()


def test_genus_known_values():
    assert cf.genus(cf.path_graph(4)) == 0
    assert cf.genus(cf.cycle_graph(5)) == 1
    assert cf.genus(cf.complete_graph(4)) == 3
    assert cf.genus(cf.cycle_graph(2)) == 1


def test_canonical_divisor():
    assert cf.canonical_divisor(cf.path_graph(3)).coeffs == (-1, 0, -1)
    for G in (cf.path_graph(4), cf.cycle_graph(5), cf.complete_graph(4)):
        K = cf.canonical_divisor(G)
        assert cf.degree(K) == 2 * cf.genus(G) - 2


def test_max_vertex_degree():
    assert cf.max_vertex_degree(cf.complete_graph(4)) == 3
    assert cf.max_vertex_degree(cf.cycle_graph(2)) == 2


def test_specialize_sums_multiplicities():
    G = cf.path_graph(3)
    placement = PointPlacement(((1, 2), (3, 1), (1, -1)))
    assert cf.specialize(G, placement).coeffs == (1, 0, 1)
    assert cf.specialize(G, [(2, 5)]).coeffs == (0, 5, 0)


def test_specialize_rejects_non_integers():
    G = cf.path_graph(2)
    with pytest.raises(TypeError):
        cf.specialize(G, [(1.7, 2.5)])
    with pytest.raises(TypeError):
        cf.specialize(G, [(1, 2.5)])
    with pytest.raises(TypeError):
        cf.specialize(G, [(True, 2)])
    with pytest.raises(TypeError):
        cf.specialize(G, [(1, False)])
    assert cf.specialize(G, [(np.int64(2), np.int32(3))]).coeffs == (0, 3)


def test_specialize_rejects_bad_component():
    G = cf.path_graph(3)
    with pytest.raises(PlacementError):
        cf.specialize(G, [(0, 1)])
    with pytest.raises(PlacementError):
        cf.specialize(G, [(4, 1)])


def test_graph_factories():
    assert cf.path_graph(2).adj == ((0, 1), (1, 0))
    assert cf.cycle_graph(2).adj == ((0, 2), (2, 0))
    assert cf.cycle_graph(3).edge_count() == 3
    K4 = cf.complete_graph(4)
    assert K4.edge_count() == 6
    assert K4.vertex_degrees() == (3, 3, 3, 3)


def test_multigraph_hashable_and_equal():
    a = cf.cycle_graph(3)
    b = Multigraph.from_adjacency([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # pool workers of the exhaustive sweep receive the graph pickled
    c = pickle.loads(pickle.dumps(a))
    assert c == a and hash(c) == hash(a) and c.adj == a.adj


def test_adjacency_array_is_writable_copy():
    G = cf.cycle_graph(3)
    arr = G.adjacency_array()
    arr[0][1] = 99
    assert G.adj[0][1] == 1


def test_tree_catalog_counts_and_brute_force_dedupe():
    # unlabelled trees on 1..7 vertices (OEIS A000055)
    assert [len(trees_up_to_iso(n)) for n in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]
    # deduplicating every Pruefer tree by its brute-force canonical form
    # keeps the same representatives in the same order
    for n in range(3, 6):
        seen, brute = set(), []
        for adj in pruefer_trees(n):
            canon = canonical_adjacency(adj)
            if canon not in seen:
                seen.add(canon)
                brute.append(cf.Multigraph(canon))
        assert trees_up_to_iso(n) == tuple(brute)
