import numpy as np
import pytest

from hypersub.errors import EmptyHyperedge, InvalidWeight, IsolatedNode
from hypersub.hypergraph import (build_hypergraph, degrees, dual,
                                 incidence_matrix, theta)

from conftest import random_hypergraph


def dense_theta(h):
    """Oracle: normalized adjacency assembled from dense matrix products."""
    hm = incidence_matrix(h)
    node_deg, edge_deg = degrees(h)
    dv = np.zeros(h.num_nodes)
    dv[node_deg > 0] = node_deg[node_deg > 0] ** -0.5
    w = np.diag(h.edge_weights)
    de_inv = np.diag(1.0 / edge_deg)
    return np.diag(dv) @ hm @ w @ de_inv @ hm.T @ np.diag(dv)


def test_build_dedupes_and_sorts():
    h = build_hypergraph([[2, 0, 2, 1], [1]])
    assert h.edge_members == ((0, 1, 2), (1,))
    assert h.node_memberships == ((0,), (0, 1), (0,))
    assert h.num_nodes == 3 and h.num_edges == 2
    assert np.array_equal(h.edge_weights, [1.0, 1.0])


def test_build_infers_and_checks_node_count():
    assert build_hypergraph([[0, 5]]).num_nodes == 6
    h = build_hypergraph([[0, 1]], num_nodes=4)
    assert h.num_nodes == 4
    assert h.node_memberships[3] == ()
    with pytest.raises(ValueError):
        build_hypergraph([[0, 4]], num_nodes=4)


def test_build_rejects_bad_input():
    with pytest.raises(EmptyHyperedge):
        build_hypergraph([[0, 1], []])
    with pytest.raises(InvalidWeight):
        build_hypergraph([[0, 1]], edge_weights=[0.0])
    with pytest.raises(InvalidWeight):
        build_hypergraph([[0, 1]], edge_weights=[-2.0])
    with pytest.raises(InvalidWeight):
        build_hypergraph([[0, 1]], edge_weights=[np.inf])
    with pytest.raises(ValueError):
        build_hypergraph([[-1, 0]])


def test_round_trip_from_edge_lists(rng):
    for _ in range(20):
        h = random_hypergraph(rng)
        again = build_hypergraph([list(m) for m in h.edge_members],
                                 edge_weights=h.edge_weights,
                                 num_nodes=h.num_nodes)
        assert (again.num_nodes, again.num_edges) == (h.num_nodes, h.num_edges)
        assert again.edge_members == h.edge_members
        assert again.node_memberships == h.node_memberships
        assert np.array_equal(again.edge_weights, h.edge_weights)


def test_degrees_hand_example():
    # node degree sums incident edge weights; edge degree counts members
    h = build_hypergraph([[0, 1], [1, 2]], edge_weights=[2.0, 3.0])
    node_deg, edge_deg = degrees(h)
    assert node_deg.tolist() == [2.0, 5.0, 3.0]
    assert edge_deg.tolist() == [2.0, 2.0]


def test_theta_single_edge_uniform():
    h = build_hypergraph([[0, 1, 2]])
    t = theta(h).to_dense()
    assert np.allclose(t, np.full((3, 3), 1.0 / 3.0), atol=1e-12)


def test_theta_two_edges_hand_value():
    h = build_hypergraph([[0, 1], [1, 2]])
    t = theta(h).to_dense()
    assert abs(t[0, 0] - 0.5) <= 1e-12
    assert abs(t[1, 1] - 0.5) <= 1e-12
    assert abs(t[0, 1] - 0.5 / np.sqrt(2.0)) <= 1e-12
    assert abs(t[0, 2] - 0.0) <= 1e-12


def test_theta_matches_dense_oracle(rng):
    for _ in range(50):
        h = random_hypergraph(rng)
        sp = theta(h)
        assert np.max(np.abs(sp.to_dense() - dense_theta(h))) <= 1e-10


def test_theta_symmetry_and_zero_degree_rows(rng):
    for _ in range(20):
        h = random_hypergraph(rng)
        t = theta(h).to_dense()
        assert np.max(np.abs(t - t.T)) <= 1e-12
    h = build_hypergraph([[0, 1]], num_nodes=3)
    t = theta(h).to_dense()
    assert np.all(t[2] == 0) and np.all(t[:, 2] == 0)


def test_theta_entries_unique_and_sorted(rng):
    h = random_hypergraph(rng)
    sp = theta(h)
    keys = list(zip(sp.row_idx.tolist(), sp.col_idx.tolist()))
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_sparse_matvec_agrees_with_dense(rng):
    for _ in range(10):
        h = random_hypergraph(rng)
        sp = theta(h)
        x = rng.normal(size=(h.num_nodes, 3))
        assert np.allclose(sp.dot_dense(x), sp.to_dense() @ x, atol=1e-12)
        assert np.allclose(sp.t_dot_dense(x), sp.to_dense().T @ x, atol=1e-12)
        assert np.allclose(sp.row_sums(), sp.to_dense().sum(axis=1), atol=1e-12)


def test_dual_swaps_roles():
    h = build_hypergraph([[0, 1], [1, 2]])
    d = dual(h)
    assert d.num_nodes == 2 and d.num_edges == 3
    # dual hyperedge i collects the original hyperedges containing node i
    assert d.edge_members == ((0,), (0, 1), (1,))
    assert np.array_equal(d.edge_weights, [1.0, 1.0, 1.0])


def test_dual_involution_is_exact(rng):
    for _ in range(20):
        h = random_hypergraph(rng, allow_isolated=False)
        hh = dual(dual(h))
        assert hh.edge_members == h.edge_members
        assert hh.node_memberships == h.node_memberships
        assert hh.num_nodes == h.num_nodes and hh.num_edges == h.num_edges


def test_dual_rejects_isolated_node():
    h = build_hypergraph([[0, 1]], num_nodes=3)
    with pytest.raises(IsolatedNode):
        dual(h)
