import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersub.errors import EmptyHyperedge
from hypersub.hypergraph import build_hypergraph, theta

from conftest import (dense_laplacian, dense_theta, group_positions, memberships,
                      random_hypergraph, to_dense, traced_memory)
from oracles import IsolatedNode, dual


def test_build_dedupes_and_sorts():
    h = build_hypergraph([[2, 0, 2, 1], [1]])
    assert h.edge_members == ((0, 1, 2), (1,))
    assert memberships(h) == ((0,), (0, 1), (0,))
    assert h.num_nodes == 3 and h.num_edges == 2


def test_build_infers_and_checks_node_count():
    assert build_hypergraph([[0, 5]]).num_nodes == 6
    h = build_hypergraph([[0, 1]], num_nodes=4)
    assert h.num_nodes == 4
    assert memberships(h)[3] == ()
    with pytest.raises(ValueError):
        build_hypergraph([[0, 4]], num_nodes=4)


def test_build_rejects_bad_input():
    with pytest.raises(EmptyHyperedge):
        build_hypergraph([[0, 1], []])
    with pytest.raises(ValueError):
        build_hypergraph([[-1, 0]])


def test_build_names_the_first_bad_edge():
    with pytest.raises(EmptyHyperedge, match="hyperedge 1 has no members"):
        build_hypergraph([[0], [], [-1]])
    with pytest.raises(ValueError, match="hyperedge 1 contains a negative node index"):
        build_hypergraph([[0], [2, -1], []])
    with pytest.raises(ValueError, match="node index 4 out of range for num_nodes=4"):
        build_hypergraph([[0, 4], [3]], num_nodes=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=12), max_size=8),
       st.integers(0, 3))
def test_build_matches_sorted_set_reference(lists, extra):
    # random lists repeat and shuffle members and skip indices; extra > 0
    # declares nodes past the largest index, which are isolated too
    ref = [sorted(set(lst)) for lst in lists]
    largest = max((m[-1] for m in ref), default=-1)
    h = build_hypergraph(lists, num_nodes=largest + extra if extra else None)
    assert (h.num_nodes, h.num_edges) == (largest + max(extra, 1), len(lists))
    assert h.edge_of_pair.tolist() == [j for j, m in enumerate(ref) for _ in m]
    assert h.node_of_pair.tolist() == [i for m in ref for i in m]
    assert h.edge_of_pair.dtype == h.node_of_pair.dtype == np.intp
    assert h.edge_members == tuple(map(tuple, ref))
    assert [h.edge_of_pair[g].tolist() for g in group_positions(h.by_node)] == \
        [list(m) for m in memberships(h)]


def test_layout_arrays_are_read_only():
    h = build_hypergraph([[0, 1], [1, 2]])
    for a in (h.edge_of_pair, h.node_of_pair):
        with pytest.raises(ValueError):
            a[0] = 0


def test_round_trip_from_edge_lists(rng):
    for _ in range(20):
        h = random_hypergraph(rng)
        again = build_hypergraph([list(m) for m in h.edge_members],
                                 num_nodes=h.num_nodes)
        assert (again.num_nodes, again.num_edges) == (h.num_nodes, h.num_edges)
        assert again.edge_members == h.edge_members
        assert memberships(again) == memberships(h)


def test_theta_single_edge_uniform():
    # Θ is 1/3 everywhere and each row sums to 1, so L = I - Θ
    h = build_hypergraph([[0, 1, 2]])
    t = to_dense(theta(h))
    assert np.allclose(t, np.eye(3) - 1.0 / 3.0, rtol=0, atol=1e-12)
    assert np.allclose(t, dense_laplacian(h), rtol=0, atol=1e-12)


def test_theta_two_edges_hand_value():
    # Θ00 = Θ11 = 1/2, Θ01 = Θ12 = 1/(2√2) and Θ02 = 0; L = diag(Θ1) - Θ
    h = build_hypergraph([[0, 1], [1, 2]])
    t = to_dense(theta(h))
    assert abs(t[0, 0] - 0.5 / np.sqrt(2.0)) <= 1e-12
    assert abs(t[1, 1] - 1.0 / np.sqrt(2.0)) <= 1e-12
    assert abs(t[0, 1] + 0.5 / np.sqrt(2.0)) <= 1e-12
    assert abs(t[0, 2] - 0.0) <= 1e-12
    assert np.max(np.abs(t - dense_laplacian(h))) <= 1e-12


def test_theta_matches_dense_oracle(rng):
    for _ in range(50):
        h = random_hypergraph(rng)
        sp = theta(h)
        assert np.max(np.abs(to_dense(sp) - dense_laplacian(h))) <= 1e-10


def test_theta_symmetry_and_zero_degree_rows(rng):
    # the factor's products sum per group through BLAS, so the dense form is
    # symmetric to rounding rather than bit for bit
    for _ in range(20):
        h = random_hypergraph(rng)
        t = to_dense(theta(h))
        assert np.max(np.abs(t - t.T)) <= 1e-15 * np.max(np.abs(t))
    h = build_hypergraph([[0, 1]], num_nodes=3)
    t = to_dense(theta(h))
    assert np.all(t[2] == 0) and np.all(t[:, 2] == 0)


def test_theta_holds_one_value_per_pair_and_no_pair_expansion():
    # one hyperedge of 3,000 members: sum |e|^2 = 9M member pairs, which an
    # adjacency with an entry per pair would hold in several 72 MB arrays;
    # the factor and one product at d=4 peak at about 0.6 MiB. Each row of
    # Θ sums to 1, so Lx is x less its column means
    h = build_hypergraph([np.arange(3000)])
    x = np.random.default_rng(0).normal(size=(3000, 4))
    with traced_memory() as probe:
        t = theta(h)
        y = t.dot_dense(x.copy())
    assert t.nnz == 3000
    assert probe.peak < 2 * 2**20, probe.peak
    assert np.allclose(y, x - x.mean(axis=0), rtol=0, atol=1e-12)


def test_sparse_matvec_agrees_with_dense(rng):
    for _ in range(10):
        h = random_hypergraph(rng)
        sp = theta(h)
        x = rng.normal(size=(h.num_nodes, 3))
        assert np.allclose(sp.dot_dense(x.copy()), dense_laplacian(h) @ x, atol=1e-12)
        assert np.allclose(sp.theta_sums, dense_theta(h).sum(axis=1), atol=1e-12)


def test_dual_swaps_roles():
    h = build_hypergraph([[0, 1], [1, 2]])
    d = dual(h)
    assert d.num_nodes == 2 and d.num_edges == 3
    # dual hyperedge i collects the original hyperedges containing node i
    assert d.edge_members == ((0,), (0, 1), (1,))


def test_dual_involution_is_exact(rng):
    for _ in range(20):
        h = random_hypergraph(rng, allow_isolated=False)
        hh = dual(dual(h))
        assert hh.edge_members == h.edge_members
        assert memberships(hh) == memberships(h)
        assert hh.num_nodes == h.num_nodes and hh.num_edges == h.num_edges


def test_dual_arrays_are_the_stable_node_major_reorder(rng):
    for _ in range(20):
        h = random_hypergraph(rng, allow_isolated=False)
        d = dual(h)
        assert d.edge_members == memberships(h)
        dd = dual(d)
        assert np.array_equal(dd.edge_of_pair, h.edge_of_pair)
        assert np.array_equal(dd.node_of_pair, h.node_of_pair)


def test_dual_rejects_isolated_node():
    h = build_hypergraph([[0, 1]], num_nodes=3)
    with pytest.raises(IsolatedNode):
        dual(h)
