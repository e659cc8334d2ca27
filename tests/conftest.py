import contextlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hypersub.hypergraph import build_hypergraph


def random_hypergraph(rng, max_nodes=12, max_edges=6, allow_isolated=True):
    """Small random hypergraph."""
    n = int(rng.integers(2, max_nodes + 1))
    e = int(rng.integers(1, max_edges + 1))
    lists = []
    for _ in range(e):
        size = int(rng.integers(1, n + 1))
        lists.append(rng.choice(n, size=size, replace=False).tolist())
    if not allow_isolated:
        covered = set(i for lst in lists for i in lst)
        missing = [i for i in range(n) if i not in covered]
        if missing:
            lists[0] = sorted(set(lists[0]) | set(missing))
    return build_hypergraph(lists, num_nodes=n)


def quick_shaped(rng):
    """A hypergraph shaped like the benchmark's quick catalog (200 genes in
    20 pathways of 12): 150 to 250 nodes, each the core member of one of
    15 to 25 hyperedges, which take up to four more members at random."""
    n = int(rng.integers(150, 251))
    cores = np.array_split(rng.permutation(n), int(rng.integers(15, 26)))
    return build_hypergraph([np.union1d(c, rng.choice(n, int(rng.integers(0, 5)),
                                                      replace=False)) for c in cores],
                            num_nodes=n)


def memberships(h):
    """Hyperedges incident on each node, ascending, by a plain loop."""
    out = [[] for _ in range(h.num_nodes)]
    for j, mem in enumerate(h.edge_members):
        for i in mem:
            out[i].append(j)
    return tuple(tuple(m) for m in out)


def group_positions(seg):
    """The positions of each group of a Segments, ascending, from its
    ``ids`` alone, so a wrong ``Segments.order`` cannot hide here."""
    order = np.argsort(seg.ids, kind="stable")
    return [order[lo:hi] for lo, hi in zip(seg.offsets[:-1], seg.offsets[1:])]


def to_dense(op):
    """A square linear operator (anything with ``rows`` and ``dot_dense``)
    as a dense array, one product with the identity."""
    return op.dot_dense(np.eye(op.rows))


def dense_theta(h):
    """Oracle: the normalized adjacency D^-1/2 H De^-1 H^T D^-1/2 with unit
    hyperedge weights, assembled from the dense 0/1 incidence matrix by
    dense matrix products; rows of zero-degree nodes are zero."""
    hm = np.zeros((h.num_nodes, h.num_edges))
    hm[h.node_of_pair, h.edge_of_pair] = 1.0
    node_deg, edge_deg = hm.sum(axis=1), hm.sum(axis=0)
    dv = np.zeros(h.num_nodes)
    dv[node_deg > 0] = node_deg[node_deg > 0] ** -0.5
    return np.diag(dv) @ hm @ np.diag(1.0 / edge_deg) @ hm.T @ np.diag(dv)


def dense_laplacian(h):
    """Oracle: L = diag(Θ1) − Θ, with Θ from ``dense_theta``."""
    return DenseOperator(dense_theta(h)).matrix


class DenseOperator:
    """The Laplacian diag(Θ1) − Θ of a dense symmetric Θ behind the
    operator interface that ``model.regularizer`` and ``K.spmm`` read, so
    their contract is tested on any symmetric Θ, not only on one
    ``hypergraph.theta`` can build."""

    def __init__(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        self.matrix = np.diag(theta.sum(axis=1)) - theta
        self.rows, self.cols = self.matrix.shape

    def dot_dense(self, x):
        return self.matrix @ x


@contextlib.contextmanager
def traced_memory():
    """Trace Python allocations through the block. The yielded probe holds
    the bytes still traced when the block ends (``current``) and the most
    traced at once (``peak``); tracing stops however the block ends."""
    probe = SimpleNamespace(current=0, peak=0)
    tracemalloc.start()
    try:
        yield probe
        probe.current, probe.peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
