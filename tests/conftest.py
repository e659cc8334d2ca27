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


def memberships(h):
    """Hyperedges incident on each node, ascending, by a plain loop."""
    out = [[] for _ in range(h.num_nodes)]
    for j, mem in enumerate(h.edge_members):
        for i in mem:
            out[i].append(j)
    return tuple(tuple(m) for m in out)


def group_positions(seg):
    """The positions of each group of a Segments, ascending."""
    order = np.arange(seg.size) if seg.order is None else seg.order
    return [order[lo:hi] for lo, hi in zip(seg.offsets[:-1], seg.offsets[1:])]


def to_dense(sp):
    """A SparseMatrix as a dense array."""
    out = np.zeros((sp.rows, sp.cols), dtype=sp.values.dtype)
    out[sp.row_idx, sp.col_idx] = sp.values
    return out


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
