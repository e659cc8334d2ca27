"""Hypergraph topology and its normalized adjacency.

Nodes and hyperedges are integer-indexed. The incidence relation is stored
once, as edge-major integer arrays; the per-edge and per-node groupings that
both directions of message passing reduce over are segment layouts of those
arrays, built on first use and cached. Θ's Laplacian is held through Θ's
incidence factor, whose products walk those same two layouts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyHyperedge, ShapeError
from .kernel import Segments


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Incidence structure of nodes and hyperedges.

    Incidence pair p couples hyperedge ``edge_of_pair[p]`` with node
    ``node_of_pair[p]``; pairs run edge by edge, members ascending and
    unique within an edge. ``by_edge`` groups the pairs by edge
    (contiguous) and ``by_node`` by node (permuted; isolated nodes hold
    empty groups). Both arrays are made read-only on construction.
    """

    num_nodes: int
    num_edges: int
    edge_of_pair: np.ndarray
    node_of_pair: np.ndarray

    def __post_init__(self):
        self.edge_of_pair.flags.writeable = False
        self.node_of_pair.flags.writeable = False

    @cached_property
    def by_edge(self) -> Segments:
        return Segments(self.edge_of_pair, self.num_edges)

    @cached_property
    def by_node(self) -> Segments:
        return Segments(self.node_of_pair, self.num_nodes)

    @property
    def edge_members(self) -> tuple[tuple[int, ...], ...]:
        """Members of each hyperedge, ascending; derived on every call."""
        nodes = self.node_of_pair.tolist()
        bounds = self.by_edge.offsets.tolist()
        return tuple([tuple(nodes[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])


@dataclass(frozen=True, eq=False)
class Laplacian:
    """L = diag(Θ1) − Θ, the hypergraph Laplacian of Θ = B Bᵀ, held as
    Θ's incidence factor B = D^-½ H Δ^-½ and Θ's row sums: the hypergraph
    and one value per incidence pair, ``values[p]`` = d_i^-½ δ_j^-½ for the
    node i and hyperedge j of pair p, and ``theta_sums`` = Θ1. Products walk
    the hypergraph's own ``by_edge`` and ``by_node`` layouts, so no entry of
    Θ is ever formed. L is symmetric, so ``K.spmm``'s gradient Lᵀg is
    ``dot_dense(g)``, taken in place in g."""

    h: Hypergraph
    values: np.ndarray
    theta_sums: np.ndarray

    @property
    def rows(self) -> int:
        return self.h.num_nodes

    cols = rows

    @property
    def nnz(self) -> int:
        """Stored values: one per incidence pair."""
        return self.values.size

    def dot_dense(self, x: np.ndarray) -> np.ndarray:
        """L @ x for a dense 2-D x, in x's dtype, as Θ1 ⊙ c − B (Bᵀ c) over
        the column-centred c = x − 1x̄ᵀ: every row of L sums to zero, so
        Lc = Lx, and each row's difference cancels against the spread of
        the states, not their offset. It takes x over: c is x centred in
        place, and the difference is taken in place in c and returned. The
        per-node sums come compact, one row per node holding a pair, and
        are subtracted into those rows block by block, so no second nodes x
        d array is made."""
        h, dtype = self.h, x.dtype
        b = self.values.astype(dtype, copy=False)
        x -= x.mean(axis=0, dtype=np.float64).astype(dtype)
        y = h.by_node.gather_sum(h.by_edge.gather_sum(x, b, h.by_node),
                                 b, h.by_edge, compact=True)
        x *= self.theta_sums.astype(dtype, copy=False)[:, None]
        rows, step = h.by_node.plan.groups, 4096
        for lo in range(0, rows.size, step):
            x[rows[lo:lo + step]] -= y[lo:lo + step]
        return x


def build_hypergraph(edge_node_lists: Sequence[Sequence[int]],
                     num_nodes: int | None = None, *,
                     sizes=None) -> Hypergraph:
    """Assemble a Hypergraph from per-edge node lists, or, given ``sizes``,
    from one flat integer array of every edge's members in which edge j
    holds the next ``sizes[j]``.

    Member lists are deduplicated and sorted. Nodes are 0..num_nodes-1; when
    num_nodes is not given it is inferred from the largest index seen.
    """
    if sizes is None:
        lists = list(edge_node_lists)
        sizes = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
        node_of = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp,
                              count=int(sizes.sum()))
    else:
        sizes = np.asarray(sizes, dtype=np.intp)
        node_of = np.asarray(edge_node_lists, dtype=np.intp)
        if sizes.ndim != 1 or np.any(sizes < 0) or node_of.shape != (sizes.sum(),):
            raise ValueError("flat members must match their sizes")
    num_edges = sizes.size
    edge_of = np.repeat(np.arange(num_edges, dtype=np.intp), sizes)
    # the first failing edge names the error, as a walk over the lists would
    empty = np.flatnonzero(sizes == 0)
    negative = edge_of[node_of < 0]
    if empty.size and (not negative.size or empty[0] < negative[0]):
        raise EmptyHyperedge(f"hyperedge {empty[0]} has no members")
    if negative.size:
        raise ValueError(f"hyperedge {negative[0]} contains a negative node index")
    max_node = int(node_of.max()) if node_of.size else -1
    if num_nodes is None:
        num_nodes = max_node + 1
    elif max_node >= num_nodes:
        raise ValueError(f"node index {max_node} out of range for num_nodes={num_nodes}")

    # one sorted key per distinct (edge, node): edge-major, members ascending;
    # sorting and dropping repeats is far faster than np.unique on numpy 2.4
    span = max(max_node, 0) + 1
    keys = np.sort(edge_of * span + node_of)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return Hypergraph(num_nodes, num_edges, keys // span, keys % span)


def restrict_to_nodes(h: Hypergraph, rows) -> Hypergraph:
    """The incidence pairs of the node ``rows`` (any order, repeats
    allowed), as a hypergraph over the same nodes and edges: pairs keep
    their order, edges may be empty and every other node holds an empty
    group. ``h`` itself when that is every pair. A row outside the nodes
    raises ShapeError. Built for the node side of message
    passing alone; an edge softmax over it would see only part of an edge.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size and not 0 <= rows.min() <= rows.max() < h.num_nodes:
        raise ShapeError(f"node rows must lie in [0, {h.num_nodes})")
    read = np.zeros(h.num_nodes, dtype=bool)
    read[rows] = True
    keep = read[h.node_of_pair]
    if keep.all():
        return h
    return Hypergraph(h.num_nodes, h.num_edges, h.edge_of_pair[keep],
                      h.node_of_pair[keep])


def theta(h: Hypergraph) -> Laplacian:
    """The Laplacian L = diag(Θ1) − Θ of the degree-normalized node
    adjacency through shared hyperedges, Θ = D^-½ H Δ^-1 Hᵀ D^-½ with unit
    hyperedge weights, held through Θ's incidence factor: O(pairs) to
    build, and O(pairs · d) per product. Entry (i, i') of Θ would be the sum
    of 1 / |e_j| over every hyperedge j holding both nodes, scaled by the
    inverse square roots of both node degrees (their hyperedge counts); rows
    and columns of zero-degree nodes are zero in Θ and in L."""
    degrees = h.by_node.counts[h.node_of_pair] * h.by_edge.counts[h.edge_of_pair]
    b = degrees ** -0.5
    edge_sums = np.bincount(h.edge_of_pair, weights=b, minlength=h.num_edges)   # Bᵀ1
    theta_sums = np.bincount(h.node_of_pair, weights=b * edge_sums[h.edge_of_pair],
                             minlength=h.num_nodes)
    return Laplacian(h, b, theta_sums)
