"""Hypergraph topology and its normalized adjacency.

Nodes and hyperedges are integer-indexed. The incidence relation is stored
twice (members per edge, memberships per node) so both directions of message
passing can iterate without transposing anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyHyperedge, InvalidWeight, IsolatedNode
from .kernel import Segments


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Incidence structure with one positive weight per hyperedge.

    ``edge_members[j]`` lists the nodes of hyperedge j, deduplicated and
    ascending; ``node_memberships[i]`` lists the hyperedges incident on node
    i, ascending. The two views describe the same relation.
    """

    num_nodes: int
    num_edges: int
    edge_members: tuple[tuple[int, ...], ...]
    node_memberships: tuple[tuple[int, ...], ...]
    edge_weights: np.ndarray


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """COO matrix with unique, lexicographically sorted (row, col) keys."""

    rows: int
    cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return self.values.size

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=self.values.dtype)
        out[self.row_idx, self.col_idx] = self.values
        return out

    @cached_property
    def _by_row(self) -> Segments:
        # the sorted keys make this the identity: entries are already CSR
        return Segments(self.row_idx, self.rows)

    @cached_property
    def _by_col(self) -> Segments:
        return Segments(self.col_idx, self.cols)

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.row_idx, weights=self.values, minlength=self.rows)

    def dot_dense(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a dense 2-D x."""
        return self._by_row.gather_sum(x, self.values, self.col_idx)

    def t_dot_dense(self, x: np.ndarray) -> np.ndarray:
        """self.T @ x for a dense 2-D x."""
        return self._by_col.gather_sum(x, self.values, self.row_idx)


def build_hypergraph(edge_node_lists: Sequence[Sequence[int]],
                     edge_weights=None,
                     num_nodes: int | None = None) -> Hypergraph:
    """Assemble a Hypergraph from per-edge node lists.

    Member lists are deduplicated and sorted. Weights default to 1.0 and must
    be positive and finite. Nodes are 0..num_nodes-1; when num_nodes is not
    given it is inferred from the largest index seen.
    """
    members = []
    max_node = -1
    for j, lst in enumerate(edge_node_lists):
        uniq = sorted(set(lst))
        if not uniq:
            raise EmptyHyperedge(f"hyperedge {j} has no members")
        if uniq[0] < 0:
            raise ValueError(f"hyperedge {j} contains a negative node index")
        members.append(tuple(uniq))
        max_node = max(max_node, uniq[-1])
    if num_nodes is None:
        num_nodes = max_node + 1
    elif max_node >= num_nodes:
        raise ValueError(f"node index {max_node} out of range for num_nodes={num_nodes}")

    if edge_weights is None:
        weights = np.ones(len(members), dtype=np.float64)
    else:
        weights = np.asarray(edge_weights, dtype=np.float64).copy()
        if weights.shape != (len(members),):
            raise ValueError("edge_weights length must match the number of hyperedges")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise InvalidWeight("hyperedge weights must be positive and finite")
    weights.flags.writeable = False

    memberships = [[] for _ in range(num_nodes)]
    for j, mem in enumerate(members):
        for i in mem:
            memberships[i].append(j)
    return Hypergraph(
        num_nodes=num_nodes,
        num_edges=len(members),
        edge_members=tuple(members),
        node_memberships=tuple(tuple(m) for m in memberships),
        edge_weights=weights,
    )


def incidences(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """(edge, node) of every incidence, edge-major with members ascending."""
    sizes = np.fromiter(map(len, h.edge_members), dtype=np.intp, count=h.num_edges)
    nodes = np.fromiter(itertools.chain.from_iterable(h.edge_members),
                        dtype=np.intp, count=int(sizes.sum()))
    return np.repeat(np.arange(h.num_edges, dtype=np.intp), sizes), nodes


def degrees(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """(node_degrees, edge_degrees).

    A node's degree is the summed weight of its incident hyperedges, added
    in hyperedge order; a hyperedge's degree is its member count.
    """
    edge_of, node_of = incidences(h)
    node_deg = np.bincount(node_of, weights=h.edge_weights[edge_of],
                           minlength=h.num_nodes)
    edge_deg = np.bincount(edge_of, minlength=h.num_edges).astype(np.float64)
    return node_deg, edge_deg


def theta(h: Hypergraph) -> SparseMatrix:
    """Degree-normalized node adjacency through shared hyperedges.

    Entry (i, i') accumulates w_j / edge_degree_j over every hyperedge j
    containing both nodes, scaled by the inverse square roots of both node
    degrees, summed in hyperedge order. Rows of zero-degree nodes stay
    empty. Symmetric by construction, exactly: the (i, i') and (i', i)
    accumulations see identical sequences of identical products.
    """
    node_deg, edge_deg = degrees(h)
    inv_sqrt = np.zeros(h.num_nodes, dtype=np.float64)
    pos = node_deg > 0
    inv_sqrt[pos] = node_deg[pos] ** -0.5

    # every (a, b) member pair of every hyperedge, edge-major: incidence a
    # repeats once per member of its edge, and b runs over those members
    edge_of, node_of = incidences(h)
    sizes = np.bincount(edge_of, minlength=h.num_edges)
    first = np.cumsum(sizes) - sizes               # first incidence of each edge
    reps = sizes[edge_of]
    run = np.cumsum(reps) - reps                   # where each repeat run starts
    left = np.repeat(np.arange(node_of.size), reps)
    right = np.arange(left.size) + np.repeat(first[edge_of] - run, reps)
    v = inv_sqrt[node_of]
    block = (h.edge_weights / edge_deg)[edge_of[left]] * (v[left] * v[right])
    keys, slot = np.unique(node_of[left] * h.num_nodes + node_of[right],
                           return_inverse=True)
    values = np.bincount(slot, weights=block, minlength=keys.size)
    return SparseMatrix(h.num_nodes, h.num_nodes, keys // h.num_nodes,
                        keys % h.num_nodes, values)


def dual(h: Hypergraph) -> Hypergraph:
    """Interchange nodes and hyperedges.

    Every node must belong to at least one hyperedge, otherwise the dual
    would contain an empty hyperedge. Dual edge weights are 1.0: the original
    weights attach to hyperedges and have no counterpart on nodes.
    """
    for i, mems in enumerate(h.node_memberships):
        if not mems:
            raise IsolatedNode(f"node {i} belongs to no hyperedge")
    return Hypergraph(
        num_nodes=h.num_edges,
        num_edges=h.num_nodes,
        edge_members=h.node_memberships,
        node_memberships=h.edge_members,
        edge_weights=np.ones(h.num_nodes, dtype=np.float64),
    )


def incidence_matrix(h: Hypergraph) -> np.ndarray:
    """Dense 0/1 incidence, nodes by hyperedges."""
    m = np.zeros((h.num_nodes, h.num_edges), dtype=np.float64)
    for j, mem in enumerate(h.edge_members):
        m[list(mem), j] = 1.0
    return m
