"""Oracles the tests check the package against: central finite
differences for any taped composition, the dual hypergraph, on which A3's
exact score duality runs, the restricted pass's score gather as layout ops,
the class hyperedge ranking read off a full backbone pass, and the cosine
view as one float64 product."""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from hypersub import interpret as I
from hypersub import kernel as K
from hypersub import model as M
from hypersub.errors import HypersubError, NotScalar
from hypersub.hypergraph import Hypergraph


class NonDeterministic(HypersubError):
    """Gradient checking needs a deterministic function; repeated evaluation disagreed."""


class IsolatedNode(HypersubError):
    """An operation requires every node to belong to at least one hyperedge."""


def dual(h: Hypergraph) -> Hypergraph:
    """Interchange nodes and hyperedges.

    Every node must belong to at least one hyperedge, otherwise the dual
    would contain an empty hyperedge.
    """
    isolated = np.flatnonzero(h.by_node.counts == 0)
    if isolated.size:
        raise IsolatedNode(f"node {isolated[0]} belongs to no hyperedge")
    # the stable node-major order keeps each node's edges ascending; it is
    # sorted here, not read from the layout under test
    pos = np.argsort(h.node_of_pair, kind="stable")
    return Hypergraph(h.num_edges, h.num_nodes, h.node_of_pair[pos],
                      h.edge_of_pair[pos])


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    worst_param: int
    worst_index: int
    analytic: list[np.ndarray]
    numeric: list[np.ndarray]


def grad_check(f: Callable[[], K.Tensor], params: Sequence[K.Tensor],
               epsilon: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare taped gradients of a scalar-valued closure against central
    finite differences (f(t+e) - f(t-e)) / 2e, entry by entry.

    The relative error denominator is max(1, |analytic|, |numeric|), so tiny
    gradients are judged absolutely. f must be deterministic; it is evaluated
    twice up front and any discrepancy raises NonDeterministic.
    """
    with K.no_grad():
        v1 = float(f().data.reshape(()))
        v2 = float(f().data.reshape(()))
    if v1 != v2:
        raise NonDeterministic("function value changed between evaluations")

    for p in params:
        p.zero_grad()
    loss = f()
    if loss.data.size != 1:
        raise NotScalar("grad_check needs a scalar-valued function")
    K.backward(loss, params)
    analytic = [p.grad.copy() for p in params]

    numeric = [np.zeros_like(p.data) for p in params]
    with K.no_grad():
        for pi, p in enumerate(params):
            for k in range(p.data.size):
                saved = p.data.flat[k]
                p.data.flat[k] = saved + epsilon
                f_plus = float(f().data.reshape(()))
                p.data.flat[k] = saved - epsilon
                f_minus = float(f().data.reshape(()))
                p.data.flat[k] = saved
                numeric[pi].flat[k] = (f_plus - f_minus) / (2.0 * epsilon)

    max_rel = 0.0
    worst = (0, 0)
    for pi, (a, n) in enumerate(zip(analytic, numeric)):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        rel = np.abs(a - n) / denom
        k = int(np.argmax(rel))
        if rel.reshape(-1)[k] > max_rel:
            max_rel = float(rel.reshape(-1)[k])
            worst = (pi, k)
    return GradCheckReport(
        passed=max_rel <= tolerance,
        max_rel_error=max_rel,
        worst_param=worst[0],
        worst_index=worst[1],
        analytic=analytic,
        numeric=numeric,
    )


def scores_at_by_layout(scores: K.Tensor, h: Hypergraph, reads: Hypergraph) -> K.Tensor:
    """``model._scores_at`` composed of layout ops: the scores as a column,
    the rows of a layout over every pair of ``h`` holding the read pairs'
    positions, and back to 1-D, three tape ops where ``K.select`` is one."""
    read = np.zeros(h.num_nodes, dtype=bool)
    read[reads.node_of_pair] = True
    at = K.Segments(np.flatnonzero(read[h.node_of_pair]), scores.data.size)
    return K.reshape(K.gather_rows(K.reshape(scores, (-1, 1)), at), (-1,))


def full_pass_edge_scores(params: M.ModelParams, h: Hypergraph,
                          batch: M.SubgraphBatch) -> np.ndarray:
    """``interpret.class_edge_scores`` read off a full evaluation-mode
    backbone pass, edge states included: the pairs of the batch's member
    rows are picked out of every pair of ``h``, in ``h``'s order, and the
    other pairs, which would carry no mass, are left out."""
    with K.no_grad():
        trace = M.forward_backbone(h, params, training=False, edges=True)
        member_attn = I._member_attention(trace.final_node_states, batch, params)
    carries = batch.labels > 0.5          # (subjects, classes)
    read = np.zeros(h.num_nodes, dtype=bool)
    read[batch.by_row.nonempty] = True
    at = np.flatnonzero(read[h.node_of_pair])
    c = carries.shape[1]
    mass = carries[batch.groups.ids] * member_attn[:, None].astype(np.float64)
    node_mass = np.bincount(
        (np.arange(c) * h.num_nodes + batch.member_rows[:, None]).ravel(),
        weights=mass.ravel(), minlength=c * h.num_nodes).reshape(c, h.num_nodes)
    flow = node_mass[:, h.node_of_pair[at]] * trace.layers[-1].node_attention.data[at]
    return np.bincount(
        (np.arange(c)[:, None] * h.num_edges + h.edge_of_pair[at]).ravel(),
        weights=flow.ravel(), minlength=c * h.num_edges
    ).reshape(c, h.num_edges) / carries.sum(axis=0)[:, None]


def float64_cosine_matrix(x: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarities of ``x`` cast to float64, as one
    ``unit @ unit.T`` product (numpy sends it to syrk); rows of all zeros
    yield rows and columns of zeros."""
    x = x.astype(np.float64)
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = x / safe[:, None]
    out = unit @ unit.T
    out[norms == 0, :] = 0.0
    out[:, norms == 0] = 0.0
    return out
