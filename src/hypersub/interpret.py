"""Post-hoc interpretation of a trained model.

Class-level hyperedge rankings redistribute each subject's pooled member
attention over the hyperedges incident to each member, using the final
message passing layer's per-node attention as the mixing proportions. The
correlation view compares final hyperedge states pairwise by cosine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel as K
from . import model as M
from .errors import EmptyClass, ShapeError
from .hypergraph import Hypergraph, restrict_to_nodes

AGGREGATION_RULE = ("subject attention distributed over incident hyperedges "
                    "by final-layer node attention, summed per class and "
                    "normalized by class size")


@dataclass
class EnrichmentReport:
    classes: list[str]
    rankings: dict[str, list[tuple[str, float]]]
    num_layers: int


def _member_attention(node_states, batch, params):
    """Evaluation-mode per-member pooling weights of each subgraph.

    The sum ablation has no trained pooling attention; members then count
    uniformly, which keeps every subject's total mass at one.
    """
    if params.use_subgraph_attention:
        return M.subgraph_attention(node_states, batch,
                                    params.subgraph_context).data
    share = (1.0 / batch.groups.counts).astype(node_states.data.dtype)
    return np.repeat(share, batch.groups.counts)


def class_edge_scores(params: M.ModelParams, h: Hypergraph,
                      batch: M.SubgraphBatch) -> np.ndarray:
    """Average hyperedge attribution over each class's subjects: one row
    per label column of ``batch``, from a single backbone pass.

    Each subject contributes total mass 1 (member attention sums to one and
    the per-node edge mixture sums to one), so a row sums to 1 whenever
    every member node touches at least one hyperedge. The pass reads the
    batch's member rows alone (``forward_backbone``), which gives those rows
    the bits of a full pass, and the mass spreads over the pairs of those
    rows.
    """
    if len(batch.by_row) > h.num_nodes:
        raise ShapeError(f"subgraph batch has {len(batch.by_row)} member rows "
                         f"for {h.num_nodes} nodes")
    carries = batch.labels > 0.5          # (subjects, classes)
    sizes = carries.sum(axis=0)
    if np.any(sizes == 0):
        empty = np.flatnonzero(sizes == 0)[0]
        raise EmptyClass(f"no subjects carry class index {empty}")

    pairs = restrict_to_nodes(h, batch.by_row.nonempty)
    with K.no_grad():
        trace = M.forward_backbone(h, params, training=False, reads=pairs)
        member_attn = _member_attention(trace.final_node_states, batch, params)

    # member attention summed per (class, node), then spread over each
    # member node's incident edges by its final-layer attention
    c = sizes.size
    mass = carries[batch.groups.ids] * member_attn[:, None].astype(np.float64)
    node_mass = np.bincount(
        (np.arange(c) * h.num_nodes + batch.member_rows[:, None]).ravel(),
        weights=mass.ravel(), minlength=c * h.num_nodes).reshape(c, h.num_nodes)
    flow = node_mass[:, pairs.node_of_pair] * trace.layers[-1].node_attention.data
    # not in place: a bincount over no pairs at all comes back as integers
    return np.bincount(
        (np.arange(c)[:, None] * h.num_edges + pairs.edge_of_pair).ravel(),
        weights=flow.ravel(), minlength=c * h.num_edges
    ).reshape(c, h.num_edges) / sizes[:, None]


def _top(scores: np.ndarray, top_k: int, names: list[str]) -> list[tuple[str, float]]:
    """Highest attribution first; score ties break toward the lower index."""
    order = np.argsort(-scores, kind="stable")[:max(top_k, 0)]
    return list(zip(map(names.__getitem__, order.tolist()), scores[order].tolist()))


def class_enrichment(params: M.ModelParams, h: Hypergraph,
                     batch: M.SubgraphBatch, class_vocab: list[str],
                     top_k: int, edge_names: list[str]) -> EnrichmentReport:
    """Each class's ``top_k`` hyperedges by ``class_edge_scores``, named by
    ``class_vocab``, one name per label column of ``batch``, and by
    ``edge_names``, one name per hyperedge."""
    if len(edge_names) != h.num_edges:
        raise ShapeError(f"{len(edge_names)} edge names for {h.num_edges} hyperedges")
    if len(class_vocab) != batch.labels.shape[1]:
        raise ShapeError(f"{len(class_vocab)} class names for "
                         f"{batch.labels.shape[1]} label columns")
    scores = class_edge_scores(params, h, batch)
    rankings = {cname: _top(row, top_k, edge_names)
                for cname, row in zip(class_vocab, scores)}
    return EnrichmentReport(classes=list(class_vocab), rankings=rankings,
                            num_layers=params.num_layers)


def hyperedge_correlation(params: M.ModelParams, h: Hypergraph) -> np.ndarray:
    """Pairwise cosine similarity of final-layer hyperedge states, in the
    states' dtype, from a backbone pass that reads the edge states and no
    node row: it ends at the last edge update, whose states read every
    pair, and runs the last node update over no pairs, so the states have
    the bits of a full pass's."""
    with K.no_grad():
        trace = M.forward_backbone(h, params, training=False,
                                   reads=restrict_to_nodes(h, ()), edges=True)
    return cosine_matrix(trace.final_edge_states.data)


# rows of the unit states per product of cosine_matrix: each tile's gemm
# covers its own and later columns, so smaller tiles do fewer flops below the
# diagonal and larger ones fewer calls; on 3000 x 64 float32 states 128 to
# 384 rows took the same time within noise, 512 about 5% more, 1024 20% more
TILE_ROWS = 256
# the entries of a tile's diagonal block that are copied from above it
_BELOW = np.tri(TILE_ROWS, k=-1, dtype=bool)


def cosine_matrix(x: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarities in ``x``'s dtype, exactly symmetric and
    clamped to [-1, 1], with a diagonal of exactly 1; rows of all zeros
    yield rows and columns of +0.0 (their direction is undefined),
    including on the diagonal.

    Each tile of ``TILE_ROWS`` rows is one gemm of its unit rows against
    the contiguous transposed units, over its own and later columns: the
    upper triangle, half the flops of the full product. The rest of the
    tile's columns, its diagonal block's lower half and the block below it,
    are copied from the transposed values, since a gemm is not exactly
    symmetric for every shape. Beyond the n x n result it allocates two
    copies of the unit rows and at most one tile."""
    n = len(x)
    norms = np.linalg.norm(x, axis=1)
    zero = np.flatnonzero(norms == 0)
    norms[zero] = 1
    unit = x / norms[:, None]
    unit_t = np.ascontiguousarray(unit.T)
    out = np.empty((n, n), dtype=unit.dtype)
    for i in range(0, n, TILE_ROWS):
        j = min(i + TILE_ROWS, n)
        tile = out[i:j, i:]
        np.matmul(unit[i:j], unit_t[:, i:], out=tile)
        np.clip(tile, -1, 1, out=tile)
        diag = tile[:, :j - i]
        np.copyto(diag, diag.T, where=_BELOW[:j - i, :j - i])
        out[j:, i:j] = tile[:, j - i:].T
    # a row's cosine with itself is 1, where its float32 sum of squared
    # units can fall 9 ulps short at d=300
    np.fill_diagonal(out, 1)
    if zero.size:
        out[zero] = 0
        out[:, zero] = 0
    return out


def enrichment_tsv(report: EnrichmentReport) -> str:
    lines = [f"# aggregation: {AGGREGATION_RULE}",
             f"# layers: {report.num_layers}",
             "class\trank\thyperedge\tscore"]
    for cname in report.classes:
        for rank, (ename, score) in enumerate(report.rankings[cname], start=1):
            lines.append(f"{cname}\t{rank}\t{ename}\t{score!r}")
    return "\n".join(lines) + "\n"


def correlation_tsv(matrix: np.ndarray, edge_names: list[str]) -> str:
    """The matrix as a table with one row and one column per hyperedge name.
    Each value is printed to the round-trip digit count of the matrix
    dtype (9 for float32, 17 for float64), so it parses back to its bits."""
    digits = int(np.ceil(1 + (np.finfo(matrix.dtype).nmant + 1) * np.log10(2)))
    row_format = "\t".join([f"%.{digits}g"] * matrix.shape[1])
    lines = ["\t".join(["hyperedge", *edge_names])]
    for name, row in zip(edge_names, matrix):
        lines.append(name + "\t" + row_format % tuple(row.tolist()))
    return "\n".join(lines) + "\n"
