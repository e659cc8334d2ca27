"""Model: dual attention message passing over a hypergraph, followed by
attention pooling of node states into subgraph representations and a small
classifier head.

Each message passing layer computes ONE attention score per incident
(hyperedge, node) pair from the previous layer's states. Normalizing those
same scores per hyperedge gives the weights that pool member nodes into new
hyperedge states; normalizing them per node gives the weights that pool
incident hyperedges into new node states. Both directions read previous-layer
states only, so within a layer nothing is refreshed mid-flight.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields
from typing import Sequence

import numpy as np

from . import kernel as K
from .errors import InvalidLabel, ShapeError
from .hypergraph import Hypergraph, Laplacian, restrict_to_nodes
from .kernel import Tensor


def incidence_pairs(h: Hypergraph) -> Hypergraph:
    """``h`` with its segment layouts built; they are cached on it, so this
    costs nothing after the first call."""
    h.by_edge, h.by_node
    return h


# ------------------------------------------------------------------- params

@dataclass
class LayerParams:
    """One message passing layer: separate node/edge projections and the
    attention context that turns a projected pair product into a score."""

    node_weight: Tensor
    node_bias: Tensor
    edge_weight: Tensor
    edge_bias: Tensor
    context: Tensor


@dataclass
class HeadParams:
    fc1_weight: Tensor
    fc1_bias: Tensor
    fc2_weight: Tensor
    fc2_bias: Tensor
    out_weight: Tensor
    out_bias: Tensor


@dataclass
class ModelParams:
    """Everything trainable, named and shaped by ``param_shapes``, plus the
    switches that shape the forward pass."""

    node_embeddings: Tensor
    layers: list[LayerParams]
    subgraph_context: Tensor
    head: HeadParams
    mode: str = "multiclass"
    dropout_rate: float = 0.0
    leaky_slope: float = 0.01
    use_subgraph_attention: bool = True

    @property
    def hidden_dim(self) -> int:
        return self.node_embeddings.data.shape[1]

    @property
    def num_nodes(self) -> int:
        return self.node_embeddings.data.shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @classmethod
    def from_tensors(cls, tensors: Sequence[Tensor], num_layers: int,
                     **switches) -> "ModelParams":
        """Parameters from their tensors in ``param_shapes`` order."""
        it = iter(tensors)

        def take(part):
            return part(*(next(it) for _ in fields(part)))

        emb = next(it)
        layers = [take(LayerParams) for _ in range(num_layers)]
        return cls(emb, layers, next(it), take(HeadParams), **switches)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Every trainable tensor under its checkpoint name, in
        ``param_shapes`` order."""
        def named(prefix, part):
            return [(prefix + f.name, getattr(part, f.name)) for f in fields(part)]

        out = [("node_embeddings", self.node_embeddings)]
        for k, lp in enumerate(self.layers):
            out += named(f"layer{k}.", lp)
        out.append(("subgraph_context", self.subgraph_context))
        return out + named("head.", self.head)

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def param_shapes(num_nodes: int, hidden_dim: int, num_layers: int,
                 num_classes: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every trainable tensor, in checkpoint order: the
    fields of ModelParams, each layer's and the head's fields in turn."""
    d, f = hidden_dim, num_classes
    layer = {"node_weight": (d, d), "node_bias": (d,), "edge_weight": (d, d),
             "edge_bias": (d,), "context": (d, 1)}
    head = {"fc1_weight": (d, d), "fc1_bias": (d,), "fc2_weight": (d, d),
            "fc2_bias": (d,), "out_weight": (d, f), "out_bias": (f,)}
    return [("node_embeddings", (num_nodes, d)),
            *((f"layer{k}.{name}", shape) for k in range(num_layers)
              for name, shape in layer.items()),
            ("subgraph_context", (d, 1)),
            *((f"head.{name}", shape) for name, shape in head.items())]


def init_model(num_nodes: int, hidden_dim: int, num_layers: int, num_classes: int,
               rng: np.random.Generator, mode: str = "multiclass",
               dropout_rate: float = 0.0, leaky_slope: float = 0.01,
               use_subgraph_attention: bool = True, dtype=np.float32) -> ModelParams:
    """Fresh parameters, drawn in ``param_shapes`` order: ``_bias`` tensors
    zero, ``_weight`` tensors Glorot-uniform, and the rest (node embeddings
    and attention contexts) uniform in [-1/sqrt(d), 1/sqrt(d)]."""
    if num_layers < 1:
        raise ValueError("num_layers must be at least 1")
    if hidden_dim < 1 or num_classes < 1 or num_nodes < 1:
        raise ValueError("num_nodes, hidden_dim, and num_classes must be positive")
    if mode not in ("multiclass", "multilabel"):
        raise ValueError(f"unknown mode {mode!r}")
    bound = 1.0 / np.sqrt(hidden_dim)

    def draw(name, shape):
        if name.endswith("_bias"):
            return np.zeros(shape, dtype=dtype)
        if name.endswith("_weight"):
            limit = np.sqrt(6.0 / sum(shape))
            return rng.uniform(-limit, limit, size=shape).astype(dtype)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    tensors = [K.parameter(draw(name, shape)) for name, shape
               in param_shapes(num_nodes, hidden_dim, num_layers, num_classes)]
    return ModelParams.from_tensors(
        tensors, num_layers, mode=mode, dropout_rate=dropout_rate,
        leaky_slope=leaky_slope, use_subgraph_attention=use_subgraph_attention)


# -------------------------------------------------------------------- batch

# the largest member weight or config float: the model computes in
# float32. A Python float, so that comparing a larger one with it casts
# nothing
FLOAT32_MAX = float(np.finfo(np.float32).max)

# A subject's checks, in the order they run.
_SUBJECT_FAULTS = ("members are not a 1-D array", "has no members",
                   "has duplicate members", "weights do not align with members",
                   "has invalid member weights", "has no positive member weight")


def _check_subjects(labels, rows, weights, sizes, weight_sizes, flat=True, aligned=True):
    """Raise ShapeError naming the first subject that fails a check, and that
    check, all run over the flat arrays at once: subject k holds ``sizes[k]``
    rows and ``weight_sizes[k]`` weights, its members are ``flat`` (1-D) and
    its weights ``aligned`` with them."""
    n = sizes.size
    if labels.ndim != 2 or labels.shape[0] != n:
        raise ShapeError("labels must be (num_subgraphs, num_classes)")
    if n == 0:
        raise ShapeError("a batch needs at least one subgraph")
    subject, owner = (np.repeat(np.arange(n), s) for s in (sizes, weight_sizes))
    lo = int(rows.min(initial=0))
    span = int(rows.max(initial=0)) - lo + 1
    # by_row holds a group for every row up to the largest, so that row is
    # bounded before anything is allocated at its size: 2**31 rows would
    # take 16 GiB of layout, far past any gene catalog
    if span * n >= 2 ** 62 or lo + span > 2 ** 31:
        raise ShapeError("member rows span too wide a range to lay out")
    keys = np.sort(subject * span + (rows - lo))   # one per (subject, member)
    fails = np.zeros((len(_SUBJECT_FAULTS), n), dtype=bool)   # fault x subject
    fails[0] = np.logical_not(flat)
    fails[1] = sizes == 0
    fails[2, keys[1:][keys[1:] == keys[:-1]] // span] = True
    fails[3] = np.logical_not(aligned)
    fails[4, owner[~((weights >= 0) & (weights <= FLOAT32_MAX))]] = True
    fails[5] = np.bincount(owner[weights > 0], minlength=n) == 0
    if fails.any():
        k = fails.any(axis=0).argmax()
        raise ShapeError(f"subgraph {k} {_SUBJECT_FAULTS[fails[:, k].argmax()]}")


@dataclass
class SubgraphBatch:
    """A batch of subject subgraphs: member node indices, per-member weights,
    and a dense label matrix (one row per subject, one column per class).

    Members are held once, flat and subject by subject: ``member_rows`` and
    ``member_weights`` per position, ``groups`` grouping the positions by
    subject and ``by_row`` by node row. The constructor flattens one member
    and one weight array per subject; ``from_flat`` takes flat arrays.
    """

    members: InitVar[Sequence]
    weights: InitVar[Sequence]
    labels: np.ndarray
    subject_ids: list[str] | None = None
    member_rows: np.ndarray = field(init=False)
    member_weights: np.ndarray = field(init=False)
    groups: K.Segments = field(init=False)
    by_row: K.Segments = field(init=False)

    def __post_init__(self, members, weights):
        if len(members) != len(weights):
            raise ShapeError("members and weights must align")

        def per_subject(f, arrays):
            return np.fromiter(map(f, arrays), np.intp, len(arrays))

        sizes, weight_sizes = per_subject(np.size, members), per_subject(np.size, weights)
        # the leading empty arrays keep the joins defined for an empty batch
        rows = np.concatenate([np.zeros(0, np.intp), *members], axis=None)
        rows = rows.astype(np.intp, copy=False)
        w = np.concatenate([np.zeros(0), *weights], axis=None)
        _check_subjects(self.labels, rows, w, sizes, weight_sizes,
                        per_subject(np.ndim, members) == 1,
                        (per_subject(np.ndim, weights) == 1) & (weight_sizes == sizes))
        self._lay_out(rows, w, sizes)

    @classmethod
    def from_flat(cls, rows, weights, sizes, labels,
                  subject_ids: list[str] | None = None) -> "SubgraphBatch":
        """Subject k holds the next ``sizes[k]`` of the flat ``rows`` and
        ``weights``; checked as the constructor checks."""
        rows, weights = np.asarray(rows, np.intp), np.asarray(weights, np.float64)
        sizes = np.asarray(sizes, np.intp)
        if sizes.ndim != 1 or np.any(sizes < 0) or not rows.shape == weights.shape == (sizes.sum(),):
            raise ShapeError("flat members and weights must match their sizes")
        _check_subjects(labels, rows, weights, sizes, sizes)
        out = cls.__new__(cls)
        out.labels, out.subject_ids = labels, subject_ids
        out._lay_out(rows, weights, sizes)
        return out

    def _lay_out(self, rows, weights, sizes):
        """Hold the flat arrays; group their positions by subject and row."""
        self.member_rows, self.member_weights = rows, weights
        self.groups = K.Segments(np.repeat(np.arange(sizes.size), sizes), sizes.size)
        self.by_row = K.Segments(rows, int(rows.max()) + 1)

    def __len__(self) -> int:
        return len(self.groups)

    def subset(self, indices) -> "SubgraphBatch":
        """The subjects at ``indices`` (any order, repeats allowed), gathered
        from the flat arrays. Each index must be an integer in
        [0, len(self)); the subjects themselves are not checked again: a
        subset of a valid batch is valid."""
        idx = np.asarray(indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ShapeError("a subset needs a nonempty 1-D index")
        if idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= len(self):
            raise ShapeError(f"subset indices must be integers in [0, {len(self)})")
        idx = idx.astype(np.intp, copy=False)
        sizes = self.groups.counts[idx]
        ends = np.cumsum(sizes)
        pos = np.repeat(self.groups.offsets[idx] - ends + sizes, sizes) + np.arange(ends[-1])
        out = type(self).__new__(type(self))
        out.labels = self.labels[idx]
        out.subject_ids = None if self.subject_ids is None \
            else list(map(self.subject_ids.__getitem__, idx.tolist()))
        out._lay_out(self.member_rows[pos], self.member_weights[pos], sizes)
        return out


# ------------------------------------------------------------ forward trace

@dataclass
class LayerTrace:
    scores: Tensor
    edge_attention: Tensor | None
    node_attention: Tensor


@dataclass
class ForwardTrace:
    """What a backbone pass ran, layer by layer (see ``forward_backbone``).
    The last ``node_attention`` covers the pairs the last node update
    pooled: every pair of ``h`` for a full pass, or those of the ``reads``
    restriction passed in. A pass without ``edges`` runs no last edge
    update: its last ``edge_attention`` and the ``final_edge_states`` are
    None, and its last ``scores`` and the ``node_attention`` before the
    last cover the read pairs too. Everything else covers every pair of
    ``h``. ``final_node_states`` are zero off the read rows."""

    layers: list[LayerTrace]
    final_node_states: Tensor
    final_edge_states: Tensor | None


# ------------------------------------------------------------- forward pass

def init_edge_states(h: Hypergraph, node_embeddings: Tensor) -> Tensor:
    """Layer-0 hyperedge states: plain mean of member node embeddings."""
    counts = h.by_edge.counts.astype(np.float64)
    w = (1.0 / counts[h.edge_of_pair]).astype(node_embeddings.data.dtype)
    return K.weighted_row_sum(node_embeddings, K.constant(w), h.by_node,
                              h.by_edge)


def dual_attention_scores(h: Hypergraph, node_states: Tensor,
                          edge_states: Tensor, layer: LayerParams,
                          slope: float = 0.01) -> Tensor:
    """One raw score per incident pair.

    Both projected states are gathered onto the pairs, multiplied entrywise,
    passed through a leaky rectifier, and contracted with the layer context,
    in one fused kernel that never holds a pairs x d array.
    """
    tn = K.matmul(node_states, layer.node_weight, layer.node_bias)
    te = K.matmul(edge_states, layer.edge_weight, layer.edge_bias)
    return K.attention_scores(te, tn, layer.context, h.by_edge, h.by_node,
                              slope)


def attend(scores: Tensor, layout: K.Segments, states: Tensor,
           by_row: K.Segments, rate: float,
           rng: np.random.Generator | None) -> tuple[Tensor, Tensor]:
    """One direction of a layer: the scores normalized over ``layout``,
    then the rectified attention-weighted sums of the ``states`` rows
    (grouped by ``by_row``) over the same ``layout``, with dropout at
    ``rate`` applied inside the pooling op. Returns (new states, attention).
    """
    attn = K.masked_softmax(scores, layout)
    out = K.weighted_row_sum(states, attn, by_row, layout, rectify=True,
                             rate=rate, rng=rng)
    return out, attn


def edge_update(h: Hypergraph, scores: Tensor, node_states: Tensor,
                rate: float = 0.0, rng: np.random.Generator | None = None
                ) -> tuple[Tensor, Tensor]:
    """New hyperedge states: scores normalized per edge over its members,
    then a rectified attention-weighted sum of member node states."""
    return attend(scores, h.by_edge, node_states, h.by_node, rate, rng)


def node_update(h: Hypergraph, scores: Tensor, edge_states: Tensor,
                rate: float = 0.0, rng: np.random.Generator | None = None
                ) -> tuple[Tensor, Tensor]:
    """New node states from the same scores, normalized per node over its
    incident edges. Nodes with no membership hold empty groups and yield
    rows of zeros."""
    return attend(scores, h.by_node, edge_states, h.by_edge, rate, rng)


def _scores_at(scores: Tensor, h: Hypergraph, reads: Hypergraph) -> Tensor:
    """The entries of ``scores``, one per pair of ``h``, at the pairs of
    ``reads``, in order: one ``K.select`` of their ascending positions in
    ``h``, so no layout over the pairs of ``h`` is built."""
    read = np.zeros(h.num_nodes, dtype=bool)
    read[reads.node_of_pair] = True
    return K.select(scores, np.flatnonzero(read[h.node_of_pair]))


def forward_backbone(h: Hypergraph, params: ModelParams, *,
                     training: bool = False,
                     rng: np.random.Generator | None = None,
                     reads: Hypergraph | None = None,
                     edges: bool = False) -> ForwardTrace:
    """Run all message passing layers; returns what ran as a ForwardTrace,
    whose ``final_node_states`` are the (N, d) node states.

    What the caller reads alone decides what runs: ``reads``, the pairs of
    the node rows it reads (``hypergraph.restrict_to_nodes``; None for
    every row), and ``edges``, whether it reads the final edge states. The
    last node update pools the read pairs alone, so the read rows get the
    bits of the full pass and every other row comes out zero. The last edge
    update runs only given ``edges``. Without it the last layer scores the
    read pairs alone, so it reads the node states before it at the read
    rows only, and the node update before it pools the read pairs alone too.

    Each update draws its own dropout mask over every row, the edge
    update's first, and a pass with dropout draws a skipped update's mask
    too, so the rng ends in the same state whatever is skipped."""
    if h.num_nodes != params.num_nodes:
        raise ShapeError("hypergraph and embeddings disagree on node count")
    rate = params.dropout_rate if training else 0.0
    if rate and rng is None:
        raise ValueError("training with dropout needs an rng")
    if reads is None:
        reads = h
    elif (reads.num_nodes, reads.num_edges) != (h.num_nodes, h.num_edges):
        raise ShapeError("read pairs and hypergraph disagree on nodes or edges")
    last = params.num_layers - 1
    # the first layer whose node update pools the read pairs alone
    narrow = last if edges else last - 1
    hn = params.node_embeddings
    he = init_edge_states(h, hn)
    layers = []
    for k, layer in enumerate(params.layers):
        edge_step = k < last or edges
        scored = h if edge_step else reads
        pooled = reads if k >= narrow else h
        scores = dual_attention_scores(scored, hn, he, layer, params.leaky_slope)
        if edge_step:
            he_next, a_edge = edge_update(h, scores, hn, rate, rng)
        else:   # the last edge states reach no later layer and no caller
            he_next = a_edge = None
            if rate:   # draw the skipped mask, so the rng ends where it would
                K.keep_mask((h.num_edges, params.hidden_dim), rate, rng)
        at_pooled = scores if pooled is scored else _scores_at(scores, h, pooled)
        hn_next, a_node = node_update(pooled, at_pooled, he, rate, rng)
        layers.append(LayerTrace(scores, a_edge, a_node))
        hn, he = hn_next, he_next
    return ForwardTrace(layers, hn, he)


def regularizer(node_states: Tensor, theta_sp: Laplacian) -> Tensor:
    """Quadratic smoothness penalty over the normalized adjacency Θ, the
    dense double sum of Θ[i, j] * ||X_i - X_j||^2. For symmetric Θ it is
    2 * sum(X * LX) with L = diag(Θ1) - Θ, one product of ``theta_sp``,
    which applies L as hypergraph.theta's operator does. L1 = 0, so the
    sum is taken over the column-centred X, and its terms cancel against
    the spread of the states, not their offset; the tape gives the
    gradient 4LX. Θ's diagonal cancels in L; zero-degree nodes have zero
    rows and drop out.
    """
    lx = K.spmm(theta_sp, node_states)
    return K.scale(K.centred_dot(node_states, lx), 2.0)


def subgraph_attention(node_states: Tensor, batch: SubgraphBatch,
                       context: Tensor) -> Tensor:
    """Weighted member attention within each subgraph.

    A member's logit is its weight times the projection of its node state on
    the context vector; softmax runs within each subgraph's member group.
    """
    proj = K.reshape(K.gather_rows(K.matmul(node_states, context),
                                   batch.by_row), (-1,))
    w = K.constant(batch.member_weights, dtype=node_states.data.dtype)
    return K.masked_softmax(K.elementwise_mul(w, proj), batch.groups)


def subgraph_repr(node_states: Tensor, batch: SubgraphBatch,
                  params: ModelParams) -> Tensor:
    """Pool member node states into one representation per subgraph.

    With subgraph attention enabled the pool is the attention-weighted sum;
    the ablation replaces it with a plain unweighted sum. Both are rectified.
    """
    if params.use_subgraph_attention:
        attn = subgraph_attention(node_states, batch, params.subgraph_context)
    else:
        attn = K.constant(np.ones_like(batch.member_weights),
                          dtype=node_states.data.dtype)
    return K.weighted_row_sum(node_states, attn, batch.by_row, batch.groups,
                              rectify=True)


def classify(subgraph_states: Tensor, params: ModelParams, *,
             training: bool = False,
             rng: np.random.Generator | None = None) -> Tensor:
    """Two rectified fully connected layers, a linear output layer, and the
    mode's output normalization (row softmax or elementwise sigmoid)."""
    head = params.head
    rate = params.dropout_rate if training else 0.0
    if rate and rng is None:
        raise ValueError("training with dropout needs an rng")
    hidden = K.relu(K.matmul(subgraph_states, head.fc1_weight, head.fc1_bias))
    hidden = K.dropout(hidden, rate, rng)
    hidden = K.relu(K.matmul(hidden, head.fc2_weight, head.fc2_bias))
    hidden = K.dropout(hidden, rate, rng)
    logits = K.matmul(hidden, head.out_weight, head.out_bias)
    if params.mode == "multiclass":
        return K.softmax_rows(logits)
    return K.sigmoid(logits)


def loss(predictions: Tensor, labels: np.ndarray, mode: str) -> Tensor:
    """The classification loss tensor.

    Multiclass: summed cross-entropy -sum(Y * ln Z); every row of Y must
    select at least one class. Multilabel: summed binary cross-entropy over
    all (subject, class) cells. Logs clamp their argument at 1e-12.
    """
    y = np.asarray(labels, dtype=predictions.data.dtype)
    if y.shape != predictions.data.shape:
        raise ShapeError(f"labels shape {y.shape} != predictions {predictions.data.shape}")
    if mode == "multiclass":
        if np.any(y.sum(axis=1) == 0):
            raise InvalidLabel("multiclass labels must mark a class in every row")
        ce = K.scale(K.reduce_sum(K.elementwise_mul(K.constant(y),
                                                    K.log(predictions))), -1.0)
    elif mode == "multilabel":
        ones = np.ones_like(y)
        pos = K.elementwise_mul(K.constant(y), K.log(predictions))
        neg = K.elementwise_mul(K.constant(ones - y),
                                K.log(K.sub(K.constant(ones), predictions)))
        ce = K.scale(K.reduce_sum(K.add(pos, neg)), -1.0)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ce


@dataclass
class ForwardResult:
    predictions: Tensor
    total_loss: Tensor
    classification_loss: float
    regularization: float


def objective(x: Tensor, params: ModelParams, batch: SubgraphBatch, *,
              theta_sp: Laplacian | None = None, reg_weight: float = 0.0,
              training: bool = False, rng: np.random.Generator | None = None
              ) -> ForwardResult:
    """The half of ``forward`` past the backbone: pooling of the final node
    states ``x``, head, and loss assembly, so that a caller holding the
    states scores them without another backbone pass. Given ``theta_sp``,
    the total is classification + reg_weight * regularizer(x, theta_sp)."""
    s = subgraph_repr(x, batch, params)
    z = classify(s, params, training=training, rng=rng)
    reg = None if theta_sp is None else regularizer(x, theta_sp)
    ce = loss(z, batch.labels, params.mode)
    if reg is None:
        return ForwardResult(z, ce, float(ce.data), 0.0)
    return ForwardResult(z, K.add(ce, K.scale(reg, reg_weight)), float(ce.data),
                         float(reg.data))


def forward(h: Hypergraph, params: ModelParams, batch: SubgraphBatch, *,
            theta_sp: Laplacian | None = None, reg_weight: float = 0.0,
            training: bool = False, rng: np.random.Generator | None = None,
            reads: Hypergraph | None = None) -> ForwardResult:
    """Full pass: backbone, then ``objective``. ``reads`` goes to the
    backbone; it must hold the batch's rows, and every row when the
    regularizer is on."""
    x = forward_backbone(h, params, training=training, rng=rng,
                         reads=reads).final_node_states
    return objective(x, params, batch, theta_sp=theta_sp, reg_weight=reg_weight,
                     training=training, rng=rng)


def scores_from_states(node_states: Tensor, params: ModelParams,
                       batch: SubgraphBatch) -> np.ndarray:
    """Evaluation-mode class scores of a batch from final node states, so
    that several batches can share one backbone pass."""
    with K.no_grad():
        s = subgraph_repr(node_states, batch, params)
        z = classify(s, params, training=False)
    return z.data.copy()


def subgraph_scores(h: Hypergraph, params: ModelParams,
                    batch: SubgraphBatch) -> np.ndarray:
    """Evaluation-mode class scores for a batch, as a plain array. The
    backbone reads the batch's member rows alone, so its last two node
    updates run over their pairs (``forward_backbone``), which gives those
    rows the bits of a full pass."""
    reads = restrict_to_nodes(h, batch.by_row.nonempty)
    with K.no_grad():
        x = forward_backbone(h, params, training=False,
                             reads=reads).final_node_states
    return scores_from_states(x, params, batch)
