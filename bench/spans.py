"""Span tracing of hypersub from outside the package.

``instrument`` swaps module attributes of hypersub (public functions, the
kernel primitives, ``kernel.Tape`` and ``SubgraphBatch.__post_init__``) for
wrappers that record spans, and puts the originals back on exit. Every
tensor a kernel primitive returns gets its gradient rule wrapped too, so the
backward pass is split by primitive as well. Nothing under ``src/`` changes,
and the wrapped calls compute exactly what the originals compute.

A span is (name, start, end, parent). Spans stay in memory until the run
writes them out. A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# Primitives the training step calls on some workload. ``sigmoid`` (multilabel
# only) is left out because no workload reaches it.
KERNEL_OPS = ("matmul", "add", "sub", "scale", "add_bias", "elementwise_mul",
              "relu", "leaky_relu", "log", "reduce_sum", "reshape",
              "gather_rows", "masked_softmax", "softmax_rows",
              "weighted_row_sum", "spmm", "dropout")
BYTES_OPS = ("gather_rows", "weighted_row_sum", "spmm")
IDX = 8  # bytes per index (np.intp)

MODEL_STAGES = {"incidence_pairs": "model.incidence_pairs",
                "init_edge_states": "model.init_edge_states",
                "dual_attention_scores": "model.scores",
                "edge_update": "model.edge_update",
                "node_update": "model.node_update",
                "forward_backbone": "model.forward_backbone",
                "subgraph_repr": "model.subgraph_repr",
                "classify": "model.classify",
                "loss": "model.loss",
                "regularizer": "model.regularizer",
                "subgraph_scores": "model.subgraph_scores"}
DATAIO_CALLS = ("parse_gmt", "load_subgraphs", "load_split", "build_dataset",
                "save_checkpoint", "load_checkpoint")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.gauges: dict[str, float] = {}

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(-1)
        self._open.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def end(self, i: int):
        self.ends[i] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def self_ns(self) -> list[int]:
        """Duration minus the union of the direct children's intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        out = []
        for i in range(len(self.names)):
            covered, reach = 0, self.starts[i]
            for c in sorted(children.get(i, ()), key=self.starts.__getitem__):
                lo, hi = max(self.starts[c], reach), self.ends[c]
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(self.ends[i] - self.starts[i] - covered)
        return out

    def within(self, *ancestors: str) -> list[bool]:
        """Per span: does it or one of its ancestors carry one of the names?"""
        inside: list[bool] = []
        for i, p in enumerate(self.parents):
            inside.append(self.names[i] in ancestors or (p >= 0 and inside[p]))
        return inside

    def write(self, path) -> None:
        own = self.self_ns()
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start_ns": self.starts[i], "end_ns": self.ends[i],
                                     "parent": self.parents[i], "self_ns": own[i]}) + "\n")


def _timed(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        i = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(i)
    return wrapper


def _op_bytes(op: str, args) -> tuple[int, int]:
    """Computed compulsory traffic (forward, backward) of one primitive call:
    every operand element read once and every result element written once,
    index arrays included. Derived from shapes; cache misses are ignored."""
    if op == "gather_rows":
        x, idx = args[0].data, args[1]
        p, row = len(idx), x.shape[1] * x.itemsize
        return p * IDX + 2 * p * row, p * IDX + p * row + x.nbytes
    if op == "weighted_row_sum":
        x, w, groups = args[0].data, args[1].data, args[3]
        p, row = w.size, x.shape[1] * x.itemsize
        fwd = p * (2 * IDX + w.itemsize) + p * row + len(groups) * row
        return fwd, p * 2 * IDX + 2 * p * row + p * w.itemsize + x.nbytes
    m, x = args[0], args[1].data  # spmm
    entry = 2 * IDX + m.values.itemsize
    row = x.shape[1] * x.itemsize
    return m.nnz * (entry + row) + m.rows * row, m.nnz * (entry + row) + m.cols * row


def _kernel_op(tracer: Tracer, op: str, fn):
    fwd, bwd, nbytes = f"kernel.{op}.fwd", f"kernel.{op}.bwd", f"kernel.{op}.bytes"
    count_bytes = op in BYTES_OPS

    def wrapper(*args, **kwargs):
        i = tracer.begin(fwd)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(i)
        fwd_bytes, bwd_bytes = _op_bytes(op, args) if count_bytes else (0, 0)
        tracer.counts[nbytes] += fwd_bytes
        rule = out._grad_fn
        # dropout at rate 0 hands back its input; its rule belongs to another op
        if rule is not None and not any(out is a for a in args):
            def timed_rule(g):
                j = tracer.begin(bwd)
                try:
                    rule(g)
                finally:
                    tracer.end(j)
                tracer.counts[nbytes] += bwd_bytes
            out._grad_fn = timed_rule
        return out
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, hs):
    """Route hypersub's layer calls through ``tracer`` for the duration."""
    D, K, M, T, I = hs.dataio, hs.kernel, hs.model, hs.training, hs.interpret
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, wrapper))

    for name in DATAIO_CALLS:
        patch(D, name, _timed(tracer, f"dataio.{name}", getattr(D, name)))

    build = D.build_hypergraph

    def build_hypergraph(*args, **kwargs):
        with tracer.span("hypergraph.build"):
            h = build(*args, **kwargs)
        tracer.gauges["hypergraph.incidences"] = sum(len(m) for m in h.edge_members)
        return h
    patch(D, "build_hypergraph", build_hypergraph)

    theta = T.theta

    def theta_wrapper(h):
        with tracer.span("hypergraph.theta"):
            t = theta(h)
        tracer.gauges["hypergraph.theta_nnz"] = t.nnz
        return t
    patch(T, "theta", theta_wrapper)

    for attr, name in MODEL_STAGES.items():
        patch(M, attr, _timed(tracer, name, getattr(M, attr)))
    post_init = M.SubgraphBatch.__post_init__
    patch(M.SubgraphBatch, "__post_init__", _timed(tracer, "model.subgraph_batch", post_init))

    forward = M.forward

    def forward_wrapper(*args, **kwargs):
        name = "training.forward" if kwargs.get("training") else "model.forward"
        with tracer.span(name):
            return forward(*args, **kwargs)
    patch(M, "forward", forward_wrapper)

    patch(T, "adam_step", _timed(tracer, "training.adam_step", T.adam_step))
    patch(T, "_epoch_val_loss", _timed(tracer, "training.val_pass", T._epoch_val_loss))
    patch(I, "class_edge_scores",
          _timed(tracer, "interpret.class_edge_scores", I.class_edge_scores))
    patch(I, "hyperedge_correlation",
          _timed(tracer, "interpret.hyperedge_correlation", I.hyperedge_correlation))

    for op in KERNEL_OPS:
        patch(K, op, _kernel_op(tracer, op, getattr(K, op)))
    patch(K, "backward", _timed(tracer, "kernel.backward", K.backward))

    class CountingTape(K.Tape):
        def __init__(self, root):
            super().__init__(root)
            tracer.counts["kernel.tape_nodes"] += len(self.nodes)
    patch(K, "Tape", CountingTape)

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


SPAN_METRICS = (
    "dataio.parse_gmt", "dataio.load_subgraphs", "dataio.build_dataset",
    "dataio.save_checkpoint", "dataio.load_checkpoint",
    "hypergraph.build", "hypergraph.theta",
    "model.incidence_pairs", "model.init_edge_states", "model.scores",
    "model.edge_update", "model.node_update", "model.subgraph_batch",
    "model.subgraph_repr", "model.classify", "model.loss", "model.regularizer",
    "kernel.backward", "training.forward", "training.val_pass",
    "training.adam_step", "interpret.class_edge_scores",
    "interpret.hyperedge_correlation",
)
GAUGES = ("hypergraph.incidences", "hypergraph.theta_nnz")


def span_units() -> dict[str, str]:
    """Every metric ``layer_metrics`` reports, with its unit."""
    units = {f"{n}_s": "s" for n in SPAN_METRICS}
    units.update({g: "count" for g in GAUGES})
    units.update({"model.forward_backbone.calls": "count", "kernel.tape_nodes": "count",
                  "training.final_eval_s": "s", "training.epochs": "count",
                  "interpret.backbone_passes": "count"})
    for op in KERNEL_OPS:
        units.update({f"kernel.{op}.fwd_s": "s", f"kernel.{op}.bwd_s": "s",
                      f"kernel.{op}.calls": "count"})
    units.update({f"kernel.{op}.bytes": "bytes" for op in BYTES_OPS})
    return units


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of a traced run. A ``_s`` metric is the summed
    duration of every span of that name, children included; counts are span
    counts or the counters the wrappers keep. Layers a workload never reaches
    read 0."""
    total: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for name, start, end in zip(tracer.names, tracer.starts, tracer.ends):
        total[name] += end - start
        calls[name] += 1
    out: dict[str, float] = {f"{n}_s": total[n] / 1e9 for n in SPAN_METRICS}
    out.update({g: tracer.gauges.get(g, 0) for g in GAUGES})
    for op in KERNEL_OPS:
        out[f"kernel.{op}.fwd_s"] = total[f"kernel.{op}.fwd"] / 1e9
        out[f"kernel.{op}.bwd_s"] = total[f"kernel.{op}.bwd"] / 1e9
        out[f"kernel.{op}.calls"] = calls[f"kernel.{op}.fwd"]
    for op in BYTES_OPS:
        out[f"kernel.{op}.bytes"] = tracer.counts[f"kernel.{op}.bytes"]
    out["kernel.tape_nodes"] = tracer.counts["kernel.tape_nodes"]
    out["model.forward_backbone.calls"] = calls["model.forward_backbone"]
    out["training.epochs"] = calls["training.val_pass"]
    # final evaluation: from the end of the last epoch's validation pass to
    # the return of train()
    last_val = max((e for n, e in zip(tracer.names, tracer.ends)
                    if n == "training.val_pass"), default=None)
    train_end = max((e for n, e in zip(tracer.names, tracer.ends)
                     if n == "bench.train"), default=None)
    out["training.final_eval_s"] = ((train_end - last_val) / 1e9
                                    if last_val is not None and train_end is not None else 0.0)
    in_interpret = tracer.within("bench.interpret")
    out["interpret.backbone_passes"] = sum(
        1 for n, inside in zip(tracer.names, in_interpret)
        if inside and n == "model.forward_backbone")
    return out


def self_time_table(tracer: Tracer, *under: str) -> list[tuple[str, float]]:
    """Self seconds per span name inside spans carrying one of the names
    ``under``, largest first. Forward and backward halves of a primitive are
    listed separately."""
    own = tracer.self_ns()
    inside = tracer.within(*under)
    acc: dict[str, int] = defaultdict(int)
    for name, ns, flag in zip(tracer.names, own, inside):
        if flag:
            acc[name] += ns
    return sorted(((n, ns / 1e9) for n, ns in acc.items()), key=lambda kv: -kv[1])
