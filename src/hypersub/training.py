"""Training loop, optimizer, early stopping and evaluation metric."""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import kernel as K
from . import model as M
from .errors import (EmptySplit, InvalidConfigValue, InvalidLabel,
                     NumericalDivergence, ShapeError)
from .hypergraph import Hypergraph, restrict_to_nodes, theta


_INT64 = np.iinfo(np.int64)


@dataclass
class TrainConfig:
    """Knobs for one training run. ``monitor`` picks the early stopping
    signal: the full validation objective or its classification part only."""

    learning_rate: float = 0.001
    weight_decay: float = 0.0001
    dropout_rate: float = 0.5
    hidden_dim: int = 300
    num_layers: int = 2
    max_epochs: int = 6000
    patience: int = 10
    reg_weight: float = 1.0
    mode: str = "multiclass"
    batch_size: int = 0          # 0 means full batch
    seed: int = 0
    monitor: str = "total"       # "total" | "classification"
    use_subgraph_attention: bool = True
    leaky_slope: float = 0.01
    threshold: float = 0.5       # multilabel decision cutoff

    def validate(self):
        """Raise InvalidConfigValue naming the first field out of range.
        Every float field must fit float32, in which it is applied, and
        every integer field np.int64, the integer numpy sizes and counts
        with."""
        for name, kind in config_field_types().items():
            value = getattr(self, name)
            if kind is float and not abs(value) <= M.FLOAT32_MAX:   # NaN fails too
                raise InvalidConfigValue(name, f"must be finite and must fit float32, "
                                               f"in which it is applied, got {value!r}")
            if kind is int and not _INT64.min <= value <= _INT64.max:
                raise InvalidConfigValue(name, f"must fit a 64-bit integer, got {value!r}")
        checks = (
            ("learning_rate", self.learning_rate > 0, "must be positive"),
            ("weight_decay", self.weight_decay >= 0, "must be non-negative"),
            ("dropout_rate", 0.0 <= self.dropout_rate < 1.0, "must be in [0, 1)"),
            ("hidden_dim", self.hidden_dim >= 1, "must be positive"),
            ("num_layers", self.num_layers >= 1, "must be positive"),
            ("max_epochs", self.max_epochs >= 1, "must be positive"),
            ("patience", self.patience >= 1, "must be positive"),
            ("reg_weight", self.reg_weight >= 0, "must be non-negative"),
            ("mode", self.mode in ("multiclass", "multilabel"),
             "must be multiclass or multilabel"),
            ("batch_size", self.batch_size >= 0, "must be 0 (full batch) or positive"),
            ("seed", self.seed >= 0, "must be non-negative"),
            ("monitor", self.monitor in ("total", "classification"),
             "must be total or classification"),
            ("threshold", 0.0 < self.threshold < 1.0, "must be in (0, 1)"),
        )
        for name, ok, reason in checks:
            if not ok:
                raise InvalidConfigValue(name, f"{reason}, got {getattr(self, name)!r}")


def config_field_types() -> dict[str, type]:
    return {f.name: f.type if isinstance(f.type, type) else type(f.default)
            for f in fields(TrainConfig)}


@dataclass
class TrainReport:
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int
    epochs_run: int
    metrics: dict[str, float]
    wall_time: float


# ---------------------------------------------------------------- optimizer

@dataclass
class AdamState:
    step: int = 0
    m: list[np.ndarray] | None = None
    v: list[np.ndarray] | None = None


def adam_step(params: list[K.Tensor], grads: list[np.ndarray], state: AdamState,
              learning_rate: float, weight_decay: float = 0.0):
    """One Adam update with decoupled weight decay.

    Decay multiplies parameters by (1 - lr * wd) before the moment update, so
    it never leaks into the running gradient statistics.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8   # the defaults of Kingma & Ba
    if state.m is None:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    for g in grads:
        # past sqrt(max) g * g overflows, and an infinite second moment
        # would hold that entry still for the rest of the run; a NaN fails
        # the comparisons too
        limit = math.sqrt(np.finfo(g.dtype).max)
        if g.size and not -limit <= float(g.min()) <= float(g.max()) <= limit:
            raise NumericalDivergence("gradient non-finite or too large to square")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if weight_decay != 0.0:
            p.data *= 1.0 - learning_rate * weight_decay
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ------------------------------------------------------------ early stopping

class EarlyStopping:
    """Stop when the monitored value has not strictly improved for
    ``patience`` consecutive epochs. Ties count as non-improvements."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.epoch = 0
        self.bad_epochs = 0

    def update(self, value: float) -> bool:
        """Record one epoch's value; True means it improved on the best."""
        self.epoch += 1
        if value < self.best:
            self.best = value
            self.best_epoch = self.epoch
            self.bad_epochs = 0
            return True
        self.bad_epochs += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.bad_epochs >= self.patience


# ------------------------------------------------------------------- metric

def predictions_from_scores(scores: np.ndarray, mode: str,
                            threshold: float = 0.5) -> np.ndarray:
    """Binary decision matrix from class scores: one-hot argmax for
    multiclass, thresholded per cell for multilabel."""
    if mode == "multiclass":
        out = np.zeros_like(scores)
        out[np.arange(scores.shape[0]), scores.argmax(axis=1)] = 1.0
        return out
    if mode == "multilabel":
        return (scores >= threshold).astype(scores.dtype)
    raise ValueError(f"unknown mode {mode!r}")


def micro_f1(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Micro-averaged F1 over all (subject, class) cells: 2TP/(2TP+FP+FN).

    Zero when the denominator is zero (no positives anywhere).
    """
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ShapeError(f"prediction shape {predicted.shape} != label shape {actual.shape}")
    p = predicted > 0.5
    a = actual > 0.5
    tp = int(np.sum(p & a))
    fp = int(np.sum(p & ~a))
    fn = int(np.sum(~p & a))
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


# ----------------------------------------------------------------- training

def _epoch_val_loss(node_states, params, batch, theta_sp, config) -> tuple[float, float]:
    """(monitored, total) validation losses in evaluation mode, scored from
    the epoch's evaluation-mode node states through ``M.objective``."""
    with K.no_grad():
        res = M.objective(node_states, params, batch, theta_sp=theta_sp,
                          reg_weight=config.reg_weight)
    total = float(res.total_loss.data)
    monitored = res.classification_loss if config.monitor == "classification" else total
    return monitored, total


@contextlib.contextmanager
def _epoch_guard(epoch: int):
    """Run one epoch with float overflow and invalid operations raised
    rather than warned about, and name ``epoch`` in any divergence."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, NumericalDivergence) as e:
        raise NumericalDivergence(f"{e} at epoch {epoch}") from e


def train(dataset, h: Hypergraph, config: TrainConfig) -> tuple[M.ModelParams, TrainReport]:
    """Train a fresh model on the dataset's train split, early-stopping on the
    validation split, and restore the parameters of the best epoch.

    Each epoch runs the backbone once per training step and once in
    evaluation mode for the validation loss. The evaluation-mode node states
    of the best epoch are kept with its parameters, and every split's final
    metric is scored from them, so no backbone pass follows the last epoch.
    With the regularizer off, nothing reads a node state outside the
    subjects' member rows, so the backbone's last two node updates pool
    only the pairs of the train split's rows in a step and of every split's
    rows in the evaluation pass; with it on, every pass runs over every pair.

    ``dataset`` provides indices("train"|"val"|"test") and batch(indices);
    see dataio.SubgraphDataset. Deterministic for a fixed config and seed.
    """
    config.validate()
    if not dataset.class_vocab:
        raise InvalidLabel("no subject carries a label, so there is no class to learn")
    started = time.monotonic()
    train_idx = dataset.indices("train")
    val_idx = dataset.indices("val")
    if train_idx.size == 0:
        raise EmptySplit("train split has no subjects")
    if val_idx.size == 0:
        raise EmptySplit("val split has no subjects")

    rng = np.random.default_rng(config.seed)
    params = M.init_model(
        num_nodes=h.num_nodes, hidden_dim=config.hidden_dim,
        num_layers=config.num_layers, num_classes=len(dataset.class_vocab),
        rng=rng, mode=config.mode, dropout_rate=config.dropout_rate,
        leaky_slope=config.leaky_slope,
        use_subgraph_attention=config.use_subgraph_attention,
    )
    M.incidence_pairs(h)   # build the segment layouts once, before epoch 1
    # built once per run and reused every epoch, and only when it is used
    theta_sp = theta(h) if config.reg_weight != 0.0 else None
    # the final metrics score every split from the best epoch's states
    batches = {"train": dataset.batch(train_idx), "val": dataset.batch(val_idx)}
    test_idx = dataset.indices("test")
    if test_idx.size:
        batches["test"] = dataset.batch(test_idx)
    train_batch, val_batch = batches["train"], batches["val"]
    # the regularizer reads every row; without it a pass reads only the
    # rows of its batches, and a minibatch chunk's rows are train rows
    step_reads = eval_reads = None
    if config.reg_weight == 0.0:
        step_reads = restrict_to_nodes(h, train_batch.by_row.nonempty)
        eval_reads = restrict_to_nodes(h, np.concatenate(
            [b.by_row.nonempty for b in batches.values()]))
    tensors = params.parameters()

    stopper = EarlyStopping(config.patience)
    adam = AdamState()
    # parameters and evaluation-mode node states of the best epoch so far
    best_snapshot, best_states = None, None
    train_losses: list[float] = []
    val_losses: list[float] = []

    for epoch in range(1, config.max_epochs + 1):
        with _epoch_guard(epoch):
            if config.batch_size and config.batch_size < len(train_batch):
                order = rng.permutation(len(train_batch))
                chunks = [order[i:i + config.batch_size]
                          for i in range(0, order.size, config.batch_size)]
            else:
                chunks = [None]
            ce_sum = 0.0
            reg_last = 0.0
            for chunk in chunks:
                if chunk is None:
                    batch, reg_weight = train_batch, config.reg_weight
                else:   # each chunk carries its share: an epoch applies reg_weight once
                    batch = train_batch.subset(chunk)
                    reg_weight = config.reg_weight * len(chunk) / len(train_batch)
                res = M.forward(h, params, batch, theta_sp=theta_sp,
                                reg_weight=reg_weight, training=True, rng=rng,
                                reads=step_reads)
                if not np.isfinite(res.total_loss.data):
                    raise NumericalDivergence("training loss non-finite")
                for t in tensors:
                    t.zero_grad()
                grads = K.backward(res.total_loss, tensors)
                adam_step(tensors, grads, adam,
                          config.learning_rate, config.weight_decay)
                ce_sum += res.classification_loss
                reg_last = res.regularization
            train_losses.append(ce_sum + config.reg_weight * reg_last)

            with K.no_grad():
                node_states = M.forward_backbone(
                    h, params, training=False, reads=eval_reads).final_node_states
            monitored, total_val = _epoch_val_loss(node_states, params, val_batch,
                                                   theta_sp, config)
            # a finite epoch 1 always improves on the initial infinity, so the
            # best epoch exists after the loop
            if not np.all(np.isfinite((monitored, total_val))):
                raise NumericalDivergence("validation loss non-finite")
            val_losses.append(monitored)
            if stopper.update(monitored):
                best_snapshot = [t.data.copy() for t in tensors]
                best_states = node_states
            if stopper.should_stop:
                break

    for t, saved in zip(tensors, best_snapshot):
        t.data[...] = saved

    # the best epoch's validation pass scores every split
    metrics: dict[str, float] = {}
    for split, batch in batches.items():
        scores = M.scores_from_states(best_states, params, batch)
        pred = predictions_from_scores(scores, config.mode, config.threshold)
        metrics[f"micro_f1_{split}"] = micro_f1(pred, batch.labels)

    report = TrainReport(
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=stopper.best_epoch,
        epochs_run=stopper.epoch,
        metrics=metrics,
        wall_time=time.monotonic() - started,
    )
    return params, report

