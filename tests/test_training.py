import math
import re
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from hypersub import dataio as D
from hypersub import kernel as K
from hypersub import model as M
from hypersub.dataio import build_dataset, load_subgraphs
from hypersub.errors import (EmptySplit, InputDataError, InvalidConfigValue,
                             NumericalDivergence, ShapeError)
from hypersub.hypergraph import restrict_to_nodes, theta
from hypersub.synthetic import make_synthetic
from hypersub.training import (AdamState, EarlyStopping, TrainConfig,
                               adam_step, config_field_types,
                               micro_f1, predictions_from_scores, train)

from conftest import quick_shaped


def tiny_dataset(seed=3, subjects=60, noise=0.1):
    data = make_synthetic(num_nodes=40, num_edges=8, num_classes=4,
                          num_subjects=subjects, noise=noise, seed=seed)
    catalog = data.catalog
    h = catalog.to_hypergraph()
    table = load_subgraphs(data.subgraphs_text(), catalog)
    return build_dataset(table, catalog, data.split), h


def tiny_config(**kw):
    base = dict(hidden_dim=16, num_layers=2, max_epochs=25, patience=10,
                dropout_rate=0.0, reg_weight=1.0, learning_rate=0.001,
                weight_decay=0.0001, seed=1)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------- adam

def test_adam_zero_gradient_without_decay_keeps_params():
    p = K.parameter(np.array([1.0, -2.0]))
    state = AdamState()
    adam_step([p], [np.zeros(2)], state, learning_rate=0.1, weight_decay=0.0)
    assert p.data.tolist() == [1.0, -2.0]


def test_adam_first_step_matches_closed_form():
    # with fresh moments the first update is lr * g / (|g| + eps) elementwise
    g = np.array([0.3, -2.0, 1e-4])
    start = np.array([1.0, 1.0, 1.0])
    p = K.parameter(start.copy())
    adam_step([p], [g], AdamState(), learning_rate=0.01, weight_decay=0.0)
    want = start - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.max(np.abs(p.data - want)) <= 1e-12
    # magnitude is about lr wherever the gradient is not tiny
    assert abs(abs(p.data[0] - 1.0) - 0.01) <= 1e-6


def test_adam_decoupled_decay_shrinks_before_update():
    p = K.parameter(np.array([10.0]))
    adam_step([p], [np.zeros(1)], AdamState(), learning_rate=0.1,
              weight_decay=0.5)
    # zero gradient: only the multiplicative shrink applies
    assert abs(p.data[0] - 10.0 * (1 - 0.1 * 0.5)) <= 1e-12


def test_adam_converges_on_quadratic():
    p = K.parameter(np.array([1.0]))
    state = AdamState()
    for _ in range(2000):
        grad = 2.0 * p.data  # d/dx x^2
        adam_step([p], [grad], state, learning_rate=0.01)
        if abs(p.data[0]) <= 1e-3:
            break
    assert abs(p.data[0]) <= 1e-3


def test_adam_rejects_non_finite_gradient():
    p = K.parameter(np.array([1.0]))
    with pytest.raises(NumericalDivergence):
        adam_step([p], [np.array([np.nan])], AdamState(), learning_rate=0.01)


def test_adam_rejects_a_gradient_whose_square_overflows():
    # 1e20 is finite in float32, but its square is not: the second moment
    # would turn infinite and that entry would never move again
    p = K.parameter(np.array([1.0, 2.0], dtype=np.float32))
    q = K.parameter(np.array([3.0], dtype=np.float32))
    state = AdamState()
    with pytest.raises(NumericalDivergence):
        adam_step([q, p], [np.ones(1, np.float32), np.array([1.0, -1e20], np.float32)],
                  state, learning_rate=0.01)
    # no parameter or moment moved
    assert p.data.tolist() == [1.0, 2.0] and q.data.tolist() == [3.0]
    assert state.step == 0 and not any(m.any() for m in state.m + state.v)
    # the largest float32 whose square is finite still updates
    edge = np.nextafter(np.float32(2.0 ** 64), np.float32(0))
    adam_step([p], [np.array([edge, -edge])], AdamState(), learning_rate=0.01)
    assert np.all(np.isfinite(p.data)) and p.data.tolist() != [1.0, 2.0]


# ------------------------------------------------------------ early stopping

def test_early_stopping_scripted_plateau():
    # improves for 3 epochs then plateaus: ties are not improvements, so the
    # stop lands exactly patience epochs after the last improvement
    stopper = EarlyStopping(patience=10)
    for v in [5.0, 4.0, 3.0]:
        stopper.update(v)
    assert not stopper.should_stop
    for k in range(10):
        improved = stopper.update(3.0)
        assert not improved
        assert stopper.should_stop == (k == 9)
    assert stopper.best_epoch == 3
    assert stopper.epoch == 13


def test_early_stopping_recovery_resets_counter():
    stopper = EarlyStopping(patience=2)
    for v in [5.0, 6.0, 4.0, 5.0, 3.0]:
        stopper.update(v)
    assert not stopper.should_stop
    stopper.update(3.5)
    stopper.update(3.5)
    assert stopper.should_stop
    assert stopper.best_epoch == 5


# -------------------------------------------------------------------- metric

def test_micro_f1_hand_values():
    eye = np.eye(3)
    assert micro_f1(eye, eye) == 1.0
    pred = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0]], dtype=float)
    act = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    # TP=2, FP=1, FN=1 -> 2*2 / (2*2 + 1 + 1)
    assert abs(micro_f1(pred, act) - 2 / 3) <= 1e-12
    assert micro_f1(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    with pytest.raises(ShapeError):
        micro_f1(np.zeros((2, 2)), np.zeros((3, 2)))


def test_micro_f1_subject_order_invariance(rng):
    pred = rng.integers(0, 2, size=(10, 4)).astype(float)
    act = rng.integers(0, 2, size=(10, 4)).astype(float)
    perm = rng.permutation(10)
    assert micro_f1(pred, act) == micro_f1(pred[perm], act[perm])


def test_predictions_from_scores():
    scores = np.array([[0.2, 0.5, 0.3], [0.9, 0.05, 0.05]])
    assert predictions_from_scores(scores, "multiclass").tolist() == [
        [0, 1, 0], [1, 0, 0]]
    ml = predictions_from_scores(np.array([[0.5, 0.49]]), "multilabel", 0.5)
    assert ml.tolist() == [[1, 0]]  # threshold is inclusive


# ------------------------------------------------------------------ training

def test_train_is_deterministic_per_seed():
    ds, h = tiny_dataset()
    cfg = tiny_config(max_epochs=8)
    p1, r1 = train(ds, h, cfg)
    p2, r2 = train(ds, h, tiny_config(max_epochs=8))
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses
    for a, b in zip(p1.parameters(), p2.parameters()):
        assert np.array_equal(a.data, b.data)
    p3, r3 = train(ds, h, tiny_config(max_epochs=8, seed=2))
    assert r1.train_losses != r3.train_losses


def test_train_loss_decreases_initially():
    ds, h = tiny_dataset()
    _, report = train(ds, h, tiny_config(max_epochs=10, reg_weight=0.0,
                                         weight_decay=0.0))
    diffs = np.diff(report.train_losses)
    assert np.all(diffs <= 0.0), report.train_losses


def test_train_restores_best_epoch_parameters():
    ds, h = tiny_dataset(noise=0.5)
    cfg = tiny_config(max_epochs=30, patience=5, dropout_rate=0.3, seed=9)
    params, report = train(ds, h, cfg)
    assert report.best_epoch == int(np.argmin(report.val_losses)) + 1
    # recomputing the monitored loss at the returned parameters reproduces
    # the recorded minimum exactly
    pairs = M.incidence_pairs(h)
    from hypersub.hypergraph import theta
    val_batch = ds.batch(ds.indices("val"))
    with K.no_grad():
        res = M.forward(pairs, params, val_batch, theta_sp=theta(h),
                        reg_weight=cfg.reg_weight, training=False)
    assert float(res.total_loss.data) == min(report.val_losses)


def test_train_stops_after_patience(monkeypatch):
    # scripted validation sequence through the real loop: 3 improvements,
    # then an exact plateau that must stop after `patience` stale epochs
    import hypersub.training as T
    ds, h = tiny_dataset()
    seq = iter([5.0, 4.0, 3.0] + [3.0] * 50)

    def scripted(pairs, params, batch, theta_sp, config):
        v = next(seq)
        return v, v

    monkeypatch.setattr(T, "_epoch_val_loss", scripted)
    _, report = train(ds, h, tiny_config(max_epochs=500, patience=10))
    assert report.epochs_run == 13
    assert report.best_epoch == 3
    assert report.val_losses == [5.0, 4.0, 3.0] + [3.0] * 10


def test_train_rejects_a_non_finite_monitored_loss(monkeypatch):
    # a finite total does not excuse a non-finite monitored value: epoch 1
    # must improve on the initial infinity for a best epoch to exist
    import hypersub.training as T
    ds, h = tiny_dataset()
    monkeypatch.setattr(T, "_epoch_val_loss",
                        lambda pairs, params, batch, theta_sp, config: (math.inf, 1.0))
    with pytest.raises(NumericalDivergence, match="epoch 1"):
        train(ds, h, tiny_config(max_epochs=3))


@pytest.mark.parametrize("overrides", [
    {"learning_rate": 1e37}, {"learning_rate": 1e38}, {"weight_decay": 1e38},
    {"reg_weight": 1e38}, {"reg_weight": 1e30}])
def test_train_names_the_epoch_of_a_float32_overflow(overrides):
    # values that fit float32 but overflow its arithmetic stop the run as a
    # divergence that names its op, or adam's gradient check, and its
    # epoch, with no warning on the way; numpy's error handling is as it was
    # once train has returned
    ds, h = tiny_dataset()
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDivergence) as info:
            train(ds, h, tiny_config(max_epochs=3, **overrides))
    assert re.fullmatch(r"((overflow|invalid value) encountered in [a-z_ ]+|gradient "
                        r"non-finite or too large to square) at epoch [1-3]",
                        str(info.value)), str(info.value)
    assert np.geterr() == before


def test_train_without_regularizer_never_builds_theta(monkeypatch):
    import hypersub.training as T

    def refuse(h):
        raise AssertionError("theta built although reg_weight is 0")

    monkeypatch.setattr(T, "theta", refuse)
    ds, h = tiny_dataset()
    _, report = train(ds, h, tiny_config(max_epochs=3, reg_weight=0.0))
    assert report.epochs_run == 3
    with pytest.raises(AssertionError):
        train(ds, h, tiny_config(max_epochs=1, reg_weight=0.5))


def test_train_caps_at_max_epochs():
    ds, h = tiny_dataset()
    _, report = train(ds, h, tiny_config(max_epochs=5, patience=50))
    assert report.epochs_run == 5


def test_train_minibatch_runs():
    ds, h = tiny_dataset()
    _, report = train(ds, h, tiny_config(max_epochs=5, batch_size=8))
    assert len(report.train_losses) == 5
    assert all(np.isfinite(v) for v in report.train_losses)


def test_minibatch_chunks_share_the_regularizer_weight(monkeypatch):
    # three chunks per epoch, each weighted by its share of the train split,
    # so one epoch applies reg_weight once, as a full batch does
    seen = []
    original = M.forward

    def recording(h, params, batch, **kwargs):
        seen.append((len(batch), kwargs["reg_weight"]))
        return original(h, params, batch, **kwargs)

    monkeypatch.setattr(M, "forward", recording)
    ds, h = tiny_dataset()
    n_train = ds.indices("train").size
    size = -(-n_train // 3)
    assert 2 * size < n_train
    train(ds, h, tiny_config(max_epochs=1, batch_size=size, reg_weight=0.7))
    assert [n for n, _ in seen] == [size, size, n_train - 2 * size]
    assert [w for _, w in seen] == [0.7 * n / n_train for n, _ in seen]
    assert sum(w for _, w in seen) == pytest.approx(0.7, rel=1e-12)


def test_train_empty_split_raises():
    ds, h = tiny_dataset()
    ds2 = replace(ds, split=["train"] * len(ds.split))
    with pytest.raises(EmptySplit):
        train(ds2, h, tiny_config())


def test_train_monitor_classification_only():
    ds, h = tiny_dataset()
    cfg = tiny_config(max_epochs=6, monitor="classification")
    _, report = train(ds, h, cfg)
    cfg_total = tiny_config(max_epochs=6, monitor="total")
    _, report_total = train(ds, h, cfg_total)
    # same optimization path, different monitored values
    assert report.train_losses == report_total.train_losses
    assert report.val_losses != report_total.val_losses


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(dropout_rate=1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(mode="ranking").validate()
    with pytest.raises(ValueError):
        TrainConfig(num_layers=0).validate()
    TrainConfig().validate()


@pytest.mark.parametrize("name", [n for n, t in config_field_types().items()
                                  if t is float])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_floats(name, value):
    with pytest.raises(InvalidConfigValue) as info:
        replace(TrainConfig(), **{name: value}).validate()
    assert info.value.key == name and isinstance(info.value, InputDataError)


def test_train_runs_one_training_and_one_validation_pass_per_epoch(monkeypatch):
    # E epochs without early stopping: a training and a validation pass per
    # epoch, and no pass after them (the best epoch's validation pass scores
    # every split)
    calls = []
    original = M.forward_backbone

    def counting(*args, **kwargs):
        calls.append(kwargs.get("training", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(M, "forward_backbone", counting)
    ds, h = tiny_dataset()
    epochs = 4
    _, report = train(ds, h, tiny_config(max_epochs=epochs, patience=epochs))
    assert report.epochs_run == epochs
    assert calls == [True, False] * epochs


@pytest.mark.parametrize("reg_weight", [0.0, 0.5])
def test_only_an_unregularized_run_restricts_the_backbone(monkeypatch, reg_weight):
    # the regularizer reads every node state, so with it on no pass may
    # leave a row out; without it a step reads the train rows and the
    # evaluation pass the rows of every split
    calls = []
    original = M.forward_backbone

    def spying(*args, **kwargs):
        calls.append((kwargs.get("training", False), kwargs.get("reads")))
        return original(*args, **kwargs)

    monkeypatch.setattr(M, "forward_backbone", spying)
    ds, h = tiny_dataset(subjects=12)
    epochs = 2
    train(ds, h, tiny_config(max_epochs=epochs, patience=epochs, batch_size=2,
                             reg_weight=reg_weight))
    # 4 train subjects in chunks of 2: two steps per epoch
    assert [training for training, _ in calls] == [True, True, False] * epochs
    if reg_weight:
        assert all(reads is None for _, reads in calls)
        return
    splits = {s: ds.batch(ds.indices(s)).by_row.nonempty for s in ("train", "val", "test")}
    step = restrict_to_nodes(h, splits["train"])
    every = restrict_to_nodes(h, np.concatenate(list(splits.values())))
    assert step is not h
    for training, reads in calls:
        want = step if training else every
        assert reads.node_of_pair.tobytes() == want.node_of_pair.tobytes()
        assert reads.edge_of_pair.tobytes() == want.edge_of_pair.tobytes()


@pytest.mark.parametrize("reg_weight", [0.0, 0.5])
def test_training_step_holds_no_layer_of_its_trace_across_backward(monkeypatch,
                                                                   reg_weight):
    # the tape alone keeps a taped step's layer tensors until their rules
    # fire; a trace held past the backward pass would keep them alive
    # through it, where the step's memory peaks
    held, checked = [], []
    original, backward = M.forward_backbone, K.backward

    def recording(*args, **kwargs):
        trace = original(*args, **kwargs)
        if kwargs.get("training"):
            held.extend(weakref.ref(t.data) for layer in trace.layers
                        for t in vars(layer).values() if t is not None)
        return trace

    def checking(loss, params):
        assert held and all(ref() is not None for ref in held)
        grads = backward(loss, params)
        checked.append([ref() is None for ref in held])
        held.clear()
        return grads

    monkeypatch.setattr(M, "forward_backbone", recording)
    monkeypatch.setattr(K, "backward", checking)
    ds, h = tiny_dataset()
    train(ds, h, tiny_config(max_epochs=2, patience=2, dropout_rate=0.3,
                             reg_weight=reg_weight))
    assert len(checked) == 2 and all(all(step) for step in checked)


def test_training_step_rules_keep_no_mask_or_copy_of_what_the_tape_holds():
    # one regularized step at d=300 on a graph shaped like the quick
    # catalog: the rules that rectify, normalize or take a log rebuild
    # their masks and probabilities from their own output or input, so
    # each holds no array but its parents' data, its output and the
    # layouts' index arrays
    rng = np.random.default_rng(5)
    h = quick_shaped(rng)
    params = M.init_model(h.num_nodes, 300, 2, 4, rng, dropout_rate=0.5)
    members = [rng.choice(h.num_nodes, int(rng.integers(10, 26)), replace=False)
               for _ in range(40)]
    labels = np.eye(4)[np.arange(40) % 4]
    batch = M.SubgraphBatch(members, [rng.random(m.size) for m in members], labels)
    res = M.forward(h, params, batch, theta_sp=theta(h), reg_weight=1.0,
                    training=True, rng=rng)
    tape = K.Tape(res.total_loss)
    ops = ("weighted_row_sum", "relu", "masked_softmax", "log")
    seen, extra = set(), set()
    for node in tape.nodes:
        rule = node._grad_fn
        op = rule.__qualname__.split(".")[0] if rule is not None else None
        if op not in ops:
            continue
        seen.add(op)
        own = [node.data, *(p.data for p in node._parents)]
        for name, cell in zip(rule.__code__.co_freevars, rule.__closure__):
            try:
                held = cell.cell_contents
            except ValueError:   # a name the op never bound
                continue
            if (isinstance(held, np.ndarray) and held.dtype.kind not in "iu"
                    and not any(held is a for a in own)):
                extra.add((op, name, held.dtype.name))
    assert seen == set(ops) and not extra, sorted(extra)
    tape.run()
    assert all(p.grad is not None for p in params.parameters())


def test_final_metrics_match_per_split_scores():
    ds, h = tiny_dataset()
    cfg = tiny_config(max_epochs=6, dropout_rate=0.2)
    params, report = train(ds, h, cfg)
    pairs = M.incidence_pairs(h)
    for split in ("train", "val", "test"):
        batch = ds.batch(ds.indices(split))
        scores = M.subgraph_scores(pairs, params, batch)
        with K.no_grad():
            x = M.forward_backbone(pairs, params).final_node_states
        assert np.array_equal(M.scores_from_states(x, params, batch), scores)
        pred = predictions_from_scores(scores, cfg.mode, cfg.threshold)
        assert report.metrics[f"micro_f1_{split}"] == micro_f1(pred, batch.labels)


@pytest.mark.parametrize("extra", [0, 5])
def test_minibatch_covering_the_train_split_equals_full_batch(tmp_path, extra):
    ds, h = tiny_dataset()
    n_train = ds.indices("train").size
    full_cfg = tiny_config(max_epochs=4, dropout_rate=0.3)
    saved = []
    for cfg in (full_cfg, replace(full_cfg, batch_size=n_train + extra)):
        params, report = train(ds, h, cfg)
        # the same config in both headers, so any byte that differs is a
        # trained parameter
        path = tmp_path / f"b{cfg.batch_size}.ckpt"
        D.save_checkpoint(D.Checkpoint(
            params=params, config=full_cfg,
            gene_names=[str(i) for i in range(h.num_nodes)],
            class_vocab=list(ds.class_vocab),
            edge_names=[str(j) for j in range(h.num_edges)], hypergraph=h), path)
        saved.append((path.read_bytes(), report))
    (full, full_report), (chunked, chunked_report) = saved
    assert full == chunked
    assert full_report.train_losses == chunked_report.train_losses
    assert full_report.val_losses == chunked_report.val_losses
