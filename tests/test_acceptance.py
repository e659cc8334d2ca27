"""Acceptance gate for the package.

One test per criterion A1..A9. Each prints a single PASS or FAIL line with
the measured quantities next to the pinned bound, so `pytest -s
tests/test_acceptance.py` reads as a checklist. Criteria cover gradient
correctness, the sparse regularizer, score sharing and duality, attention
normalization and symmetry, synthetic end-to-end accuracy, early stopping,
the inductive contract, format round-trips, and planted-edge recovery.
"""

import dataclasses
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from hypersub import cli
from hypersub import dataio as D
from hypersub import kernel as K
from hypersub import model as M
from hypersub import training as T
from hypersub.hypergraph import build_hypergraph, theta
from hypersub.interpret import class_enrichment
from hypersub.synthetic import make_synthetic

from conftest import dense_theta, group_positions, random_hypergraph
from oracles import dual, grad_check


def verdict(tag: str, ok: bool, detail: str):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} {detail}"


def model_for(h, d=4, num_classes=3, num_layers=2, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return M.init_model(h.num_nodes, d, num_layers, num_classes, rng,
                        dtype=np.float64, **kw)


def one_hot_batch(members, num_classes):
    labels = np.zeros((len(members), num_classes))
    labels[np.arange(len(members)), np.arange(len(members)) % num_classes] = 1.0
    return M.SubgraphBatch(members=[np.asarray(m) for m in members],
                           weights=[np.linspace(0.5, 1.5, len(m))
                                    for m in members],
                           labels=labels)


# Shared synthetic benchmark: the generator's default profile, produced
# through the CLI command so the whole file pipeline is on the path.
@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_synth")
    assert cli.main(["make-synthetic", "--out", str(out)]) == 0
    catalog = D.parse_gmt(out / "synthetic.gmt")
    table = D.load_subgraphs(out / "subgraphs.tsv", catalog)
    dataset = D.build_dataset(table, catalog,
                              D.load_split(out / "split.tsv"))
    planted = json.loads((out / "planted.json").read_text())
    return SimpleNamespace(out=out, catalog=catalog, table=table,
                           h=catalog.to_hypergraph(), dataset=dataset,
                           planted=planted["planted_edges"])


A5_CONFIG = T.TrainConfig(learning_rate=0.001, weight_decay=0.0001,
                          dropout_rate=0.1, hidden_dim=32, num_layers=2,
                          max_epochs=200, patience=200, reg_weight=1.0,
                          seed=0)


@pytest.fixture(scope="module")
def a5_run(synth):
    t0 = time.perf_counter()
    params, report = T.train(synth.dataset, synth.h, A5_CONFIG)
    return params, report, time.perf_counter() - t0


def test_a1_gradient_correctness():
    # toy instance: 6 nodes, 3 edges, 4 subgraphs, d=6, 2 layers, no
    # dropout, 64-bit; analytic vs central differences <= 1e-4; < 30 s
    t0 = time.perf_counter()
    h = build_hypergraph([[0, 1, 2], [2, 3], [1, 3, 4, 5]])
    params = model_for(h, d=6, num_classes=3, num_layers=2, seed=4,
                       dropout_rate=0.0)
    pairs = M.incidence_pairs(h)
    t = theta(h)
    batch = one_hot_batch([[0, 1], [2, 3], [1, 4, 5], [0, 5]], 3)

    def f():
        return M.forward(pairs, params, batch, theta_sp=t,
                         reg_weight=0.7).total_loss

    report = grad_check(f, params.parameters(), epsilon=1e-6,
                          tolerance=1e-4)
    dt = time.perf_counter() - t0
    verdict("A1", report.passed and dt < 30.0,
            f"max rel err {report.max_rel_error:.3e} <= 1e-4 over "
            f"{sum(p.data.size for p in params.parameters())} parameters, "
            f"{dt:.1f}s < 30s")


def test_a2_regularizer_oracle():
    # sparse form vs brute-force pairwise sum on 50 random hypergraphs
    # with up to 12 nodes; agreement <= 1e-10; < 10 s. The brute force
    # weights its pairs by Θ assembled from the dense incidence matrix, not
    # by the operator under test
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        h = random_hypergraph(rng, max_nodes=12, max_edges=6)
        t = theta(h)
        x = rng.normal(size=(h.num_nodes, 4))
        dense = dense_theta(h)
        brute = sum(dense[i, j] * float(((x[i] - x[j]) ** 2).sum())
                    for i in range(h.num_nodes) for j in range(h.num_nodes))
        got = float(M.regularizer(K.constant(x), t).data)
        worst = max(worst, abs(got - brute))
    dt = time.perf_counter() - t0
    verdict("A2", worst <= 1e-10 and dt < 10.0,
            f"max |sparse - brute| {worst:.3e} <= 1e-10 on 50 graphs, "
            f"{dt:.1f}s < 10s")


def test_a3_strong_duality(monkeypatch):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    # (i) one score tensor per layer feeds both normalizations
    h = build_hypergraph([[0, 1, 2], [2, 3], [0, 3]])
    params = model_for(h, num_layers=2, seed=1)
    pairs = M.incidence_pairs(h)
    score_evals = []
    attention_scores = K.attention_scores
    monkeypatch.setattr(K, "attention_scores",
                        lambda *a: score_evals.append(1) or attention_scores(*a))
    trace = M.forward_backbone(pairs, params, edges=True)
    monkeypatch.undo()
    shared = (len(score_evals) == 2
              and all(tr.scores.data.shape == (pairs.edge_of_pair.size,)
                      and tr.edge_attention._parents[0] is tr.scores
                      and tr.node_attention._parents[0] is tr.scores
                      for tr in trace.layers))

    # (ii) double dual is bit-identical
    double_ok = True
    for _ in range(3):
        g = random_hypergraph(rng, max_nodes=8, max_edges=4,
                              allow_isolated=False)
        p = model_for(g, seed=int(rng.integers(1000)))
        t1 = M.forward_backbone(M.incidence_pairs(g), p, edges=True)
        t2 = M.forward_backbone(M.incidence_pairs(dual(dual(g))), p, edges=True)
        double_ok &= all(np.array_equal(a.scores.data, b.scores.data)
                         for a, b in zip(t1.layers, t2.layers))

    # (iii) swapped-parameter run on the dual transposes scores exactly
    swap_ok = True
    for _ in range(3):
        g = random_hypergraph(rng, max_nodes=8, max_edges=4,
                              allow_isolated=False)
        gd = dual(g)
        p = model_for(g, seed=int(rng.integers(1000)))
        gp, dp = M.incidence_pairs(g), M.incidence_pairs(gd)
        hn = p.node_embeddings
        he = M.init_edge_states(gp, hn)
        for lp in p.layers:
            swapped = M.LayerParams(node_weight=lp.edge_weight,
                                    node_bias=lp.edge_bias,
                                    edge_weight=lp.node_weight,
                                    edge_bias=lp.node_bias,
                                    context=lp.context)
            s = M.dual_attention_scores(gp, hn, he, lp, p.leaky_slope)
            sd = M.dual_attention_scores(dp, he, hn, swapped, p.leaky_slope)
            primal = {(int(e), int(n)): s.data[k] for k, (e, n) in
                      enumerate(zip(gp.edge_of_pair, gp.node_of_pair))}
            for k in range(dp.edge_of_pair.size):
                i = int(dp.edge_of_pair[k])  # dual edge = primal node
                j = int(dp.node_of_pair[k])  # dual node = primal edge
                swap_ok &= sd.data[k] == primal[(j, i)]
            he, hn = M.edge_update(gp, s, hn)[0], M.node_update(gp, s, he)[0]
    dt = time.perf_counter() - t0
    verdict("A3", shared and double_ok and swap_ok and dt < 5.0,
            f"score sharing {shared}, double-dual bit-identical {double_ok}, "
            f"swapped-role transpose bit-identical {swap_ok}, {dt:.1f}s < 5s")


def test_a4_attention_normalization_and_symmetry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    h = build_hypergraph([[0, 1, 2], [2, 3, 4], [1, 4, 5], [0, 5, 6]])
    params = model_for(h, d=5, num_classes=3, seed=2)
    pairs = M.incidence_pairs(h)
    batch = one_hot_batch([[0, 2, 3], [1, 4, 6], [5, 6], [0, 1, 2, 3]], 3)

    # group sums == 1 within 1e-6
    trace = M.forward_backbone(pairs, params, edges=True)
    x = trace.final_node_states
    attn = M.subgraph_attention(x, batch, params.subgraph_context)
    sums_err = 0.0
    for tr in trace.layers:
        for g in group_positions(pairs.by_edge):
            sums_err = max(sums_err, abs(tr.edge_attention.data[list(g)].sum() - 1.0))
        for g in group_positions(pairs.by_node):
            sums_err = max(sums_err, abs(tr.node_attention.data[list(g)].sum() - 1.0))
    for g in group_positions(batch.groups):
        sums_err = max(sums_err, abs(attn.data[list(g)].sum() - 1.0))

    # node relabeling leaves S and Z unchanged within 1e-9
    s1 = M.subgraph_repr(x, batch, params)
    z1 = M.classify(s1, params)
    perm = rng.permutation(h.num_nodes).tolist()
    lists = [[perm[i] for i in mem] for mem in h.edge_members]
    h2 = build_hypergraph(lists, num_nodes=h.num_nodes)
    emb = np.empty_like(params.node_embeddings.data)
    emb[perm] = params.node_embeddings.data
    params2 = dataclasses.replace(params, node_embeddings=K.parameter(emb))
    members = [batch.member_rows[g] for g in group_positions(batch.groups)]
    weights = [batch.member_weights[g] for g in group_positions(batch.groups)]
    batch2 = M.SubgraphBatch(
        members=[np.array([perm[i] for i in mem]) for mem in members],
        weights=[w.copy() for w in weights], labels=batch.labels.copy())
    x2 = M.forward_backbone(M.incidence_pairs(h2), params2).final_node_states
    s2 = M.subgraph_repr(x2, batch2, params2)
    z2 = M.classify(s2, params2)
    relabel_err = max(float(np.abs(s1.data - s2.data).max()),
                      float(np.abs(z1.data - z2.data).max()))

    # member-order permutation leaves S rows unchanged within 1e-9
    order = [rng.permutation(m.size) for m in members]
    batch3 = M.SubgraphBatch(members=[m[o] for m, o in zip(members, order)],
                             weights=[w[o] for w, o in zip(weights, order)],
                             labels=batch.labels.copy())
    s3 = M.subgraph_repr(x, batch3, params)
    order_err = float(np.abs(s1.data - s3.data).max())
    dt = time.perf_counter() - t0
    verdict("A4", sums_err <= 1e-6 and relabel_err <= 1e-9
            and order_err <= 1e-9 and dt < 10.0,
            f"attention sum err {sums_err:.2e} <= 1e-6, relabel err "
            f"{relabel_err:.2e} <= 1e-9, member-order err {order_err:.2e} "
            f"<= 1e-9, {dt:.1f}s < 10s")


def test_a5_synthetic_end_to_end(synth, a5_run):
    # default generator profile; d=32, 2 layers, lr 1e-3, reg weight 1.0;
    # test micro-F1 >= 0.95 within 200 epochs and < 60 s
    params, report, seconds = a5_run
    f1 = report.metrics["micro_f1_test"]
    main_ok = (f1 >= 0.95 and report.epochs_run <= 200 and seconds < 60.0)

    # ablations still train (finite losses) and do not beat the full model
    ablation_notes = []
    ablation_ok = True
    for name, kw in (("reg off", {"reg_weight": 0.0}),
                     ("sum pooling", {"use_subgraph_attention": False})):
        cfg = dataclasses.replace(A5_CONFIG, **kw)
        _, rep = T.train(synth.dataset, synth.h, cfg)
        finite = all(np.isfinite(v) for v in rep.train_losses)
        ab_f1 = rep.metrics["micro_f1_test"]
        ablation_ok &= finite and ab_f1 <= f1 + 1e-9
        ablation_notes.append(f"{name} {ab_f1:.4f}")
    verdict("A5", main_ok and ablation_ok,
            f"test micro-F1 {f1:.4f} >= 0.95 in {report.epochs_run} epochs, "
            f"{seconds:.1f}s < 60s; ablations ({', '.join(ablation_notes)}) "
            f"<= full and finite")


def tiny_dataset():
    data = make_synthetic(num_nodes=40, num_edges=8, num_classes=4,
                          num_subjects=60, seed=3)
    catalog = D.parse_gmt(data.gmt_text())
    table = D.load_subgraphs(data.subgraphs_text(), catalog)
    dataset = D.build_dataset(table, catalog, D.load_split(data.split_text()))
    return dataset, catalog.to_hypergraph()


def test_a6_early_stopping(monkeypatch):
    dataset, h = tiny_dataset()
    base = dict(hidden_dim=8, learning_rate=0.01, dropout_rate=0.2, seed=9)

    def scripted(seq):
        it = iter(seq)
        return lambda pairs, params, batch, theta_sp, config: (
            (lambda v: (v, v))(next(it)))

    # stop after exactly `patience` consecutive non-improving epochs,
    # ties counting as non-improving
    cfg = T.TrainConfig(max_epochs=100, patience=10, **base)
    monkeypatch.setattr(T, "_epoch_val_loss", scripted([5.0, 4.0, 3.0] + [3.0] * 97))
    _, rep = T.train(dataset, h, cfg)
    plateau_ok = rep.epochs_run == 13 and rep.best_epoch == 3

    # parameters are restored to the best epoch exactly: a full run whose
    # validation curve dips at epoch 2 must end bit-identical to a fresh
    # run truncated at epoch 2
    monkeypatch.setattr(T, "_epoch_val_loss",
                        scripted([3.0, 2.0, 5.0, 5.0, 5.0, 5.0]))
    full_params, full_rep = T.train(
        dataset, h, T.TrainConfig(max_epochs=100, patience=3, **base))
    monkeypatch.setattr(T, "_epoch_val_loss", scripted([3.0, 2.0]))
    cut_params, cut_rep = T.train(
        dataset, h, T.TrainConfig(max_epochs=2, patience=3, **base))
    restore_ok = (full_rep.epochs_run == 5 and full_rep.best_epoch == 2
                  and cut_rep.epochs_run == 2)
    for (n1, t1), (n2, t2) in zip(full_params.named_parameters(),
                                  cut_params.named_parameters()):
        restore_ok &= n1 == n2 and np.array_equal(t1.data, t2.data)
    verdict("A6", plateau_ok and restore_ok,
            f"plateau run stopped at epoch {rep.epochs_run} (want 13) with "
            f"best {rep.best_epoch} (want 3); best-epoch restoration "
            f"bit-exact {restore_ok}")


def test_a7_inductive_contract(synth):
    # hold out 20% of subjects entirely, train on the rest, then score the
    # held-out subjects with the trained model: micro-F1 >= 0.90
    rng = np.random.default_rng(0)
    n = len(synth.table.subject_ids)
    perm = rng.permutation(n)
    held = sorted(int(i) for i in perm[: n // 5])
    kept = sorted(int(i) for i in perm[n // 5:])

    lines = (synth.out / "subgraphs.tsv").read_text().splitlines(keepends=True)
    assert len(lines) == n
    kept_table = D.load_subgraphs("".join(lines[i] for i in kept), synth.catalog,
                                  class_vocab=synth.table.class_vocab)
    keys = [tuple(sorted(r.labels)) for r in kept_table.subjects]
    assignment = D.stratified_split(kept_table.subject_ids,
                                    keys, (0.75, 0.25, 0.0), seed=1)
    ds_kept = D.build_dataset(kept_table, synth.catalog, assignment)
    params, report = T.train(ds_kept, synth.h, A5_CONFIG)

    # trained state is graph- and head-shaped only: no tensor axis matches
    # the training subject count, and the parameter catalog equals that of
    # a freshly initialized model for the same graph
    names = [n for n, _ in params.named_parameters()]
    fresh = [n for n, _ in M.init_model(synth.h.num_nodes, 32, 2, 4,
                                        np.random.default_rng(1)).named_parameters()]
    no_subject_state = (names == fresh
                        and all(len(kept) not in t.data.shape
                                for _, t in params.named_parameters()))

    full_assign = dict.fromkeys(synth.table.subject_ids, "heldout")
    full_assign.update(assignment)
    ds_all = D.build_dataset(synth.table, synth.catalog, full_assign)
    held_idx = ds_all.indices("heldout")
    batch = ds_all.batch(held_idx)
    pairs = M.incidence_pairs(synth.h)
    scores = M.subgraph_scores(pairs, params, batch)

    # scoring one unseen subject alone matches its row in the joint batch:
    # pooled representations bit-identical, class scores within 1e-6 (the
    # dense head matmul picks different float32 kernels per batch shape)
    with K.no_grad():
        x = M.forward_backbone(pairs, params, training=False).final_node_states
        pooled = M.subgraph_repr(x, batch, params).data
    independent = True
    for k in range(0, held_idx.size, 10):
        single = batch.subset([k])
        with K.no_grad():
            p_one = M.subgraph_repr(x, single, params).data[0]
        row = M.subgraph_scores(pairs, params, single)[0]
        independent &= (np.array_equal(pooled[k], p_one)
                        and bool(np.abs(row - scores[k]).max() <= 1e-6))

    pred = T.predictions_from_scores(scores, A5_CONFIG.mode, A5_CONFIG.threshold)
    f1 = T.micro_f1(pred, batch.labels)
    verdict("A7", f1 >= 0.90 and no_subject_state and independent,
            f"held-out micro-F1 {f1:.4f} >= 0.90 on {held_idx.size} unseen "
            f"subjects; no per-subject trained state {no_subject_state}; "
            f"batch-independent scoring {independent}")


def test_a8_format_round_trips(synth, a5_run, tmp_path):
    # GMT parse -> serialize is the identity on the generated catalog
    gmt_text = (synth.out / "synthetic.gmt").read_text()
    gmt_ok = D.serialize_gmt(D.parse_gmt(gmt_text)) == gmt_text

    # checkpoint round-trip: bit-exact tensors, equal probe outputs, and a
    # second save of the loaded model is byte-identical
    params, _, _ = a5_run
    ckpt = D.Checkpoint(params=params, config=A5_CONFIG,
                        gene_names=synth.catalog.genes,
                        class_vocab=synth.dataset.class_vocab,
                        edge_names=list(synth.catalog.names), hypergraph=synth.h)
    p1 = tmp_path / "a.ckpt"
    D.save_checkpoint(ckpt, p1)
    loaded = D.load_checkpoint(p1)
    bit_ok = all(np.array_equal(t1.data, t2.data) and n1 == n2
                 for (n1, t1), (n2, t2) in zip(ckpt.params.named_parameters(),
                                               loaded.params.named_parameters()))
    probe = synth.dataset.batch(synth.dataset.indices("test")[:16])
    pairs = M.incidence_pairs(synth.h)
    probe_ok = np.array_equal(
        M.subgraph_scores(pairs, ckpt.params, probe),
        M.subgraph_scores(M.incidence_pairs(loaded.hypergraph),
                          loaded.params, probe))
    p2 = tmp_path / "b.ckpt"
    D.save_checkpoint(loaded, p2)
    resave_ok = p1.read_bytes() == p2.read_bytes()

    # fixed-seed CLI reruns are byte-identical
    small = ["--nodes", "40", "--edges", "8", "--classes", "4",
             "--subjects", "60", "--seed", "3"]
    gen = tmp_path / "gen"
    assert cli.main(["make-synthetic", *small, "--out", str(gen)]) == 0
    cfg = tmp_path / "cfg"
    cfg.write_text("hidden_dim = 8\nmax_epochs = 5\nlearning_rate = 0.01\n")
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["train", "--gmt", str(gen / "synthetic.gmt"),
                         "--subgraphs", str(gen / "subgraphs.tsv"),
                         "--split", str(gen / "split.tsv"),
                         "--config", str(cfg), "--out", str(out)]) == 0
        runs.append(out)
    rerun_ok = all((runs[0] / f).read_bytes() == (runs[1] / f).read_bytes()
                   for f in ("model.ckpt", "metrics.json", "split.tsv"))
    verdict("A8", gmt_ok and bit_ok and probe_ok and resave_ok and rerun_ok,
            f"GMT identity {gmt_ok}, checkpoint bit-exact {bit_ok}, probe "
            f"outputs equal {probe_ok}, resave byte-identical {resave_ok}, "
            f"seeded CLI rerun byte-identical {rerun_ok}")


def test_a9_interpretation_recovery(synth, a5_run):
    # top-ranked hyperedge is one of the class's planted hyperedges for at
    # least 3 of the 4 classes
    params, _, _ = a5_run
    batch = synth.dataset.batch(np.arange(len(synth.dataset.subject_ids)))
    report = class_enrichment(params, synth.h, batch, synth.dataset.class_vocab,
                              top_k=1, edge_names=list(synth.catalog.names))
    hits = [report.rankings[cname][0][0] in set(synth.planted[cname])
            for cname in synth.dataset.class_vocab]
    verdict("A9", sum(hits) >= 3,
            f"planted hyperedge ranked first for {sum(hits)}/4 classes "
            f"(need >= 3)")
