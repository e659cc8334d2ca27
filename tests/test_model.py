import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersub import kernel as K
from hypersub import model as M
from hypersub.errors import GraphConsumed, InvalidLabel, ShapeError
from hypersub.hypergraph import (SparseMatrix, build_hypergraph, dual,
                                 restrict_to_nodes, theta)

from conftest import (group_positions, memberships, random_hypergraph,
                      to_dense, traced_memory)


def toy_model(h, d=4, num_classes=3, num_layers=2, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return M.init_model(h.num_nodes, d, num_layers, num_classes, rng,
                        dtype=np.float64, **kw)


def toy_batch(members, num_classes, rng=None, labels=None):
    n = len(members)
    if labels is None:
        labels = np.zeros((n, num_classes))
        labels[np.arange(n), np.arange(n) % num_classes] = 1.0
    weights = [np.linspace(0.5, 1.5, len(m)) for m in members]
    return M.SubgraphBatch(members=[np.asarray(m) for m in members],
                           weights=weights, labels=labels)


# ------------------------------------------------- reference implementations

def backbone_oracle(h, params):
    """Plain-loop re-derivation of the message passing forward pass."""
    slope = params.leaky_slope
    hn = params.node_embeddings.data.copy()
    d = hn.shape[1]
    he = np.zeros((h.num_edges, d))
    for j, mem in enumerate(h.edge_members):
        he[j] = hn[list(mem)].mean(axis=0)
    per_layer = []
    for lp in params.layers:
        wn, bn = lp.node_weight.data, lp.node_bias.data
        we, be = lp.edge_weight.data, lp.edge_bias.data
        c = lp.context.data[:, 0]
        score = {}
        for j, mem in enumerate(h.edge_members):
            for i in mem:
                joint = (he[j] @ we + be) * (hn[i] @ wn + bn)
                joint = np.where(joint > 0, joint, slope * joint)
                score[(j, i)] = float(joint @ c)
        he_new = np.zeros_like(he)
        a_edge = {}
        for j, mem in enumerate(h.edge_members):
            s = np.array([score[(j, i)] for i in mem])
            a = np.exp(s - s.max())
            a /= a.sum()
            he_new[j] = np.maximum(sum(a[k] * hn[i] for k, i in enumerate(mem)), 0.0)
            a_edge.update({(j, i): a[k] for k, i in enumerate(mem)})
        hn_new = np.zeros_like(hn)
        a_node = {}
        for i, mems in enumerate(memberships(h)):
            if not mems:
                continue
            s = np.array([score[(j, i)] for j in mems])
            a = np.exp(s - s.max())
            a /= a.sum()
            hn_new[i] = np.maximum(sum(a[k] * he[j] for k, j in enumerate(mems)), 0.0)
            a_node.update({(j, i): a[k] for k, j in enumerate(mems)})
        per_layer.append((score, a_edge, a_node))
        hn, he = hn_new, he_new
    return hn, he, per_layer


def regularizer_oracle(x, t):
    total = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[0]):
            total += t[i, j] * float(np.sum((x[i] - x[j]) ** 2))
    return total


# -------------------------------------------------------------- layer pieces

def test_init_edge_states_means():
    h = build_hypergraph([[0], [0, 1, 2]])
    params = toy_model(h, d=3)
    pairs = M.incidence_pairs(h)
    he = M.init_edge_states(pairs, params.node_embeddings).data
    emb = params.node_embeddings.data
    assert np.allclose(he[0], emb[0], atol=1e-12)
    assert np.allclose(he[1], emb[:3].mean(axis=0), atol=1e-12)


def test_dual_attention_scores_hand_value():
    # 1-d states: score = LeakyReLU((w_e*he + b_e) * (w_n*hn + b_n)) * c
    h = build_hypergraph([[0]])
    params = toy_model(h, d=1, num_layers=1)
    lp = params.layers[0]
    lp.node_weight.data[:] = 1.0
    lp.node_bias.data[:] = 0.0
    lp.edge_weight.data[:] = 1.0
    lp.edge_bias.data[:] = 0.0
    lp.context.data[:] = 1.0
    pairs = M.incidence_pairs(h)
    s = M.dual_attention_scores(pairs, K.constant([[2.0]]), K.constant([[3.0]]), lp)
    assert s.data.tolist() == [6.0]
    # negative joint activations pass through the leaky slope
    s = M.dual_attention_scores(pairs, K.constant([[-2.0]]), K.constant([[3.0]]),
                                lp, slope=0.01)
    assert abs(s.data[0] - (-0.06)) <= 1e-12


def test_zero_context_gives_uniform_attention():
    h = build_hypergraph([[0, 1, 2], [1, 2]])
    params = toy_model(h, d=4, num_layers=1)
    params.layers[0].context.data[:] = 0.0
    pairs = M.incidence_pairs(h)
    he0 = M.init_edge_states(pairs, params.node_embeddings)
    scores = M.dual_attention_scores(pairs, params.node_embeddings, he0,
                                     params.layers[0])
    new_he, a_edge = M.edge_update(pairs, scores, params.node_embeddings)
    emb = params.node_embeddings.data
    assert np.allclose(a_edge.data[:3], [1 / 3] * 3, atol=1e-12)
    assert np.allclose(new_he.data[0], np.maximum(emb[:3].mean(axis=0), 0),
                       atol=1e-12)


def test_updates_match_loop_oracle(rng):
    for _ in range(10):
        h = random_hypergraph(rng, max_nodes=8, max_edges=4)
        params = toy_model(h, d=4, num_layers=2, seed=int(rng.integers(1000)))
        pairs = M.incidence_pairs(h)
        x = M.forward_backbone(pairs, params)
        want_hn, want_he, _ = backbone_oracle(h, params)
        assert np.max(np.abs(x.data - want_hn)) <= 1e-9
        trace = M.ForwardTrace()
        M.forward_backbone(pairs, params, trace=trace)
        assert np.max(np.abs(trace.final_edge_states.data - want_he)) <= 1e-9


@pytest.mark.parametrize("training", [False, True], ids=["evaluation", "training"])
def test_untraced_backbone_skips_only_the_last_edge_update(monkeypatch, rng, training):
    h = random_hypergraph(rng, max_nodes=9, max_edges=5)
    params = toy_model(h, d=4, num_layers=3, seed=2, dropout_rate=0.3)
    gens = [np.random.default_rng(8) for _ in range(2)]
    for g in gens:   # leave half a 64-bit draw buffered, as int32 draws do
        g.integers(0, 100, dtype=np.int32)
    traced = M.forward_backbone(h, params, training=training, rng=gens[0],
                                trace=M.ForwardTrace())
    calls = []
    edge_update = M.edge_update
    monkeypatch.setattr(M, "edge_update", lambda *a: calls.append(a) or edge_update(*a))
    untraced = M.forward_backbone(h, params, training=training, rng=gens[1])
    assert untraced.data.tobytes() == traced.data.tobytes()
    assert gens[0].bit_generator.state == gens[1].bit_generator.state
    assert len(calls) == params.num_layers - 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.data(), st.integers(1, 3),
       st.sampled_from([np.float32, np.float64]), st.booleans(), st.booleans())
def test_backbone_over_read_rows_matches_the_full_pass(seed, data, num_layers, dtype,
                                                      attention, training):
    gen = np.random.default_rng(seed)
    h = random_hypergraph(gen, max_nodes=10, max_edges=5)
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, h.num_nodes - 1),
                                             min_size=1))))
    unread = np.setdiff1d(np.arange(h.num_nodes), rows)
    params = M.init_model(h.num_nodes, 4, num_layers, 3, gen, dropout_rate=0.3,
                          use_subgraph_attention=attention, dtype=dtype)
    reads = restrict_to_nodes(h, rows)
    gens = [np.random.default_rng(seed) for _ in range(2)]
    with K.no_grad():
        full = M.forward_backbone(h, params, training=training, rng=gens[0]).data
        part = M.forward_backbone(h, params, training=training, rng=gens[1],
                                  reads=reads).data
    assert part[rows].tobytes() == full[rows].tobytes()
    assert not part[unread].any()
    assert gens[0].bit_generator.state == gens[1].bit_generator.state
    if dtype is not np.float64:
        return

    # with no regularizer the loss reads the batch's rows alone, so every
    # parameter gradient is the full pass's up to summation order; measured
    # against the largest gradient entry, because a gradient that is zero in
    # exact arithmetic comes out as rounding residue of that scale
    batch = toy_batch(np.array_split(rows, (rows.size + 2) // 3), 3)
    tensors = params.parameters()
    grads = []
    for r in (None, reads):
        res = M.forward(h, params, batch, training=training,
                        rng=np.random.default_rng(seed), reads=r)
        for t in tensors:
            t.zero_grad()
        grads.append(K.backward(res.total_loss, tensors))
    scale = max(np.max(np.abs(g), initial=0.0) for g in grads[0])
    for (name, _), a, b in zip(params.named_parameters(), *grads):
        assert np.max(np.abs(b - a), initial=0.0) <= 1e-12 * scale, name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.data(), st.integers(1, 3),
       st.sampled_from([np.float32, np.float64]), st.booleans())
def test_traced_pass_over_read_rows_records_what_it_ran(seed, data, num_layers, dtype,
                                                        training):
    gen = np.random.default_rng(seed)
    h = random_hypergraph(gen, max_nodes=10, max_edges=5)
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, h.num_nodes - 1),
                                             min_size=1))))
    unread = np.setdiff1d(np.arange(h.num_nodes), rows)
    params = M.init_model(h.num_nodes, 4, num_layers, 3, gen, dropout_rate=0.3,
                          dtype=dtype)
    reads = restrict_to_nodes(h, rows)
    gens = [np.random.default_rng(seed) for _ in range(2)]
    full, part = M.ForwardTrace(), M.ForwardTrace()
    with K.no_grad():
        M.forward_backbone(h, params, training=training, rng=gens[0], trace=full)
        M.forward_backbone(h, params, training=training, rng=gens[1], trace=part,
                           reads=reads)
    assert gens[0].bit_generator.state == gens[1].bit_generator.state
    states = part.final_node_states.data
    assert states[rows].tobytes() == full.final_node_states.data[rows].tobytes()
    assert not states[unread].any()
    assert part.final_edge_states is None and part.layers[-1].edge_attention is None
    # the last layer's scores and node attention cover the read pairs alone,
    # with the full pass's bits there; every earlier layer is the full one
    kept = np.isin(h.node_of_pair, rows)
    for got, want in zip(part.layers, full.layers):
        at = kept if got is part.layers[-1] else slice(None)
        assert got.scores.data.tobytes() == want.scores.data[at].tobytes()
        assert got.node_attention.data.tobytes() == want.node_attention.data[at].tobytes()


def test_restriction_keeps_the_pairs_of_its_rows_and_rejects_others():
    h = build_hypergraph([[0, 1], [1, 2]])
    for rows in ([3], [-1], [0, 3]):
        with pytest.raises(ShapeError):
            restrict_to_nodes(h, rows)
    assert restrict_to_nodes(h, [2, 0, 1, 1]) is h
    part = restrict_to_nodes(h, [2, 2])
    assert part.edge_of_pair.tolist() == [1] and part.node_of_pair.tolist() == [2]
    assert part.by_edge.counts.tolist() == [0, 1]
    assert part.by_node.counts.tolist() == [0, 0, 1]


def test_attention_matches_oracle_per_pair(rng):
    h = random_hypergraph(rng, max_nodes=7, max_edges=3)
    params = toy_model(h, d=3, num_layers=2, seed=5)
    pairs = M.incidence_pairs(h)
    trace = M.ForwardTrace()
    M.forward_backbone(pairs, params, trace=trace)
    _, _, per_layer = backbone_oracle(h, params)
    for tr, (score, a_edge, a_node) in zip(trace.layers, per_layer):
        for p in range(pairs.edge_of_pair.size):
            key = (int(pairs.edge_of_pair[p]), int(pairs.node_of_pair[p]))
            assert abs(tr.scores.data[p] - score[key]) <= 1e-9
            assert abs(tr.edge_attention.data[p] - a_edge[key]) <= 1e-9
            assert abs(tr.node_attention.data[p] - a_node[key]) <= 1e-9


def test_edge_states_not_refreshed_mid_layer():
    # the node update of layer k must pool layer k-1 edge states, so with a
    # single node the new node state equals the OLD edge state, rectified
    h = build_hypergraph([[0]])
    params = toy_model(h, d=3, num_layers=1)
    pairs = M.incidence_pairs(h)
    he0 = M.init_edge_states(pairs, params.node_embeddings)
    scores = M.dual_attention_scores(pairs, params.node_embeddings, he0,
                                     params.layers[0])
    hn1, _ = M.node_update(pairs, scores, he0)
    assert np.allclose(hn1.data[0], np.maximum(he0.data[0], 0.0), atol=1e-12)


def test_zero_membership_node_state_is_zero():
    h = build_hypergraph([[0, 1]], num_nodes=4)
    params = toy_model(h, d=4)
    pairs = M.incidence_pairs(h)
    x = M.forward_backbone(pairs, params)
    assert np.all(x.data[2] == 0.0) and np.all(x.data[3] == 0.0)
    # and they hold empty attention groups
    assert [g.size for g in group_positions(pairs.by_node)] == [1, 1, 0, 0]


def test_incidence_pairs_builds_the_layouts_once():
    h = build_hypergraph([[0, 1, 2], [2, 3]], num_nodes=5)
    g = M.incidence_pairs(h)
    first = (g.by_edge, g.by_node)
    g = M.incidence_pairs(h)
    assert all(a is b for a, b in zip(first, (g.by_edge, g.by_node)))


def test_one_score_tensor_per_layer_feeds_both_directions(monkeypatch):
    h = build_hypergraph([[0, 1, 2], [2, 3]])
    params = toy_model(h, num_layers=2)
    pairs = M.incidence_pairs(h)
    score_evals = []
    attention_scores = K.attention_scores
    monkeypatch.setattr(K, "attention_scores",
                        lambda *a: score_evals.append(1) or attention_scores(*a))
    trace = M.ForwardTrace()
    M.forward_backbone(pairs, params, trace=trace)
    assert len(score_evals) == 2  # exactly one score build per layer
    for tr in trace.layers:
        assert tr.edge_attention._parents[0] is tr.scores
        assert tr.node_attention._parents[0] is tr.scores


# ---------------------------------------------------------------- duality

def test_self_duality_scores_bit_identical(rng):
    for _ in range(5):
        h = random_hypergraph(rng, max_nodes=8, max_edges=4,
                              allow_isolated=False)
        params = toy_model(h, d=4, num_layers=2, seed=int(rng.integers(1000)))
        t1, t2 = M.ForwardTrace(), M.ForwardTrace()
        M.forward_backbone(M.incidence_pairs(h), params, trace=t1)
        M.forward_backbone(M.incidence_pairs(dual(dual(h))), params, trace=t2)
        for a, b in zip(t1.layers, t2.layers):
            assert np.array_equal(a.scores.data, b.scores.data)
            assert np.array_equal(a.edge_attention.data, b.edge_attention.data)
            assert np.array_equal(a.node_attention.data, b.node_attention.data)


def swap_roles(lp):
    return M.LayerParams(node_weight=lp.edge_weight, node_bias=lp.edge_bias,
                         edge_weight=lp.node_weight, edge_bias=lp.node_bias,
                         context=lp.context)


def test_dual_run_with_swapped_roles_transposes_scores(rng):
    for _ in range(5):
        h = random_hypergraph(rng, max_nodes=8, max_edges=4,
                              allow_isolated=False)
        hd = dual(h)
        params = toy_model(h, d=4, num_layers=2, seed=int(rng.integers(1000)))
        pairs, dual_pairs = M.incidence_pairs(h), M.incidence_pairs(hd)
        hn = params.node_embeddings
        he = M.init_edge_states(pairs, hn)
        for lp in params.layers:
            s = M.dual_attention_scores(pairs, hn, he, lp, params.leaky_slope)
            # on the dual, node states are the edge states and vice versa
            sd = M.dual_attention_scores(dual_pairs, he, hn, swap_roles(lp),
                                         params.leaky_slope)
            primal = {(int(e), int(n)): s.data[p] for p, (e, n) in
                      enumerate(zip(pairs.edge_of_pair, pairs.node_of_pair))}
            for p in range(dual_pairs.edge_of_pair.size):
                i = int(dual_pairs.edge_of_pair[p])   # dual edge = primal node
                j = int(dual_pairs.node_of_pair[p])   # dual node = primal edge
                assert sd.data[p] == primal[(j, i)]   # bit-identical transpose
            he_next, _ = M.edge_update(pairs, s, hn)
            hn_next, _ = M.node_update(pairs, s, he)
            hn, he = hn_next, he_next


@pytest.mark.parametrize("dtype,d,budget", [(np.float64, 4, 1), (np.float32, 16, 1),
                                             (np.float32, 64, None)])
def test_swapped_role_transpose_is_bit_exact_across_blocks(dtype, d, budget,
                                                            monkeypatch):
    # more pairs than one block of the score kernel: with a 1-byte budget the
    # blocks hold 64 rows, with the default budget 1024 rows at d = 64
    if budget is not None:
        monkeypatch.setattr(K, "BLOCK_BYTES", budget)
    rng = np.random.default_rng(d)
    num_nodes, num_edges = 300, 60
    lists = [rng.choice(num_nodes, size=int(rng.integers(5, 60)), replace=False)
             for _ in range(num_edges)]
    lists[0] = np.arange(num_nodes)   # no isolated node
    # a pair count that is no multiple of 4 leaves trailing rows, which BLAS
    # scores on a narrower path than the rest of a product
    lists[1] = lists[1][:lists[1].size - (sum(map(len, lists)) + 1) % 4]
    h = build_hypergraph([sorted(m.tolist()) for m in lists], num_nodes=num_nodes)
    pairs, dual_pairs = M.incidence_pairs(h), M.incidence_pairs(dual(h))
    assert pairs.edge_of_pair.size > 1024 and pairs.edge_of_pair.size % 4 == 3
    params = M.init_model(num_nodes, d, 2, 3, rng, dtype=dtype)
    hn = params.node_embeddings
    he = M.init_edge_states(pairs, hn)
    for lp in params.layers:
        s = M.dual_attention_scores(pairs, hn, he, lp, params.leaky_slope)
        sd = M.dual_attention_scores(dual_pairs, he, hn, swap_roles(lp),
                                     params.leaky_slope)
        # dual pair (node i, edge j) sits where the primal pair (j, i) does
        key = pairs.edge_of_pair * num_nodes + pairs.node_of_pair
        at = np.searchsorted(key, dual_pairs.node_of_pair * num_nodes
                             + dual_pairs.edge_of_pair)
        assert np.array_equal(key[at], dual_pairs.node_of_pair * num_nodes
                              + dual_pairs.edge_of_pair)
        assert np.array_equal(sd.data, s.data[at])
        hn, he = M.node_update(pairs, s, he)[0], M.edge_update(pairs, s, hn)[0]


def test_eval_scores_hold_no_pairs_by_width_array():
    rng = np.random.default_rng(2)
    num_nodes, num_edges, d = 2000, 100, 64
    h = build_hypergraph([sorted(rng.choice(num_nodes, size=200, replace=False).tolist())
                          for _ in range(num_edges)], num_nodes=num_nodes)
    pairs = M.incidence_pairs(h)
    size = pairs.edge_of_pair.size
    assert size >= 20000
    params = M.init_model(num_nodes, d, 1, 2, rng, dtype=np.float32)
    he = M.init_edge_states(pairs, params.node_embeddings)
    with K.no_grad():
        M.dual_attention_scores(pairs, params.node_embeddings, he, params.layers[0])
        with traced_memory() as mem:
            s = M.dual_attention_scores(pairs, params.node_embeddings, he,
                                        params.layers[0])
    assert s.data.shape == (size,)
    assert mem.peak < size * d * np.dtype(np.float32).itemsize, mem.peak


@pytest.mark.parametrize("direction", ["edge", "node"])
def test_weighted_row_sum_backward_holds_no_pairs_by_width_array(direction):
    rng = np.random.default_rng(3)
    num_nodes, num_edges, d = 2000, 100, 64
    h = build_hypergraph([sorted(rng.choice(num_nodes, size=200, replace=False).tolist())
                          for _ in range(num_edges)], num_nodes=num_nodes)
    size = h.edge_of_pair.size
    assert size >= 20000
    # the edge update pools node rows into edges, the node update edge rows
    # into nodes
    by_row, seg = (h.by_node, h.by_edge) if direction == "edge" else (h.by_edge, h.by_node)
    x = K.parameter(rng.normal(size=(len(by_row), d)).astype(np.float32))
    w = K.parameter(rng.random(size).astype(np.float32))
    out = K.weighted_row_sum(x, w, by_row, seg)
    g = rng.normal(size=out.data.shape).astype(np.float32)
    out._grad_fn(g)   # first use builds the layouts' plans
    x.zero_grad()
    w.zero_grad()
    with traced_memory() as mem:
        out._grad_fn(g)
    assert x.grad.shape == x.data.shape and w.grad.shape == (size,)
    assert mem.peak < size * d * np.dtype(np.float32).itemsize, mem.peak


def _step_inputs(num_nodes, num_edges, edge_size, d, seed):
    """Hypergraph, parameters, batch and rng of one seeded training step:
    two layers, dropout 0.5, 4 classes and 300 subjects of 20 members."""
    rng = np.random.default_rng(seed)
    h = build_hypergraph([sorted(rng.choice(num_nodes, size=edge_size,
                                            replace=False).tolist())
                          for _ in range(num_edges)], num_nodes=num_nodes)
    params = M.init_model(num_nodes, d, 2, 4, rng, dropout_rate=0.5)
    members = [rng.choice(num_nodes, size=20, replace=False) for _ in range(300)]
    batch = M.SubgraphBatch(members=members,
                            weights=[rng.random(20) + 0.5 for _ in members],
                            labels=np.eye(4)[np.arange(300) % 4])
    return h, params, batch, rng


def _training_step(num_nodes, num_edges, edge_size, d, seed, reg_weight=0.0):
    """``_step_inputs`` and the training-mode forward of that step."""
    h, params, batch, rng = _step_inputs(num_nodes, num_edges, edge_size, d, seed)
    res = M.forward(h, params, batch, theta_sp=theta(h) if reg_weight else None,
                    reg_weight=reg_weight, training=True, rng=rng)
    return h, params, res


def test_backward_releases_the_training_graph():
    _, params, res = _training_step(60, 8, 12, 8, seed=4, reg_weight=1.0)
    tensors = params.parameters()
    ops = [t for t in K.Tape(res.total_loss).nodes if t._grad_fn is not None]
    assert len(ops) > 30
    grads = K.backward(res.total_loss, tensors)
    saved = [g.copy() for g in grads]
    # every op's node has dropped its gradient, its rule and its parents;
    # the parameters keep their gradients
    for t in ops:
        assert t.grad is None and t._grad_fn is K._released and t._parents == ()
    for t, g in zip(tensors, grads):
        assert t.grad is g and g.shape == t.data.shape
    # a second pass through the released graph raises before it moves any
    # gradient, from its root or from a new op on one of its nodes
    with pytest.raises(GraphConsumed):
        K.backward(res.total_loss, tensors)
    with pytest.raises(GraphConsumed):
        K.backward(K.reduce_sum(ops[len(ops) // 2]), tensors)
    assert all(np.array_equal(t.grad, g) for t, g in zip(tensors, saved))


def test_training_step_backward_holds_no_pairs_by_width_array():
    h, params, res = _training_step(2000, 100, 200, 32, seed=3)
    size, d = h.edge_of_pair.size, params.node_embeddings.data.shape[1]
    assert size >= 20000
    tensors = params.parameters()
    # each op's gradient is freed once its rule has fired, so the pass never
    # holds the gradients of the whole graph at once (4.9 MB here if it did,
    # against 2.1 MB)
    with traced_memory() as mem:
        K.backward(res.total_loss, tensors)
    assert all(t.grad is not None for t in tensors)
    assert mem.peak < size * d * np.dtype(np.float32).itemsize, mem.peak


def _traced_step(backward):
    """Traced bytes of a seeded training step on a generated 4000-node,
    100 x 200-member graph at d = 64, float32, dropout 0.5, regularizer off,
    in nodes x width arrays: (kept when the forward, or with ``backward``
    the backward too, has run; the peak through it). A first forward builds
    the layouts' plans, which outlive the step."""
    h, params, batch, rng = _step_inputs(4000, 100, 200, 64, seed=3)
    unit = h.num_nodes * params.hidden_dim * np.dtype(np.float32).itemsize
    M.forward(h, params, batch, training=True, rng=np.random.default_rng(0))
    tensors = params.parameters()
    with traced_memory() as mem:
        res = M.forward(h, params, batch, training=True, rng=rng)
        if backward:
            K.backward(res.total_loss, tensors)
    assert res.total_loss.requires_grad
    return mem.current / unit, mem.peak / unit


def test_training_forward_keeps_only_what_the_gradient_reads():
    # what the graph keeps for backward, in nodes x width arrays: 14.5 when
    # each projection kept its pre-bias product and dropout a float mask,
    # 10.7 with biases added inside matmul and boolean dropout masks, 6.7
    # with the rectifier and dropout applied inside the pooling op, which
    # keeps their boolean masks instead of its sums and the relu outputs
    kept, _ = _traced_step(backward=False)
    assert kept < 8, kept


def test_training_step_peak_through_backward():
    # the most a whole step holds at once, forward and backward, in nodes x
    # width arrays: 12.4 with the relu and dropout inputs kept and the
    # attention gradient's side picked through six temporaries, 9.1 without
    # them, 10.1 while the attention gradient copied its compact node sums
    # into a second array of their size, 8.7 now
    _, peak = _traced_step(backward=True)
    assert peak < 9.5, peak


# ------------------------------------------------------------- regularizer

def test_regularizer_hand_values():
    t = SparseMatrix(2, 2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                     np.full(4, 1.0 / 3.0))
    x = K.constant(np.array([[1.0], [0.0]]))
    assert abs(float(M.regularizer(x, t).data) - 2.0 / 3.0) <= 1e-12
    same = K.constant(np.array([[2.0, 1.0], [2.0, 1.0]]))
    t2 = SparseMatrix(2, 2, np.array([0, 1]), np.array([1, 0]),
                      np.array([0.7, 0.7]))
    assert abs(float(M.regularizer(same, t2).data)) <= 1e-12


def test_regularizer_matches_pairwise_oracle(rng):
    for _ in range(20):
        h = random_hypergraph(rng, max_nodes=10)
        t = theta(h)
        x = rng.normal(size=(h.num_nodes, 4))
        got = float(M.regularizer(K.constant(x), t).data)
        assert abs(got - regularizer_oracle(x, to_dense(t))) <= 1e-10


def test_regularizer_diagonal_is_inert(rng):
    h = build_hypergraph([[0, 1, 2]])
    t = theta(h)
    x = rng.normal(size=(3, 2))
    base = float(M.regularizer(K.constant(x), t).data)
    boosted = SparseMatrix(t.rows, t.cols, t.row_idx, t.col_idx,
                           t.values + 5.0 * (t.row_idx == t.col_idx))
    assert abs(float(M.regularizer(K.constant(x), boosted).data) - base) <= 1e-10


# ------------------------------------------------------- subgraph attention

def test_subgraph_attention_worked_example():
    # two members with weights .2/.8 and equal unit projections
    x = K.constant(np.array([[1.0], [1.0]]))
    batch = M.SubgraphBatch(members=[np.array([0, 1])],
                            weights=[np.array([0.2, 0.8])],
                            labels=np.zeros((1, 1)))
    ctx = K.constant(np.array([[1.0]]))
    attn = M.subgraph_attention(x, batch, ctx).data
    want = np.exp([0.2, 0.8]) / np.exp([0.2, 0.8]).sum()
    assert np.max(np.abs(attn - want)) <= 1e-10
    assert np.allclose(attn, [0.3543, 0.6457], atol=5e-5)


def test_subgraph_attention_uniform_cases():
    x = K.constant(np.array([[1.0, 2.0], [3.0, 4.0], [0.5, 0.5]]))
    batch = M.SubgraphBatch(members=[np.array([0, 1, 2])],
                            weights=[np.ones(3)],
                            labels=np.zeros((1, 1)))
    zero_ctx = K.constant(np.zeros((2, 1)))
    attn = M.subgraph_attention(x, batch, zero_ctx).data
    assert np.allclose(attn, [1 / 3] * 3, atol=1e-12)
    single = M.SubgraphBatch(members=[np.array([1])], weights=[np.array([0.4])],
                             labels=np.zeros((1, 1)))
    ctx = K.constant(np.array([[1.0], [2.0]]))
    assert M.subgraph_attention(x, single, ctx).data.tolist() == [1.0]


def test_subgraph_repr_member_order_invariance():
    h = build_hypergraph([[0, 1, 2, 3, 4]])
    params = toy_model(h, d=4)
    x = M.forward_backbone(M.incidence_pairs(h), params)
    fwd = M.SubgraphBatch(members=[np.array([0, 2, 4])],
                          weights=[np.array([0.3, 0.9, 1.5])],
                          labels=np.zeros((1, 3)))
    rev = M.SubgraphBatch(members=[np.array([4, 2, 0])],
                          weights=[np.array([1.5, 0.9, 0.3])],
                          labels=np.zeros((1, 3)))
    a = M.subgraph_repr(x, fwd, params).data
    b = M.subgraph_repr(x, rev, params).data
    assert np.max(np.abs(a - b)) <= 1e-9


def test_subgraph_repr_sum_ablation():
    h = build_hypergraph([[0, 1, 2]])
    params = toy_model(h, d=4, use_subgraph_attention=False)
    x = M.forward_backbone(M.incidence_pairs(h), params)
    batch = M.SubgraphBatch(members=[np.array([0, 2])],
                            weights=[np.array([0.1, 9.0])],
                            labels=np.zeros((1, 3)))
    got = M.subgraph_repr(x, batch, params).data
    want = np.maximum(x.data[0] + x.data[2], 0.0)  # weights ignored by the sum
    assert np.max(np.abs(got - want)) <= 1e-12


def test_batch_validation():
    with pytest.raises(ShapeError):
        M.SubgraphBatch(members=[np.array([], dtype=np.intp)],
                        weights=[np.array([])], labels=np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        M.SubgraphBatch(members=[np.array([0, 0])],
                        weights=[np.ones(2)], labels=np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        M.SubgraphBatch(members=[np.array([0])], weights=[np.array([-1.0])],
                        labels=np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        M.SubgraphBatch(members=[np.array([0])], weights=[np.array([0.0])],
                        labels=np.zeros((1, 2)))


def test_empty_batch_and_bad_member_shapes_raise_shape_error():
    with pytest.raises(ShapeError, match="at least one subgraph"):
        M.SubgraphBatch(members=[], weights=[], labels=np.zeros((0, 2)))
    batch = toy_batch([[0, 1], [2]], 2)
    for empty in ([], np.zeros(0, dtype=np.intp)):
        with pytest.raises(ShapeError):
            batch.subset(empty)
    with pytest.raises(ShapeError):
        batch.subset([[0, 1]])
    # -3 would pair subject 0's label with subject 1's member row, 0.7
    # would become subject 0, and 3 is past the last subject
    ragged = toy_batch([[0], [1, 2, 3], [4]], 2)
    for bad in ([-3], [0.7], [3]):
        with pytest.raises(ShapeError, match=r"integers in \[0, 3\)"):
            ragged.subset(bad)
    for members in (np.array([[1, 2], [3, 4]]), np.array([[1], [2]]),
                    np.int64(1)):
        with pytest.raises(ShapeError, match="subgraph 1 members are not a 1-D"):
            M.SubgraphBatch(members=[np.array([0]), members],
                            weights=[np.ones(1), np.ones(np.size(members))],
                            labels=np.zeros((2, 2)))
    with pytest.raises(ShapeError, match="subgraph 0 weights do not align"):
        M.SubgraphBatch(members=[np.array([0, 1])], weights=[np.ones((2, 1))],
                        labels=np.zeros((1, 2)))
    for far in (2 ** 40, 2 ** 62):   # past any row a layout can hold
        with pytest.raises(ShapeError, match="too wide a range"):
            M.SubgraphBatch(members=[np.array([0, far])], weights=[np.ones(2)],
                            labels=np.zeros((1, 2)))
        with pytest.raises(ShapeError, match="too wide a range"):
            M.SubgraphBatch.from_flat([0, far], np.ones(2), [2],
                                      labels=np.zeros((1, 2)))
    with pytest.raises(ShapeError, match="flat members and weights"):
        M.SubgraphBatch.from_flat([0, 1, 2], np.ones(3), [2, 2],
                                  labels=np.zeros((2, 2)))


def test_a_weight_past_float32_is_an_invalid_member_weight():
    # the model computes in float32, where 1e39 is inf; the subject reader
    # rejects such a weight, and a batch built in the library does too
    labels = np.zeros((1, 2))
    for build in (lambda: M.SubgraphBatch.from_flat([0, 1], [1e39, 1.0], [2], labels),
                  lambda: M.SubgraphBatch(members=[np.array([0, 1])],
                                          weights=[np.array([1e39, 1.0])], labels=labels)):
        with pytest.raises(ShapeError) as err:
            build()
        assert str(err.value) == "subgraph 0 has invalid member weights"
    M.SubgraphBatch.from_flat([0, 1], [M.MAX_WEIGHT, 1.0], [2], labels)


# Per-subject reference for the flat checks: the loop they replace.
def first_fault_oracle(members, weights):
    for si, (mem, w) in enumerate(zip(members, weights)):
        mem, w = np.asarray(mem), np.asarray(w, dtype=np.float64)
        if mem.ndim != 1:
            return f"subgraph {si} members are not a 1-D array"
        if mem.size == 0:
            return f"subgraph {si} has no members"
        if mem.size != len(set(mem.tolist())):
            return f"subgraph {si} has duplicate members"
        if w.shape != mem.shape:
            return f"subgraph {si} weights do not align with members"
        if not np.all((w >= 0) & (w <= np.finfo(np.float32).max)):
            return f"subgraph {si} has invalid member weights"
        if not np.any(w > 0):
            return f"subgraph {si} has no positive member weight"
    return None


subject_lists = st.lists(
    st.lists(st.integers(0, 11), min_size=1, max_size=6, unique=True).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(
            st.floats(0.01, 10.0), min_size=len(m), max_size=len(m)))),
    min_size=1, max_size=8)


def ragged_batch(subjects, labels=None):
    members = [np.array(m, dtype=np.intp) for m, _ in subjects]
    weights = [np.array(w) for _, w in subjects]
    if labels is None:
        labels = np.arange(2.0 * len(subjects)).reshape(-1, 2)
    batch = M.SubgraphBatch(members=members, weights=weights, labels=labels,
                            subject_ids=[f"s{k}" for k in range(len(subjects))])
    return batch, members, weights


def assert_same_segments(a, b):
    assert len(a) == len(b)
    for name in ("ids", "counts", "offsets", "nonempty", "starts"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.order is None) == (b.order is None)
    assert a.order is None or np.array_equal(a.order, b.order)


@settings(max_examples=60, deadline=None)
@given(subject_lists)
def test_flat_batch_is_the_concatenated_ragged_lists(subjects):
    batch, members, weights = ragged_batch(subjects)
    rows = np.concatenate(members)
    assert len(batch) == len(subjects)
    assert batch.member_rows.dtype == np.intp and np.array_equal(batch.member_rows, rows)
    assert batch.member_weights.dtype == np.float64
    assert np.array_equal(batch.member_weights, np.concatenate(weights))
    assert [batch.member_rows[g].tolist() for g in group_positions(batch.groups)] == \
        [m.tolist() for m in members]
    assert len(batch.by_row) == rows.max() + 1
    for r in range(len(batch.by_row)):
        assert group_positions(batch.by_row)[r].tolist() == np.flatnonzero(rows == r).tolist()


@settings(max_examples=60, deadline=None)
@given(subject_lists, st.data())
def test_subset_equals_the_batch_of_the_selected_lists(subjects, data):
    batch, members, weights = ragged_batch(subjects)
    idx = data.draw(st.lists(st.integers(0, len(subjects) - 1),
                             min_size=1, max_size=12))
    got = batch.subset(idx)
    want = M.SubgraphBatch(members=[members[i] for i in idx],
                           weights=[weights[i] for i in idx],
                           labels=batch.labels[idx],
                           subject_ids=[batch.subject_ids[i] for i in idx])
    assert np.array_equal(got.member_rows, want.member_rows)
    assert got.member_rows.dtype == want.member_rows.dtype
    assert np.array_equal(got.member_weights, want.member_weights)
    assert np.array_equal(got.labels, want.labels)
    assert got.subject_ids == want.subject_ids
    assert_same_segments(got.groups, want.groups)
    assert_same_segments(got.by_row, want.by_row)


FAULTS = ("not 1-D", "empty", "duplicate", "misaligned", "invalid", "no positive")


@settings(max_examples=100, deadline=None)
@given(subject_lists, st.data())
def test_injected_fault_is_named_as_the_loop_names_it(subjects, data):
    _, members, weights = ragged_batch(subjects)
    n = len(subjects)
    faults = data.draw(st.lists(st.tuples(st.sampled_from(FAULTS),
                                          st.integers(0, n - 1)),
                                min_size=1, max_size=3, unique_by=lambda f: f[1]))
    for kind, k in faults:
        if kind == "not 1-D":
            members[k] = members[k][:, None]
        elif kind == "empty":
            members[k], weights[k] = members[k][:0], weights[k][:0]
        elif kind == "duplicate":
            members[k] = np.append(members[k], members[k][-1])
            weights[k] = np.append(weights[k], 1.0)
        elif kind == "misaligned":
            weights[k] = np.append(weights[k], 1.0)
        elif kind == "invalid":
            weights[k][data.draw(st.integers(0, weights[k].size - 1))] = \
                data.draw(st.sampled_from([-1.0, np.nan, np.inf, 1e39]))
        else:
            weights[k] = np.zeros_like(weights[k])
    want = first_fault_oracle(members, weights)
    assert want is not None
    with pytest.raises(ShapeError) as err:
        M.SubgraphBatch(members=members, weights=weights, labels=np.zeros((n, 2)))
    assert str(err.value) == want


@pytest.mark.parametrize("attention", [True, False], ids=["attention", "sum"])
def test_member_past_the_last_node_is_rejected(attention):
    h = build_hypergraph([[0, 1], [1, 2]])
    params = toy_model(h, use_subgraph_attention=attention)
    batch = toy_batch([[0, h.num_nodes]], 3)
    with pytest.raises(ShapeError):
        M.subgraph_scores(h, params, batch)


# ------------------------------------------------------------------- head

def test_classify_zero_head_is_uniform():
    h = build_hypergraph([[0, 1]])
    params = toy_model(h, d=4, num_classes=5)
    for t in (params.head.fc1_weight, params.head.fc1_bias,
              params.head.fc2_weight, params.head.fc2_bias,
              params.head.out_weight, params.head.out_bias):
        t.data[:] = 0.0
    z = M.classify(K.constant(np.random.default_rng(0).normal(size=(3, 4))),
                   params).data
    assert np.allclose(z, 0.2, atol=1e-12)


def test_classify_hand_forward():
    h = build_hypergraph([[0, 1]])
    params = toy_model(h, d=2, num_classes=2, seed=11)
    s = np.array([[0.5, -1.0], [2.0, 0.3]])
    head = params.head
    h1 = np.maximum(s @ head.fc1_weight.data + head.fc1_bias.data, 0.0)
    h2 = np.maximum(h1 @ head.fc2_weight.data + head.fc2_bias.data, 0.0)
    logits = h2 @ head.out_weight.data + head.out_bias.data
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    want = e / e.sum(axis=1, keepdims=True)
    got = M.classify(K.constant(s), params).data
    assert np.max(np.abs(got - want)) <= 1e-10
    assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-6


def test_classify_multilabel_sigmoid():
    h = build_hypergraph([[0, 1]])
    params = toy_model(h, d=2, num_classes=3, mode="multilabel", seed=2)
    z = M.classify(K.constant(np.array([[1.0, -2.0]])), params).data
    assert np.all((z > 0) & (z < 1))


# ------------------------------------------------------------------- loss

def test_loss_values_multiclass():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    perfect = K.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert abs(float(M.loss(perfect, y, "multiclass").data)) <= 1e-12
    uniform = K.constant(np.full((2, 2), 0.5))
    ce = M.loss(uniform, y, "multiclass")
    assert abs(float(ce.data) - 2.0 * np.log(2.0)) <= 1e-12
    with pytest.raises(InvalidLabel):
        M.loss(uniform, np.array([[1.0, 0.0], [0.0, 0.0]]), "multiclass")


def test_loss_values_multilabel():
    y = np.array([[1.0, 0.0]])
    z = K.constant(np.array([[0.8, 0.3]]))
    ce = M.loss(z, y, "multilabel")
    want = -(np.log(0.8) + np.log(0.7))
    assert abs(float(ce.data) - want) <= 1e-12


def test_objective_adds_the_weighted_regularizer():
    h = build_hypergraph([[0, 1, 2], [2, 3]])
    params = toy_model(h, num_classes=2)
    batch = toy_batch([[0, 1], [3]], 2)
    x = M.forward_backbone(h, params)
    plain = M.objective(x, params, batch)
    assert plain.regularization == 0.0
    assert float(plain.total_loss.data) == plain.classification_loss
    t = theta(h)
    res = M.objective(x, params, batch, theta_sp=t, reg_weight=2.0)
    reg = float(M.regularizer(x, t).data)
    assert reg > 0 and res.regularization == reg
    assert res.classification_loss == plain.classification_loss
    assert float(res.total_loss.data) == res.classification_loss + 2.0 * reg
    res0 = M.objective(x, params, batch, theta_sp=t, reg_weight=0.0)
    assert float(res0.total_loss.data) == res0.classification_loss


# ------------------------------------------------------------- equivariance

def apply_permutation(h, params, batch, perm):
    """Relabel nodes by perm (old index -> new index)."""
    lists = [[perm[i] for i in mem] for mem in h.edge_members]
    h2 = build_hypergraph(lists, num_nodes=h.num_nodes)
    emb = np.empty_like(params.node_embeddings.data)
    emb[list(perm)] = params.node_embeddings.data
    params2 = M.ModelParams(
        node_embeddings=K.parameter(emb), layers=params.layers,
        subgraph_context=params.subgraph_context, head=params.head,
        mode=params.mode, dropout_rate=params.dropout_rate,
        leaky_slope=params.leaky_slope,
        use_subgraph_attention=params.use_subgraph_attention)
    batch2 = M.SubgraphBatch(
        members=[np.array([perm[i] for i in batch.member_rows[g]])
                 for g in group_positions(batch.groups)],
        weights=[batch.member_weights[g].copy() for g in group_positions(batch.groups)],
        labels=batch.labels.copy())
    return h2, params2, batch2


def test_node_relabeling_leaves_outputs_unchanged(rng):
    h = build_hypergraph([[0, 1, 2], [2, 3, 4], [1, 4]])
    params = toy_model(h, d=4, num_classes=2, seed=3)
    batch = toy_batch([[0, 2, 3], [1, 4]], 2)
    perm = rng.permutation(h.num_nodes).tolist()
    h2, params2, batch2 = apply_permutation(h, params, batch, perm)

    x1 = M.forward_backbone(M.incidence_pairs(h), params)
    s1 = M.subgraph_repr(x1, batch, params)
    z1 = M.classify(s1, params)
    x2 = M.forward_backbone(M.incidence_pairs(h2), params2)
    s2 = M.subgraph_repr(x2, batch2, params2)
    z2 = M.classify(s2, params2)
    assert np.max(np.abs(s1.data - s2.data)) <= 1e-9
    assert np.max(np.abs(z1.data - z2.data)) <= 1e-9


# ---------------------------------------------------------------- gradients

def test_full_loss_grad_check_small():
    h = build_hypergraph([[0, 1, 2], [2, 3]])
    params = toy_model(h, d=3, num_classes=2, num_layers=2, seed=4)
    pairs = M.incidence_pairs(h)
    t = theta(h)
    batch = toy_batch([[0, 1], [2, 3]], 2)

    def f():
        return M.forward(pairs, params, batch, theta_sp=t,
                         reg_weight=0.7).total_loss

    report = K.grad_check(f, params.parameters(), epsilon=1e-6)
    assert report.passed, f"max rel error {report.max_rel_error}"


def test_forward_training_equals_eval_without_dropout():
    h = build_hypergraph([[0, 1, 2], [1, 2]])
    params = toy_model(h, d=4, num_classes=2, seed=6, dropout_rate=0.0)
    pairs = M.incidence_pairs(h)
    batch = toy_batch([[0, 1, 2]], 2, labels=np.array([[1.0, 0.0]]))
    rng = np.random.default_rng(0)
    a = M.forward(pairs, params, batch, training=True, rng=rng)
    b = M.forward(pairs, params, batch, training=False)
    assert np.array_equal(a.predictions.data, b.predictions.data)


def test_subgraph_scores_eval_only():
    h = build_hypergraph([[0, 1, 2], [1, 2]])
    params = toy_model(h, d=4, num_classes=2, seed=6, dropout_rate=0.5)
    pairs = M.incidence_pairs(h)
    batch = toy_batch([[0, 1, 2]], 2, labels=np.array([[1.0, 0.0]]))
    a = M.subgraph_scores(pairs, params, batch)
    b = M.subgraph_scores(pairs, params, batch)
    assert np.array_equal(a, b)  # dropout never fires outside training
