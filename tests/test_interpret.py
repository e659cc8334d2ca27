import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersub import interpret as I
from hypersub import kernel as K
from hypersub import model as M
from hypersub.errors import EmptyClass, ShapeError
from hypersub.hypergraph import build_hypergraph

from conftest import random_hypergraph, traced_memory
from oracles import float64_cosine_matrix, full_pass_edge_scores


def one_hot(rows, num_classes):
    out = np.zeros((len(rows), num_classes))
    for r, c in enumerate(rows):
        out[r, c] = 1.0
    return out


def make_model(h, rng, num_classes=2, hidden_dim=5, **kw):
    return M.init_model(h.num_nodes, hidden_dim, 2, num_classes, rng,
                        dtype=np.float64, **kw)


def flatten_context(params):
    """Zero every attention context so all softmax groups come out uniform."""
    for layer in params.layers:
        layer.context.data[:] = 0.0
    params.subgraph_context.data[:] = 0.0


def test_single_member_single_edge_gets_full_mass():
    h = build_hypergraph([[0, 1], [2, 3]])
    params = make_model(h, np.random.default_rng(0))
    batch = M.SubgraphBatch(members=[np.array([0])],
                            weights=[np.array([1.0])],
                            labels=one_hot([0], 1))
    scores = I.class_edge_scores(params, h, batch)
    assert scores.tolist() == [[1.0, 0.0]]


def test_class_scores_sum_to_one():
    rng = np.random.default_rng(4)
    h = build_hypergraph([[0, 1, 2], [2, 3, 4], [1, 4, 5], [0, 5]])
    params = make_model(h, rng, num_classes=3)
    members, weights, labels = [], [], []
    for s in range(9):
        size = int(rng.integers(1, 5))
        members.append(rng.choice(h.num_nodes, size=size, replace=False))
        weights.append(1.0 - rng.random(size))
        labels.append(s % 3)
    batch = M.SubgraphBatch(members=members, weights=weights,
                            labels=one_hot(labels, 3))
    scores = I.class_edge_scores(params, h, batch)
    assert scores.shape == (3, h.num_edges)
    assert np.all(np.abs(scores.sum(axis=1) - 1.0) <= 1e-9)


def test_class_scores_subject_order_invariant():
    rng = np.random.default_rng(11)
    h = build_hypergraph([[0, 1, 2], [1, 2, 3], [0, 3]])
    params = make_model(h, rng)
    members = [np.array([0, 1]), np.array([2, 3]), np.array([1, 3])]
    weights = [np.array([1.0, 0.5]), np.array([0.3, 0.9]), np.array([2.0, 1.0])]
    labels = one_hot([0, 0, 1], 2)
    fwd = M.SubgraphBatch(members=members, weights=weights, labels=labels)
    rev = M.SubgraphBatch(members=members[::-1], weights=weights[::-1],
                          labels=labels[::-1].copy())
    a = I.class_edge_scores(params, h, fwd)
    b = I.class_edge_scores(params, h, rev)
    assert np.allclose(a, b, atol=1e-12)


def test_class_scores_empty_class():
    h = build_hypergraph([[0, 1]])
    params = make_model(h, np.random.default_rng(1))
    batch = M.SubgraphBatch(members=[np.array([0])],
                            weights=[np.array([1.0])],
                            labels=one_hot([0], 2))
    with pytest.raises(EmptyClass, match="no subjects carry class index 1"):
        I.class_edge_scores(params, h, batch)


def test_rank_breaks_ties_toward_lower_index():
    h = build_hypergraph([[0, 1], [0, 2]])
    params = make_model(h, np.random.default_rng(2))
    flatten_context(params)
    batch = M.SubgraphBatch(members=[np.array([0])],
                            weights=[np.array([1.0])],
                            labels=one_hot([0], 1))
    report = I.class_enrichment(params, h, batch, ["c0"], top_k=2,
                                edge_names=["beta", "alpha"])
    assert report.rankings["c0"] == [("beta", 0.5), ("alpha", 0.5)]


def test_rank_top_k_clamps():
    h = build_hypergraph([[0, 1], [1, 2]])
    params = make_model(h, np.random.default_rng(3))
    batch = M.SubgraphBatch(members=[np.array([1])],
                            weights=[np.array([1.0])],
                            labels=one_hot([0], 1))

    def top(k):
        return I.class_enrichment(params, h, batch, ["c0"], top_k=k,
                                  edge_names=["e0", "e1"]).rankings["c0"]
    assert len(top(99)) == 2
    assert top(0) == []


def test_enrichment_needs_a_name_per_hyperedge():
    h = build_hypergraph([[0, 1], [1, 2]])
    params = make_model(h, np.random.default_rng(3))
    batch = M.SubgraphBatch(members=[np.array([1])],
                            weights=[np.array([1.0])],
                            labels=one_hot([0], 1))
    for names in (["e0"], ["e0", "e1", "e2"]):
        with pytest.raises(ShapeError, match="edge names for 2 hyperedges"):
            I.class_enrichment(params, h, batch, ["c0"], 1, edge_names=names)


def test_enrichment_needs_a_name_per_label_column():
    h = build_hypergraph([[0, 1], [1, 2]])
    params = make_model(h, np.random.default_rng(3))
    batch = M.SubgraphBatch(members=[np.array([0]), np.array([2])],
                            weights=[np.ones(1), np.ones(1)],
                            labels=one_hot([0, 1], 2))
    for vocab in (["a"], ["a", "b", "c"]):
        with pytest.raises(ShapeError,
                           match=f"{len(vocab)} class names for 2 label columns"):
            I.class_enrichment(params, h, batch, vocab, 1, edge_names=["e0", "e1"])
    report = I.class_enrichment(params, h, batch, ["a", "b"], 1, edge_names=["e0", "e1"])
    assert list(report.rankings) == ["a", "b"]


def test_ablated_model_uses_uniform_member_attention():
    h = build_hypergraph([[0, 1], [2, 3]])
    params = make_model(h, np.random.default_rng(5),
                        use_subgraph_attention=False)
    # two members in different edges, wildly different weights: uniform
    # pooling must still split the mass evenly
    batch = M.SubgraphBatch(members=[np.array([0, 2])],
                            weights=[np.array([100.0, 0.001])],
                            labels=one_hot([0], 1))
    scores = I.class_edge_scores(params, h, batch)[0]
    assert np.allclose(scores, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("attention", [True, False], ids=["attention", "sum"])
def test_member_past_the_last_node_is_rejected(attention):
    h = build_hypergraph([[0, 1], [1, 2]])
    params = make_model(h, np.random.default_rng(2),
                        use_subgraph_attention=attention)
    batch = M.SubgraphBatch(members=[np.array([0, h.num_nodes]), np.array([1])],
                            weights=[np.ones(2), np.ones(1)],
                            labels=one_hot([0, 1], 2))
    with pytest.raises(ShapeError, match="4 member rows for 3 nodes"):
        I.class_edge_scores(params, h, batch)
    with pytest.raises(ShapeError, match="4 member rows for 3 nodes"):
        I.class_enrichment(params, h, batch, ["c0", "c1"], 2,
                           edge_names=["e0", "e1"])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.data(), st.integers(1, 3),
       st.sampled_from([np.float32, np.float64]), st.booleans())
def test_own_pass_ranks_with_the_bits_of_a_full_trace(seed, data, num_layers, dtype,
                                                      attention):
    gen = np.random.default_rng(seed)
    g = random_hypergraph(gen, max_nodes=10, max_edges=5)
    # one more node, isolated, that subjects may hold as a member
    h = build_hypergraph(g.edge_members, num_nodes=g.num_nodes + 1)
    member_sets = data.draw(st.lists(
        st.sets(st.integers(0, h.num_nodes - 1), min_size=1, max_size=4),
        min_size=1, max_size=5))
    members = [np.array(sorted(m)) for m in member_sets]
    classes = min(len(members), 3)
    batch = M.SubgraphBatch(members=members,
                            weights=[1.0 - gen.random(m.size) for m in members],
                            labels=one_hot([k % classes for k in range(len(members))],
                                           classes))
    params = M.init_model(h.num_nodes, 4, num_layers, classes, gen,
                          use_subgraph_attention=attention, dtype=dtype)
    own = I.class_edge_scores(params, h, batch)
    full = full_pass_edge_scores(params, h, batch)
    assert own.tobytes() == full.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
       st.sampled_from([np.float32, np.float64]), st.sampled_from([0.0, 0.5]))
def test_correlation_of_its_own_pass_matches_the_full_trace(seed, num_layers, dtype, rate):
    gen = np.random.default_rng(seed)
    h = random_hypergraph(gen, max_nodes=10, max_edges=5)
    params = M.init_model(h.num_nodes, 4, num_layers, 3, gen, dropout_rate=rate,
                          dtype=dtype)
    own = I.hyperedge_correlation(params, h)
    with K.no_grad():
        full = M.forward_backbone(h, params, training=False, edges=True)
    want = I.cosine_matrix(full.final_edge_states.data)
    assert own.dtype == dtype
    assert own.tobytes() == want.tobytes()


def test_enrichment_report_covers_all_classes():
    h = build_hypergraph([[0, 1, 2], [1, 3]])
    params = make_model(h, np.random.default_rng(6))
    batch = M.SubgraphBatch(members=[np.array([0, 1]), np.array([3])],
                            weights=[np.array([1.0, 1.0]), np.array([1.0])],
                            labels=one_hot([0, 1], 2))
    report = I.class_enrichment(params, h, batch, ["left", "right"], top_k=1,
                                edge_names=["e0", "e1"])
    assert report.classes == ["left", "right"]
    assert set(report.rankings) == {"left", "right"}
    assert all(len(v) == 1 for v in report.rankings.values())
    assert report.num_layers == 2


def test_cosine_matrix_hand_values():
    x = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [-1.0, 0.0]])
    got = I.cosine_matrix(x)
    assert np.allclose(got[0], [1.0, 1.0, 0.0, -1.0], atol=1e-12)
    assert np.array_equal(got, got.T)
    assert np.allclose(np.diag(got), 1.0, atol=1e-12)


def test_cosine_matrix_zero_rows():
    x = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]])
    got = I.cosine_matrix(x)
    assert got[1].tolist() == [0.0, 0.0, 0.0]
    assert got[:, 1].tolist() == [0.0, 0.0, 0.0]
    assert got[1, 1] == 0.0


def test_hyperedge_correlation_matches_direct_cosine():
    h = build_hypergraph([[0, 1, 2], [2, 3], [0, 3, 4]])
    params = make_model(h, np.random.default_rng(7))
    pairs = M.incidence_pairs(h)
    with K.no_grad():
        trace = M.forward_backbone(pairs, params, training=False, edges=True)
    want = I.cosine_matrix(trace.final_edge_states.data)
    got = I.hyperedge_correlation(params, h)
    assert got.shape == (3, 3)
    assert np.array_equal(got, want)
    assert np.array_equal(got, got.T)
    assert np.all(np.abs(got) <= 1.0)


TILE = I.TILE_ROWS


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2, TILE - 1, TILE, TILE + 1, 2 * TILE + 1]),
       st.sampled_from([1, 4, 64, 300]), st.sampled_from([np.float32, np.float64]),
       st.integers(-3, 3), st.floats(0.0, 0.5))
def test_cosine_matrix_matches_the_float64_product(seed, n, d, dtype, scale, zero_share):
    # continuous entries of both signs, as model states are: in float32 at
    # d=300, two near-parallel rows, or rows of a few repeated values, can
    # be 1e-6 to 3e-6 off, inside the (d + 2) * 2**-24 bound of a float32
    # dot product of unit rows
    gen = np.random.default_rng(seed)
    x = (gen.standard_normal((n, d)) * 10.0 ** scale).astype(dtype)
    zero = gen.random(n) < zero_share
    x[zero] = -0.0
    got = I.cosine_matrix(x)
    assert got.dtype == dtype
    assert np.array_equal(got, got.T)
    assert np.all(np.abs(got) <= 1)
    assert not np.any(got[zero]) and not np.any(got[:, zero])
    assert not np.any(np.signbit(got[zero])) and not np.any(np.signbit(got[:, zero]))
    assert np.all(np.diag(got)[~zero] == 1)
    tolerance = 1e-6 if dtype == np.float32 else 1e-12
    assert np.abs(got - float64_cosine_matrix(x)).max() <= tolerance


def test_cosine_matrix_clamps_parallel_rows():
    # a row and its double have the same unit row, whose float32 sum of
    # squares lands on either side of 1: a third of these above it
    d = 300
    v = np.random.default_rng(4).standard_normal((100, d)).astype(np.float32)
    got = I.cosine_matrix(np.concatenate([v, 2 * v]))
    assert np.all(np.abs(got) <= 1)
    assert np.all(np.diag(got, k=100) >= 1 - (d + 2) * 2.0 ** -24)


def test_cosine_matrix_allocates_no_wider_matrix():
    n, d = 2000, 64
    x = np.random.default_rng(3).standard_normal((n, d)).astype(np.float32)
    with traced_memory() as probe:
        I.cosine_matrix(x)
    assert probe.peak < n * n * 4 + TILE * n * 4 + (1 << 20)


COSINE_HASH = """
import hashlib, numpy as np
from hypersub import interpret as I
x = np.random.default_rng(5).standard_normal((3000, 64)).astype(np.float32)
print(hashlib.sha256(I.cosine_matrix(x).tobytes()).hexdigest())
"""


def test_cosine_matrix_does_not_depend_on_the_blas_thread_count():
    src = str(pathlib.Path(I.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", COSINE_HASH], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_enrichment_tsv_layout():
    report = I.EnrichmentReport(classes=["a", "b"],
                                rankings={"a": [("e1", 0.75), ("e0", 0.25)],
                                          "b": [("e0", 1.0), ("e1", 0.0)]},
                                num_layers=2)
    text = I.enrichment_tsv(report)
    lines = text.splitlines()
    assert lines[0].startswith("# aggregation: ")
    assert lines[1] == "# layers: 2"
    assert lines[2] == "class\trank\thyperedge\tscore"
    assert lines[3] == "a\t1\te1\t0.75"
    assert lines[6] == "b\t2\te1\t0.0"
    assert len(lines) == 7


def test_correlation_tsv_layout():
    m = np.array([[1.0, 0.125], [0.125, 1.0]], dtype=np.float32)
    assert I.correlation_tsv(m, ["alpha", "beta"]) == \
        "hyperedge\talpha\tbeta\nalpha\t1\t0.125\nbeta\t0.125\t1\n"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(np.float32, 32), (np.float64, 64)]), st.data())
def test_correlation_tsv_round_trips(kind, data):
    dtype, width = kind
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                          width=width), min_size=1, max_size=12))
    m = np.array(values, dtype=dtype).reshape(1, -1)
    names = [f"e{k}" for k in range(m.shape[1])]
    lines = I.correlation_tsv(m, names).splitlines()
    fields = lines[1].split("\t")[1:]
    back = np.array([float(v) for v in fields], dtype=dtype)
    assert back.tobytes() == m[0].tobytes()
