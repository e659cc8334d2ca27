import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hypersub import kernel as K
from hypersub.errors import GraphConsumed, NotScalar, ShapeError
from hypersub.hypergraph import build_hypergraph, theta

from conftest import dense_laplacian, group_positions
from oracles import NonDeterministic, grad_check


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        K.Tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        K.Tensor([np.inf])
    t = K.Tensor([1, 2])  # ints coerce to float
    assert t.data.dtype == np.float64


def test_matmul_identity_and_hand_value():
    a = K.constant([[1.0, 2.0]])
    b = K.constant([[3.0], [4.0]])
    assert K.matmul(a, b).data.tolist() == [[11.0]]
    x = K.constant(np.arange(6.0).reshape(2, 3))
    eye = K.constant(np.eye(3))
    assert np.array_equal(K.matmul(x, eye).data, x.data)


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                want[i, j] += a[i, k] * b[k, j]
    got = K.matmul(K.constant(a), K.constant(b)).data
    assert np.max(np.abs(got - want)) <= 1e-12


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        K.matmul(K.constant([[1.0]]), K.constant([1.0]))
    with pytest.raises(ShapeError):
        K.matmul(K.constant(np.ones((2, 3))), K.constant(np.ones((2, 3))))


def test_activations_hand_values():
    x = K.constant([-1.0, 0.0, 2.0])
    assert K.relu(x).data.tolist() == [0.0, 0.0, 2.0]
    assert np.allclose(K.leaky_relu(x, 0.01).data, [-0.01, 0.0, 2.0])
    assert np.allclose(K.leaky_relu(x, 0.2).data, [-0.2, 0.0, 2.0])
    s = K.sigmoid(K.constant([0.0, 100.0, -100.0])).data
    assert abs(s[0] - 0.5) <= 1e-12 and s[1] <= 1.0 and s[2] >= 0.0


def _segments(groups, size):
    """The layout of explicit position groups over positions 0..size-1,
    which must put every position in a group."""
    ids = np.full(size, -1, dtype=np.intp)
    for k, g in enumerate(groups):
        ids[list(g)] = k
    return K.Segments(ids, len(groups))


def test_masked_softmax_values():
    two = K.masked_softmax(K.constant([0.0, 0.0]), _segments([(0, 1)], 2))
    assert np.allclose(two.data, [0.5, 0.5], atol=1e-12)
    one = K.masked_softmax(K.constant([3.7]), _segments([(0,)], 1))
    assert one.data.tolist() == [1.0]
    x = np.array([1.0, 2.0, 3.0])
    want = np.exp(x) / np.exp(x).sum()
    got = K.masked_softmax(K.constant(x), _segments([(0, 1, 2)], 3)).data
    assert np.max(np.abs(got - want)) <= 1e-12


def test_masked_softmax_groups_and_empty_groups():
    out = K.masked_softmax(K.constant([1.0, 1.0, 5.0, 2.0, 9.0]),
                           _segments([(0, 1), (3, 2), (4,)], 5)).data
    assert abs(out[0] - 0.5) <= 1e-12 and abs(out[1] - 0.5) <= 1e-12
    assert abs(out[2] + out[3] - 1.0) <= 1e-12
    assert out[4] == 1.0  # alone in its group
    # an empty group has nothing to normalize; the others are unaffected
    gap = K.masked_softmax(K.constant([1.0, 4.0]), _segments([(), (0,), (), (1,)], 2))
    assert gap.data.tolist() == [1.0, 1.0]
    with pytest.raises(ShapeError):
        K.masked_softmax(K.constant([[1.0]]), _segments([(0,)], 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12),
       st.floats(min_value=-30, max_value=30))
def test_masked_softmax_normalizes_and_shifts(values, shift):
    x = np.asarray(values)
    groups = _segments([tuple(range(x.size))], x.size)
    y = K.masked_softmax(K.constant(x), groups).data
    assert abs(y.sum() - 1.0) <= 1e-6
    y2 = K.masked_softmax(K.constant(x + shift), groups).data
    assert np.max(np.abs(y - y2)) <= 1e-9


@st.composite
def grouped_positions(draw, allow_empty):
    """(size, group id per position, group count)."""
    size = draw(st.integers(min_value=1, max_value=12))
    ngroups = draw(st.integers(min_value=1, max_value=5))
    ids = draw(st.lists(st.integers(min_value=0, max_value=ngroups - 1),
                        min_size=size, max_size=size))
    if not allow_empty:   # every group holds a position; drop the unused ids
        used = sorted(set(ids))
        ids = [used.index(i) for i in ids]
        ngroups = len(used)
    return size, ids, ngroups


def _groups(ids, ngroups, rng):
    """Explicit position groups, each listed in a random order."""
    return [tuple(rng.permutation([p for p, i in enumerate(ids) if i == k]).tolist())
            for k in range(ngroups)]


@settings(max_examples=60, deadline=None)
@given(grouped_positions(allow_empty=True), st.integers(0, 2**32 - 1))
def test_layout_softmax_matches_group_loop(case, seed):
    size, ids, ngroups = case
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=5.0, size=size)
    groups = _groups(ids, ngroups, rng)
    want = np.zeros(size)
    for g in groups:
        if g:
            e = np.exp(x[list(g)] - x[list(g)].max())
            want[list(g)] = e / e.sum()
    layout = _segments(groups, size)
    got = K.masked_softmax(K.constant(x), layout).data
    assert np.max(np.abs(got - want)) <= 1e-12

    s = K.parameter(x)
    c = K.constant(rng.normal(size=size))
    report = grad_check(
        lambda: K.reduce_sum(K.elementwise_mul(K.masked_softmax(s, layout), c)),
        [s], epsilon=1e-6)
    assert report.passed, report.max_rel_error


@settings(max_examples=60, deadline=None)
@given(grouped_positions(allow_empty=True), st.integers(0, 2**32 - 1))
def test_layout_weighted_row_sum_matches_group_loop(case, seed):
    size, ids, ngroups = case
    rng = np.random.default_rng(seed)
    nrows = int(rng.integers(1, 5))
    x0 = rng.normal(size=(nrows, 3))
    w0 = rng.normal(size=size)
    rows = rng.integers(0, nrows, size=size)
    groups = _groups(ids, ngroups, rng)
    want = np.zeros((ngroups, 3))
    for k, g in enumerate(groups):
        for p in g:
            want[k] += w0[p] * x0[rows[p]]
    layout = _segments(groups, size)
    by_row = K.Segments(rows, nrows)
    got = K.weighted_row_sum(K.constant(x0), K.constant(w0), by_row, layout).data
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12

    x, w = K.parameter(x0), K.parameter(w0)
    c = K.constant(rng.normal(size=(ngroups, 3)))
    itself = K.Segments(np.arange(size), size)

    def f():
        gathered = K.gather_rows(x, by_row)
        pooled = K.weighted_row_sum(gathered, w, itself, layout)
        direct = K.weighted_row_sum(x, w, by_row, layout)
        return K.reduce_sum(K.elementwise_mul(K.add(pooled, direct), c))
    report = grad_check(f, [x, w], epsilon=1e-6)
    assert report.passed, report.max_rel_error


def test_layout_rejects_bad_ids():
    with pytest.raises(ShapeError):
        K.Segments([0, 3], 2)
    with pytest.raises(ShapeError):   # id 2 of 2 groups puts no position outside them
        K.Segments([0, 2], 2)
    with pytest.raises(ShapeError):
        K.Segments([-1, 0], 2)
    layout = K.Segments([1, 2, 0, 1], 3)
    assert len(layout) == 3 and layout.counts.tolist() == [1, 2, 1]
    assert group_positions(layout)[1].tolist() == [0, 3] and layout.order is not None


def test_backward_hand_gradients():
    x = K.parameter([1.0, 2.0])
    K.backward(K.reduce_sum(x))
    assert x.grad.tolist() == [1.0, 1.0]
    x = K.parameter([1.0, 2.0])
    K.backward(K.reduce_sum(K.elementwise_mul(x, x)))
    assert x.grad.tolist() == [2.0, 4.0]


def test_backward_requires_scalar_and_fills_unused():
    x = K.parameter([[1.0, 2.0]])
    with pytest.raises(NotScalar):
        K.backward(x)
    used = K.parameter([3.0])
    unused = K.parameter([[5.0]])
    grads = K.backward(K.reduce_sum(used), [used, unused])
    assert grads[0].tolist() == [1.0]
    assert grads[1].tolist() == [[0.0]]


def test_backward_accumulates_over_reuse():
    # y = sum(x) + sum(x * x): dy/dx = 1 + 2x, x used by two ops
    x = K.parameter([3.0])
    K.backward(K.add(K.reduce_sum(x), K.reduce_sum(K.elementwise_mul(x, x))))
    assert x.grad.tolist() == [7.0]
    # add hands one array to both inputs, and a then takes a second
    # contribution: b's gradient must not see it
    a, b = K.parameter([1.0, 2.0]), K.parameter([3.0, 4.0])
    K.backward(K.reduce_sum(K.add(K.add(a, b), a)))
    assert a.grad.tolist() == [2.0, 2.0] and b.grad.tolist() == [1.0, 1.0]


def test_backward_is_linear():
    rng = np.random.default_rng(7)
    for _ in range(5):
        base = rng.normal(size=(3, 2))
        a, b = float(rng.normal()), float(rng.normal())

        def grads_of(fn):
            x = K.parameter(base.copy())
            K.backward(fn(x))
            return x.grad

        f = lambda x: K.reduce_sum(K.elementwise_mul(x, x))
        g = lambda x: K.reduce_sum(K.relu(x))
        combo = lambda x: K.add(K.scale(f(x), a), K.scale(g(x), b))
        want = a * grads_of(f) + b * grads_of(g)
        assert np.max(np.abs(grads_of(combo) - want)) <= 1e-10


def test_tape_visits_each_op_once():
    x = K.parameter([2.0])
    y = K.elementwise_mul(x, x)
    loss = K.reduce_sum(K.add(y, y))  # diamond: y consumed twice
    tape = K.Tape(loss)
    assert len(tape.nodes) == len({id(n) for n in tape.nodes})
    tape.run()
    assert x.grad.tolist() == [8.0]  # d/dx 2x^2
    with pytest.raises(GraphConsumed):   # the run released the graph
        tape.run()
    assert x.grad.tolist() == [8.0]


def test_no_grad_suppresses_graph():
    x = K.parameter([1.0])
    with K.no_grad():
        y = K.scale(x, 2.0)
    assert y._grad_fn is None and not y.requires_grad


def test_gather_and_weighted_row_sum_values():
    x = K.constant(np.arange(8.0).reshape(4, 2))
    g = K.gather_rows(x, K.Segments([2, 0, 2], 4))
    assert g.data.tolist() == [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]]
    w = K.constant([0.5, 2.0, 1.0])
    out = K.weighted_row_sum(x, w, K.Segments([0, 1, 3], 4),
                             _segments([(0, 1), (), (2,)], 3))
    assert out.data.tolist() == [[4.0, 6.5], [0.0, 0.0], [6.0, 7.0]]


def test_spmm_matches_dense():
    h = build_hypergraph([[0, 1, 2], [1, 3]])
    sp = theta(h)
    x = K.parameter(np.arange(8.0).reshape(4, 2))
    y = K.spmm(sp, x)
    assert np.allclose(y.data, dense_laplacian(h) @ x.data, atol=1e-12)
    K.backward(K.reduce_sum(y))
    assert np.allclose(x.grad, dense_laplacian(h).T @ np.ones((4, 2)), atol=1e-12)


def test_centred_dot_hand_value_and_gradients():
    # column means (2, 4): <[[-1, -2], [1, 2]], y> = -1 + 2 + 2
    x = K.parameter([[1.0, 2.0], [3.0, 6.0]])
    y = K.parameter([[1.0, 0.0], [2.0, 1.0]])
    out = K.centred_dot(x, y)
    assert float(out.data) == 3.0
    K.backward(out)
    assert x.grad.tolist() == [[-0.5, -0.5], [0.5, 0.5]]
    assert y.grad.tolist() == [[-1.0, -2.0], [1.0, 2.0]]


def test_centred_dot_rejects_unequal_shapes():
    with pytest.raises(ShapeError):
        K.centred_dot(K.constant(np.ones((3, 2))), K.constant(np.ones((2, 3))))


def test_grad_check_through_centred_dot():
    rng = np.random.default_rng(8)
    x = K.parameter(rng.normal(size=(5, 3)))
    y = K.parameter(rng.normal(size=(5, 3)))
    report = grad_check(lambda: K.centred_dot(x, y), [x, y], epsilon=1e-6)
    assert report.passed, report.max_rel_error


def test_centred_dot_ignores_a_constant_added_to_a_column_of_x():
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    base = float(K.centred_dot(K.constant(x), K.constant(y)).data)
    shifted = x.copy()
    shifted[:, 2] += 40.0
    got = float(K.centred_dot(K.constant(shifted), K.constant(y)).data)
    assert abs(got - base) <= 1e-12 * 40.0 * np.abs(y).sum()


def test_dropout_scales_survivors():
    rng = np.random.default_rng(5)
    x = K.parameter(np.ones((100, 100)))
    y = K.dropout(x, 0.4, rng)
    vals = np.unique(y.data)
    assert set(np.round(vals, 12).tolist()) <= {0.0, round(1.0 / 0.6, 12)}
    assert abs(y.data.mean() - 1.0) < 0.05  # inverted scaling preserves mean
    assert K.dropout(x, 0.0, rng) is x
    with pytest.raises(ValueError):
        K.dropout(x, 1.0, rng)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.5, 0.3, 0.15])
def test_dropout_matches_the_float_mask_rule(rate, dtype):
    # a boolean keep mask scaled by 1/(1 - rate) in the input's dtype gives
    # the bits of the float mask keep / (1 - rate), forward and backward; at
    # 0.15, 1/(1 - rate) rounded from float64 is another float32 than the
    # quotient taken in float32
    rng = np.random.default_rng(9)
    xs = rng.normal(size=(40, 30)).astype(dtype)
    xs[0, :4] = [0.0, -0.0, 1e-30, -1e30]
    g = rng.normal(size=xs.shape).astype(dtype)
    x = K.parameter(xs)
    y = K.dropout(x, rate, np.random.default_rng(4))
    keep = np.random.default_rng(4).random(xs.shape) >= rate
    m = keep.astype(dtype) / np.asarray(1.0 - rate, dtype=dtype)
    assert y.data.dtype == dtype and y.data.tobytes() == (xs * m).tobytes()
    y._grad_fn(g)
    assert x.grad.dtype == dtype and x.grad.tobytes() == (g * m).tobytes()


@pytest.mark.parametrize("shape", [(1000, 70), (3, 5), (7,), (0, 4)])
def test_keep_mask_draws_the_stream_of_one_call(shape):
    # (1000, 70) spans two whole blocks of the reused buffer and a part
    rate = 0.3
    got_rng, want_rng = np.random.default_rng(6), np.random.default_rng(6)
    got = K.keep_mask(shape, rate, got_rng)
    assert got.dtype == bool and got.shape == shape
    assert np.array_equal(got, want_rng.random(shape) >= rate)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert np.array_equal(got_rng.random(5), want_rng.random(5))
    with pytest.raises(ValueError, match="rng"):
        K.keep_mask(shape, rate, None)


def _epilogue_case(dtype):
    """A pooling over 7 groups whose sums are positive, negative and exactly
    zero: group 0 reads only the zero row 0, group 1 has zero weights, group
    6 is empty, and row 1 holds -0.0 entries."""
    rng = np.random.default_rng(12)
    num_rows, d, size = 9, 5, 60
    ids = np.sort(rng.integers(2, 6, size))
    rows = rng.integers(1, num_rows, size)
    ids[:3], rows[:3] = 0, 0
    ids[3:5] = 1
    ids.sort()
    xs = rng.normal(size=(num_rows, d)).astype(dtype)
    xs[0] = 0.0
    xs[1, :3] = -0.0
    ws = rng.random(size).astype(dtype)
    ws[ids == 1] = 0.0
    c = rng.normal(size=(7, d)).astype(dtype)
    c[:, 0] = 0.0
    return xs, ws, c, K.Segments(rows, num_rows), K.Segments(ids, 7)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.0, 0.15, 0.5])
def test_pooling_epilogue_is_bit_identical_to_relu_and_dropout(rate, dtype):
    xs, ws, c, by_row, seg = _epilogue_case(dtype)

    def run(fused):
        x, w, rng = K.parameter(xs.copy()), K.parameter(ws.copy()), np.random.default_rng(3)
        if fused:
            y = K.weighted_row_sum(x, w, by_row, seg, rectify=True, rate=rate, rng=rng)
        else:
            y = K.dropout(K.relu(K.weighted_row_sum(x, w, by_row, seg)), rate, rng)
        K.backward(K.reduce_sum(K.elementwise_mul(y, K.constant(c))))
        return [y.data, x.grad, w.grad], rng.bit_generator.state

    (got, got_state), (want, want_state) = run(True), run(False)
    assert np.all(want[0][[0, 1, 6]] == 0.0) and np.any(want[0][2:6] > 0)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()
    assert got_state == want_state
    # an unrecorded pass makes the same draws and gives the same bits; no
    # pass builds a rectifier mask, which the rule reads from the output
    with K.no_grad():
        rng = np.random.default_rng(3)
        y = K.weighted_row_sum(K.constant(xs), K.constant(ws), by_row, seg,
                               rectify=True, rate=rate, rng=rng)
    assert y.data.tobytes() == got[0].tobytes() and rng.bit_generator.state == got_state
    with pytest.raises(ValueError):
        K.weighted_row_sum(K.constant(xs), K.constant(ws), by_row, seg, rate=1.0,
                           rng=rng)
    with pytest.raises(ValueError):   # dropout applies to rectified sums only
        K.weighted_row_sum(K.constant(xs), K.constant(ws), by_row, seg, rate=0.5,
                           rng=rng)


def _specials(dtype):
    """±0, the smallest subnormals, ±inf, NaN and the extremes of a dtype."""
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    return np.array([0.0, -0.0, tiny, -tiny, info.tiny, np.inf, -np.inf, np.nan,
                     info.max, -info.max, 1.0, -1.0], dtype=dtype)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), st.data())
def test_rectified_masks_read_from_the_output_have_the_bits_of_the_kept_masks(dtype, data):
    # the q = 1/(1 - rate) >= 1 scale keeps a kept positive sum positive, so
    # the output's sign is the keep mask and the rectifier's at once: the
    # rule's (g * (out > 0)) * q has the bits of dropout's rule followed by
    # the rectifier's, ((g * keep) * q) * (sums > 0), wherever g * q is
    # finite (past that, inf * 0 is NaN on one side and 0 on the other)
    floats = st.floats(width=np.finfo(dtype).bits)
    special = _specials(dtype)
    n = data.draw(st.integers(0, 30))
    sums = np.concatenate([special, data.draw(hnp.arrays(dtype, n, elements=floats))])
    g = data.draw(hnp.arrays(dtype, sums.size, elements=floats))
    keep = data.draw(hnp.arrays(bool, sums.size))
    rate = data.draw(st.floats(0.0, 0.9))
    q = K._keep_scale(np.dtype(dtype), rate)
    with np.errstate(all="ignore"):
        out = np.maximum(sums, 0)   # the pooling epilogue, as weighted_row_sum runs it
        out *= keep
        out *= q
        got = (g * (out > 0)) * q
        want = ((g * keep) * q) * (sums > 0)
        finite = np.isfinite(g * q)
    assert got[finite].tobytes() == want[finite].tobytes()
    # relu's rule reads its mask from its output too; it has g * (x > 0)
    for x in (sums, -sums):
        t = K.parameter(np.zeros_like(x))
        t.data[:] = x   # past the constructor's finiteness check
        with np.errstate(all="ignore"):
            K.relu(t)._grad_fn(g.copy())
            want = g * (x > 0)
        assert t.grad.dtype == dtype and t.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dstate_matches_the_step_weight_formula(dtype):
    # the attention gradient of a state picks its [L+, L-] sum by the state's
    # sign, in place; the reference blends up * S+ + (1 - up) * S-
    # with step weights up = 1, 1/2, 0 for x > 0, x == 0, x < 0
    rng = np.random.default_rng(13)
    n, d = 60, 6
    x = rng.normal(size=(n, d))
    x[rng.random(x.shape) < 0.3] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    sums = rng.normal(size=(n, 2 * d))
    sums[rng.random(sums.shape) < 0.3] = 0.0
    sums[rng.random(sums.shape) < 0.2] = -0.0
    ctx = np.abs(rng.normal(size=(d, 1))) * np.where(np.arange(d) % 2, 1, -1)[:, None]
    # x > 0 picks a -0.0 L+ sum whose L- side is positive
    x[0, :2], sums[0, :2], sums[0, d:d + 2] = 1.0, -0.0, 1.0
    x, sums, ctx = (a.astype(dtype) for a in (x, sums, ctx))
    up = (np.sign(x) + 1) * dtype(0.5)
    want = ctx[:, 0] * (up * sums[:, :d] + (1 - up) * sums[:, d:])
    got = K._dstate(x, sums, ctx)
    assert got.dtype == dtype and np.array_equal(got, want)
    # the bits are equal at every exact zero of x, and elsewhere differ only
    # in the sign of a zero: the blend adds the other side times 0, which
    # turns a picked -0.0 into +0.0
    bits = f"i{got.itemsize}"
    same = got.view(bits) == want.view(bits)
    assert np.all(same[x == 0]) and np.all(same | (got == 0))
    assert not same[0, 0] and not same[0, 1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_biased_matmul_is_bit_identical_to_add_bias(dtype):
    rng = np.random.default_rng(11)
    xs, ws, bs = (rng.normal(size=s).astype(dtype) for s in ((7, 5), (5, 3), (3,)))
    c = K.constant(rng.normal(size=(7, 3)).astype(dtype))

    def run(fold):
        x, w, b = (K.parameter(a.copy()) for a in (xs, ws, bs))
        y = K.matmul(x, w, b) if fold else K.add_bias(K.matmul(x, w), b)
        K.backward(K.reduce_sum(K.elementwise_mul(y, c)))
        return [y.data, x.grad, w.grad, b.grad]

    for got, want in zip(run(True), run(False)):
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()
    with pytest.raises(ShapeError):
        K.matmul(K.parameter(xs), K.parameter(ws), K.parameter(bs[:2]))


SHARING_CASES = {
    "add(x, x)": lambda x, y, b: K.add(x, x),
    "add(x, y)": lambda x, y, b: K.add(x, y),
    "add(add(x, y), x)": lambda x, y, b: K.add(K.add(x, y), x),
    "sub(x, y)": lambda x, y, b: K.sub(x, y),
    "sub(x, x)": lambda x, y, b: K.sub(x, x),
    "reshape": lambda x, y, b: K.reshape(
        K.add(K.reshape(x, (9,)), K.reshape(y, (9,))), (3, 3)),
    "matmul(x, x, b)": lambda x, y, b: K.add(K.matmul(x, x, b), x),
    "matmul(x, y, b)": lambda x, y, b: K.sub(K.matmul(x, y, b), y),
}


@pytest.mark.parametrize("case", sorted(SHARING_CASES))
def test_backward_leaves_no_two_gradients_sharing_memory(case):
    # a rule's first contribution is adopted as the gradient, not copied;
    # add hands one array to both inputs and copies it for the second
    rng = np.random.default_rng(12)
    x, y = (K.parameter(rng.normal(size=(3, 3))) for _ in range(2))
    b = K.parameter(rng.normal(size=3))
    c = K.constant(rng.normal(size=(3, 3)))
    report = grad_check(
        lambda: K.reduce_sum(K.elementwise_mul(SHARING_CASES[case](x, y, b), c)),
        [x, y, b])
    assert report.passed
    grads = [t.grad for t in (x, y, b)]
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)


def test_log_clamps_at_floor():
    x = K.parameter([1.0, 1e-20])
    y = K.log(x)
    assert y.data[0] == 0.0
    assert abs(y.data[1] - np.log(1e-12)) <= 1e-9
    K.backward(K.reduce_sum(y))
    assert x.grad[0] == 1.0
    assert x.grad[1] == 0.0  # clamp active: no gradient


def test_grad_check_quadratic_is_tight():
    # all second derivatives constant: central differences are exact up to
    # roundoff, so the reported error must be far below any real tolerance
    w = K.parameter(np.array([[0.5, -1.0], [2.0, 0.25]]))
    b = K.parameter(np.array([0.1, -0.2]))
    x = K.constant(np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]))

    def f():
        y = K.add_bias(K.matmul(x, w), b)
        return K.reduce_sum(K.elementwise_mul(y, y))

    report = grad_check(f, [w, b], epsilon=1e-5)
    assert report.passed
    assert report.max_rel_error < 1e-7


def test_grad_check_catches_wrong_gradient():
    w = K.parameter(np.array([1.0, 2.0]))

    def f():
        # scale's forward uses 3x but we check against analytic grad of sum(3x)
        return K.reduce_sum(K.scale(w, 3.0))

    report = grad_check(f, [w])
    assert report.passed  # sanity: correct rule passes
    # now sabotage: wrap scale with a wrong-gradient op
    def bad_scale(x, alpha):
        def grad_fn(g):
            K._accum(x, 0.5 * alpha * g)  # deliberately halved
        return K._result(alpha * x.data, (x,), grad_fn)

    def f_bad():
        return K.reduce_sum(bad_scale(w, 3.0))

    report = grad_check(f_bad, [w])
    assert not report.passed
    assert report.max_rel_error > 0.1


def test_grad_check_rejects_nondeterminism():
    rng = np.random.default_rng(0)
    # distinct entries so different dropout masks give different sums
    x = K.parameter(np.linspace(0.1, 3.0, 16).reshape(4, 4))

    def f():
        return K.reduce_sum(K.dropout(x, 0.5, rng))

    with pytest.raises(NonDeterministic):
        grad_check(f, [x])


def test_grad_check_composite_ops():
    rng = np.random.default_rng(3)
    x = K.parameter(rng.normal(size=(5, 3)))
    w = K.parameter(rng.normal(size=(3, 3)))
    groups = _segments([(0, 1, 2), (3, 4)], 5)
    itself = K.Segments(np.arange(5), 5)

    def f():
        scores = K.reshape(K.matmul(K.leaky_relu(K.matmul(x, w), 0.1),
                                    K.constant(np.ones((3, 1)))), (-1,))
        attn = K.masked_softmax(scores, groups)
        pooled = K.weighted_row_sum(x, attn, itself, groups)
        z = K.softmax_rows(pooled)
        return K.scale(K.reduce_sum(K.elementwise_mul(z, K.log(z))), -1.0)

    report = grad_check(f, [x, w], epsilon=1e-6)
    assert report.passed, f"max rel error {report.max_rel_error}"


def test_grad_check_sigmoid_and_sub():
    rng = np.random.default_rng(9)
    a = K.parameter(rng.normal(size=(3, 2)))
    b = K.parameter(rng.normal(size=(3, 2)))

    def f():
        return K.reduce_sum(K.sigmoid(K.sub(a, b)))

    report = grad_check(f, [a, b], epsilon=1e-6)
    assert report.passed


# ------------------------------------------------ bucketed segment kernel

# group sizes across several power-of-two buckets: 1, the powers, +-1 around
BUCKET_SIZES = sorted({1, 2, 3} | {s + k for s in (4, 8, 16, 32) for k in (-1, 0, 1)})


def _loop_gather_sum(x, w, rows, ids, ngroups):
    """Per-group loop reference for Segments.gather_sum, in float64."""
    out = np.zeros((ngroups, x.shape[1]))
    for p, k in enumerate(ids):
        out[k] += float(w[p]) * x[rows[p]].astype(np.float64)
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(BUCKET_SIZES + [0]), min_size=1, max_size=12),
       st.integers(0, 8), st.sampled_from([np.float32, np.float64]),
       st.booleans(), st.integers(0, 3), st.booleans(), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_gather_sum_matches_group_loop_across_buckets(sizes, tail, dtype,
                                                      hub, zero_rows, zero_singles,
                                                      excess, seed):
    # ``tail`` positions make a last group, ``zero_rows`` positions read
    # the last row of x, which is all zero, and partners ``excess`` groups
    # or positions off are rejected
    rng = np.random.default_rng(seed)
    sizes = list(sizes) + ([int(rng.integers(300, 700))] if hub else []) + [tail]
    ngroups = len(sizes)
    ids = np.repeat(np.arange(ngroups), sizes).astype(np.intp)
    rng.shuffle(ids)
    layout = K.Segments(ids, ngroups)
    order = np.arange(ids.size) if layout.order is None else layout.order
    assert np.array_equal(order, np.argsort(ids, kind="stable"))
    nrows = int(rng.integers(1, 30))
    x = np.concatenate([rng.normal(size=(nrows, 4)), np.zeros((1, 4))]).astype(dtype)
    w = rng.normal(size=ids.size).astype(dtype)
    rows = rng.integers(0, nrows, size=ids.size)
    rows[rng.permutation(ids.size)[:zero_rows]] = nrows   # the zero row of x
    by_rows = K.Segments(rows, nrows + 1)
    if zero_singles:   # zero weights in the groups of one, on rows with negatives
        w[np.isin(ids, np.flatnonzero(np.asarray(sizes) == 1))] = 0
    want = _loop_gather_sum(x, w, rows, ids, ngroups)
    tol = 1e-4 if dtype == np.float32 else 1e-11
    scale = 1.0 + np.abs(want)
    dot = rng.normal(size=(ngroups, 4)).astype(dtype)
    terms = x[rows].astype(np.float64) * dot[ids]
    want_dots = terms.sum(axis=1)

    got = layout.gather_sum(x, w, by_rows)
    assert got.dtype == dtype and got.shape == (ngroups, 4)
    # the walk is held by the partner, once, and a repeat call or a fresh
    # partner over the same rows gives the first call's bits
    assert list(by_rows._walks) == [id(layout.ids)] and not layout._walks
    for partner in (by_rows, by_rows, K.Segments(rows, nrows + 1)):
        assert layout.gather_sum(x, w, partner).tobytes() == got.tobytes()
    assert len(by_rows._walks) == 1
    # a partner with more groups than x has rows, or over another number of
    # positions, is rejected before any walk
    partners = [K.Segments(rows, nrows + 1 + excess),
                K.Segments(np.append(rows, [0] * excess), nrows + 1)]
    if ids.size >= excess:
        partners.append(K.Segments(rows[excess:], nrows + 1))
    for partner in partners:
        with pytest.raises(ShapeError, match="rows"):
            layout.gather_sum(x, w, partner)
        assert not partner._walks
    # a sum of products starts at +0.0, so -0.0 (a zero weight on a negative
    # entry, alone in its group) comes out as +0.0 in every bucket
    assert not np.signbit(got[got == 0]).any()
    assert np.all(np.abs(got - want) <= tol * scale * np.sqrt(max(sizes + [1])))
    saved = K.BLOCK_BYTES
    dots = []
    try:   # one group per slice of a bucket sums every group the same way
        for budget in (saved, 1):
            K.BLOCK_BYTES = budget
            assert np.array_equal(layout.gather_sum(x, w, by_rows), got)
            out, dp = layout.gather_sum(x, w, by_rows, dot=dot)
            assert np.array_equal(out, got)
            assert dp.dtype == dtype and dp.shape == (ids.size,)
            assert np.all(np.abs(dp - want_dots)
                          <= tol * (1.0 + np.abs(terms).sum(axis=1)))
            dots.append(dp)
    finally:
        K.BLOCK_BYTES = saved
    assert np.array_equal(dots[0], dots[1])
    padded = layout.gather_sum(x, w, by_rows, length=ngroups + 3)
    assert np.array_equal(padded[:ngroups], got) and not padded[ngroups:].any()
    # unit weights over the positions themselves sum rows per group
    xp = rng.normal(size=(ids.size, 4)).astype(dtype)
    plain = _loop_gather_sum(xp, np.ones(ids.size), np.arange(ids.size), ids, ngroups)
    assert np.all(np.abs(layout.gather_sum(xp) - plain)
                  <= tol * (1.0 + np.abs(plain)) * np.sqrt(max(sizes + [1])))
    assert not got[np.asarray(sizes) == 0].any()   # empty groups give zeros


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(BUCKET_SIZES), min_size=2, max_size=8),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
def test_gather_sum_keeps_a_non_finite_row_in_its_groups(sizes, dtype, seed):
    rng = np.random.default_rng(seed)
    ngroups = len(sizes) + 1   # the last group holds one position
    ids = np.repeat(np.arange(ngroups), sizes + [1])
    rng.shuffle(ids)
    layout = K.Segments(ids, ngroups)
    nrows = 6
    rows = rng.integers(0, nrows, size=ids.size)
    w = rng.normal(size=ids.size).astype(dtype)
    for bad in range(nrows):
        x = rng.normal(size=(nrows, 3)).astype(dtype)
        x[bad] = [np.nan, np.inf, -np.inf]
        with np.errstate(invalid="ignore"):   # inf - inf in the touched groups
            got = layout.gather_sum(x, w, K.Segments(rows, nrows))
        touched = np.zeros(ngroups, dtype=bool)
        touched[ids[rows == bad]] = True
        assert np.all(np.isfinite(got[~touched]))
        assert not np.all(np.isfinite(got[touched]), axis=1).any()


def test_gather_sum_hub_group_matches_loop():
    rng = np.random.default_rng(11)
    sizes = [1, 2, 3, 4, 5, 7, 8, 9, 0, 0, 300, 513, 17]
    ngroups = len(sizes)
    ids = np.repeat(np.arange(ngroups), sizes)
    rng.shuffle(ids)
    layout = K.Segments(ids, ngroups)
    x = rng.normal(size=(50, 8))
    w = rng.normal(size=ids.size)
    rows = rng.integers(0, 50, size=ids.size)
    want = _loop_gather_sum(x, w, rows, ids, ngroups)
    got = layout.gather_sum(x, w, K.Segments(rows, 50))
    assert np.max(np.abs(got - want)) <= 1e-11
    # every nonempty group sits in exactly one bucket, padded below 2x
    plan = layout.plan
    held = np.concatenate([plan.groups[lo:hi] for _, lo, hi, _ in plan.buckets])
    assert sorted(held.tolist()) == [k for k, s in enumerate(sizes) if s]
    for span, lo, hi, _ in plan.buckets:
        assert np.all(np.asarray(sizes)[plan.groups[lo:hi]] * 2 > span)
    # a group's slots hold its positions, then padding: `size` in `padded`,
    # the group's first position in `source`
    slots = 0
    for span, lo, hi, first in plan.buckets:
        assert first == slots
        for i, k in enumerate(plan.groups[lo:hi].tolist()):
            at = slice(first + i * span, first + (i + 1) * span)
            own = np.flatnonzero(ids == k)
            pad = span - own.size
            assert plan.padded[at].tolist() == own.tolist() + [ids.size] * pad
            assert plan.source[at].tolist() == own.tolist() + [own[0]] * pad
        slots += (hi - lo) * span
    assert plan.padded.size == plan.source.size == slots


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(BUCKET_SIZES[:8] + [0]), min_size=1, max_size=6),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_grad_check_through_bucketed_kernels(sizes, tail, seed):
    rng = np.random.default_rng(seed)
    sizes = sizes + [tail]   # a last group of ``tail`` positions
    ngroups = len(sizes)
    ids = np.repeat(np.arange(ngroups), sizes).astype(np.intp)
    rng.shuffle(ids)
    size = ids.size
    if size == 0:
        return
    layout = K.Segments(ids, ngroups)
    nrows = int(rng.integers(1, 6))
    rows = rng.integers(0, nrows, size=size)
    by_row = K.Segments(rows, nrows)
    itself = K.Segments(np.arange(size), size)
    x = K.parameter(rng.normal(size=(nrows, 3)))
    w = K.parameter(rng.normal(size=size))
    c = K.constant(rng.normal(size=(ngroups, 3)))

    def f():
        direct = K.weighted_row_sum(x, w, by_row, layout)
        pooled = K.weighted_row_sum(K.gather_rows(x, by_row), w, itself, layout)
        return K.reduce_sum(K.elementwise_mul(K.add(direct, pooled), c))

    report = grad_check(f, [x, w], epsilon=1e-6)
    assert report.passed, report.max_rel_error


def _loop_weight_grad(g, x, rows, ids):
    """Per-position loop reference for the weight gradient of
    weighted_row_sum, in float64: dw[p] = g[ids[p]] . x[rows[p]]. Also the
    sum of the products' magnitudes, the scale of each dot's rounding
    error."""
    dw, scale = np.zeros(ids.size), np.zeros(ids.size)
    for p, (k, r) in enumerate(zip(ids, rows)):
        terms = g[k].astype(np.float64) * x[r].astype(np.float64)
        dw[p], scale[p] = terms.sum(), np.abs(terms).sum()
    return dw, scale


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(BUCKET_SIZES + [0]), min_size=1, max_size=10),
       st.integers(1, 6), st.integers(0, 8), st.integers(1, 8),
       st.sampled_from([np.float32, np.float64]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_fused_weighted_row_sum_backward_matches_position_loop(
        row_sizes, ngroups, tail, d, dtype, x_grad, seed):
    # the gradient walks by_row: its group sizes are the row sizes, drawn
    # over every bucket width and empty rows; seg holds the positions in
    # random groups, some of them empty, and ``tail`` of them in a last group
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(len(row_sizes)), row_sizes)
    rng.shuffle(rows)
    size = rows.size
    if size == 0:
        return
    nrows = len(row_sizes)
    ids = rng.integers(0, ngroups, size=size)
    ids[rng.permutation(size)[:tail]] = ngroups
    by_row, seg = K.Segments(rows, nrows), K.Segments(ids, ngroups + 1)
    x0 = rng.normal(size=(nrows, d)).astype(dtype)
    w0 = rng.normal(size=size).astype(dtype)
    g = rng.normal(size=(ngroups + 1, d)).astype(dtype)
    want, scale = _loop_weight_grad(g, x0, rows, ids)
    tol = 1e-6 if dtype == np.float32 else 1e-12
    want_dx = by_row.gather_sum(g, w0, K.Segments(ids, ngroups + 1), nrows)

    saved = K.BLOCK_BYTES
    got = []
    try:
        for budget in (saved, 1):
            K.BLOCK_BYTES = budget
            x = K.Tensor(x0.copy(), requires_grad=x_grad)
            w = K.parameter(w0.copy())
            out = K.weighted_row_sum(x, w, by_row, seg)
            K.backward(K.reduce_sum(K.elementwise_mul(out, K.constant(g))))
            dw = w.grad
            assert dw.dtype == dtype and dw.shape == (size,)
            assert np.all(np.abs(dw - want) <= tol * scale)
            if x_grad:
                assert np.array_equal(x.grad, want_dx)
            got.append(dw)
    finally:
        K.BLOCK_BYTES = saved
    assert np.array_equal(got[0], got[1])


def test_grad_check_through_spmm():
    rng = np.random.default_rng(4)
    h = build_hypergraph([[0, 1, 2, 3, 4], [1, 3], [2, 5, 6], [0, 6], [4]])
    sp = theta(h)
    x = K.parameter(rng.normal(size=(h.num_nodes, 3)))
    c = K.constant(rng.normal(size=(h.num_nodes, 3)))
    report = grad_check(
        lambda: K.reduce_sum(K.elementwise_mul(K.spmm(sp, x), c)), [x],
        epsilon=1e-6)
    assert report.passed, report.max_rel_error
    dense = dense_laplacian(h)
    y = rng.normal(size=(h.num_nodes, 4))
    assert np.max(np.abs(sp.dot_dense(y.copy()) - dense @ y)) <= 1e-12


# ------------------------------------------------- fused attention scores

SLOPES = [0.0, 0.01, 0.2, 1.5]


def _random_pairs(rng, num_edges, num_nodes, size):
    """Layouts of ``size`` random pairs by edge (sorted) and by node."""
    edge = np.sort(rng.integers(0, num_edges, size=size))
    node = rng.integers(0, num_nodes, size=size)
    return K.Segments(edge, num_edges), K.Segments(node, num_nodes)


def _states(rng, rows, d, dtype, zero_share=0.2):
    """Normal entries with some exact zeros, and row 0 all zero."""
    x = rng.normal(size=(rows, d))
    x[rng.random(size=x.shape) < zero_share] = 0.0
    x[0] = 0.0
    return x.astype(dtype)


def _chain_scores(te, tn, ctx, by_edge, by_node, slope):
    """The composed chain the kernel fuses. Its product runs over the rows
    zero-padded to whole 64-row groups, as the kernel's does: BLAS takes a
    narrower path for the last few rows of a product, so without padding
    the last scores of the chain depend on their position."""
    joint = K.elementwise_mul(K.gather_rows(te, by_edge), K.gather_rows(tn, by_node))
    leaky = K.leaky_relu(joint, slope).data
    padded = np.zeros((leaky.shape[0] + -leaky.shape[0] % 64, leaky.shape[1]),
                      dtype=leaky.dtype)
    padded[:leaky.shape[0]] = leaky
    return K.matmul(K.constant(padded), ctx).data[:leaky.shape[0], 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.integers(1, 24), st.sampled_from([np.float32, np.float64]),
       st.sampled_from(SLOPES), st.integers(0, 2**32 - 1))
def test_attention_scores_bit_identical_to_composed_chain(size, d, dtype, slope, seed):
    rng = np.random.default_rng(seed)
    num_edges, num_nodes = int(rng.integers(1, 12)), int(rng.integers(1, 40))
    by_edge, by_node = _random_pairs(rng, num_edges, num_nodes, size)
    te = K.constant(_states(rng, num_edges, d, dtype))
    tn = K.constant(_states(rng, num_nodes, d, dtype))
    ctx = K.constant(rng.normal(size=(d, 1)).astype(dtype))
    want = _chain_scores(te, tn, ctx, by_edge, by_node, slope)
    saved = K.BLOCK_BYTES
    try:
        for budget in (saved, 1):   # 1 byte: blocks of 64 rows
            K.BLOCK_BYTES = budget
            got = K.attention_scores(te, tn, ctx, by_edge, by_node, slope)
            assert got.data.dtype == dtype and got.data.shape == (size,)
            assert np.array_equal(got.data, want)
    finally:
        K.BLOCK_BYTES = saved


@pytest.mark.parametrize("slope", SLOPES)
def test_grad_check_through_attention_scores(slope):
    rng = np.random.default_rng(int(slope * 100) + 5)
    by_edge, by_node = _random_pairs(rng, 5, 7, 40)
    edge = by_edge.ids.copy()
    edge[:3] = 0   # the all-zero edge row 0 holds pairs
    edge.sort()
    by_edge = K.Segments(edge, 5)
    te = K.parameter(_states(rng, 5, 3, np.float64))
    tn = K.parameter(_states(rng, 7, 3, np.float64))
    ctx = K.parameter(rng.normal(size=(3, 1)))
    w = K.constant(rng.normal(size=edge.size))

    def f():
        s = K.attention_scores(te, tn, ctx, by_edge, by_node, slope)
        attn = K.masked_softmax(s, by_edge)
        return K.reduce_sum(K.elementwise_mul(K.add(s, attn), w))

    report = grad_check(f, [te, tn, ctx], epsilon=1e-6)
    assert report.passed, report.max_rel_error


def test_grad_check_through_a_dead_edge_row():
    # te = relu(x) @ W + b with zero bias: a dead ReLU row of x gives an
    # edge row of te that is exactly zero
    rng = np.random.default_rng(8)
    by_edge, by_node = _random_pairs(rng, 4, 6, 30)
    dead = int(by_edge.ids[0])
    x = rng.normal(size=(4, 3))
    x[dead] = -np.abs(x[dead]) - 1.0
    x = K.parameter(x)
    w_edge = K.parameter(rng.normal(size=(3, 3)))
    tn = K.parameter(rng.normal(size=(6, 3)))
    ctx = K.parameter(rng.normal(size=(3, 1)))
    bias = K.constant(np.zeros(3))
    g = K.constant(rng.normal(size=by_edge.size))

    def f():
        te = K.add_bias(K.matmul(K.relu(x), w_edge), bias)
        s = K.attention_scores(te, tn, ctx, by_edge, by_node, 0.01)
        return K.reduce_sum(K.elementwise_mul(s, g))

    report = grad_check(f, [x, w_edge, tn, ctx], epsilon=1e-6)
    assert report.passed, report.max_rel_error


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(1, 12), st.sampled_from([np.float32, np.float64]),
       st.sampled_from(SLOPES), st.integers(0, 2**32 - 1))
def test_attention_gradient_skips_node_rows_no_pair_reads(size, d, dtype, slope, seed):
    # the node rows no pair reads (the last one always) against the same
    # pairs over a node table of the read rows alone: every gradient the
    # two share has the same bits, and an unread row gets exactly +0.0
    rng = np.random.default_rng(seed)
    num_edges, num_nodes = int(rng.integers(1, 12)), int(rng.integers(1, 40))
    by_edge, by_node = _random_pairs(rng, num_edges, num_nodes, size)
    by_node = K.Segments(by_node.ids, num_nodes + 1)
    read = by_node.nonempty
    rank = np.zeros(num_nodes + 1, dtype=np.intp)
    rank[read] = np.arange(read.size)
    compact = K.Segments(rank[by_node.ids], read.size)
    te = K.parameter(_states(rng, num_edges, d, dtype))
    tn = K.parameter(_states(rng, num_nodes + 1, d, dtype))
    ctx = K.parameter(rng.normal(size=(d, 1)).astype(dtype))
    g = K.constant(rng.normal(size=size).astype(dtype))
    grads = []
    for rows, layout in ((tn, by_node), (K.parameter(tn.data[read]), compact)):
        s = K.attention_scores(te, rows, ctx, by_edge, layout, slope)
        te.zero_grad()
        ctx.zero_grad()
        grads.append(K.backward(K.reduce_sum(K.elementwise_mul(s, g)), [te, rows, ctx]))
    (dte, dtn, dctx), (want_te, want_tn, want_ctx) = grads
    assert dte.tobytes() == want_te.tobytes() and dctx.tobytes() == want_ctx.tobytes()
    assert dtn[read].tobytes() == want_tn.tobytes()
    unread = np.delete(dtn, read, axis=0)
    assert unread.size and not unread.any() and not np.signbit(unread).any()


def test_attention_scores_rejects_bad_operands():
    te, tn = K.constant(np.ones((2, 3))), K.constant(np.ones((4, 3)))
    ctx = K.constant(np.ones((3, 1)))
    by_edge, by_node = K.Segments([0, 1], 2), K.Segments([0, 3], 4)
    with pytest.raises(ShapeError):
        K.attention_scores(te, tn, K.constant(np.ones((2, 1))), by_edge, by_node)
    with pytest.raises(ShapeError):   # the layouts cover 2 and 1 pairs
        K.attention_scores(te, tn, ctx, by_edge, K.Segments([0], 4))
    with pytest.raises(ShapeError):   # edge id 2 of 2 groups is no layout
        K.attention_scores(te, tn, ctx, K.Segments([0, 2], 2), by_node)
    with pytest.raises(ShapeError):   # a negative node id is no layout
        K.Segments([-1, 3], 4)
    with pytest.raises(ShapeError):
        K.attention_scores(te, tn, ctx, K.Segments([0], 2), by_node)
    empty = K.attention_scores(te, tn, ctx, K.Segments([], 2), K.Segments([], 4))
    assert empty.data.shape == (0,)


def test_segment_kernels_check_their_layouts():
    x = K.constant(np.arange(8.0).reshape(4, 2))
    w = K.constant([1.0, 2.0, 3.0])
    rows, groups = K.Segments([0, 1, 3], 4), _segments([(0, 1), (2,)], 3)
    with pytest.raises(ShapeError):   # position 1 in no group of 2
        K.Segments([0, 2, 1], 2)
    bad = K.Segments([0, 1, 4], 5)   # 5 groups for 4 rows of x
    ctx = K.constant(np.ones((2, 1)))
    with pytest.raises(ShapeError):
        K.gather_rows(x, bad)
    with pytest.raises(ShapeError):
        K.weighted_row_sum(x, w, bad, groups)
    with pytest.raises(ShapeError):
        K.attention_scores(x, x, ctx, bad, rows)
    with pytest.raises(ShapeError):
        K.attention_scores(x, x, ctx, rows, bad)
    short_rows, short_groups = K.Segments([0, 1], 4), _segments([(0, 1)], 2)
    with pytest.raises(ShapeError):
        K.weighted_row_sum(x, w, short_rows, groups)
    with pytest.raises(ShapeError):
        K.weighted_row_sum(x, w, rows, short_groups)
    with pytest.raises(ShapeError):
        K.masked_softmax(w, short_groups)
    # the same layouts at full cover pass every check
    assert K.gather_rows(x, rows).data.shape == (3, 2)
    assert K.weighted_row_sum(x, w, rows, groups).data.shape == (2, 2)
    assert K.masked_softmax(w, groups).data.shape == (3,)
    assert K.attention_scores(x, x, ctx, rows, rows).data.shape == (3,)


def test_gather_sum_rejects_rows_out_of_range():
    seg = K.Segments([0, 0, 1], 2)
    x = np.arange(6.0).reshape(3, 2)
    for bad in ([0, 1, 3], [0, 1, 4], [0, 99, 1]):   # 3 is len(x)
        with pytest.raises(ShapeError, match="rows"):
            seg.gather_sum(x, rows=K.Segments(bad, max(bad) + 1))
    with pytest.raises(ShapeError, match="rows"):   # 4 groups for 3 rows
        seg.gather_sum(x, rows=K.Segments([0, 1, 2], 4))
    with pytest.raises(ShapeError):   # a negative row is no layout
        K.Segments([-1, 0, 1], 3)
    assert np.array_equal(seg.gather_sum(x, rows=K.Segments([2, 2, 0], 3)),
                          [[8.0, 10.0], [0.0, 1.0]])
    with pytest.raises(ShapeError, match="row per position"):
        seg.gather_sum(x[:2])   # rows default to the 3 positions


# ---------------------------------------------------------------- select

def test_select_picks_ascending_positions_and_rejects_others():
    x = K.constant(np.arange(6.0))
    assert K.select(x, [0, 2, 5]).data.tolist() == [0.0, 2.0, 5.0]
    assert K.select(x, np.zeros(0, np.intp)).data.shape == (0,)
    for bad in ([1, 1], [3, 2], [0, 6], [-1, 2], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(ShapeError, match="distinct and ascending"):
            K.select(x, np.asarray(bad))
    with pytest.raises(ShapeError, match="1-D"):
        K.select(K.constant(np.ones((3, 1))), [0])


def test_grad_check_through_select():
    rng = np.random.default_rng(5)
    x = K.parameter(rng.normal(size=9))
    c = K.constant(rng.normal(size=4))
    at = np.array([0, 3, 4, 8])

    def f():
        return K.reduce_sum(K.elementwise_mul(K.sigmoid(K.select(x, at)), c))

    report = grad_check(f, [x], epsilon=1e-6)
    assert report.passed, report.max_rel_error
    assert not report.analytic[0][np.setdiff1d(np.arange(9), at)].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_select_gradient_has_the_bits_of_the_layout_composition(dtype):
    rng = np.random.default_rng(8)
    at = np.array([1, 2, 6, 7, 10])
    # -0.0 weights reach the rule as -0.0 gradients, which come out +0.0
    c = np.array([-0.0, 2.5, -1.0, 0.0, -0.0], dtype=dtype)
    grads = []
    for pick in (lambda x: K.select(x, at),
                 lambda x: K.reshape(K.gather_rows(K.reshape(x, (-1, 1)),
                                                   K.Segments(at, 12)), (-1,))):
        x = K.parameter(rng.normal(size=12).astype(dtype))
        K.backward(K.reduce_sum(K.elementwise_mul(pick(x), K.constant(c))))
        grads.append(x.grad)
    assert grads[0].dtype == dtype
    assert grads[0].tobytes() == grads[1].tobytes()
    assert not np.signbit(grads[0][grads[0] == 0]).any()
