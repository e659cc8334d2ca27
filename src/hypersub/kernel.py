"""Dense tensors with taped reverse-mode gradients.

Every operation the model needs is a primitive here with a hand-derived
gradient rule. A forward pass links Tensors into a DAG through their parents;
``backward`` walks a topological tape of that DAG once, in reverse, and
accumulates gradients into the leaves that require them: parameters and any
tensor built outside an op. Each op's node is released as its rule fires, so
intermediate gradients and the forward arrays the rules hold die as the pass
proceeds, and a graph can be backpropagated only once.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GraphConsumed, NotScalar, ShapeError

_grad_enabled = True


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


class Tensor:
    """A dense float array plus the bookkeeping for reverse-mode gradients.

    Public construction validates finiteness; results of recorded operations
    skip that check (training code watches the loss instead). ``grad`` of a
    leaf is populated by ``backward`` and accumulates across calls until
    cleared; an op's result holds a gradient only while backward runs.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._grad_fn = None

    def zero_grad(self):
        self.grad = None


def _result(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    """Internal constructor for op outputs; records the graph edge if needed."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fn = None
    return out


def _accum(t: Tensor, g: np.ndarray, shared: bool = False):
    """Add a rule's contribution ``g`` into ``t.grad``. A first contribution
    is adopted as the gradient: a rule hands over arrays that nothing else
    holds (its incoming gradient is its own once the tape has taken it from
    the node), except one it also hands to another input, which it marks
    ``shared`` and which is copied."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = (np.array if shared else np.asarray)(g, dtype=t.data.dtype)
    else:
        t.grad += g


_CONSUMED = ("backward already ran through this graph; "
             "build it again to take another gradient")


# the rule a node holds once its own has fired and been dropped: a marker,
# never called, since ``Tape.run`` refuses a tape holding one
_released = object()


class Tape:
    """Topological record of every op reaching a root tensor.

    ``run`` seeds the root with gradient one and replays the record in
    reverse, so each op's gradient rule fires exactly once, after all of the
    gradients flowing into its output have accumulated. Once its rule has
    fired, a node is released: the tape lets go of it, and it drops its
    gradient, its rule (with the forward arrays the rule holds) and its
    links to its parents, and holds the ``_released`` marker as its rule.
    Leaves keep their gradients. Running the tape again, or any tape through
    a released node, raises GraphConsumed before any rule fires.
    """

    def __init__(self, root: Tensor):
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.root = root
        self.nodes = order  # inputs before the ops that consume them

    def run(self):
        nodes, self.nodes = self.nodes, []
        if not nodes or any(node._grad_fn is _released for node in nodes):
            raise GraphConsumed(_CONSUMED)
        self.root.grad = np.ones_like(self.root.data)
        while nodes:
            node = nodes.pop()
            rule = node._grad_fn
            if rule is not None:
                g, node.grad = node.grad, None
                node._grad_fn, node._parents = _released, ()
                rule(g)


def backward(loss: Tensor, params: Sequence[Tensor] | None = None):
    """Accumulate d(loss)/d(t) into t.grad for every leaf reaching loss, and
    release the graph (see ``Tape``).

    When ``params`` is given, any parameter the graph never touched gets an
    explicit zero gradient, and the gradients are returned in order.
    """
    if loss.data.size != 1:
        raise NotScalar(f"backward needs a scalar, got shape {loss.data.shape}")
    Tape(loss).run()
    if params is not None:
        grads = []
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            grads.append(p.grad)
        return grads
    return None


# ------------------------------------------------------------------ plumbing

def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


def _need_2d(name: str, t: Tensor):
    if t.data.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {t.data.shape}")


# ---------------------------------------------------------------- primitives

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus the row-broadcast ``bias`` (n,) when given, added in
    place into the product: a projection keeps no pre-bias array."""
    _need_2d("matmul lhs", a)
    _need_2d("matmul rhs", b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    y = a.data @ b.data
    if bias is None:
        parents = (a, b)
    else:
        _check_bias(y, bias)
        parents = (a, b, bias)
        # in place where the sum keeps the product's dtype, as for the model's
        # own tensors; else the sum is a new array, as add_bias makes
        y = np.add(y, bias.data,
                   out=y if np.result_type(y, bias.data) == y.dtype else None)

    def grad_fn(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)
        if bias is not None:
            _accum(bias, g.sum(axis=0))

    return _result(y, parents, grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes differ: {a.data.shape} vs {b.data.shape}")

    def grad_fn(g):
        _accum(a, g)
        _accum(b, g, shared=True)

    return _result(a.data + b.data, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shapes differ: {a.data.shape} vs {b.data.shape}")

    def grad_fn(g):
        _accum(a, g)
        _accum(b, -g)

    return _result(a.data - b.data, (a, b), grad_fn)


def scale(x: Tensor, alpha: float) -> Tensor:
    def grad_fn(g):
        _accum(x, alpha * g)

    return _result(alpha * x.data, (x,), grad_fn)


def _check_bias(x: np.ndarray, b: Tensor):
    if b.data.shape != (x.shape[1],):
        raise ShapeError(f"bias shape {b.data.shape} does not match columns of {x.shape}")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast add: (m, n) + (n,). The model adds its biases through
    ``matmul(x, w, bias)`` instead."""
    _need_2d("add_bias input", x)
    _check_bias(x.data, b)

    def grad_fn(g):
        _accum(x, g)
        _accum(b, g.sum(axis=0))

    return _result(x.data + b.data, (x, b), grad_fn)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"elementwise_mul shapes differ: {a.data.shape} vs {b.data.shape}")

    def grad_fn(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _result(a.data * b.data, (a, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    """max(x, 0). The rule reads its mask from the output, as ``y > 0``."""
    y = np.maximum(x.data, 0)

    def grad_fn(g):
        _accum(x, np.multiply(g, y > 0, out=g))

    return _result(y, (x,), grad_fn)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    # 1 where x > 0 and slope elsewhere, in x's dtype; exact arithmetic on
    # the mask is several times faster than np.where over two scalars
    positive = x.data > 0
    factor = (~positive).astype(x.data.dtype)
    factor *= x.data.dtype.type(slope)
    factor += positive

    def grad_fn(g):
        _accum(x, g * factor)

    return _result(x.data * factor, (x,), grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    y = np.empty_like(d)
    pos = d >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    y[~pos] = e / (1.0 + e)

    def grad_fn(g):
        _accum(x, g * y * (1.0 - y))

    return _result(y, (x,), grad_fn)


def log(x: Tensor) -> Tensor:
    """Natural log with the argument clamped below at 1e-12.

    The clamp keeps cross-entropy finite when a probability underflows; the
    gradient is zero where it is active, which the rule reads from x again.
    """
    floor = 1e-12

    def grad_fn(g):
        _accum(x, np.where(x.data >= floor, g / np.maximum(x.data, floor), 0.0))

    return _result(np.log(np.maximum(x.data, floor)), (x,), grad_fn)


def reduce_sum(x: Tensor) -> Tensor:
    def grad_fn(g):
        _accum(x, np.full_like(x.data, float(g)))

    return _result(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), grad_fn)


def reshape(x: Tensor, shape) -> Tensor:
    def grad_fn(g):
        _accum(x, g.reshape(x.data.shape))

    return _result(x.data.reshape(shape), (x,), grad_fn)


# Byte budget of one block of gathered rows: ``Segments.gather_sum`` and
# ``attention_scores`` walk their rows in blocks of about this size, which
# keeps each block in cache and holds no rows x d array at once.
BLOCK_BYTES = 256 * 1024


class SegmentPlan(NamedTuple):
    """A flat walk over a layout's nonempty groups, bucketed by size.

    ``groups`` lists the nonempty groups in walk order. Group
    ``groups[i]`` owns the slots of its bucket's width from its first slot
    on; ``padded`` holds the position of each slot, or ``size`` (past the
    last position) at a padding slot, and ``source`` the same with every
    padding slot at its group's first position. ``buckets`` holds
    ``(width, first group, end group, first slot)`` per bucket, in
    ascending width."""

    groups: np.ndarray
    padded: np.ndarray
    source: np.ndarray
    buckets: list[tuple[int, int, int, int]]


class Segments:
    """Disjoint groups over the positions 0..size-1 of a flat array, as CSR.

    ``ids[p]`` is the group of position p; every position is in one.
    ``order`` is the stable sort of the positions by group, or None where
    the positions already run in that order (the identity), so group k
    holds positions ``order[offsets[k]:offsets[k+1]]`` in ascending order.
    The counts and offsets are built with the layout; ``order`` (the
    in-order check and the sort) and ``plan`` are built on first use and
    kept, so a layout that no kernel walks group by group never sorts its
    positions. The segment kernels below read every index they use as the
    ``ids`` of a Segments argument: the softmax reduces over one with 1-D
    ``reduceat``, and every weighted row sum goes through ``gather_sum``.

    A layout's ids must not change once it is made: ``order`` and ``plan``
    are built from them once, and so are the walks it holds. Walked as the
    ``rows`` of another layout's ``gather_sum``, a layout keeps its ids in
    that layout's slot order, so the index work of each pair of layouts is
    done once and is freed with the layout whose ids it reads.
    """

    def __init__(self, ids, num_groups: int):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 1:
            raise ShapeError("segment ids must be 1-D")
        if ids.size and (ids.min() < 0 or ids.max() >= num_groups):
            raise ShapeError(f"segment ids must lie in [0, {num_groups})")
        if int(num_groups) * ids.size > np.iinfo(np.intp).max:   # sort keys
            raise ShapeError("too many positions and groups to lay out")
        counts = np.bincount(ids, minlength=num_groups)
        self.ids = ids
        self.counts = counts
        self.offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        self.nonempty = np.flatnonzero(counts)   # groups holding a position
        self.starts = self.offsets[self.nonempty]
        self._walks = {}   # id(walker's ids) -> (those ids, own ids in its slots)

    @cached_property
    def order(self) -> np.ndarray | None:
        ids = self.ids
        if np.all(ids[:-1] <= ids[1:]):
            return None
        # the keys are unique, so any sort of them is the stable sort of ids
        return np.argsort(ids * ids.size + np.arange(ids.size))

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def size(self) -> int:
        return self.ids.size

    def gather(self, a: np.ndarray) -> np.ndarray:
        """Rows of ``a`` at the positions, in segment order."""
        return a if self.order is None else a[self.order]

    def scatter(self, a: np.ndarray) -> np.ndarray:
        """Inverse of ``gather``: segment-order rows back to their positions."""
        if self.order is None:
            return a
        out = np.empty_like(a)
        out[self.order] = a
        return out

    @cached_property
    def plan(self) -> SegmentPlan:
        """The walk ``gather_sum`` takes over this layout, built on first use:
        the nonempty groups bucketed by their size rounded up to a power of
        two and laid out flat, bucket after bucket in ascending width."""
        exp = np.frexp(self.counts[self.nonempty] - 1)[1].astype(np.uint8)
        by = np.argsort(exp, kind="stable")   # a radix sort of small keys
        groups = self.nonempty[by]
        width = np.left_shift(1, exp[by], dtype=np.intp)   # next power of two
        first = np.cumsum(width) - width   # each group's first slot
        starts = self.offsets[groups]
        # the position at segment order j fills slot j + shift[its group]
        shift = np.zeros(len(self), dtype=np.intp)
        shift[groups] = first - starts
        seq = np.arange(self.size)
        slots = np.repeat(shift, self.counts)
        slots += seq
        pos = seq if self.order is None else self.order
        source = np.repeat(pos[starts], width)
        source[slots] = pos
        padded = np.full(source.size, self.size, dtype=np.intp)
        padded[slots] = pos
        lo = np.flatnonzero(np.diff(width, prepend=0))   # each bucket's first group
        hi = np.append(lo[1:], width.size)
        return SegmentPlan(groups, padded, source,
                           list(zip(width[lo].tolist(), lo.tolist(), hi.tolist(),
                                    first[lo].tolist())))

    def _walk(self, rows: Segments | None, n: int) -> np.ndarray:
        """The row of an n-row operand that each slot of the plan reads:
        ``rows.ids`` in slot order, or the positions themselves when
        ``rows`` is None. A layout's ids lie in [0, len(rows)), so one
        comparison with n checks them all. The walk is built once and held
        by ``rows``; its entry holds these ids, so its key names no other
        array."""
        if rows is None:
            if n < self.size:
                raise ShapeError(f"gather_sum needs a row per position, got {n} "
                                 f"rows for {self.size}")
            return self.plan.source
        _rows_of(rows, n, "gather_sum rows")
        _covers(rows, self.size, "gather_sum rows")
        held = rows._walks.get(id(self.ids))
        if held is None:
            held = rows._walks[id(self.ids)] = self.ids, rows.ids[self.plan.source]
        return held[1]

    def gather_sum(self, x: np.ndarray, weights: np.ndarray | None = None,
                   rows: Segments | None = None, length: int | None = None,
                   dot: np.ndarray | None = None, compact: bool = False):
        """Fused gather-scale-reduce: ``out[k] = sum over p in group k of
        weights[p] * x[rows.ids[p]]``, for a 2-D ``x`` and a layout ``rows``
        of the same positions by the row of ``x`` each reads. ``weights``
        default to one and ``rows`` to the positions themselves; empty
        groups give zeros, and ``length`` pads the result with rows of zeros
        past the last group. ``compact`` returns the rows of the nonempty
        groups alone, in the walk order of ``plan.groups``.

        Given ``dot``, a 2-D array with a row per group, it returns
        ``(out, dots)`` with ``dots[p] = x[rows.ids[p]] @ dot[k]`` for p in
        group k: the same gathered rows serve both, so a gradient that needs
        the reduction and the per-position products (SpMM and SDDMM) walks
        the layout once.

        The walk follows ``plan``: the weights are gathered into the plan's
        slot order once a call, the rows once a partner (``_walk``), and
        each bucket of width L is reduced by
        batched products of its (groups, 1, L) weights with its (groups, L, d)
        rows of ``x`` (for L = 1, an elementwise product with the same
        bits), taken with ``np.take`` in slices of about
        ``BLOCK_BYTES`` into one buffer reused across the call, and dotted in
        the same slices with the groups' (groups, d, 1) rows of ``dot``. The
        results, in walk order, are scattered to their groups once. A padding
        slot has zero weight and reads its group's first row, so a
        non-finite row of ``x`` reaches only the groups that hold it.
        ``take`` runs in ``mode="clip"``, which skips its own bounds check,
        so ``_walk`` checks the rows up front: a ``rows`` with more groups
        than ``x`` has rows, or over another number of positions, raises
        ShapeError, as does an ``x`` with fewer rows than positions when
        ``rows`` is not given.
        """
        length = len(self) if length is None else length
        n, d = x.shape
        dtype = x.dtype if weights is None else np.result_type(weights, x)
        x = x.astype(dtype, copy=False)
        plan = self.plan
        r = self._walk(rows, n)
        w = np.zeros(self.size + 1, dtype=dtype)   # the last: padding
        w[:-1] = 1 if weights is None else weights
        w = w[plan.padded]
        sums = np.empty((plan.groups.size, 1, d), dtype=dtype)   # in walk order
        if dot is not None:
            dot = np.asarray(dot, dtype=np.result_type(dtype, dot))
            dots = np.empty(self.size + 1, dtype=dot.dtype)   # last: padding
        # each slice of a bucket holds `step` groups; one buffer fits the largest
        steps = [max(1, BLOCK_BYTES // max(1, span * d * dtype.itemsize))
                 for span, _, _, _ in plan.buckets]
        largest = max((min(step, hi - lo) * span for step, (span, lo, hi, _)
                       in zip(steps, plan.buckets)), default=0)
        buffer = np.empty(largest * d, dtype=dtype)
        for step, (span, lo, hi, at) in zip(steps, plan.buckets):
            for k in range(lo, hi, step):
                m = min(step, hi - k)
                p = slice(at + (k - lo) * span, at + (k - lo + m) * span)
                block = buffer[:m * span * d].reshape(m, span, d)
                np.take(x, r[p], axis=0, out=block.reshape(-1, d), mode="clip")
                if span == 1:
                    # a matmul of inner width 1 costs about 1 us per group;
                    # adding +0.0 gives its bits: its sum starts at +0.0, so
                    # a -0.0 product comes out as +0.0
                    np.multiply(w[p].reshape(m, 1, 1), block, out=sums[k:k + m])
                    sums[k:k + m] += 0
                else:
                    np.matmul(w[p].reshape(m, 1, span), block, out=sums[k:k + m])
                if dot is not None:
                    dots[plan.padded[p]] = np.matmul(
                        block, dot[plan.groups[k:k + m], :, None]).reshape(-1)
        if compact:
            out = sums[:, 0]
        else:
            out = np.zeros((length, d), dtype=dtype)
            out[plan.groups] = sums[:, 0]
        return out if dot is None else (out, dots[:-1])


def _rows_of(layout: Segments, n: int, name: str) -> np.ndarray:
    """The row of an n-row operand that each position of a row layout
    reads: its ids. Every id is a row when there are no more groups than n."""
    if len(layout) > n:
        raise ShapeError(f"{name} has {len(layout)} groups for {n} rows")
    return layout.ids


def _covers(layout: Segments, size: int, name: str):
    if layout.size != size:
        raise ShapeError(f"{name} covers {layout.size} positions, not {size}")


def gather_rows(x: Tensor, by_row: Segments) -> Tensor:
    """Rows ``by_row.ids`` of a 2-D tensor, one per position. The gradient
    sums back over ``by_row``, the grouping of the positions by row."""
    _need_2d("gather_rows input", x)
    rows = _rows_of(by_row, x.data.shape[0], "gather_rows layout")

    def grad_fn(g):
        _accum(x, by_row.gather_sum(g, length=x.data.shape[0]))

    return _result(x.data[rows], (x,), grad_fn)


def select(x: Tensor, positions) -> Tensor:
    """The entries of a 1-D tensor at ``positions``, which must be distinct
    and ascending in [0, len(x)); anything else raises ShapeError. The rule
    writes g at the positions into zeros, with each -0.0 of g as +0.0, the
    bits a sum over one position starting at +0.0 gives, as ``gather_rows``
    over a layout of the positions does."""
    if x.data.ndim != 1:
        raise ShapeError(f"select needs a 1-D tensor, got shape {x.data.shape}")
    at = np.asarray(positions)
    if at.ndim != 1 or at.dtype.kind not in "iu" or at.size and (
            at[0] < 0 or at[-1] >= x.data.size or np.any(at[1:] <= at[:-1])):
        raise ShapeError(f"select positions must be distinct and ascending "
                         f"in [0, {x.data.size})")

    def grad_fn(g):
        g += 0   # -0.0 + 0 is +0.0
        dx = np.zeros(x.data.shape, dtype=g.dtype)
        dx[at] = g
        _accum(x, dx)

    return _result(x.data[at], (x,), grad_fn)


# Blocks hold whole multiples of this many rows, padded at the end, so BLAS
# scores every pair with the same full-width kernel wherever it sits.
_SCORE_ROW_ALIGN = 64


def attention_scores(te: Tensor, tn: Tensor, context: Tensor,
                     by_edge: Segments, by_node: Segments,
                     slope: float = 0.01) -> Tensor:
    """One score per incident pair p = (e, n):
    ``leaky(te[e] * tn[n]) @ context``, a 1-D tensor. ``by_edge`` groups
    the pairs by their row e of ``te``, ``by_node`` by their row n of ``tn``.

    The pairs are scored block by block through fixed work buffers, so no
    pairs x d array is ever held. The gradient keeps none either: per
    coordinate, leaky(u v) = max(u, 0) L+(v) + min(u, 0) L-(v) with
    L+(v) = v if v > 0 else slope v and L-(v) = v if v < 0 else slope v, so
    the sums over an edge's pairs are one ``gather_sum`` of the node table
    [L+(tn), L-(tn)] over ``by_edge`` (and symmetrically over ``by_node``).
    At an exact zero the rule takes the mean of the one-sided derivatives.
    """
    _need_2d("attention_scores edge input", te)
    _need_2d("attention_scores node input", tn)
    _need_2d("attention_scores context", context)
    d = te.data.shape[1]
    if tn.data.shape[1] != d or context.data.shape != (d, 1):
        raise ShapeError(f"attention_scores widths differ: {te.data.shape}, "
                         f"{tn.data.shape}, context {context.data.shape}")
    e = _rows_of(by_edge, te.data.shape[0], "attention_scores edge layout")
    n = _rows_of(by_node, tn.data.shape[0], "attention_scores node layout")
    _covers(by_node, by_edge.size, "attention_scores node layout")
    dtype = np.result_type(te.data, tn.data, context.data)
    ted, tnd, ctx = (t.data.astype(dtype, copy=False) for t in (te, tn, context))
    s = dtype.type(slope)
    # leaky(x) = L+(x) = x * (1 if x > 0 else slope) is the larger of x and
    # slope * x when slope <= 1 and the smaller above 1; L-(x) is the other
    pick, other = (np.maximum, np.minimum) if slope <= 1 else (np.minimum, np.maximum)

    total = e.size
    rows = max(_SCORE_ROW_ALIGN, BLOCK_BYTES // max(1, d * dtype.itemsize)
               // _SCORE_ROW_ALIGN * _SCORE_ROW_ALIGN)
    a = np.zeros((min(rows, total + -total % _SCORE_ROW_ALIGN), d), dtype=dtype)
    b = np.empty_like(a)
    out = np.empty(total, dtype=dtype)
    for lo in range(0, total, rows):
        k = min(rows, total - lo)
        padded = k + -k % _SCORE_ROW_ALIGN
        # the layouts are checked above; "clip" skips take's buffered check
        np.take(ted, e[lo:lo + k], axis=0, out=a[:k], mode="clip")
        np.take(tnd, n[lo:lo + k], axis=0, out=b[:k], mode="clip")
        np.multiply(a[:k], b[:k], out=a[:k])
        np.multiply(a[:k], s, out=b[:k])
        pick(a[:k], b[:k], out=a[:k])
        # each row's score reads that row alone, so the padding rows' stale
        # values only reach scores that are dropped
        out[lo:lo + k] = (a[:padded] @ ctx)[:k, 0]

    def grad_fn(g):
        def split(x):   # [L+(x), L-(x)] side by side
            table = np.empty((x.shape[0], 2 * d), dtype=dtype)
            np.multiply(x, s, out=table[:, d:])
            pick(x, table[:, d:], out=table[:, :d])
            other(x, table[:, d:], out=table[:, d:])
            return table

        # rows of tn that no pair reads take no part: their table rows are
        # never built, and their gradient is +0.0; the read rows run in the
        # walk order of by_node, the order of its compact sums
        read = by_node.plan.groups
        x = tnd[read]
        if te.requires_grad or context.requires_grad:
            rank = np.zeros(tnd.shape[0], dtype=np.intp)
            rank[read] = np.arange(read.size)
            at_edge = by_edge.gather_sum(split(x), g, Segments(rank[n], read.size),
                                         ted.shape[0])
            if context.requires_grad:   # read before _dstate picks into at_edge
                dc = np.maximum(ted, 0) * at_edge[:, :d] \
                    + np.minimum(ted, 0) * at_edge[:, d:]
                _accum(context, dc.sum(axis=0)[:, None])
            if te.requires_grad:
                _accum(te, _dstate(ted, at_edge, ctx))
        if tn.requires_grad:
            # the read rows' gradient first: its temporaries go before the zeros come
            at_node = by_node.gather_sum(split(ted), g, by_edge, compact=True)
            dread = _dstate(x, at_node, ctx)
            dtn = np.zeros_like(tnd)
            dtn[read] = dread
            _accum(tn, dtn)

    return _result(out, (te, tn, context), grad_fn)


def _dstate(x: np.ndarray, sums: np.ndarray, context: np.ndarray) -> np.ndarray:
    """The gradient of the states ``x`` from their [L+, L-] sums: the L+
    half where a state is positive, the L- half where it is negative and
    the mean of both at an exact zero, scaled by the context column.

    The side is picked in place, into the L+ half of ``sums``, and the
    gradient is returned as a view of it, so no other array of that size
    is made. The pick works on the bits: with p, q the two halves as
    integers, (p ^ q) * [x > 0] ^ q is p where the mask is set and q
    elsewhere, which a masked copy gives too, more slowly. The mean is
    taken at the zeros alone, before the pick."""
    d = x.shape[1]
    pos, neg = sums[:, :d], sums[:, d:]
    zero = x == 0
    mean = None
    if zero.any():
        half = sums.dtype.type(0.5)
        mean = half * pos[zero] + half * neg[zero]
    bits = f"i{sums.itemsize}"
    p, q = pos.view(bits), neg.view(bits)
    p ^= q
    np.multiply(p, x > 0, out=p)
    p ^= q
    if mean is not None:
        pos[zero] = mean
    pos *= context[:, 0]
    return pos


def masked_softmax(scores: Tensor, seg: Segments) -> Tensor:
    """Softmax normalized independently within each group of ``seg`` over a
    1-D tensor. An empty group has nothing to normalize. The per-group
    maximum is subtracted before exponentiation, so uniform score shifts
    within a group change nothing. The rule reads its probabilities from its output.
    """
    x = scores.data
    if x.ndim != 1:
        raise ShapeError(f"masked_softmax needs a 1-D tensor, got shape {x.shape}")
    _covers(seg, x.size, "masked_softmax layout")
    sizes = seg.counts[seg.nonempty]   # of the groups the reductions run over
    xs = seg.gather(x)
    e = np.exp(xs - np.repeat(np.maximum.reduceat(xs, seg.starts), sizes))
    y = seg.scatter(e / np.repeat(np.add.reduceat(e, seg.starts), sizes))

    def grad_fn(g):
        # per group: dx = y * (g - sum(g * y))
        ys, gs = seg.gather(y), seg.gather(g)
        dot = np.add.reduceat(gs * ys, seg.starts)
        _accum(scores, seg.scatter(ys * (gs - np.repeat(dot, sizes))))

    return _result(y, (scores,), grad_fn)


def softmax_rows(x: Tensor) -> Tensor:
    _need_2d("softmax_rows input", x)
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=1, keepdims=True)

    def grad_fn(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(x, y * (g - dot))

    return _result(y, (x,), grad_fn)


def weighted_row_sum(x: Tensor, weights: Tensor, by_row: Segments,
                     seg: Segments, *, rectify: bool = False, rate: float = 0.0,
                     rng: np.random.Generator | None = None) -> Tensor:
    """Per-group weighted sums of rows of x.

    Position p contributes weights[p] * x[by_row.ids[p]] to the row of its
    group in ``seg``. Output has one row per group; groups may be empty and
    produce rows of zeros. ``by_row`` groups the positions by row of x.

    ``rectify`` and a dropout ``rate`` (with its ``rng``) finish the sums
    in place, with the bits of ``dropout(relu(sums), rate, rng)`` forward
    and backward and the same draws from ``rng``; a ``rate`` needs
    ``rectify``. The rule reads both masks as ``out > 0``, since
    q = 1/(1 - rate) >= 1 keeps a kept positive sum positive.

    The gradient is one ``gather_sum`` over ``by_row``: each of its groups is
    one row r of x, and the rows of the output gradient G gathered at its
    positions give both ``dx[r] = w @ G`` and ``dw = G @ x[r]``, so neither
    direction holds a pairs x d array.
    """
    _need_2d("weighted_row_sum input", x)
    w = weights.data
    if w.ndim != 1:
        raise ShapeError("weighted_row_sum weights must be 1-D")
    _covers(seg, w.size, "weighted_row_sum layout")
    _check_rate(rate)
    if rate and not rectify:
        raise ValueError("weighted_row_sum applies dropout to rectified sums only")
    out = seg.gather_sum(x.data, w, by_row)
    if rectify:
        np.maximum(out, 0, out=out)
    if rate:
        out *= keep_mask(out.shape, rate, rng)
        q = _keep_scale(out.dtype, rate)
        out *= q

    def grad_fn(g):
        # dropout's rule, then the rectifier's: ((g * keep) * q) * (sums > 0),
        # which has the bits of (g * (out > 0)) * q wherever g * q is finite
        if rectify:
            np.multiply(g, out > 0, out=g)
        if rate:
            g *= q
        if weights.requires_grad:
            dx, dw = by_row.gather_sum(g, w, seg, x.data.shape[0], dot=x.data)
            _accum(weights, dw)
        else:
            dx = by_row.gather_sum(g, w, seg, x.data.shape[0])
        _accum(x, dx)

    return _result(out, (x, weights), grad_fn)


def spmm(m, x: Tensor) -> Tensor:
    """Constant linear operator times dense tensor: m @ x.

    ``m`` is a symmetric operator with rows/cols/dot_dense, as
    hypergraph.theta's Laplacian is. It is constant; only x receives
    gradient, dx = m.T @ g, which by that symmetry is ``m.dot_dense(g)``.
    ``dot_dense`` may take its argument over: a copy of x, or the rule's g.
    """
    _need_2d("spmm input", x)
    if m.cols != x.data.shape[0]:
        raise ShapeError(f"spmm dims differ: {m.rows}x{m.cols} @ {x.data.shape}")

    def product(a):
        return m.dot_dense(a).astype(x.data.dtype, copy=False)

    def grad_fn(g):
        _accum(x, product(g))

    return _result(product(np.copy(x.data)), (x,), grad_fn)


def _centred(a: np.ndarray) -> np.ndarray:
    """a less its column means, taken in float64 and cast to a's dtype."""
    return a - a.mean(axis=0, dtype=np.float64).astype(a.dtype)


def centred_dot(x: Tensor, y: Tensor) -> Tensor:
    """<x - 1x̄ᵀ, y>, with x̄ the column means of x: the sum over every entry
    of the column-centred x times y, in numpy's pairwise summation. The
    gradients are y - 1ȳᵀ for x and x - 1x̄ᵀ for y, recomputed by the rule,
    so the tape holds no centred array."""
    if x.data.shape != y.data.shape:
        raise ShapeError(f"centred_dot shapes differ: {x.data.shape} vs {y.data.shape}")
    _need_2d("centred_dot input", x)
    product = _centred(x.data)
    product *= y.data

    def grad_fn(g):
        for a, b in ((x, y), (y, x)):
            if a.requires_grad:
                d = _centred(b.data)
                d *= g
                _accum(a, d)

    return _result(np.asarray(np.sum(product), dtype=x.data.dtype), (x, y), grad_fn)


def _check_rate(rate: float):
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")


def _keep_scale(dtype: np.dtype, rate: float):
    """1/(1-rate) in ``dtype``: ``(a * keep) * q`` has the bits of
    ``a * (keep / (1 - rate))`` with a boolean mask held instead of a float
    one."""
    scalar = dtype.type
    return scalar(1) / scalar(1.0 - rate)


def keep_mask(shape, rate: float, rng: np.random.Generator | None) -> np.ndarray:
    """The boolean keep mask of inverted dropout, ``rng.random(shape) >=
    rate``. It is drawn through one float buffer of about ``BLOCK_BYTES``
    reused block by block, which consumes ``rng`` exactly as the one call
    would but holds no float array of the whole shape."""
    if rng is None:
        raise ValueError("dropout needs an rng")
    keep = np.empty(shape, dtype=bool)
    flat = keep.reshape(-1)
    step = max(1, BLOCK_BYTES // 8)
    buf = np.empty(min(step, flat.size))
    for lo in range(0, flat.size, step):
        block = buf[:min(step, flat.size - lo)]
        rng.random(out=block)
        np.greater_equal(block, rate, out=flat[lo:lo + block.size])
    return keep


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate``, scale the
    survivors by 1/(1-rate) so expectations match evaluation mode. The
    gradient rule keeps the boolean keep mask."""
    _check_rate(rate)
    if rate == 0.0:
        return x
    keep = keep_mask(x.data.shape, rate, rng)
    q = _keep_scale(x.data.dtype, rate)

    def masked(a):
        out = a * keep
        out *= q
        return out

    def grad_fn(g):
        _accum(x, masked(g))

    return _result(masked(x.data), (x,), grad_fn)
