"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap numpy arrays. While a Tape is active (``with Tape() as t:``),
every primitive op appends a node holding its parents and a vector-Jacobian
closure; because nodes are appended in creation order, the tape list is
already topologically sorted and ``backward`` is a single reverse sweep.
The sweep empties each node once its closure has run, so an array saved
for backward lives only until backward has read it, and a tape is spent
after one sweep. A closure keeps what is costly to redo; what is large and
cheap, such as ``conv1d``'s im2col columns and ``attention_heads``'
[m x n] probabilities, it rebuilds. An op computes the same arrays
whether or not a tape records it; the tape adds only the closures. With no
active tape, ops run as plain numpy (fast inference path).

Float width is float32 by default; gradient checks switch to float64 via
``using_dtype``. Ops do not check their outputs for NaN or Inf: a
non-finite gradient is caught where it would do harm, when
``ParamStore.apply_gradients`` skips and counts the step.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, ShapeError

_tls = threading.local()

_DEFAULT_DTYPE = np.float32

_uid_counter = itertools.count()


def default_dtype():
    return _DEFAULT_DTYPE


class using_dtype:
    """Context manager that temporarily switches the default float width."""

    def __init__(self, dtype):
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"unsupported dtype {dtype!r}")
        self.dtype = dtype
        self._saved = None

    def __enter__(self):
        global _DEFAULT_DTYPE
        self._saved = _DEFAULT_DTYPE
        _DEFAULT_DTYPE = self.dtype
        return self

    def __exit__(self, *exc):
        global _DEFAULT_DTYPE
        _DEFAULT_DTYPE = self._saved
        return False


def active_tape() -> Optional["Tape"]:
    return getattr(_tls, "tape", None)


class suspend_tape:
    """Run a forward pass without recording, inside an active tape."""

    def __enter__(self):
        self._saved = active_tape()
        _tls.tape = None
        return self

    def __exit__(self, *exc):
        _tls.tape = self._saved
        return False


class fixed_weights:
    """A block in which no weight changes, such as one lockstep run of acting.

    Inside it, ``gru_sequence`` makes the contiguous transpose of each
    recurrent weight once, at its first use, and reuses it until the block
    ends, when every copy is dropped. While a copy is alive its weight's
    array is read-only, so an in-place write raises instead of leaving the
    copy stale.
    """

    def __enter__(self):
        self._saved = getattr(_tls, "fixed_weights", None)
        self._copies: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._locked: list[np.ndarray] = []
        _tls.fixed_weights = self
        return self

    def __exit__(self, *exc):
        _tls.fixed_weights = self._saved
        for source in self._locked:
            source.flags.writeable = True
        self._copies, self._locked = {}, []
        return False

    def transposed(self, weight: "Tensor") -> np.ndarray:
        """The contiguous ``weight.data.T``, made on the block's first call."""
        held = self._copies.get(weight.uid)
        if held is None or held[0] is not weight.data:
            source = weight.data
            if source.flags.writeable:
                source.flags.writeable = False
                self._locked.append(source)
            held = self._copies[weight.uid] = (source, np.ascontiguousarray(source.T))
        return held[1]


class Tensor:
    """A dense real array, optionally tracked for gradients.

    ``data`` is row-major; ``requires_grad`` marks trainable leaves. ``grad``
    is populated on leaves by ``Tape.backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "uid")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.uid = next(_uid_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "parents", "vjp")

    def __init__(self, out: Tensor, parents: Sequence[Tensor], vjp: Callable):
        self.out = out
        self.parents = parents
        self.vjp = vjp


class Tape:
    """Recording of primitive ops, in creation (= topological) order.

    Single-owner and single-use per training step: enter, run the forward
    pass, call ``backward`` once on a scalar loss, exit. The sweep releases
    as it goes: once a node's vjp has run, the node drops its closure, its
    output and its parents, so each saved array lives only until backward
    has read it. ``nodes`` keeps one emptied entry per recorded op. Leaf
    gradients land on ``Tensor.grad``; a second ``backward`` raises
    ``ContractError``.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.spent = False

    def __enter__(self):
        if active_tape() is not None:
            raise ContractError("a tape is already active on this thread")
        _tls.tape = self
        return self

    def __exit__(self, *exc):
        _tls.tape = None
        return False

    def record(self, out: Tensor, parents: Sequence[Tensor], vjp: Callable) -> None:
        self.nodes.append(_Node(out, parents, vjp))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from loss."""
        if loss.data.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
        if self.spent:
            raise ContractError("this tape has run backward already and released "
                                "its ops; record the forward pass on a new tape")
        self.spent = True
        # uid -> [tensor, gradient buffer]; an entry is popped when the node
        # that produced its tensor runs, so what is left belongs to leaves
        grads = {loss.uid: [loss, np.ones_like(loss.data)]}
        for node in reversed(self.nodes):
            entry = grads.pop(node.out.uid, None)
            if entry is not None:
                g = entry[1]
                for parent, pg in zip(node.parents, node.vjp(g)):
                    if pg is None or not parent.requires_grad:
                        continue
                    # numpy returns immutable scalars for 0-d math; buffers
                    # must be real arrays or in-place accumulation silently
                    # drops. A vjp mixing in a wider constant promotes its
                    # gradient: cast back, so the sweep runs in each
                    # parent's own dtype
                    pg_arr = np.asarray(pg).astype(parent.data.dtype, copy=False)
                    acc = grads.get(parent.uid)
                    if acc is None:
                        # copy views and pass-through aliases of g before
                        # they become an accumulation buffer mutated in place
                        if pg_arr is g or not pg_arr.flags.owndata:
                            pg_arr = pg_arr.copy()
                        grads[parent.uid] = [parent, pg_arr]
                    else:
                        acc[1] += pg_arr
            node.out = node.parents = node.vjp = None
        for leaf, g in grads.values():
            if leaf.requires_grad:
                leaf.grad = g if leaf.grad is None else leaf.grad + g


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=_DEFAULT_DTYPE))


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether ``_finish`` will put an op over these parents on the tape."""
    return active_tape() is not None and any(p.requires_grad for p in parents)


def _finish(out_data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    out = Tensor(out_data)
    if _records(parents):
        out.requires_grad = True
        active_tape().record(out, parents, vjp)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _finish(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _finish(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _finish(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        if a.ndim == 2 and b.ndim == 2:
            return g @ b.data.T, a.data.T @ g
        if a.ndim == 1 and b.ndim == 2:
            return g @ b.data.T, np.outer(a.data, g)
        if a.ndim == 2 and b.ndim == 1:
            return np.outer(g, b.data), a.data.T @ g
        # 1-D dot 1-D -> scalar
        return g * b.data, g * a.data

    return _finish(out, (a, b), vjp)


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _finish(out, (a,), vjp)


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _finish(out, (a,), vjp)


def relu(a) -> Tensor:
    a = _wrap(a)
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0),)

    return _finish(out, (a,), vjp)


def square(a) -> Tensor:
    a = _wrap(a)
    out = a.data * a.data

    def vjp(g):
        return (2.0 * g * a.data,)

    return _finish(out, (a,), vjp)


# ---------------------------------------------------------------------------
# reductions and shape ops

def reduce_sum(a) -> Tensor:
    """The sum of every entry, a scalar."""
    a = _wrap(a)
    out = a.data.sum()

    def vjp(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _finish(out, (a,), vjp)


def reduce_max(a, axis: int) -> Tensor:
    """Max along one axis; the gradient routes to the (first) argmax."""
    a = _wrap(a)
    idx = np.argmax(a.data, axis=axis)
    out = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, np.expand_dims(idx, axis),
                          np.expand_dims(g, axis), axis=axis)
        return (ga,)

    return _finish(out, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _finish(out, (a,), vjp)


def transpose(a) -> Tensor:
    a = _wrap(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    out = a.data.T.copy()

    def vjp(g):
        return (g.T.copy(),)

    return _finish(out, (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_wrap(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, bounds, axis=axis))

    return _finish(out, tuple(parts), vjp)


def narrow(a, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop) along one axis."""
    a = _wrap(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = a.data[index].copy()

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return (ga,)

    return _finish(out, (a,), vjp)


def pick(a, index) -> Tensor:
    """Single element as a scalar tensor, for an int or a tuple of ints; a
    tuple of index arrays picks one distinct element per entry, as a vector."""
    a = _wrap(a)
    out = np.asarray(a.data[index])

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return (ga,)

    return _finish(out, (a,), vjp)


def embedding(table, ids) -> Tensor:
    """Row lookup: table [V x d], ids int array of any shape -> [*ids.shape, d]."""
    table = _wrap(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}")
    out = table.data[ids]

    def vjp(g):
        # each distinct id's row is the sum of its gradient rows: sort the
        # ids, then add up each run of equal ids with one reduceat
        gt = np.zeros_like(table.data)
        flat = ids.reshape(-1)
        if flat.size:
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
            starts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
            rows = g.reshape(order.size, *table.data.shape[1:])[order]
            gt[flat[starts]] = np.add.reduceat(rows, starts, axis=0)
        return (gt,)

    return _finish(out, (table,), vjp)


# ---------------------------------------------------------------------------
# softmax family

def _masked_logits(x: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    if mask is None:
        return x
    neg = np.asarray(-1e30, dtype=x.dtype)
    return np.where(mask, x, neg)


def _stable_softmax(x: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Softmax of ``x`` along ``axis`` in one buffer, ``out`` (``x`` itself
    for in place): shift, exponentiate and normalise."""
    np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax(a, axis: int = -1, mask: Optional[np.ndarray] = None) -> Tensor:
    """Stable softmax along ``axis``; False entries of ``mask`` get weight 0."""
    a = _wrap(a)
    z = _masked_logits(a.data, mask)
    out = _stable_softmax(z, axis, np.empty_like(z))

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _finish(out, (a,), vjp)


def attention_heads(q, k, v, n_heads: int) -> Tensor:
    """Scaled dot-product attention of every head, as one op.

    q [m x d] holds the (already scaled) queries and k, v [n x d] the keys
    and values; head h owns columns h*d_head:(h+1)*d_head of each, and its
    output softmax(q_h k_h^T) v_h fills the same columns of the [m x d]
    result. The heads are [h x rows x d_head] views of the operands, so no
    head is copied out. The heads run one after another through one reused
    [m x n] score buffer, so a read holds one head's scores at a time,
    whether or not a tape records it. The vjp keeps only q, k and v: it
    recomputes every head's probabilities in one batched product and
    softmax, the same arithmetic as the forward's, and the backward is
    batched matmuls over the heads.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if q.ndim != 2 or k.ndim != 2 or k.data.shape != v.data.shape:
        raise ShapeError(f"attention_heads expects [m x d] queries and equal "
                         f"[n x d] keys and values, got {q.shape}, {k.shape}, {v.shape}")
    (m, d), n = q.data.shape, k.data.shape[0]
    if k.data.shape[1] != d or d % n_heads:
        raise ShapeError(f"attention_heads: width {d} of {q.shape} queries and "
                         f"{k.shape} keys does not split into {n_heads} heads")
    d_head = d // n_heads

    def heads(a):
        return a.reshape(a.shape[0], n_heads, d_head).transpose(1, 0, 2)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    out = np.empty((m, d), dtype=q.data.dtype)
    out_h = heads(out)
    scores = np.empty((m, n), dtype=q.data.dtype)
    for h in range(n_heads):
        np.matmul(qh[h], kh[h].T, out=scores)
        np.matmul(_stable_softmax(scores, -1, scores), vh[h], out=out_h[h])

    def vjp(g):
        probs = np.matmul(qh, kh.transpose(0, 2, 1))   # [h x m x n]
        _stable_softmax(probs, -1, probs)
        gh = heads(np.asarray(g, dtype=out.dtype))
        ds = np.matmul(gh, vh.transpose(0, 2, 1))     # d probs, then d scores
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        dq, dk, dv = (np.empty((rows, d), dtype=out.dtype) for rows in (m, n, n))
        np.matmul(ds, kh, out=heads(dq))
        np.matmul(ds.transpose(0, 2, 1), qh, out=heads(dk))
        np.matmul(probs.transpose(0, 2, 1), gh, out=heads(dv))
        return dq, dk, dv

    return _finish(out, (q, k, v), vjp)


def log_softmax(a, axis: int = -1, mask: Optional[np.ndarray] = None) -> Tensor:
    a = _wrap(a)
    z = _masked_logits(a.data, mask)
    z = z - z.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse

    def vjp(g):
        p = np.exp(out)
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _finish(out, (a,), vjp)


# ---------------------------------------------------------------------------
# sequence convolution

def conv1d(x, filters) -> Tensor:
    """1-D convolution over the sequence axis with zero same-padding.

    x: [length x d_in], filters: [k x d_in x d_out] with k odd. Output
    [length x d_out]. Implemented by an im2col matmul so both gradients fall
    out of matrix calculus plus a pad-window scatter. The columns are k
    times the input's size, so the vjp rebuilds them from ``x`` rather than
    a tape holding them from the forward pass.
    """
    x, filters = _wrap(x), _wrap(filters)
    if filters.ndim != 3:
        raise ShapeError(f"filters must be [k x d_in x d_out], got {filters.shape}")
    k, d_in, d_out = filters.data.shape
    if k % 2 == 0:
        raise ShapeError(f"kernel size must be odd, got {k}")
    if x.ndim != 2 or x.data.shape[1] != d_in:
        raise ShapeError(f"input {x.shape} does not match filters {filters.shape}")
    length = x.data.shape[0]
    half = k // 2

    def columns():
        # [length x (k*d_in)]: row i holds padded rows i..i+k-1
        padded = np.zeros((length + 2 * half, d_in), dtype=x.data.dtype)
        padded[half:half + length] = x.data
        return np.concatenate([padded[off:off + length] for off in range(k)], axis=1)

    w2d = filters.data.reshape(k * d_in, d_out)
    out = columns() @ w2d

    def vjp(g):
        gw = (columns().T @ g).reshape(k, d_in, d_out)
        gcols = g @ w2d.T  # [length x k*d_in]
        gpad = np.zeros((length + 2 * half, d_in), dtype=x.data.dtype)
        gply = gcols.reshape(length, k, d_in)
        for off in range(k):
            gpad[off:off + length] += gply[:, off, :]
        return gpad[half:half + length], gw

    return _finish(out, (x, filters), vjp)


# ---------------------------------------------------------------------------
# recurrent sequence

# OpenBLAS (0.3.31, SkylakeX kernels) multiplies ``a @ b``, a [n x k] and b
# [k x w], without copying b into its packing buffer when n*w*k <= 1e6 and,
# for a transposed b, n*w <= 1200; each bound is exact to one column.
_SMALL_NWK = 1_000_000
_SMALL_NW = 1_200
# steps of this many rows multiply by panels; one row is bandwidth-bound,
# and above the range one packed product wins again
_PANEL_ROWS = range(2, 13)


def _matmul_rows(a: np.ndarray, b: Optional[np.ndarray],
                 b_t: Optional[np.ndarray]) -> np.ndarray:
    """``a @ b`` for one GRU step; ``b_t`` is ``b.T``, C-contiguous.

    A step with its row count in ``_PANEL_ROWS`` multiplies by column
    panels of ``b``, each a transposed view of a row block of ``b_t`` sized
    for the small-matrix kernel, and needs only ``b_t``; any other step is
    one product with ``b`` and needs only ``b``.
    """
    n, k = a.shape
    if n not in _PANEL_ROWS:
        return a @ b
    width = max(1, min(_SMALL_NWK // (n * k), _SMALL_NW // n))
    out = np.empty((n, b_t.shape[0]), dtype=a.dtype)
    for j in range(0, b_t.shape[0], width):
        np.matmul(a, b_t[j:j + width].T, out=out[:, j:j + width])
    return out


def _pack_schedule(lengths, n_rows: int):
    """Step bookkeeping for ``gru_sequence`` over packed sequences.

    Returns ``order`` (the sequences longest first, stable), the time-major
    row bounds of every step (the sequences still running at step t are a
    prefix of ``order``, so step t owns rows ``bounds[t]:bounds[t+1]``) and
    ``gather``, the packed row behind each time-major row, or None when the
    two orders coincide (at most one non-empty sequence).
    """
    lens = np.asarray(lengths)
    if lens.ndim != 1 or (lens.size and not np.issubdtype(lens.dtype, np.integer)):
        raise ShapeError(f"gru_sequence lengths must be a 1-D integer sequence, "
                         f"got {lengths!r}")
    lens = lens.astype(np.int64)
    if lens.size and lens.min() < 0:
        raise ShapeError(f"gru_sequence lengths must be non-negative, got {lens.tolist()}")
    if int(lens.sum()) != n_rows:
        raise ShapeError(f"gru_sequence lengths sum to {int(lens.sum())}, "
                         f"but the packed sequence has {n_rows} rows")
    order = np.argsort(-lens, kind="stable")
    n_steps = int(lens.max()) if lens.size else 0
    # live[t]: how many sequences are longer than t
    live = lens.size - np.cumsum(np.bincount(lens, minlength=n_steps + 1))[:n_steps]
    bounds = np.concatenate(([0], np.cumsum(live)))
    gather = None
    if n_steps and live[0] > 1:
        starts = (np.cumsum(lens) - lens)[order]
        step_of = np.repeat(np.arange(n_steps), live)
        slot_of = np.arange(n_rows) - np.repeat(bounds[:-1], live)
        gather = starts[slot_of] + step_of
    return order, bounds.tolist(), gather


def gru_sequence(seq, lengths, w_gates, u_gates, b_gates, w_cand, u_cand,
                 b_cand) -> Tensor:
    """GRU over packed sequences, each from a zero state; returns the final
    states [B x d_h], one row per entry of ``lengths``.

    seq: [N x d_x] holds B sequences back to back, ``lengths`` their row
    counts (summing to N; a single sequence is ``lengths=[L]``, and an empty
    one ends in zeros). w_gates [d_x x 2d_h], u_gates [d_h x 2d_h] and
    b_gates [2d_h] give the update gate z (first half) and reset gate r
    (second half); w_cand [d_x x d_h], u_cand [d_h x d_h] and b_cand [d_h]
    give the candidate c = tanh(x W_cand + (r * h) U_cand + b_cand), and
    h' = (1 - z) * h + z * c.

    The sequences are sorted by length once and their rows gathered into
    time-major order, so the sequences still running at step t are a prefix
    and each step multiplies its [n_t x d_h] rows by U. The input
    projections of all rows are two matmuls before the loop. The whole pack
    is one tape node: backward runs BPTT over the same prefix slices to fill
    the pre-activation gradients, then every weight and input gradient is a
    single matmul or sum over all N rows. The activations BPTT needs are
    kept only when a tape records the op. Computes in ``seq``'s dtype.

    Panel rule. One call of OpenBLAS's ``sgemm`` copies all of its right
    operand into a packing buffer, which at a few rows costs more than the
    product. So a step of 2 to 12 rows multiplies by column panels of U
    (forward) and of U.T (BPTT), each narrow enough for the kernel that
    skips the copy: rows * width * depth <= 1e6 and rows * width <= 1200
    (``_matmul_rows``). A one-row step keeps the single product, so a
    one-sequence call runs the same arithmetic as a loop of plain
    products; a step above 12 rows is one product too. Microseconds per
    product at ``gru_size`` 512, one product / panels (2-core Sapphire
    Rapids VM, 1 BLAS thread, numpy 2.4.6, median of 9 runs of 200):

        rows   [n x 512] @ [512 x 1024]   [n x 512] @ [512 x 512]   [n x 1024] @ [1024 x 512]
           1         55 / 57                   14 / 15                   59 / 66
           2        210 / 63                   15 / 25                  211 / 69
           4        219 / 94                   73 / 45                  259 / 100
           8        298 / 169                 111 / 83                  308 / 172
          12        276 / 172                  93 / 91                  239 / 224
          16        323 / 294                 137 / 160                 380 / 339
          24        396 / 426                 172 / 255                 436 / 491
          48        711 / 1008                311 / 498                 705 / 818

    Transposes. The forward's panels are views of the contiguous U.T, and
    BPTT's single products multiply by it (with a strided ``.T`` view they
    run ~2x slower at a few rows per step). The forward makes each copy
    only when a step is panelled and drops it at return; the vjp makes its
    own when it runs, so a tape holds none of them. Inside a
    ``fixed_weights`` block either pass takes the copy from the block
    instead, made at the first call and shared by every later one until
    the block ends; ``run_lockstep`` acts inside one.
    """
    parents = tuple(_wrap(p) for p in
                    (seq, w_gates, u_gates, b_gates, w_cand, u_cand, b_cand))
    seq, u_cand = parents[0], parents[5]
    if seq.ndim != 2 or u_cand.ndim != 2:
        raise ShapeError(f"gru_sequence expects a [N x d_x] sequence and a "
                         f"[d_h x d_h] u_cand, got {seq.shape} and {u_cand.shape}")
    n_rows, d_x = seq.data.shape
    d_h = u_cand.data.shape[0]
    want = {"w_gates": (d_x, 2 * d_h), "u_gates": (d_h, 2 * d_h),
            "b_gates": (2 * d_h,), "w_cand": (d_x, d_h), "u_cand": (d_h, d_h),
            "b_cand": (d_h,)}
    for (name, shape), p in zip(want.items(), parents[1:]):
        if p.data.shape != shape:
            raise ShapeError(f"gru_sequence {name} has shape {p.shape}, expected "
                             f"{shape} for input width {d_x} and state width {d_h}")
    order, bounds, gather = _pack_schedule(lengths, n_rows)
    dtype = seq.data.dtype
    x = seq.data if gather is None else seq.data[gather]   # time-major rows
    wg, ug, bg, wc, uc, bc = (p.data.astype(dtype, copy=False) for p in parents[1:])

    x_gates = x @ wg               # [N x 2d_h]
    x_gates += bg
    x_cand = x @ wc                # [N x d_h]
    x_cand += bc
    keep = _records(parents)
    if keep:
        # per row: the state before the step, z, r and the candidate; BPTT
        # takes r * h as rs * h_prev, the same products
        h_prev, zs, rs, cs = (np.empty((n_rows, d_h), dtype=dtype) for _ in range(4))
    h = np.zeros((order.size, d_h), dtype=dtype)   # in ``order``

    def transposes():
        # see "Transposes" above
        held = getattr(_tls, "fixed_weights", None)
        return tuple(held.transposed(p) if held is not None and u is p.data
                     else np.ascontiguousarray(u.T)
                     for p, u in ((parents[2], ug), (parents[5], uc)))

    ug_t = uc_t = None
    if any(hi - lo in _PANEL_ROWS for lo, hi in zip(bounds[:-1], bounds[1:])):
        ug_t, uc_t = transposes()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        hp = h[:hi - lo]
        gates = 1.0 / (1.0 + np.exp(-(x_gates[lo:hi] + _matmul_rows(hp, ug, ug_t))))
        z, r = gates[:, :d_h], gates[:, d_h:]
        rh = r * hp
        c = np.tanh(x_cand[lo:hi] + _matmul_rows(rh, uc, uc_t))
        if keep:
            h_prev[lo:hi], zs[lo:hi], rs[lo:hi], cs[lo:hi] = hp, z, r, c
        h[:hi - lo] = (1.0 - z) * hp + z * c
    out = np.empty_like(h)
    out[order] = h

    def vjp(g):
        ug_t, uc_t = transposes()
        da_gates = np.empty((n_rows, 2 * d_h), dtype=dtype)
        da_cand = np.empty((n_rows, d_h), dtype=dtype)
        dh = np.asarray(g, dtype=dtype)[order]
        for lo, hi in zip(bounds[-2::-1], bounds[:0:-1]):
            hp, z, r, c = h_prev[lo:hi], zs[lo:hi], rs[lo:hi], cs[lo:hi]
            d = dh[:hi - lo]
            da_c = d * z * (1.0 - c * c)
            da_cand[lo:hi] = da_c
            d_rh = _matmul_rows(da_c, uc_t, uc)
            da_g = da_gates[lo:hi]
            da_g[:, :d_h] = d * (c - hp) * z * (1.0 - z)
            da_g[:, d_h:] = d_rh * hp * r * (1.0 - r)
            dh[:hi - lo] = d * (1.0 - z) + d_rh * r + _matmul_rows(da_g, ug_t, ug)
        dx = None
        if seq.requires_grad:
            dx = da_gates @ wg.T + da_cand @ wc.T
            if gather is not None:
                packed = np.empty_like(dx)
                packed[gather] = dx
                dx = packed
        return (
            dx,
            x.T @ da_gates, h_prev.T @ da_gates, da_gates.sum(axis=0),
            x.T @ da_cand, (rs * h_prev).T @ da_cand, da_cand.sum(axis=0),
        )

    return _finish(out, parents, vjp)


__all__ = [
    "Tensor", "Tape", "active_tape", "fixed_weights",
    "default_dtype", "using_dtype",
    "add", "sub", "mul", "matmul", "tanh", "sigmoid", "relu",
    "square", "reduce_sum", "reduce_max", "reshape", "transpose",
    "concat", "narrow", "pick", "embedding", "softmax", "log_softmax",
    "attention_heads", "conv1d", "gru_sequence",
]
