"""Dense tensors with reverse-mode automatic differentiation.

Image batches use NCHW layout. Scalars are float32 by default; pass
``dtype=np.float64`` when building tensors for finite-difference gradient
checking. Every op validates shapes up front and raises
:class:`~kneegrade.errors.ConfigurationError` instead of letting numpy
broadcast silently.

Gradient mechanics follow the usual tape-free graph pattern: each op links
its output to its parents and stores a backward closure. ``backward(loss)``
topologically sorts the graph reachable from ``loss`` and runs the closures
once each. Intermediate gradients live in a scratch dict; only leaf tensors
(those created by the caller) accumulate into ``.grad``, and they add onto
what ``.grad`` already holds. ``backward`` consumes the graph it walks: each
node drops its closure and parent links as soon as its closure has run, so
the arrays the graph keeps are freed while the sweep goes on, and a second
``backward`` through the same graph raises ``UsageError``. Sum several
losses into one scalar before calling ``backward``, and run the forward again
to differentiate again; node outputs (``.data``) stay readable.
Each gradient array in that dict has one owner and shares memory with no
other: a closure owns the array it is handed and may overwrite it (see
:func:`_put`).
Inside ``with no_grad():`` ops link nothing, which is how inference runs.

Every output is scanned for non-finite values, so the graph is kept small:
``conv_bn_act`` runs the stem's conv, batch norm and ReLU as one node, and
``residual_block`` a whole residual block (units, SE gate, shortcut and join).
Every conv unit, the stem's and a block's, runs one forward, :func:`_unit`,
and one backward, :func:`_unit_grads`, except on the moment path below. In
training mode each node equals its chain of separate ops bit for bit, except
on that path. An eval unit folds the running statistics into the conv's
weight and bias on every call (:func:`_bn_fold`; nothing is cached or written
back); an eval node has no backward.

The wide early layers are bound by memory traffic, so no full-size array is
made that a cache-sized chunk can do without. Every conv gathers its columns
a chunk of images at a time from the unpadded input into one buffer whose
padding places stay zero, laid out [rows, m, Ho*Wo] so that one GEMM covers
the chunk's m images, and multiplies and reduces each chunk while it is in
cache, in the forward and in the backward alike: no whole-batch column,
column-gradient or transposed-gradient array is made. The eval unit adds its
folded bias and applies its ReLU to each chunk as it leaves the GEMM, and
``avg_pool2d`` sums its windows a chunk of images at a time. The training
unit scales, shifts and rectifies its whole output in place in the one array
it allocates for it. Its backward applies the ReLU mask in place and forms
the batch norm's dX over the gradient it owns a chunk of images at a time,
so the conv's dX is the one full-size array it allocates. Every chunk
holds :func:`_image_step` images; every conv GEMM runs in :func:`_gemm_chunks`
or in the lowering's backward over :func:`_column_chunks`. A one-image chunk
has the memory of an NCHW image, so its GEMM writes the output in place.

A training step keeps nothing its backward can rebuild bit for bit. No conv
lowering keeps its columns; backward gathers them again, once: a stride-1
k x k conv whose input wants dX gathers only dY's columns and takes both dX
and dW from them (see :func:`_transposed_grads`). A training unit keeps its
centred conv output and ``1 / std`` for the batch norm's backward, except on
the moment path (see :func:`conv_bn_act`): when its input wants no gradient
and its columns are no deeper than its output channels, as for the stem, the
batch statistics come from the columns' float64 moments and are folded into
the conv, and the unit keeps only its output. Asked to pool, as the stem is,
such a unit pools each chunk of its output as it leaves the GEMM and keeps
only the pooled output; backward rebuilds the ReLU mask from the columns it
gathers again for dW. A residual block keeps no unit output; backward
rebuilds those it needs from their centred ones (see :func:`residual_block`).
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .errors import (ConfigurationError, DataError, NormalizationError, NumericsError,
                     UsageError)

_ALLOWED_DTYPES = (np.float32, np.float64)

# Batch norm's running-statistics momentum and its variance epsilon; see
# :func:`batch_norm2d`.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class _GradMode(threading.local):
    recording = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block, in the calling thread only.

    Outputs carry no parents and no backward closure, so every intermediate
    (conv columns, centred batch-norm inputs) is freed as soon as nothing
    else refers to it. Other threads keep recording: parallel folds each
    validate under their own ``no_grad`` while the rest train.
    """
    previous = _grad_mode.recording
    _grad_mode.recording = False
    try:
        yield
    finally:
        _grad_mode.recording = previous


def _coerce(data, dtype):
    if dtype is None:
        # float64 is opt-in (gradient checking); everything else runs 32-bit
        arr = np.asarray(data, dtype=np.float32)
    else:
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _ALLOWED_DTYPES:
            raise ConfigurationError(f"tensors are float32/float64 only, got {arr.dtype}")
    return arr


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _coerce(data, dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        if self.data.size != 1:
            raise UsageError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self):
        """Run :func:`backward` from this scalar; it consumes the graph."""
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def _node(data, parents, backward_fn, op):
    """Create a graph node; drops the tape when no parent wants gradients
    or the calling thread is inside :func:`no_grad`. Every output is scanned,
    so a NaN/Inf raises NumericsError the moment it would enter the graph.
    A 0-d result (numpy hands back scalars for those) is stored as an array."""
    data = np.asarray(data)
    if not np.all(np.isfinite(data)):
        raise NumericsError(f"{op} produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _grad_mode.recording and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _put(grads, t, g):
    """Accumulate a gradient contribution for tensor ``t`` in the scratch dict.

    Ownership: ``backward`` pops a node's gradient and hands it to the node's
    closure, which then owns that array and may overwrite it. A closure may
    pass the array it owns on to at most one parent without copying, and
    writes it no more after that; every other contribution must be a fresh,
    writable array that shares memory with nothing else, because
    accumulation (``+=``) and the parent's closure write into the stored
    buffer.
    """
    if not t.requires_grad:
        return
    key = id(t)
    if key in grads:
        grads[key] += g
    else:
        grads[key] = g


def _consumed(g, grads):
    raise UsageError("this graph was consumed by an earlier backward; run the forward again")


def backward(loss):
    """Run reverse-mode accumulation from a scalar ``loss``.

    Every reachable leaf with ``requires_grad`` receives ``d loss / d leaf``
    in ``.grad``. Gradients add onto whatever ``.grad`` already holds.

    The walk consumes the graph: once a node's closure has run, or once the
    node is known to get no gradient, it drops its closure and ``_parents``,
    so what it kept for backward is freed before the walk goes on. Its
    ``.data`` stays. The closure is replaced by one that raises
    ``UsageError``, so a second ``backward`` through any consumed node fails
    rather than taking it for a leaf; sum losses into one scalar first.
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor")
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise UsageError("loss does not require gradients; nothing to do")

    # Iterative topological sort: parents come before children in `topo`.
    topo = []
    state = {}  # id -> 0 discovered, 1 finished
    stack = [loss]
    while stack:
        node = stack[-1]
        key = id(node)
        if state.get(key) == 1:
            stack.pop()
            continue
        if state.get(key) == 0:
            state[key] = 1
            topo.append(node)
            stack.pop()
            continue
        state[key] = 0
        for p in node._parents:
            if state.get(id(p)) is None:
                stack.append(p)

    # A node is released only after its own entry is popped, and every node
    # with a pending gradient is still held by the unwalked part of `topo`,
    # so no id in `grads` can be reused by a new object.
    grads = {id(loss): np.ones_like(loss.data)}
    for i in range(len(topo) - 1, -1, -1):
        node, topo[i] = topo[i], None
        g = grads.pop(id(node), None)
        if g is not None:
            if node._backward is not None:
                node._backward(g, grads)
            elif node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
        if node._backward is not None:
            node._backward, node._parents = _consumed, ()


# ---------------------------------------------------------------------------
# elementwise ops


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ConfigurationError(f"{op}: operand shapes {a.data.shape} and {b.data.shape} differ")


def add(a, b):
    _check_same_shape(a, b, "add")
    def bwd(g, grads):
        _put(grads, a, g)
        _put(grads, b, g.copy())
    return _node(a.data + b.data, (a, b), bwd, "add")


def mul(a, b):
    _check_same_shape(a, b, "mul")
    def bwd(g, grads):
        _put(grads, a, g * b.data)
        _put(grads, b, g * a.data)
    return _node(a.data * b.data, (a, b), bwd, "mul")


def scale(a, s):
    s = float(s)
    def bwd(g, grads):
        g *= s
        _put(grads, a, g)
    return _node(a.data * s, (a,), bwd, "scale")


def relu(a):
    out = np.maximum(a.data, 0)
    def bwd(g, grads):
        _put(grads, a, g * (out > 0))
    return _node(out, (a,), bwd, "relu")


def _sigmoid(x):
    # Split on sign so exp never overflows.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    out = _sigmoid(a.data)
    def bwd(g, grads):
        _put(grads, a, g * out * (1.0 - out))
    return _node(out, (a,), bwd, "sigmoid")


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ConfigurationError(f"reshape: cannot view {a.data.shape} as {shape}")
    old = a.data.shape
    def bwd(g, grads):
        _put(grads, a, g.reshape(old))
    return _node(a.data.reshape(shape), (a,), bwd, "reshape")


def broadcast_to(a, shape):
    shape = tuple(int(s) for s in shape)
    try:
        out = np.broadcast_to(a.data, shape)
    except ValueError as exc:
        raise ConfigurationError(f"broadcast_to: {a.data.shape} -> {shape}: {exc}") from None
    src = a.data.shape
    # Axes added on the left, plus axes stretched from 1, are summed out on
    # the way back.
    added = len(shape) - len(src)
    summed = tuple(range(added)) + tuple(
        added + i for i, s in enumerate(src) if s == 1 and shape[added + i] != 1
    )
    def bwd(g, grads):
        red = g.sum(axis=summed, keepdims=False) if summed else g
        _put(grads, a, red.reshape(src).copy() if red.shape != src else red.copy())
    return _node(np.ascontiguousarray(out), (a,), bwd, "broadcast_to")


def reduce_sum(a, axis=None):
    if axis is None:
        axes = tuple(range(a.data.ndim))
    elif isinstance(axis, int):
        axes = (axis % a.data.ndim,)
    else:
        axes = tuple(ax % a.data.ndim for ax in axis)
    out = np.asarray(a.data.sum(axis=axes))
    src = a.data.shape
    def bwd(g, grads):
        _put(grads, a, np.broadcast_to(np.expand_dims(g, axes), src).copy())
    return _node(out, (a,), bwd, "reduce_sum")


def mean_all(a):
    n = a.data.size
    return scale(reduce_sum(a), 1.0 / n)


# ---------------------------------------------------------------------------
# dense / convolutional ops


def linear(x, w, b=None):
    """``x @ w.T + b`` for x [N, F], w [O, F], b [O]."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ConfigurationError(
            f"linear: expected 2-D activations and weights, got {x.data.shape} and {w.data.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ConfigurationError(
            f"linear: feature width {x.data.shape[1]} does not match weight width {w.data.shape[1]}")
    if b is not None and b.data.shape != (w.data.shape[0],):
        raise ConfigurationError(f"linear: bias shape {b.data.shape} should be ({w.data.shape[0]},)")
    out = x.data @ w.data.T
    if b is not None:
        out = out + b.data
    parents = (x, w) if b is None else (x, w, b)
    def bwd(g, grads):
        _put(grads, x, g @ w.data)
        _put(grads, w, g.T @ x.data)
        if b is not None:
            _put(grads, b, g.sum(axis=0))
    return _node(out, parents, bwd, "linear")


# Every conv gathers its columns a few images at a time into a buffer of
# about this size, so the GEMM reads them from cache rather than memory;
# backward gathers them again instead of keeping them.
_CHUNK_BYTES = 1 << 20


def _image_step(n, image_bytes):
    """Images per chunk of a batch of ``n`` images of ``image_bytes`` each:
    about ``_CHUNK_BYTES`` of them, at least one and at most ``n``."""
    return max(1, min(n, _CHUNK_BYTES // max(1, image_bytes)))


def _image_chunks(a):
    """Slices along the batch axis of ``a``, each :func:`_image_step` images."""
    n = a.shape[0]
    step = _image_step(n, a.itemsize * int(np.prod(a.shape[1:])))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _window(i, stride, padding, size, count):
    """(output slice, input slice) along one axis for kernel offset ``i``: the
    outputs among ``count`` whose input pixel ``o * stride + i - padding``
    lies inside ``size``, and those input pixels."""
    lo = max(0, -((i - padding) // stride))
    hi = max(lo, min(count, (size - 1 + padding - i) // stride + 1))
    first = lo * stride + i - padding
    return slice(lo, hi), slice(first, first + stride * (hi - lo), stride)


def _taps(kh, kw, stride, padding, h, w, ho, wo):
    """Yield (ki, kj, out, src) per kernel offset of a conv over an [.., H, W]
    input zero-padded by ``padding``: ``src`` picks the input pixels offset
    (ki, kj) meets inside the image and ``out`` their places on the
    [.., Ho, Wo] output grid. Every other place meets padding, a zero."""
    rows = [_window(ki, stride, padding, h, ho) for ki in range(kh)]
    cols = [_window(kj, stride, padding, w, wo) for kj in range(kw)]
    for ki, (ro, ri) in enumerate(rows):
        for kj, (co, ci) in enumerate(cols):
            yield ki, kj, (Ellipsis, ro, co), (Ellipsis, ri, ci)


def _fold(dcols, taps, stride, dst):
    """Fold column gradients ``dcols`` [A, B, kH, kW, Ho, Wo] back onto ``dst``
    [A, B, H, W] one input phase (row % stride, column % stride) at a time: the
    taps that meet a phase are summed, in row-major order, in one contiguous
    zeroed buffer, which is then written once into the phase's strided places."""
    for r in range(stride):
        for c in range(stride):
            phase = dst[..., r::stride, c::stride]
            meet = [(ki, kj, ro, co, ri.start // stride, ci.start // stride)
                    for ki, kj, (_, ro, co), (_, ri, ci) in taps
                    if ri.start % stride == r and ci.start % stride == c]
            if not meet:        # e.g. three phases in four of a 1x1 stride-2 conv
                phase[...] = 0
                continue
            acc = np.zeros(dcols.shape[:2] + phase.shape[-2:], dtype=dcols.dtype)
            for ki, kj, ro, co, i, j in meet:
                acc[..., i:i + ro.stop - ro.start, j:j + co.stop - co.start] += \
                    dcols[:, :, ki, kj, ro, co]
            phase[...] = acc


# A chunk of m images is laid out for its GEMMs as [rows, m, P], P = Ho*Wo:
# one [rows/groups, m*P] matrix per group over all m images. A chunk buffer
# holds ``step`` images, [rows, step, P]; a shorter last chunk is a view of
# its first m images. One image's chunk [rows, 1, P] has the memory of the
# image itself in NCHW, so its output and NCHW operands need no chunk buffer:
# its GEMM writes straight into the NCHW output, and an operand is a view.


def _images(buf, m):
    """The first ``m`` images of a chunk buffer, as an [m, rows, P] view."""
    return buf[:, :m].swapaxes(0, 1)


def _matrices(buf, m, groups):
    """The first ``m`` images of a chunk buffer as [groups, rows/groups, m*P]."""
    rows, _, p = buf.shape
    return buf[:, :m].reshape(groups, rows // groups, m * p)


def _as_chunk(a, buf, groups):
    """An NCHW chunk ``a`` [m, C, H, W] in the chunk layout: a view of ``a``
    for one image, else copied into ``buf``."""
    m, c = a.shape[:2]
    if m == 1:
        return a.reshape(groups, c // groups, -1)
    _images(buf, m)[...] = a.reshape(m, c, -1)
    return _matrices(buf, m, groups)


def _column_chunks(xd, kh, kw, stride, padding, ho, wo, step, dtype, groups=1):
    """Yield (images, cols) for the batch ``xd``, ``step`` images at a time:
    the chunk's slice of the batch and its columns, [groups, K, m*P] with
    K = Cin/groups*kH*kW, of ``dtype``.

    Every chunk lands in one buffer, zeroed once: each rewrites the same
    in-image windows, so the places that stand for padding stay zero and no
    padded input is made. A chunk is overwritten by the next.
    """
    n, cin, h, w = xd.shape
    taps = list(_taps(kh, kw, stride, padding, h, w, ho, wo))
    buf = np.zeros((cin * kh * kw, step, ho * wo), dtype=dtype)
    for start in range(0, n, step):
        images = slice(start, min(start + step, n))
        src = xd[images]
        m = len(src)
        part = _images(buf, m).reshape(m, cin, kh, kw, ho, wo)
        for ki, kj, o, s in taps:
            part[:, :, ki, kj][o] = src[s]
        yield images, _matrices(buf, m, groups)


def _gemm_chunks(xd, wg, bias, relu, kh, kw, stride, padding, ho, wo, step, out=None):
    """Yield (images, cols, y) per chunk of :func:`_column_chunks`: its
    columns and ``y = wg @ cols + bias``, ReLU applied, while the chunk is in
    cache, both in the chunk layout. ``y`` lands in one chunk-sized buffer
    each chunk overwrites; with ``out`` [N, Cout, Ho, Wo] it is also written
    there at the chunk's place, by the GEMM itself for a one-image chunk.
    """
    groups, og, k = wg.shape
    if bias is not None:
        bias = bias.reshape(groups, og, 1)
    p = ho * wo
    buf = np.empty((groups * og, step, p), dtype=xd.dtype) if out is None or step > 1 else None
    for images, cols in _column_chunks(xd, kh, kw, stride, padding, ho, wo, step, xd.dtype,
                                       groups):
        m = images.stop - images.start
        direct = out is not None and m == 1
        dst = out[images].reshape(groups, og, p) if direct else _matrices(buf, m, groups)
        y = np.matmul(wg, cols, out=dst)
        if bias is not None:
            y += bias
        if relu:
            np.maximum(y, 0, out=y)
        if out is not None and not direct:
            out[images] = _images(buf, m).reshape(m, -1, ho, wo)
        yield images, cols, y


def _conv_lowered(xd, wd, stride, padding, groups, ho, wo, bias=None, relu=False):
    """A conv lowered to GEMMs over its columns, one cache-sized chunk of
    images at a time (:func:`_gemm_chunks`); NCHW out.

    ``bias`` [Cout] (or None) is added and the ReLU applied to each chunk
    right after its GEMM. Nothing is kept for backward: :func:`_lowered_grads`
    gathers the columns again.
    """
    n, cin = xd.shape[:2]
    cout, _, kh, kw = wd.shape
    wg = wd.reshape(groups, cout // groups, -1)
    out = np.empty((n, cout, ho, wo), dtype=xd.dtype)
    for _ in _gemm_chunks(xd, wg, bias, relu, kh, kw, stride, padding, ho, wo,
                          _image_step(n, cin * kh * kw * ho * wo * xd.itemsize), out):
        pass                # each chunk's output lands in its place in out
    return out


def _lowered_grads(g, xd, wd, stride, padding, groups, need_x):
    """(dW as [groups, Cin/groups*kH*kW, Cout/groups], dX or None) of the
    conv of ``xd`` by ``wd`` for its output gradient ``g``: per chunk of
    columns gathered again, ``cols @ g^T`` is added into dW and, for dX,
    ``W^T @ g`` folded back over the kernel offsets, in one chunk budget."""
    n, cin, h, wdt = xd.shape
    cout, _, kh, kw = wd.shape
    ho, wo = g.shape[2:]
    og, k, p = cout // groups, cin // groups * kh * kw, ho * wo
    wg = wd.reshape(groups, og, k)
    step = _image_step(n, cin * kh * kw * p * xd.itemsize * (2 if need_x else 1))
    dw = np.zeros((groups, k, og), dtype=g.dtype)
    part = np.empty_like(dw)
    gbuf = np.empty((cout, step, p), dtype=g.dtype) if step > 1 else None
    dx = np.empty(xd.shape, dtype=g.dtype) if need_x else None
    # not the columns' buffer: writing there would dirty its zero padding places
    dbuf = np.empty((cin * kh * kw, step, p), dtype=g.dtype) if need_x else None
    taps = list(_taps(kh, kw, stride, padding, h, wdt, ho, wo)) if need_x else None
    for images, cols in _column_chunks(xd, kh, kw, stride, padding, ho, wo, step,
                                       xd.dtype, groups):
        gs = _as_chunk(g[images], gbuf, groups)
        dw += np.matmul(cols, gs.swapaxes(-1, -2), out=part)
        if need_x:
            m = images.stop - images.start
            np.matmul(wg.swapaxes(-1, -2), gs, out=_matrices(dbuf, m, groups))
            _fold(_images(dbuf, m).reshape(m, cin, kh, kw, ho, wo), taps, stride,
                  dx[images])
    return dw, dx


def _conv_setup(xd, wd, stride, padding, groups, op):
    """Validated (stride, padding, groups, Ho, Wo) of a conv of ``xd`` by ``wd``."""
    if xd.ndim != 4 or wd.ndim != 4:
        raise ConfigurationError(
            f"{op}: expected NCHW input and OIHW weight, got {xd.shape} and {wd.shape}")
    stride = int(stride)
    padding = int(padding)
    groups = int(groups)
    if stride < 1 or padding < 0 or groups < 1:
        raise ConfigurationError(f"{op}: stride >= 1, padding >= 0, groups >= 1 required")
    cin, h, wdt = xd.shape[1:]
    cout, cper, kh, kw = wd.shape
    if cin % groups or cout % groups:
        raise ConfigurationError(
            f"{op}: groups={groups} must divide in_channels={cin} and out_channels={cout}")
    if cper != cin // groups:
        raise ConfigurationError(
            f"{op}: weight expects {cper} channels per group, input provides {cin // groups}")
    hp, wp = h + 2 * padding, wdt + 2 * padding
    if kh > hp or kw > wp:
        raise ConfigurationError(f"{op}: kernel ({kh},{kw}) larger than padded input ({hp},{wp})")
    return stride, padding, groups, (hp - kh) // stride + 1, (wp - kw) // stride + 1


def _transposed_grads(g, xd, wd, padding, groups):
    """(dW, dX) of a stride-1 k x k conv with ``padding`` < k, from one
    gather: the output gradient's columns.

    dX is the full correlation of ``g`` with the flipped kernel, in and out
    channels swapped: a stride-1 conv with padding ``k - 1 - padding``, run
    chunk by chunk. Its columns
    ``G[o, i, j, p] = g[o, p + (i, j) - (k - 1 - padding)]`` also give dW,
    against the input itself: ``dW[o, c, a, b] = sum_p x[c, p] *
    g[o, p - (a, b) + padding] = (G x^T)[o, k-1-a, k-1-b, c]``, so the
    input's columns are never gathered.
    The flipped kernel and each chunk's dW product share one buffer; the
    kernel is copied back in before the next chunk's GEMM reads it.
    """
    n, cin, h, wdt = xd.shape
    cout, cg, kh, kw = wd.shape
    og, p = cout // groups, h * wdt
    flipped = wd.reshape(groups, og, cg, kh, kw).swapaxes(1, 2)[..., ::-1, ::-1]
    kernel = flipped.copy()                 # C order, so wt and each part are views
    wt = kernel.reshape(groups, cg, og * kh * kw)
    step = _image_step(n, cout * kh * kw * p * g.itemsize)
    dx = np.empty(xd.shape, dtype=g.dtype)
    dwt = np.zeros((groups, og * kh * kw, cg), dtype=g.dtype)
    xbuf = np.empty((cin, step, p), dtype=xd.dtype) if step > 1 else None
    for images, cols, _ in _gemm_chunks(g, wt, None, False, kh, kw, 1, kh - 1 - padding,
                                        h, wdt, step, dx):
        xs = _as_chunk(xd[images], xbuf, groups)
        part = wt.reshape(dwt.shape)        # this chunk's GEMM has read the kernel
        dwt += np.matmul(cols, xs.swapaxes(-1, -2), out=part)
        if images.stop < n:
            kernel[...] = flipped
    dw = wt.reshape(cout, cg, kh, kw)       # its last product is spent
    dw[...] = dwt.reshape(cout, kh, kw, cg)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return dw, dx


def _conv_grads(g, xd, need_x, wd, stride, padding, groups):
    """(dW, dX or None) of a conv of ``xd`` by ``wd`` for its output
    gradient ``g``; dX only when ``need_x``.

    A stride-1 k x k conv whose input wants dX, with padding < k, takes both
    from the output gradient's columns (:func:`_transposed_grads`): one
    gather per chunk where :func:`_lowered_grads` would gather the input's
    columns for dW and then the gradient's for dX. On every stride-1 3x3
    layer of the default model (64 and 128 px, batch 32) the transposed dX
    made the whole backward 9-33% faster than folding, and the one gather
    took another 11-37% off (per shape, CPU time, two sittings). Other
    convs fold ``W^T @ g`` back over the kernel offsets.
    """
    kh, kw = wd.shape[2:]
    if need_x and stride == 1 and 1 < kh == kw and padding < kh:
        return _transposed_grads(g, xd, wd, padding, groups)
    dw, dx = _lowered_grads(g, xd, wd, stride, padding, groups, need_x)
    return dw.swapaxes(-1, -2).reshape(wd.shape), dx


def conv2d(x, w, b=None, stride=1, padding=0, groups=1):
    """2-D cross correlation with optional channel groups.

    x: [N, Cin, H, W]; w: [Cout, Cin//groups, kH, kW]; b: [Cout] or None.
    The input is lowered to columns with one strided copy per kernel offset,
    a cache-sized chunk of images at a time, and each chunk's
    [Cin/groups*kH*kW, m*Ho*Wo] columns multiplied by each group's
    [Cout/groups, Cin/groups*kH*kW] weight matrix in one GEMM over all m
    images of the chunk; a one-image chunk's GEMM writes the output in
    place, a longer chunk's output is transposed to NCHW. Backward
    gathers one set of columns per chunk: a stride-1 k x k conv's takes dX
    and dW from dY's columns, any other conv's takes dW from the input's
    columns and folds dX back over them (see :func:`_conv_grads`).
    """
    stride, padding, groups, ho, wo = _conv_setup(x.data, w.data, stride, padding, groups, "conv2d")
    cout = w.data.shape[0]
    if b is not None and b.data.shape != (cout,):
        raise ConfigurationError(f"conv2d: bias shape {b.data.shape} should be ({cout},)")
    out = _conv_lowered(x.data, w.data, stride, padding, groups, ho, wo,
                        bias=None if b is None else b.data)

    def bwd(g, grads):
        if b is not None:
            _put(grads, b, g.sum(axis=(0, 2, 3)))
        dw, dx = _conv_grads(g, x.data, x.requires_grad, w.data, stride, padding, groups)
        _put(grads, w, dw)
        _put(grads, x, dx)

    parents = (x, w) if b is None else (x, w, b)
    return _node(out, parents, bwd, "conv2d")


def _channel_sum(a, b=None):
    """Per-channel sum over N, H and W of ``a``, or of ``a * b`` without forming it."""
    n, c = a.shape[:2]
    if b is None:
        return np.einsum("ncp->c", a.reshape(n, c, -1))
    return np.einsum("ncp,ncp->c", a.reshape(n, c, -1), b.reshape(n, c, -1))


def _update_running(running_mean, running_var, mean, var):
    """Move the running statistics, in place, ``BN_MOMENTUM`` of the way to
    the batch's ``mean`` and biased ``var``."""
    running_mean *= (1.0 - BN_MOMENTUM)
    running_mean += BN_MOMENTUM * mean.astype(running_mean.dtype)
    running_var *= (1.0 - BN_MOMENTUM)
    running_var += BN_MOMENTUM * var.astype(running_var.dtype)


def _bn_train(y, gamma, beta, running_mean, running_var, relu=False):
    """Training-mode batch norm of the array ``y`` [N, C, H, W] on its batch statistics.

    Updates the running statistics in place with the biased batch variance
    (see ``BN_MOMENTUM``). Returns the normalized output (ReLU applied when
    ``relu``), the centred input backward keeps, which is ``y`` itself,
    overwritten, and the per-channel ``1 / std`` (see :func:`_bn_apply`).
    """
    n, c, h, w = y.shape
    m = n * h * w
    if m < 2:
        raise NormalizationError("batch norm: training mode needs at least 2 values per channel")
    mean = _channel_sum(y) / m
    xc = np.subtract(y, mean[None, :, None, None], out=y)
    var = _channel_sum(xc, xc) / m                # biased, matches the normalizer
    _update_running(running_mean, running_var, mean, var)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    return _bn_apply(xc, inv, gamma, beta, relu), xc, inv


def _bn_apply(xc, inv, gamma, beta, relu):
    """``xc * (gamma * inv) + beta`` per channel of the centred ``xc`` [N, C,
    H, W], ReLU applied when ``relu``, in place in one new array: the output
    of :func:`_bn_train`, which a backward rebuilds with its bits."""
    out = np.multiply(xc, (gamma * inv)[None, :, None, None])
    out += beta[None, :, None, None]
    if relu:
        np.maximum(out, 0, out=out)
    return out


def _bn_train_grads(g, xc, inv, gamma):
    """Backward of :func:`_bn_train`: (dX, dgamma, dbeta).

    dX is written over ``g``, which the calling closure owns, one chunk of
    images at a time, so it makes no full-size temporary; the channel sums
    are taken over the whole of ``g`` first.
    """
    m = g.size // g.shape[1]
    sum_g = _channel_sum(g)
    sum_gxc = _channel_sum(g, xc)                 # sum(g * xhat) = inv * sum(g * xc)
    # gamma * inv * (g - (sum_g + xhat * sum(g * xhat)) / m), per element in
    # the order xc * k1, + g, - k2, * k3
    k1 = (-inv * inv * sum_gxc / m)[None, :, None, None]
    k2 = (sum_g / m)[None, :, None, None]
    k3 = (gamma * inv)[None, :, None, None]
    chunks = _image_chunks(g)
    buf = np.empty((chunks[0].stop,) + g.shape[1:], dtype=np.result_type(xc, k1))
    for chunk in chunks:
        part = g[chunk]
        part += np.multiply(xc[chunk], k1, out=buf[:len(part)])
        part -= k2
        part *= k3
    return g, sum_gxc * inv, sum_g


def _unit_grads(grads, g, kept, xd, need_x, u):
    """Backward of the training :func:`_unit` ``u`` over ``xd`` for the
    gradient ``g`` of its batch norm's output, ReLU mask applied, which it
    overwrites with the conv output's gradient. Puts the gradients of ``w``,
    ``gamma`` and ``beta`` and returns dX, or None unless ``need_x``: a
    conv over an input that wants no gradient, such as the image, makes no
    dX. Pops the unit's (centred output, 1 / std) off ``kept``, freeing it
    for the conv's backward to reuse."""
    w, gamma, beta, _, _, stride, padding, groups = u
    xc, inv = kept.pop()
    g, dgamma, dbeta = _bn_train_grads(g, xc, inv, gamma.data)
    del xc
    dw, dx = _conv_grads(g, xd, need_x, w.data, stride, padding, groups)
    _put(grads, w, dw)
    _put(grads, gamma, dgamma)
    _put(grads, beta, dbeta)
    return dx


def _column_moments(xd, kh, kw, stride, padding, ho, wo):
    """Float64 mean [k] and covariance [k, k] over all Ho*Wo places of all
    images of a groups=1 conv's input columns, k = Cin*kH*kW.

    The columns are gathered a cache-sized chunk of images at a time, so
    nothing full-size is made. Products of float32 values are exact in
    float64 and their sums keep ~29 bits more than the inputs carry, so
    ``E[cc^T] - mu mu^T`` keeps a float32 input's small variance around a
    large mean (std 1e-2 around 100) to float32 precision.
    """
    n, cin = xd.shape[:2]
    k, m = cin * kh * kw, n * ho * wo
    if m < 2:
        raise NormalizationError("batch norm: training mode needs at least 2 values per channel")
    step = _image_step(n, k * ho * wo * 8)
    total, products = np.zeros(k), np.zeros((k, k))
    for _, (cols,) in _column_chunks(xd, kh, kw, stride, padding, ho, wo, step, np.float64):
        total += cols.sum(axis=1)
        products += cols @ cols.T
    mu = total / m
    return mu, products / m - np.outer(mu, mu)


def _bn_fold(w, gamma, beta, mean, var, dtype):
    """A conv by ``w`` followed by batch norm on the statistics ``mean`` and
    ``var``, as one conv: (W', b', inv) with ``inv = 1 / sqrt(var + BN_EPS)``,
    ``s = gamma * inv``, ``W' = W * s`` and ``b' = beta - mean * s`` per
    output channel, worked in ``dtype`` and W', b' cast to ``w``'s dtype.

    New arrays, nothing written back. A non-finite W' or b' raises
    ``NumericsError``: a -inf bias would read 0 after the unit's ReLU.
    """
    inv = 1.0 / np.sqrt(var.astype(dtype) + BN_EPS)
    scale = gamma * inv
    wd = (w * scale[:, None, None, None]).astype(w.dtype, copy=False)
    shift = (beta - mean.astype(dtype) * scale).astype(w.dtype, copy=False)
    if not (np.all(np.isfinite(wd)) and np.all(np.isfinite(shift))):
        raise NumericsError("a conv unit's folded weights or bias are non-finite")
    return wd, shift, inv


def _pooled_unit(xd, wd, shift, stride, padding, ho, wo, k):
    """A groups=1 conv by ``wd`` plus bias ``shift`` [Cout], a ReLU and a k x
    k average pool of step k, one chunk of images at a time, with no
    full-resolution output (with k = 1, the GEMMs write the output).

    Each chunk of :func:`_gemm_chunks` is pooled as :func:`avg_pool2d` pools,
    so the result has the bits of the lowering and the pool in turn. Returns
    the pooled [N, Cout, Ho//k, Wo//k] output and ``grad(g) -> (dW, s)`` for
    the pooled gradient ``g``: dW as the lowering's and ``s`` the per-channel
    sum, both of the gradient the full-resolution output would have had.
    ``grad`` runs the chunks again, which rebuilds the ReLU mask with the
    forward's bits, and spreads ``g / k^2`` over each window of it; rows and
    columns past the last window get none.
    """
    n = xd.shape[0]
    cout, cin, kh, kw = wd.shape
    depth, p = cin * kh * kw, ho * wo
    gemm = (xd, wd.reshape(1, cout, depth), shift, True, kh, kw, stride, padding, ho, wo,
            _image_step(n, depth * p * xd.itemsize))
    out = np.empty((n, cout, ho // k, wo // k), dtype=xd.dtype)
    windows = [idx for *_, idx in _taps(k, k, k, 0, ho, wo, *out.shape[2:])]
    for images, _, y in _gemm_chunks(*gemm, out=out if k == 1 else None):
        if k > 1:
            _pool_into(y.reshape(cout, -1, ho, wo).swapaxes(0, 1), k, k, out[images])

    def grad(g):
        dw = np.zeros((1, depth, cout), dtype=g.dtype)
        s = np.zeros(cout, dtype=g.dtype)
        for images, cols, y in _gemm_chunks(*gemm):
            # y turns into its own gradient: the ReLU mask (1 or 0), times
            # g / k^2 in each window's places, and 0 past the last window
            dy = y.reshape(cout, -1, ho, wo).swapaxes(0, 1)
            np.greater(dy, 0, out=dy)
            for idx in windows:
                dy[idx] *= g[images]
            dy[:, :, k * out.shape[2]:] = 0
            dy[:, :, :, k * out.shape[3]:] = 0
            dy *= 1.0 / (k * k)
            dw += np.matmul(cols, y.swapaxes(-1, -2))
            # image by image, the order in which _channel_sum sums NCHW
            s += sum(np.einsum("chw->c", image) for image in dy)
        return dw, s
    return out, grad


def _unit(xd, u, training, relu, kept, op):
    """``batch_norm2d(conv2d(xd, w))`` of the array ``xd``, ReLU applied when
    ``relu``: the forward of every conv unit off the moment path (see
    :func:`conv_bn_act`). ``u`` is ``(w, gamma, beta, running_mean,
    running_var, stride, padding, groups)``; errors name ``op``.

    In training the conv output is centred in place and normalized on its
    batch statistics, and (centred output, 1 / std) is appended to ``kept``
    for :func:`_unit_grads`; ``xd`` is dropped before the norm's output is
    made, which frees it when the caller passed its only reference. In eval
    mode the running statistics are folded into new conv weights and bias
    (:func:`_bn_fold`), and one conv adds the bias and the ReLU to each
    chunk as it leaves the GEMM, off the chain by float32 rounding. The
    caller scans the output.
    """
    w, gamma, beta, running_mean, running_var, stride, padding, groups = u
    stride, padding, groups, ho, wo = _conv_setup(xd, w.data, stride, padding, groups, op)
    _check_bn_params(w.data.shape[0], gamma, beta, op)
    if training:
        y = _conv_lowered(xd, w.data, stride, padding, groups, ho, wo)
        del xd
        out, xc, inv = _bn_train(y, gamma.data, beta.data, running_mean, running_var, relu=relu)
        kept.append((xc, inv))
        return out
    wd, shift, _ = _bn_fold(w.data, gamma.data, beta.data, running_mean, running_var, xd.dtype)
    return _conv_lowered(xd, wd, stride, padding, groups, ho, wo, bias=shift, relu=relu)


def _no_backward_without_batch_stats(g, grads):
    raise UsageError("a conv unit or residual block has no backward in eval mode or with "
                     "frozen batch statistics; differentiate one that trains on batch statistics")


def _check_bn_params(c, gamma, beta, op):
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ConfigurationError(
            f"{op}: gamma/beta must have shape ({c},), got {gamma.data.shape}/{beta.data.shape}")


def batch_norm2d(x, gamma, beta, running_mean, running_var, training):
    """Per-channel batch normalization over [N, C, H, W].

    ``running_mean``/``running_var`` are plain float arrays owned by the
    caller; in training mode they are updated in place with the biased batch
    statistics (``new = (1 - BN_MOMENTUM) * old + BN_MOMENTUM * batch``).
    """
    if x.data.ndim != 4:
        raise ConfigurationError(f"batch_norm2d: expected NCHW input, got {x.data.shape}")
    _check_bn_params(x.data.shape[1], gamma, beta, "batch_norm2d")
    if training:
        out, xc, inv = _bn_train(x.data.copy(), gamma.data, beta.data, running_mean, running_var)
    else:
        inv = 1.0 / np.sqrt(running_var.astype(x.data.dtype) + BN_EPS)
        scale = gamma.data * inv
        out = x.data * scale[None, :, None, None]
        out += (beta.data - running_mean.astype(x.data.dtype) * scale)[None, :, None, None]

    def bwd(g, grads):
        if training:
            dx, dgamma, dbeta = _bn_train_grads(g, xc, inv, gamma.data)
        else:
            mean = running_mean.astype(x.data.dtype)
            dgamma = _channel_sum(g, x.data - mean[None, :, None, None]) * inv
            dbeta = _channel_sum(g)
            dx = g * scale[None, :, None, None]
        _put(grads, x, dx)
        _put(grads, gamma, dgamma)
        _put(grads, beta, dbeta)

    return _node(out, (x, gamma, beta), bwd, "batch_norm2d")


def conv_bn_act(x, w, gamma, beta, running_mean, running_var, training, stride=1, padding=0,
                pool=0):
    """``relu(batch_norm2d(conv2d(x, w)))``, the stem's unit, as one graph
    node. With ``pool`` k > 0, the result is that unit's k x k average pool
    of step k, ``avg_pool2d(unit, k, k)``.

    Arguments mean what they mean for :func:`conv2d` (one group, and no
    bias: batch norm cancels it) and :func:`batch_norm2d`. The result equals
    the three-op chain, but only the unit's output is allocated, scanned and
    recorded. A residual block's units run inside :func:`residual_block`.

    Off the moment path below, the unit is a :func:`_unit`, as every unit of
    a residual block is. In training it keeps its centred conv output,
    ``1 / std`` and its output, and backward turns the gradient it owns into
    the conv output's gradient in place (:func:`_unit_grads`), all with the
    chain's bits. Eval mode, which frozen statistics also run, has no
    backward: a gradient reaching it raises ``UsageError``, though an eval
    forward outside :func:`no_grad` still runs. None is needed, as
    ``set_trainable`` freezes statistics exactly with parameters and
    inference runs under ``no_grad``.

    The moment path: in training mode, with column depth
    ``k = Cin * kH * kW <= Cout`` and an input that wants no gradient (the
    stem over the image), the batch statistics come from the float64 mean
    ``mu`` and covariance ``C`` of the conv's [k, N*Ho*Wo] columns: per
    channel ``mean = W mu`` and biased ``var = W C W^T``, clamped at 0. They
    update the running statistics and are folded into the conv by the eval
    unit's :func:`_bn_fold`, so no centred copy is made and backward keeps
    only the output.
    Backward masks the gradient ``g``, gathers the columns again for
    ``a = sum(g c^T)`` and ``s = sum(g)``, and forms ``dbeta = s``,
    ``dgamma = inv * W (a - s mu)`` and
    ``dW = gamma * inv * (a - s mu - dgamma * inv * C W)``. This path is the
    chain's arithmetic in another order, not its bits: at batch 32 and 64 px
    the stem's output, gradients and running statistics differ from the
    chain's by at most ~1e-6 relative.

    On the moment path the unit runs in :func:`_pooled_unit`, with k = 1
    when it does not pool: the node keeps only its output, with no
    full-resolution output, pool node or pool gradient, and backward
    rebuilds each chunk's ReLU mask from the columns it gathers again for
    ``a``. Output and running statistics keep the bits of the unit and pool
    in turn; ``s``, summed by chunk, moves the gradients by ~2e-7 relative.
    Every other path (the centred one, eval mode, frozen statistics) returns
    ``avg_pool2d(unit, k, k)`` of the unit's node by the module-level name, so
    an eval forward still shows the pool to whatever patches ``avg_pool2d``.
    """
    stride, padding, _, ho, wo = _conv_setup(x.data, w.data, stride, padding, 1, "conv_bn_act")
    cout = w.data.shape[0]
    _check_bn_params(cout, gamma, beta, "conv_bn_act")
    pool = int(pool)
    if not 0 <= pool <= min(ho, wo):
        raise ConfigurationError(
            f"conv_bn_act: pool window {pool} must lie in [0, {min(ho, wo)}] here")
    parents = (x, w, gamma, beta)
    moments = training and w.data[0].size <= cout and not x.requires_grad
    if not moments:
        u = (w, gamma, beta, running_mean, running_var, stride, padding, 1)
        kept = []
        out = _unit(x.data, u, training, True, kept, "conv_bn_act")

        def bwd(g, grads):
            g *= out > 0
            _put(grads, x, _unit_grads(grads, g, kept, x.data, x.requires_grad, u))
        node = _node(out, parents, bwd if training else _no_backward_without_batch_stats,
                     "conv_bn_act")
        return avg_pool2d(node, pool, pool) if pool else node

    w64 = w.data.reshape(cout, -1).astype(np.float64)
    mu, cov = _column_moments(x.data, *w.data.shape[2:], stride, padding, ho, wo)
    wcov = w64 @ cov
    mean = w64 @ mu
    var = np.maximum(np.einsum("ok,ok->o", wcov, w64), 0.0)
    _update_running(running_mean, running_var, mean, var)
    wd, shift, inv = _bn_fold(w.data, gamma.data, beta.data, mean, var, np.float64)
    out, grad = _pooled_unit(x.data, wd, shift, stride, padding, ho, wo, max(pool, 1))

    def moment_bwd(g, grads):       # the rule in the docstring, all in float64
        a, dbeta = grad(g)
        a = a[0].T.astype(np.float64)
        a -= dbeta.astype(np.float64)[:, None] * mu
        dgamma = inv * np.einsum("ok,ok->o", w64, a)
        a -= (dgamma * inv)[:, None] * wcov
        a *= (gamma.data * inv)[:, None]
        _put(grads, w, a.reshape(w.data.shape).astype(w.data.dtype))
        _put(grads, gamma, dgamma.astype(gamma.data.dtype))
        _put(grads, beta, dbeta)

    return _node(out, parents, moment_bwd, "conv_bn_act")


def _gate_grad(g, xc, inv, gamma, beta):
    """An SE gate's gradient, ``g`` times the branch output rebuilt, summed over H, W."""
    dgate = np.empty(g.shape[:2], dtype=g.dtype)
    for chunk in _image_chunks(g):
        y = _bn_apply(xc[chunk], inv, gamma, beta, False)
        y *= g[chunk]
        dgate[chunk] = y.sum(axis=(2, 3))
    return dgate


def residual_block(x, units, short, se, training):
    """``relu(branch(x) * gate + shortcut(x))``, a residual block, as one graph node.

    ``units`` are the branch's conv units in turn, each ``(w, gamma, beta,
    running_mean, running_var, stride, padding, groups)``, all but the last
    ending in a ReLU; ``short`` is the projection shortcut's unit or None.
    ``se`` is ``(w1, w2)``, gate = ``sigmoid(relu(mean_hw(branch) @ w1^T) @
    w2^T)``, or None. Each unit and the shortcut run :func:`_unit`, whose
    errors name this op. Out of ``training`` the node has no backward, and
    the output of each unit that ends in a ReLU is scanned after that ReLU,
    so for a +inf that the next conv can turn into a -inf a later ReLU
    zeroes, not for a -inf this one zeroed. The last unit and the shortcut
    need no scan of their own: a non-finite value there stays non-finite
    through the gate and the sum (inf * 0 and inf - inf are NaN), which
    ``_node`` scans before the last ReLU, and raises ``NumericsError``.

    A training node keeps its input, each unit's centred conv output and
    ``1 / std``, the gate's [N, C] arrays and its output; backward rebuilds
    the unit outputs it needs with the forward's own ops, so everything has
    the per-op chain's bits. A non-finite unit output reaches the sum before
    the last ReLU, where it raises ``NumericsError``.
    """
    kept = []                       # per training unit: its centred output and 1 / std

    def unit(held, u, relu):        # eval: a +inf here can reach a later ReLU as -inf, so scan it
        y = _unit(held.pop(), u, training, relu, kept, "residual_block")
        if relu and not (training or np.all(np.isfinite(y))):
            raise NumericsError("residual_block produced non-finite values")
        return y

    held = [x.data]     # popped, so that a unit's output is freed once the next conv has read it
    for i, u in enumerate(units):
        held.append(unit(held, u, i < len(units) - 1))
    y = held.pop()
    s = x.data if short is None else unit([x.data], short, False)
    if y.shape != s.shape:
        raise ConfigurationError(
            f"residual_block: branch output {y.shape} and shortcut {s.shape} differ")
    c = y.shape[1]
    if se is not None:
        w1, w2 = se[0].data, se[1].data
        if w1.ndim != 2 or w1.shape[1] != c or w2.shape != (c, w1.shape[0]):
            raise ConfigurationError(f"residual_block: SE weights {w1.shape} and {w2.shape} "
                                     f"do not fit {c} channels")
        z = y.mean(axis=(2, 3))
        hidden = np.maximum(z @ w1.T, 0)
        gate = _sigmoid(hidden @ w2.T)
        y *= gate[:, :, None, None]
    y += s
    parents = [x] + [t for u in (*units, short) if u for t in u[:3]] + list(se or ())

    def bwd(g, grads):
        g *= y > 0
        short_kept = None if short is None else [kept.pop()]
        if se is None:
            d = g.copy()
        else:
            dgate = _gate_grad(g, *kept[-1], units[-1][1].data, units[-1][2].data)
            d = g * gate[:, :, None, None]
            # the sigmoid, excite, ReLU, squeeze and spatial mean ops' backwards in turn
            ds = dgate * gate * (1.0 - gate)
            _put(grads, se[1], ds.T @ hidden)
            dh = (ds @ w2) * (hidden > 0)
            _put(grads, se[0], dh.T @ z)
            d += (dh @ w1)[:, :, None, None] * (1.0 / (y.shape[2] * y.shape[3]))
        for i in range(len(units) - 1, -1, -1):
            # this unit's input: the block's, or the previous unit's output, rebuilt
            xd = x.data if i == 0 else _bn_apply(*kept[i - 1], units[i - 1][1].data,
                                                 units[i - 1][2].data, True)
            d = _unit_grads(grads, d, kept, xd, i > 0 or x.requires_grad, units[i])
            if i:
                d *= xd > 0
        _put(grads, x, d)           # None only when x wants no gradient
        if short is None:
            _put(grads, x, g)
        else:
            _put(grads, x, _unit_grads(grads, g, short_kept, x.data, x.requires_grad, short))

    node = _node(y, parents, bwd if training else _no_backward_without_batch_stats,
                 "residual_block")
    np.maximum(y, 0, out=y)         # the last ReLU, on the node's data once _node has scanned it
    return node


def _window_sum(a, axis, k, s, count, out=None):
    """Sums of ``count`` windows of ``k`` along ``axis``, ``s`` apart: k - 1
    strided adds, into ``out`` when given."""
    def every(i):
        idx = [slice(None)] * a.ndim
        idx[axis] = slice(i, i + s * count, s)
        return a[tuple(idx)]
    if out is None:
        out = every(0).copy()
    else:
        out[...] = every(0)
    for i in range(1, k):
        out += every(i)
    return out


def _pool_into(x, k, s, out):
    """Write the k x k window means of ``x`` [N, C, H, W], ``s`` apart, into
    ``out`` [N, C, Ho, Wo]: rows summed, then columns, then scaled."""
    _window_sum(_window_sum(x, 2, k, s, out.shape[2]), 3, k, s, out.shape[3], out=out)
    out *= 1.0 / (k * k)


def avg_pool2d(x, kernel, stride=None):
    """Non-padded average pooling, window ``kernel`` and step ``stride``.

    Forward sums each window's rows, then its columns, with strided adds,
    about ``_CHUNK_BYTES`` of input images at a time so the row sums stay in
    cache; backward scales the gradient by ``1 / kernel^2`` and adds it onto
    zeros with one strided add per window offset. A training
    unit over an image may run this pool as its epilogue instead (see
    :func:`conv_bn_act`), with the same bits.
    """
    if x.data.ndim != 4:
        raise ConfigurationError(f"avg_pool2d: expected NCHW input, got {x.data.shape}")
    k = int(kernel)
    s = int(stride) if stride is not None else k
    n, c, h, w = x.data.shape
    if k < 1 or s < 1:
        raise ConfigurationError("avg_pool2d: kernel and stride must be >= 1")
    if k > h or k > w:
        raise ConfigurationError(f"avg_pool2d: window {k} larger than input ({h},{w})")
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1
    inv = 1.0 / (k * k)
    out = np.empty((n, c, ho, wo), dtype=x.data.dtype)
    for chunk in _image_chunks(x.data):
        _pool_into(x.data[chunk], k, s, out[chunk])
    def bwd(g, grads):
        dx = np.zeros_like(x.data)
        g *= inv
        for _, _, _, idx in _taps(k, k, s, 0, h, w, ho, wo):
            dx[idx] += g
        _put(grads, x, dx)
    return _node(out, (x,), bwd, "avg_pool2d")


def global_avg_pool(x):
    """Spatial mean: [N, C, H, W] -> [N, C]."""
    if x.data.ndim != 4:
        raise ConfigurationError(f"global_avg_pool: expected NCHW input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3))
    def bwd(g, grads):
        _put(grads, x, np.broadcast_to(g[:, :, None, None], x.data.shape) * (1.0 / (h * w)))
    return _node(out, (x,), bwd, "global_avg_pool")


def dropout(x, p, training, rng):
    """Inverted dropout; identity when not training or p == 0."""
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"dropout: p must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise UsageError("dropout: training mode needs an rng")
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype)
    keep *= 1.0 / (1.0 - p)
    def bwd(g, grads):
        _put(grads, x, g * keep)
    return _node(x.data * keep, (x,), bwd, "dropout")


# ---------------------------------------------------------------------------
# classification ops


def softmax(x):
    """Row-wise softmax for [N, K] logits, shifted for stability."""
    if x.data.ndim != 2:
        raise ConfigurationError(f"softmax: expected [N, K] logits, got {x.data.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)
    def bwd(g, grads):
        dot = (g * out).sum(axis=1, keepdims=True)
        _put(grads, x, (g - dot) * out)
    return _node(out, (x,), bwd, "softmax")


def cross_entropy(logits, targets):
    """Mean negative log likelihood of integer ``targets`` under ``logits``.

    Computed as ``logsumexp(row) - row[target]`` per row, so no probability
    is ever materialized at 0.
    """
    if logits.data.ndim != 2:
        raise ConfigurationError(f"cross_entropy: expected [N, K] logits, got {logits.data.shape}")
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != logits.data.shape[0]:
        raise ConfigurationError(
            f"cross_entropy: targets shape {t.shape} does not match batch {logits.data.shape[0]}")
    if not np.issubdtype(t.dtype, np.integer):
        raise DataError("cross_entropy: targets must be integers")
    n, k = logits.data.shape
    bad = np.nonzero((t < 0) | (t >= k))[0]
    if bad.size:
        raise DataError(
            f"cross_entropy: target {int(t[bad[0]])} at row {int(bad[0])} outside [0, {k - 1}]")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    sm = np.exp(z)
    total = sm.sum(axis=1, keepdims=True)
    nll = np.log(total[:, 0]) - z[np.arange(n), t]
    out = np.asarray(nll.mean(), dtype=logits.data.dtype)
    sm /= total
    def bwd(g, grads):
        d = sm.copy()
        d[np.arange(n), t] -= 1.0
        _put(grads, logits, d * (float(g) / n))
    return _node(out, (logits,), bwd, "cross_entropy")
