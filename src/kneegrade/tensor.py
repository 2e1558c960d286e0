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
(those created by the caller) accumulate into ``.grad``, so calling
``backward`` twice without zeroing doubles leaf gradients and nothing else.
Each gradient array in that dict has one owner and shares memory with no
other: a closure owns the array it is handed and may overwrite it (see
:func:`_put`).
Inside ``with no_grad():`` ops link nothing, which is how inference runs.

Every output is scanned for non-finite values, so the graph is kept small:
``conv_bn_act`` runs a conv, its batch norm and an optional ReLU as one node,
one output buffer and one scan. In training mode it equals the three-op
chain bit for bit; in eval mode it folds the running statistics into the
conv's weight and bias on every call (nothing is cached or written back).
``gate_add_relu`` joins a residual block (SE scaling, shortcut add, ReLU) in
one node, bit for bit the five-op chain it replaced.

The wide early layers are bound by memory traffic, so no full-size array is
made that a cache-sized chunk can do without: conv columns are gathered from
the unpadded input into a buffer whose padding places stay zero, the eval
unit adds its folded bias and applies its ReLU to each chunk as it leaves the
GEMM, the training unit scales, shifts and rectifies a chunk at a time, and
``avg_pool2d`` sums its windows a chunk of images at a time. The unit's
training backward makes no full-size temporary: it applies the ReLU mask and
forms the batch norm's dX over the gradient it owns, a chunk of images at a
time, so the conv's dX is the one full-size array it allocates.
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


def backward(loss):
    """Run reverse-mode accumulation from a scalar ``loss``.

    Every reachable leaf with ``requires_grad`` receives ``d loss / d leaf``
    in ``.grad``. Gradients add onto whatever ``.grad`` already holds.
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

    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is not None:
            node._backward(g, grads)
        elif node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g


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


def sigmoid(a):
    # Split on sign so exp never overflows.
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
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


def reduce_sum(a, axis=None, keepdims=False):
    if axis is None:
        axes = tuple(range(a.data.ndim))
    elif isinstance(axis, int):
        axes = (axis % a.data.ndim,)
    else:
        axes = tuple(ax % a.data.ndim for ax in axis)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    out = np.asarray(out)
    src = a.data.shape
    def bwd(g, grads):
        gk = g if keepdims else np.expand_dims(g, axes) if axes else g
        _put(grads, a, np.broadcast_to(gk, src).copy())
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


# conv2d's lowering, chosen from shapes alone. Output maps of at least this
# many pixels (16x16 and up) get one GEMM per image over [Cin*kH*kW, Ho*Wo]
# columns, which writes NCHW directly. Smaller maps make GEMMs too narrow for
# that, so they share one GEMM over the batch's [Cin*kH*kW, N*Ho*Wo] columns
# and pay a transpose of the output and of its gradient. The cut-over was
# measured on the default model's 3x3 layers at 64 and 128 px, batch 32, one
# OpenBLAS thread, forward plus backward: per image was up to 2x faster from
# 32x32 up and 0-15% faster or within 6% at 16x16; batch-wide was 10-45%
# faster at 8x8 and below. Its 1x1 stride-2 shortcuts are too cheap for the
# choice to matter: within 0.3 ms either way at 8x8 and 4x4.
_PER_IMAGE_MIN_PIXELS = 256

# Per-image columns are gathered a few images at a time into a buffer of
# about this size, so the GEMM reads them from cache rather than memory;
# backward gathers them again instead of keeping them.
_CHUNK_BYTES = 1 << 20


def _image_chunks(a):
    """Slices along the batch axis of ``a``, each about ``_CHUNK_BYTES`` of
    whole images (at least one)."""
    n = a.shape[0]
    step = max(1, _CHUNK_BYTES // max(1, a.itemsize * int(np.prod(a.shape[1:]))))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _relu_mask(g, out):
    """Zero ``g`` in place wherever the ReLU output ``out`` is not positive."""
    for chunk in _image_chunks(g):
        g[chunk] *= out[chunk] > 0


def _conv_geometry(x_shape, w_shape, stride, padding, groups):
    n, cin, h, wdt = x_shape
    cout, cper, kh, kw = w_shape
    if cin % groups or cout % groups:
        raise ConfigurationError(
            f"conv2d: groups={groups} must divide in_channels={cin} and out_channels={cout}")
    if cper != cin // groups:
        raise ConfigurationError(
            f"conv2d: weight expects {cper} channels per group, input provides {cin // groups}")
    hp, wp = h + 2 * padding, wdt + 2 * padding
    if kh > hp or kw > wp:
        raise ConfigurationError(
            f"conv2d: kernel ({kh},{kw}) larger than padded input ({hp},{wp})")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    return ho, wo


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


def _conv_per_image(xd, wd, stride, padding, groups, ho, wo, bias=None, relu=False):
    """Lowering for large maps: one GEMM per image, NCHW out.

    ``bias`` [Cout] (or None) is added and the ReLU applied to each chunk of
    images right after its GEMM, while the chunk is still in cache. Returns
    the output and ``grad(g, need_x) -> (dW, dX or None)``, dW as
    [groups, Cin/groups*kH*kW, Cout/groups].
    """
    n, cin, h, wdt = xd.shape
    cout, _, kh, kw = wd.shape
    og, k, p = cout // groups, cin // groups * kh * kw, ho * wo
    wg = wd.reshape(groups, og, k)
    taps = list(_taps(kh, kw, stride, padding, h, wdt, ho, wo))
    step = max(1, min(n, _CHUNK_BYTES // (cin * kh * kw * p * xd.itemsize)))
    # Zeroed once: every chunk rewrites the same in-image windows, so the
    # places that stand for padding stay zero and no padded input is made.
    buf = np.zeros((step, cin, kh, kw, ho, wo), dtype=xd.dtype)

    def columns(start):
        """Images start.. of the batch as [m, groups, k, Ho*Wo] columns in ``buf``."""
        part = buf[:min(step, n - start)]
        src = xd[start:start + len(part)]
        for ki, kj, o, s in taps:
            part[:, :, ki, kj][o] = src[s]
        return part.reshape(len(part), groups, k, p)

    out = np.empty((n, groups, og, p), dtype=xd.dtype)
    if bias is not None:
        bias = bias.reshape(groups, og, 1)
    for start in range(0, n, step):
        cols = columns(start)
        part = out[start:start + len(cols)]
        np.matmul(wg, cols, out=part)
        if bias is not None:
            part += bias
        if relu:
            np.maximum(part, 0, out=part)

    def grad(g, need_x):
        gg = g.reshape(n, groups, og, p)
        dw = np.zeros((groups, k, og), dtype=g.dtype)
        dx = np.zeros(xd.shape, dtype=g.dtype) if need_x else None
        # not ``buf``: writing there would dirty its zero padding places
        dbuf = np.empty_like(buf) if need_x else None
        for start in range(0, n, step):
            cols = columns(start)
            gs = gg[start:start + len(cols)]
            dw += np.matmul(cols, gs.swapaxes(-1, -2)).sum(axis=0)
            if need_x:
                dcols = np.matmul(wg.swapaxes(-1, -2), gs,
                                  out=dbuf[:len(cols)].reshape(cols.shape))
                dcols = dcols.reshape(len(cols), cin, kh, kw, ho, wo)
                dst = dx[start:start + len(cols)]
                for ki, kj, o, s in taps:
                    dst[s] += dcols[:, :, ki, kj][o]
        return dw, dx
    return out.reshape(n, cout, ho, wo), grad


def _conv_batch_wide(xd, wd, stride, padding, groups, ho, wo, bias=None, relu=False):
    """Lowering for small maps: one GEMM over the batch's CNHW columns.

    ``bias`` is added as the output is copied to NCHW, then the ReLU applied.
    Returns the output and ``grad`` as for :func:`_conv_per_image`.
    """
    n, cin, h, wdt = xd.shape
    cout, _, kh, kw = wd.shape
    og, k, p = cout // groups, cin // groups * kh * kw, ho * wo
    wg = wd.reshape(groups, og, k)
    taps = list(_taps(kh, kw, stride, padding, h, wdt, ho, wo))
    cols = np.zeros((cin, kh, kw, n, ho, wo), dtype=xd.dtype)
    colv = cols.transpose(3, 0, 1, 2, 4, 5)               # [N, Cin, kH, kW, Ho, Wo]
    for ki, kj, o, s in taps:
        colv[:, :, ki, kj][o] = xd[s]
    cols = cols.reshape(groups, k, n * p)
    y = np.matmul(wg, cols).reshape(cout, n, ho, wo).swapaxes(0, 1)
    out = np.empty((n, cout, ho, wo), dtype=xd.dtype)
    if bias is None:
        out[...] = y
    else:
        np.add(y, bias[None, :, None, None], out=out)
    if relu:
        np.maximum(out, 0, out=out)

    def grad(g, need_x):
        gg = np.ascontiguousarray(g.swapaxes(0, 1)).reshape(groups, og, n * p)
        dw = np.matmul(cols, gg.swapaxes(-1, -2))
        if not need_x:
            return dw, None
        dcols = np.matmul(wg.swapaxes(-1, -2), gg).reshape(cin, kh, kw, n, ho, wo)
        dcols = dcols.transpose(3, 0, 1, 2, 4, 5)
        dx = np.zeros((cin, n, h, wdt), dtype=g.dtype).swapaxes(0, 1)   # stored CNHW
        for ki, kj, o, s in taps:
            dx[s] += dcols[:, :, ki, kj][o]
        return dw, np.ascontiguousarray(dx)
    return out, grad


def _lowering(ho, wo):
    if ho * wo >= _PER_IMAGE_MIN_PIXELS:
        return _conv_per_image
    return _conv_batch_wide


def _conv_setup(x, w, stride, padding, groups, op):
    """Validated (stride, padding, groups, Ho, Wo) of a conv of ``x`` by ``w``."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ConfigurationError(
            f"{op}: expected NCHW input and OIHW weight, got {x.data.shape} and {w.data.shape}")
    stride = int(stride)
    padding = int(padding)
    groups = int(groups)
    if stride < 1 or padding < 0 or groups < 1:
        raise ConfigurationError(f"{op}: stride >= 1, padding >= 0, groups >= 1 required")
    ho, wo = _conv_geometry(x.data.shape, w.data.shape, stride, padding, groups)
    return stride, padding, groups, ho, wo


def _conv_grads(g, grad, x, wd, stride, padding, groups):
    """(dW, dX or None) of a conv that ran with weights ``wd`` and whose
    lowering returned ``grad``; dX only when ``x`` wants it.

    dX of a stride-1 kH x kH conv is itself a stride-1 conv: the full
    correlation of the output gradient with the flipped kernel, in and out
    channels swapped. On every stride-1 3x3 layer of the default model (64
    and 128 px, batch 32) that made the whole backward 9-33% faster than
    folding. Other convs fold ``W^T @ g`` back over the kernel offsets.
    """
    _, cin, h, wdt = x.data.shape
    cout, cg, kh, kw = wd.shape
    transposed = x.requires_grad and stride == 1 and 1 < kh == kw and padding < kh
    dw, dx = grad(g, x.requires_grad and not transposed)
    dw = dw.swapaxes(-1, -2).reshape(wd.shape)
    if transposed:
        og = cout // groups
        wt = wd.reshape(groups, og, cg, kh, kw).swapaxes(1, 2)[..., ::-1, ::-1]
        dx, _ = _lowering(h, wdt)(g, wt.reshape(cin, og, kh, kw), 1,
                                  kh - 1 - padding, groups, h, wdt)
    return dw, dx


def conv2d(x, w, b=None, stride=1, padding=0, groups=1):
    """2-D cross correlation with optional channel groups.

    x: [N, Cin, H, W]; w: [Cout, Cin//groups, kH, kW]; b: [Cout] or None.
    The input is lowered to columns with one strided copy per kernel offset,
    then multiplied by each group's [Cout/groups, Cin/groups*kH*kW] weight
    matrix; the output map size picks the lowering (see
    ``_PER_IMAGE_MIN_PIXELS``). Backward forms dW from the output gradient
    and the columns, and dX as :func:`_conv_grads` describes.
    """
    stride, padding, groups, ho, wo = _conv_setup(x, w, stride, padding, groups, "conv2d")
    cout = w.data.shape[0]
    if b is not None and b.data.shape != (cout,):
        raise ConfigurationError(f"conv2d: bias shape {b.data.shape} should be ({cout},)")
    out, grad = _lowering(ho, wo)(x.data, w.data, stride, padding, groups, ho, wo,
                                  bias=None if b is None else b.data)

    def bwd(g, grads):
        if b is not None:
            _put(grads, b, g.sum(axis=(0, 2, 3)))
        dw, dx = _conv_grads(g, grad, x, w.data, stride, padding, groups)
        _put(grads, w, dw)
        if dx is not None:
            _put(grads, x, dx)

    parents = (x, w) if b is None else (x, w, b)
    return _node(out, parents, bwd, "conv2d")


def _channel_sum(a, b=None):
    """Per-channel sum over N, H and W of ``a``, or of ``a * b`` without forming it."""
    n, c = a.shape[:2]
    if b is None:
        return np.einsum("ncp->c", a.reshape(n, c, -1))
    return np.einsum("ncp,ncp->c", a.reshape(n, c, -1), b.reshape(n, c, -1))


def _bn_train(y, gamma, beta, running_mean, running_var, in_place, relu=False):
    """Training-mode batch norm of the array ``y`` [N, C, H, W] on its batch statistics.

    Updates the running statistics in place with the biased batch variance
    (see ``BN_MOMENTUM``). Returns the normalized output (ReLU applied when
    ``relu``), the centred input backward keeps (``y`` itself, overwritten,
    when ``in_place``) and the per-channel ``1 / std``. The output is scaled,
    shifted and rectified one chunk of images at a time.
    """
    n, c, h, w = y.shape
    m = n * h * w
    if m < 2:
        raise NormalizationError("batch norm: training mode needs at least 2 values per channel")
    mean = _channel_sum(y) / m
    xc = np.subtract(y, mean[None, :, None, None], out=y if in_place else None)
    var = _channel_sum(xc, xc) / m                # biased, matches the normalizer
    running_mean *= (1.0 - BN_MOMENTUM)
    running_mean += BN_MOMENTUM * mean.astype(running_mean.dtype)
    running_var *= (1.0 - BN_MOMENTUM)
    running_var += BN_MOMENTUM * var.astype(running_var.dtype)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    k = (gamma * inv)[None, :, None, None]
    shift = beta[None, :, None, None]
    out = np.empty(xc.shape, dtype=np.result_type(xc, k))
    for chunk in _image_chunks(xc):
        part = np.multiply(xc[chunk], k, out=out[chunk])
        part += shift
        if relu:
            np.maximum(part, 0, out=part)
    return out, xc, inv


def _bn_train_grads(g, xc, inv, gamma, need_x):
    """Backward of :func:`_bn_train`: (dX or None, dgamma, dbeta).

    dX is written over ``g``, which the calling closure owns, one chunk of
    images at a time; the channel sums are taken over the whole of ``g``
    first.
    """
    m = g.size // g.shape[1]
    sum_g = _channel_sum(g)
    sum_gxc = _channel_sum(g, xc)                 # sum(g * xhat) = inv * sum(g * xc)
    if not need_x:
        return None, sum_gxc * inv, sum_g
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


def _bn_fold(gamma, beta, running_mean, running_var, dtype):
    """Eval-mode batch norm as a per-channel affine map ``y * scale + shift``.

    Returns (scale, shift, inv) with ``inv = 1 / sqrt(running_var + BN_EPS)``;
    new arrays, nothing written back into the parameters or buffers.
    """
    inv = 1.0 / np.sqrt(running_var.astype(dtype) + BN_EPS)
    scale = gamma * inv
    return scale, beta - running_mean.astype(dtype) * scale, inv


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
        out, xc, inv = _bn_train(x.data, gamma.data, beta.data, running_mean, running_var,
                                 in_place=False)
    else:
        scale, shift, inv = _bn_fold(gamma.data, beta.data, running_mean, running_var,
                                     x.data.dtype)
        out = x.data * scale[None, :, None, None]
        out += shift[None, :, None, None]

    def bwd(g, grads):
        if training:
            dx, dgamma, dbeta = _bn_train_grads(g, xc, inv, gamma.data, x.requires_grad)
        else:
            dx = g * scale[None, :, None, None] if x.requires_grad else None
            dbeta = _channel_sum(g)
            dgamma = None
            if gamma.requires_grad:
                mean = running_mean.astype(x.data.dtype)
                dgamma = _channel_sum(g, x.data - mean[None, :, None, None]) * inv
        if dx is not None:
            _put(grads, x, dx)
        if dgamma is not None:
            _put(grads, gamma, dgamma)
        _put(grads, beta, dbeta)

    return _node(out, (x, gamma, beta), bwd, "batch_norm2d")


def conv_bn_act(x, w, gamma, beta, running_mean, running_var, training, act="relu",
                stride=1, padding=0, groups=1):
    """``act(batch_norm2d(conv2d(x, w)))`` as one graph node; ``act`` is "relu" or None.

    Arguments mean what they mean for :func:`conv2d` (no bias: batch norm
    cancels it) and :func:`batch_norm2d`. The result equals the three-op
    chain, but only the unit's output is allocated, scanned and recorded.

    Training mode centres the conv output in place (that buffer is the one
    backward keeps), scales it into the output buffer and applies the ReLU
    there; backward turns the gradient it owns into the conv output's
    gradient in place. Its values, gradients and running statistics are
    those of the chain bit for bit. Eval mode folds the running statistics
    into the conv each call: ``W' = W * s`` and ``b' = beta - mean * s`` with
    ``s = gamma / sqrt(var + BN_EPS)``, then runs one conv whose lowering adds
    ``b'`` and applies the ReLU to each chunk as it leaves the GEMM. That rounds
    differently from the chain, at float32 precision.
    The folded arrays are new; parameters and buffers are never written.
    """
    if act not in ("relu", None):
        raise ConfigurationError(f"conv_bn_act: act must be 'relu' or None, got {act!r}")
    stride, padding, groups, ho, wo = _conv_setup(x, w, stride, padding, groups, "conv_bn_act")
    cout = w.data.shape[0]
    _check_bn_params(cout, gamma, beta, "conv_bn_act")
    lower = _lowering(ho, wo)
    if training:
        y, grad = lower(x.data, w.data, stride, padding, groups, ho, wo)
        out, xc, inv = _bn_train(y, gamma.data, beta.data, running_mean, running_var,
                                 in_place=True, relu=(act == "relu"))
        wd = w.data
    else:
        scale, shift, inv = _bn_fold(gamma.data, beta.data, running_mean, running_var,
                                     x.data.dtype)
        wd = w.data * scale[:, None, None, None]
        if not (np.all(np.isfinite(wd)) and np.all(np.isfinite(shift))):
            raise NumericsError("conv_bn_act: folded weights or bias are non-finite")
        out, grad = lower(x.data, wd, stride, padding, groups, ho, wo, bias=shift,
                          relu=(act == "relu"))

    def bwd(g, grads):
        if act == "relu":
            _relu_mask(g, out)
        if training:        # g becomes the conv output's gradient, None if unwanted
            g, dgamma, dbeta = _bn_train_grads(g, xc, inv, gamma.data,
                                               x.requires_grad or w.requires_grad)
        else:
            dbeta = _channel_sum(g)
        if g is not None:
            dw, dx = _conv_grads(g, grad, x, wd, stride, padding, groups)
            if not training:
                # y = conv(x, W * s) + beta - mean * s, with s = gamma * inv
                ds = np.einsum("ok,ok->o", dw.reshape(cout, -1), w.data.reshape(cout, -1))
                ds -= running_mean.astype(ds.dtype) * dbeta
                dgamma = ds * inv
                dw *= scale[:, None, None, None]
            _put(grads, w, dw)
            if dx is not None:
                _put(grads, x, dx)
        _put(grads, gamma, dgamma)
        _put(grads, beta, dbeta)

    return _node(out, (x, w, gamma, beta), bwd, "conv_bn_act")


def gate_add_relu(y, gate, short):
    """``relu(y * gate + short)`` as one graph node: a residual block's join.

    ``y`` and ``short`` are [N, C, H, W]; ``gate`` is [N, C] and scales each
    channel of ``y`` (an SE gate), or None. Values and gradients equal the
    chain ``relu(add(mul(y, broadcast_to(reshape(gate)))), short))`` bit for
    bit: the same products, sums and reductions in the same order.
    """
    if y.data.ndim != 4:
        raise ConfigurationError(f"gate_add_relu: expected NCHW input, got {y.data.shape}")
    _check_same_shape(y, short, "gate_add_relu")
    if gate is None:
        out = y.data + short.data
    else:
        if gate.data.shape != y.data.shape[:2]:
            raise ConfigurationError(
                f"gate_add_relu: gate shape {gate.data.shape} should be {y.data.shape[:2]}")
        out = y.data * gate.data[:, :, None, None]
        out += short.data
    np.maximum(out, 0, out=out)

    def bwd(g, grads):
        _relu_mask(g, out)
        if gate is None:
            _put(grads, y, g.copy())
        else:
            if gate.requires_grad:
                _put(grads, gate, (g * y.data).sum(axis=(2, 3)))
            _put(grads, y, g * gate.data[:, :, None, None])
        _put(grads, short, g)

    parents = (y, short) if gate is None else (y, gate, short)
    return _node(out, parents, bwd, "gate_add_relu")


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


def avg_pool2d(x, kernel, stride=None):
    """Non-padded average pooling, window ``kernel`` and step ``stride``.

    Forward sums each window's rows, then its columns, with strided adds,
    about ``_CHUNK_BYTES`` of input images at a time so the row sums stay in
    cache; backward writes the scaled gradient back with one strided add (a
    plain write where windows do not overlap) per window offset.
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
    step = max(1, _CHUNK_BYTES // max(1, c * h * w * x.data.itemsize))
    for start in range(0, n, step):
        part = out[start:start + step]
        _window_sum(_window_sum(x.data[start:start + step], 2, k, s, ho), 3, k, s, wo, out=part)
        part *= inv
    def bwd(g, grads):
        if not x.requires_grad:
            return
        # windows that tile the input write every pixel, so dx needs no zeros
        tiled = k == s and ho * k == h and wo * k == w
        dx = np.empty_like(x.data) if tiled else np.zeros_like(x.data)
        gk = None if k <= s else g * inv
        for _, _, _, idx in _taps(k, k, s, 0, h, w, ho, wo):
            if k <= s:      # windows do not overlap, so no pixel is written twice
                np.multiply(g, inv, out=dx[idx])
            else:
                dx[idx] += gk
        _put(grads, x, dx)
    return _node(out, (x,), bwd, "avg_pool2d")


def global_avg_pool(x):
    """Spatial mean: [N, C, H, W] -> [N, C]."""
    if x.data.ndim != 4:
        raise ConfigurationError(f"global_avg_pool: expected NCHW input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3))
    def bwd(g, grads):
        if x.requires_grad:
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
