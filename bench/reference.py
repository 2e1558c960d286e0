"""Independent reference computations the benchmark checks kneegrade against.

- Direct float64 forwards of ``conv2d`` (a shift-and-accumulate over kernel
  offsets, no im2col), ``batch_norm2d`` (training and eval mode, per-channel
  loops) and ``avg_pool2d``.
- Central finite differences of those forwards, to check kneegrade's
  backward closures on sampled coordinates.
- A brute-force confusion table and quadratic-weighted kappa.

``check_ops`` runs the forward and gradient checks at every distinct layer
shape the default model meets at the given input sides.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# forwards


def conv2d_ref(x, w, b=None, stride=1, padding=0, groups=1):
    """Cross correlation x [N, Cin, H, W] * w [Cout, Cin/groups, kH, kW]."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    og = cout // groups
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for g in range(groups):
        xs = xp[:, g * cg:(g + 1) * cg]
        ws = w[g * og:(g + 1) * og]
        for i in range(kh):
            for j in range(kw):
                patch = xs[:, :, i:i + stride * (ho - 1) + 1:stride,
                           j:j + stride * (wo - 1) + 1:stride]
                # [N, cg, Ho, Wo] x [og, cg] -> [N, Ho, Wo, og]
                out[:, g * og:(g + 1) * og] += np.tensordot(
                    patch, ws[:, :, i, j], axes=([1], [1])).transpose(0, 3, 1, 2)
    if b is not None:
        out += np.asarray(b, dtype=np.float64)[None, :, None, None]
    return out


def batch_norm2d_ref(x, gamma, beta, running_mean, running_var, training,
                     momentum=0.1, eps=1e-5):
    """Returns (out, new running mean, new running var), inputs untouched."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    m = n * h * w
    out = np.empty_like(x)
    rm = np.array(running_mean, dtype=np.float64)
    rv = np.array(running_var, dtype=np.float64)
    for ch in range(c):
        v = x[:, ch]
        if training:
            mu = v.sum() / m
            var = ((v - mu) ** 2).sum() / m
            rm[ch] = (1.0 - momentum) * rm[ch] + momentum * mu
            rv[ch] = (1.0 - momentum) * rv[ch] + momentum * var
        else:
            mu, var = float(running_mean[ch]), float(running_var[ch])
        out[:, ch] = float(gamma[ch]) * (v - mu) / np.sqrt(var + eps) + float(beta[ch])
    return out, rm, rv


def avg_pool2d_ref(x, kernel, stride=None):
    x = np.asarray(x, dtype=np.float64)
    k = int(kernel)
    s = int(stride) if stride is not None else k
    n, c, h, w = x.shape
    ho, wo = (h - k) // s + 1, (w - k) // s + 1
    out = np.zeros((n, c, ho, wo))
    for i in range(k):
        for j in range(k):
            out += x[:, :, i:i + s * (ho - 1) + 1:s, j:j + s * (wo - 1) + 1:s]
    return out / (k * k)


# ---------------------------------------------------------------------------
# finite differences


def central_difference(loss, arr, index, h=1e-4):
    """d loss / d arr[index] by central differences; ``arr`` is restored."""
    old = arr[index]
    arr[index] = old + h
    up = loss()
    arr[index] = old - h
    down = loss()
    arr[index] = old
    return (up - down) / (2.0 * h)


def gradient_mismatches(loss, named_arrays, analytic, rng, samples=2, h=1e-4, tol=1e-5):
    """Compare analytic gradients to central differences at sampled coordinates.

    ``named_arrays`` maps a name to the float64 array ``loss()`` reads and
    ``analytic`` maps the same name to its gradient. Returns one message per
    coordinate where |analytic - numeric| > tol * max(1, |numeric|).
    """
    bad = []
    for name, arr in named_arrays.items():
        flat = rng.choice(arr.size, size=min(samples, arr.size), replace=False)
        for f in flat:
            index = np.unravel_index(int(f), arr.shape)
            numeric = central_difference(loss, arr, index, h)
            got = float(analytic[name][index])
            if abs(got - numeric) > tol * max(1.0, abs(numeric)):
                bad.append(f"{name}{tuple(int(i) for i in index)}: "
                           f"analytic {got:.10g} vs numeric {numeric:.10g}")
    return bad


# ---------------------------------------------------------------------------
# agreement metrics


def confusion_brute(y_true, y_pred, n_classes):
    table = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(y_true, y_pred):
        table[int(t)][int(p)] += 1
    return table


def quadratic_kappa_brute(y_true, y_pred, n_classes):
    """1 - sum(w * O) / sum(w * E) with w = ((i - j) / (K - 1))**2."""
    table = confusion_brute(y_true, y_pred, n_classes)
    n = sum(sum(row) for row in table)
    rows = [sum(table[i]) for i in range(n_classes)]
    cols = [sum(table[i][j] for i in range(n_classes)) for j in range(n_classes)]
    observed = expected = 0.0
    for i in range(n_classes):
        for j in range(n_classes):
            w = ((i - j) / (n_classes - 1)) ** 2
            observed += w * table[i][j] / n
            expected += w * rows[i] * cols[j] / (n * n)
    return 1.0 - observed / expected


# ---------------------------------------------------------------------------
# checks of kneegrade's ops at the default model's layer shapes


def model_layer_shapes(side):
    """Distinct (op, input shape, params) the default model meets at ``side`` px.

    Recorded from one batch-1 forward; the batch axis is what the checks vary.
    """
    from kneegrade import tensor as T
    from kneegrade.model import ModelConfig, build_model

    seen = []

    def record(op, key):
        if (op, key) not in seen:
            seen.append((op, key))

    originals = {op: getattr(T, op) for op in ("conv2d", "batch_norm2d", "avg_pool2d")}

    def conv(x, w, b=None, stride=1, padding=0, groups=1):
        record("conv2d", (x.shape, w.shape, b is not None, stride, padding, groups))
        return originals["conv2d"](x, w, b, stride=stride, padding=padding, groups=groups)

    def bn(x, *args, **kwargs):
        record("batch_norm2d", (x.shape,))
        return originals["batch_norm2d"](x, *args, **kwargs)

    def pool(x, kernel, stride=None):
        record("avg_pool2d", (x.shape, kernel, stride))
        return originals["avg_pool2d"](x, kernel, stride)

    try:
        T.conv2d, T.batch_norm2d, T.avg_pool2d = conv, bn, pool
        model = build_model(ModelConfig(), 0)
        model.eval()
        model(T.Tensor(np.zeros((1, 1, side, side), dtype=np.float32)))
    finally:
        for op, fn in originals.items():
            setattr(T, op, fn)
    return seen


def _forward_gap(got, ref):
    return float(np.max(np.abs(np.asarray(got, dtype=np.float64) - ref))) / (
        1.0 + float(np.max(np.abs(ref))))


def _check_conv(key, rng, batch):
    from kneegrade import tensor as T

    xs, ws, has_bias, stride, padding, groups = key
    x = rng.standard_normal((batch,) + tuple(xs[1:]))
    w = rng.standard_normal(ws) * 0.3
    b = rng.standard_normal(ws[0]) if has_bias else None
    ref = conv2d_ref(x, w, b, stride, padding, groups)
    fails = []
    for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-4)):
        tb = None if b is None else T.Tensor(b, dtype=dtype)
        got = T.conv2d(T.Tensor(x, dtype=dtype), T.Tensor(w, dtype=dtype), tb,
                       stride=stride, padding=padding, groups=groups)
        gap = _forward_gap(got.data, ref)
        if gap > tol:
            fails.append(f"forward {np.dtype(dtype).name} off by {gap:.3g}")
    r = rng.standard_normal(ref.shape)
    tx = T.Tensor(x.copy(), requires_grad=True, dtype=np.float64)
    tw = T.Tensor(w.copy(), requires_grad=True, dtype=np.float64)
    out = T.conv2d(tx, tw, None, stride=stride, padding=padding, groups=groups)
    T.backward(T.reduce_sum(T.mul(out, T.Tensor(r, dtype=np.float64))))
    fails += gradient_mismatches(
        lambda: float((conv2d_ref(x, w, None, stride, padding, groups) * r).sum()),
        {"x": x, "w": w}, {"x": tx.grad, "w": tw.grad}, rng)
    return fails


def _check_bn(key, rng, batch, training):
    from kneegrade import tensor as T

    shape = (batch,) + tuple(key[0][1:])
    c = shape[1]
    x = rng.standard_normal(shape) * 1.5 + 0.5
    gamma = 1.0 + 0.2 * rng.standard_normal(c)
    beta = 0.2 * rng.standard_normal(c)
    rm0 = 0.1 * rng.standard_normal(c)
    rv0 = 1.0 + 0.1 * rng.random(c)
    ref, ref_rm, ref_rv = batch_norm2d_ref(x, gamma, beta, rm0, rv0, training)
    fails = []
    for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-4)):
        rm, rv = rm0.astype(dtype), rv0.astype(dtype)
        got = T.batch_norm2d(T.Tensor(x, dtype=dtype), T.Tensor(gamma, dtype=dtype),
                             T.Tensor(beta, dtype=dtype), rm, rv, training=training)
        gap = max(_forward_gap(got.data, ref), _forward_gap(rm, ref_rm),
                  _forward_gap(rv, ref_rv))
        if gap > tol:
            fails.append(f"forward {np.dtype(dtype).name} off by {gap:.3g}")
    r = rng.standard_normal(shape)
    tx = T.Tensor(x.copy(), requires_grad=True, dtype=np.float64)
    tg = T.Tensor(gamma.copy(), requires_grad=True, dtype=np.float64)
    tb = T.Tensor(beta.copy(), requires_grad=True, dtype=np.float64)
    out = T.batch_norm2d(tx, tg, tb, rm0.copy(), rv0.copy(), training=training)
    T.backward(T.reduce_sum(T.mul(out, T.Tensor(r, dtype=np.float64))))
    fails += gradient_mismatches(
        lambda: float((batch_norm2d_ref(x, gamma, beta, rm0, rv0, training)[0] * r).sum()),
        {"x": x, "gamma": gamma, "beta": beta},
        {"x": tx.grad, "gamma": tg.grad, "beta": tb.grad}, rng)
    return fails


def _check_pool(key, rng, batch):
    from kneegrade import tensor as T

    xs, kernel, stride = key
    x = rng.standard_normal((batch,) + tuple(xs[1:]))
    ref = avg_pool2d_ref(x, kernel, stride)
    fails = []
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
        gap = _forward_gap(T.avg_pool2d(T.Tensor(x, dtype=dtype), kernel, stride).data, ref)
        if gap > tol:
            fails.append(f"forward {np.dtype(dtype).name} off by {gap:.3g}")
    r = rng.standard_normal(ref.shape)
    tx = T.Tensor(x.copy(), requires_grad=True, dtype=np.float64)
    out = T.avg_pool2d(tx, kernel, stride)
    T.backward(T.reduce_sum(T.mul(out, T.Tensor(r, dtype=np.float64))))
    fails += gradient_mismatches(lambda: float((avg_pool2d_ref(x, kernel, stride) * r).sum()),
                                 {"x": x}, {"x": tx.grad}, rng)
    return fails


def check_ops(sides=(64, 128), seed=0, batch=2):
    """Forward and gradient checks at every distinct default-model layer shape.

    Returns (number of layer checks, list of failure messages).
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x0f]))
    keys = []
    for side in sides:
        for item in model_layer_shapes(side):
            if item not in keys:
                keys.append(item)
    failures = []
    checks = 0
    for op, key in keys:
        if op == "conv2d":
            runs = [("", _check_conv(key, rng, batch))]
        elif op == "batch_norm2d":
            runs = [(" train", _check_bn(key, rng, batch, True)),
                    (" eval", _check_bn(key, rng, batch, False))]
        else:
            runs = [("", _check_pool(key, rng, batch))]
        for mode, fails in runs:
            checks += 1
            failures += [f"{op}{mode} {key}: {msg}" for msg in fails]
    return checks, failures
