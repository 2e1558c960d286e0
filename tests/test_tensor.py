"""Op-level tests for the autodiff engine.

Expected values come from three places: hand-computable cases asserted
inline, naive loop oracles implemented here, and central finite differences
(tests/gradcheck.py) for every backward rule.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneegrade import tensor as T
from kneegrade.errors import ConfigurationError, DataError, NumericsError, UsageError

from gradcheck import check_gradients


def naive_conv2d(x, w, b=None, stride=1, padding=0, groups=1):
    """Direct quadruple-loop cross correlation, the conv oracle."""
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    og = cout // groups
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            g = co // og
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, g * cg:(g + 1) * cg,
                               i * stride:i * stride + kh,
                               j * stride:j * stride + kw]
                    out[ni, co, i, j] = float((patch * w[co]).sum())
            if b is not None:
                out[ni, co] += b[co]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _sides_around_lowering_switch():
    """Output sides just below and just at conv2d's per-image cut-over."""
    big = math.isqrt(T._PER_IMAGE_MIN_PIXELS - 1) + 1
    return big - 1, big


# (name, input [N, C, H, W] for output side S, weight, stride, padding, groups)
_CONV_PATHS = [
    ("stem_1ch", lambda s: (2, 1, s, s), (4, 1, 3, 3), 1, 1, 1),
    ("3x3_16to16", lambda s: (2, 16, s, s), (16, 16, 3, 3), 1, 1, 1),
    ("3x3_stride2", lambda s: (2, 3, 2 * s, 2 * s), (4, 3, 3, 3), 2, 1, 1),
    ("1x1_stride2_shortcut", lambda s: (2, 3, 2 * s, 2 * s), (4, 3, 1, 1), 2, 0, 1),
    ("1x1_stride1", lambda s: (2, 3, s, s), (4, 3, 1, 1), 1, 0, 1),
    ("3x3_groups2", lambda s: (2, 4, s, s), (4, 2, 3, 3), 1, 1, 2),
]


class TestElementwise:
    def test_add_mul_scale_values(self):
        a = T.Tensor([1.0, 2.0, 3.0])
        b = T.Tensor([4.0, 5.0, 6.0])
        assert np.array_equal(T.add(a, b).data, [5.0, 7.0, 9.0])
        assert np.array_equal(T.mul(a, b).data, [4.0, 10.0, 18.0])
        assert np.array_equal(T.scale(a, 2.0).data, [2.0, 4.0, 6.0])

    def test_shape_mismatch_rejected(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((3, 2)))
        with pytest.raises(ConfigurationError):
            T.add(a, b)
        with pytest.raises(ConfigurationError):
            T.mul(a, b)

    def test_relu_sigmoid_values(self):
        x = T.Tensor([-2.0, 0.0, 3.0])
        assert np.array_equal(T.relu(x).data, [0.0, 0.0, 3.0])
        s = T.sigmoid(T.Tensor([0.0])).data
        assert abs(s[0] - 0.5) < 1e-7

    def test_sigmoid_extreme_logits_stay_finite(self):
        out = T.sigmoid(T.Tensor([-1e4, 1e4], dtype=np.float64)).data
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_elementwise_grads(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        check_gradients(lambda ts: T.mean_all(T.mul(T.add(ts[0], ts[1]), ts[1])), [a, b])
        # keep relu inputs away from the kink
        c = rng.normal(size=(3, 4))
        c[np.abs(c) < 0.2] = 0.5
        check_gradients(lambda ts: T.mean_all(T.relu(ts[0])), [c])
        check_gradients(lambda ts: T.mean_all(T.sigmoid(ts[0])), [a])


class TestShapeOps:
    def test_reshape_roundtrip(self, rng):
        x = rng.normal(size=(2, 6))
        t = T.Tensor(x, requires_grad=True)
        y = T.reshape(T.reshape(t, (3, 4)), (2, 6))
        assert np.array_equal(y.data, x.astype(np.float32))

    def test_broadcast_backward_sums(self):
        t = T.Tensor(np.ones(3), requires_grad=True)
        y = T.broadcast_to(T.reshape(t, (1, 3)), (4, 3))
        T.backward(T.reduce_sum(y))
        assert np.array_equal(t.grad, np.full(3, 4.0, dtype=np.float32))

    def test_reduce_sum_axes(self, rng):
        x = rng.normal(size=(2, 3, 4))
        t = T.Tensor(x)
        assert np.allclose(T.reduce_sum(t, axis=(1, 2)).data, x.astype(np.float32).sum(axis=(1, 2)))
        check_gradients(lambda ts: T.mean_all(T.reduce_sum(ts[0], axis=1, keepdims=True)), [x])

    def test_shape_op_grads(self, rng):
        x = rng.normal(size=(2, 3))
        check_gradients(
            lambda ts: T.reduce_sum(T.mul(T.broadcast_to(T.reshape(ts[0], (2, 3, 1)), (2, 3, 4)),
                                          T.broadcast_to(T.reshape(ts[0], (2, 3, 1)), (2, 3, 4)))),
            [x])


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 1, 5, 5)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(T.Tensor(x), T.Tensor(w), padding=1)
        assert np.allclose(out.data, x, atol=1e-7)

    def test_constant_input_ones_kernel(self):
        # every 3x3 window of 2s sums to 18
        x = T.Tensor(np.full((1, 1, 4, 4), 2.0))
        w = T.Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w)
        assert np.allclose(out.data, 18.0)
        assert out.data.shape == (1, 1, 2, 2)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive_oracle(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 7, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = T.conv2d(T.Tensor(x, dtype=np.float64), T.Tensor(w, dtype=np.float64),
                       T.Tensor(b, dtype=np.float64), stride=stride, padding=padding).data
        want = naive_conv2d(x, w, b, stride=stride, padding=padding)
        assert np.allclose(got, want, atol=1e-10)

    def test_grouped_equals_per_group_concat(self, rng):
        x = rng.normal(size=(2, 4, 5, 5))
        w = rng.normal(size=(6, 2, 3, 3))
        grouped = T.conv2d(T.Tensor(x, dtype=np.float64), T.Tensor(w, dtype=np.float64),
                           groups=2, padding=1).data
        lo = T.conv2d(T.Tensor(x[:, :2], dtype=np.float64), T.Tensor(w[:3], dtype=np.float64),
                      padding=1).data
        hi = T.conv2d(T.Tensor(x[:, 2:], dtype=np.float64), T.Tensor(w[3:], dtype=np.float64),
                      padding=1).data
        assert np.array_equal(grouped, np.concatenate([lo, hi], axis=1))
        assert np.allclose(grouped, naive_conv2d(x, w, groups=2, padding=1), atol=1e-10)

    def test_group_divisibility_errors(self, rng):
        x = T.Tensor(np.zeros((1, 3, 4, 4)))
        w = T.Tensor(np.zeros((4, 1, 3, 3)))
        with pytest.raises(ConfigurationError):
            T.conv2d(x, w, groups=2)
        with pytest.raises(ConfigurationError):
            T.conv2d(T.Tensor(np.zeros((1, 2, 2, 2))), T.Tensor(np.zeros((1, 2, 3, 3))))

    @pytest.mark.parametrize("stride,padding,groups", [(1, 1, 1), (2, 1, 1), (1, 0, 2), (2, 1, 2)])
    def test_conv_grads(self, rng, stride, padding, groups):
        x = rng.normal(size=(2, 4, 5, 5))
        w = rng.normal(size=(4, 4 // groups, 3, 3))
        b = rng.normal(size=4)
        check_gradients(
            lambda ts: T.mean_all(T.conv2d(ts[0], ts[1], ts[2],
                                           stride=stride, padding=padding, groups=groups)),
            [x, w, b])


class TestConvLowerings:
    """Every conv2d lowering, on both sides of the per-image cut-over."""

    @pytest.mark.parametrize("side", _sides_around_lowering_switch())
    @pytest.mark.parametrize("name,x_shape,w_shape,stride,padding,groups", _CONV_PATHS,
                             ids=[c[0] for c in _CONV_PATHS])
    def test_matches_naive_oracle(self, rng, name, x_shape, w_shape, stride, padding,
                                  groups, side):
        x = rng.normal(size=x_shape(side))
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        got = T.conv2d(T.Tensor(x, dtype=np.float64), T.Tensor(w, dtype=np.float64),
                       T.Tensor(b, dtype=np.float64), stride=stride, padding=padding,
                       groups=groups).data
        assert got.shape[2:] == (side, side)
        want = naive_conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
        assert np.allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("side", _sides_around_lowering_switch())
    @pytest.mark.parametrize("name,x_shape,w_shape,stride,padding,groups", _CONV_PATHS,
                             ids=[c[0] for c in _CONV_PATHS])
    def test_grads(self, rng, name, x_shape, w_shape, stride, padding, groups, side):
        x = rng.normal(size=x_shape(side))
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        # weight the outputs so every pixel's gradient differs
        r = T.Tensor(rng.normal(size=(x.shape[0], w.shape[0], side, side)), dtype=np.float64)
        check_gradients(
            lambda ts: T.mean_all(T.mul(T.conv2d(ts[0], ts[1], ts[2], stride=stride,
                                                 padding=padding, groups=groups), r)),
            [x, w, b], samples=400)

    def test_chunked_columns_match_whole_batch(self, rng, monkeypatch):
        side = _sides_around_lowering_switch()[1]
        x = rng.normal(size=(5, 3, side, side))
        w = rng.normal(size=(4, 3, 3, 3))
        r = rng.normal(size=(5, 4, side, side))

        def run(chunk_bytes):
            monkeypatch.setattr(T, "_CHUNK_BYTES", chunk_bytes)
            tx = T.Tensor(x, requires_grad=True, dtype=np.float64)
            tw = T.Tensor(w, requires_grad=True, dtype=np.float64)
            out = T.conv2d(tx, tw, padding=1)
            T.backward(T.reduce_sum(T.mul(out, T.Tensor(r, dtype=np.float64))))
            return out.data, tx.grad, tw.grad

        image_bytes = 3 * 9 * side * side * 8
        whole = run(5 * image_bytes)
        chunked = run(2 * image_bytes)    # chunks of 2, 2 and 1 images
        for a, b in zip(whole, chunked):
            assert np.allclose(a, b, rtol=0, atol=1e-12)


def padded_lowering(per_image, xd, wd, stride, padding, groups, ho, wo, g):
    """Output, dW and folded dX of a conv lowering gathered from a zero-padded
    copy of the input: the formulation the pad-free gathers replaced, with the
    same chunks, GEMMs and reductions, so results must agree bit for bit."""
    n, cin, h, w = xd.shape
    cout, _, kh, kw = wd.shape
    og, k, p = cout // groups, cin // groups * kh * kw, ho * wo
    wg = wd.reshape(groups, og, k)
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)

    def gather(src, cols):
        for ki in range(kh):
            for kj in range(kw):
                cols[:, :, ki, kj] = src[:, :, ki:ki + stride * ho:stride,
                                         kj:kj + stride * wo:stride]

    def fold(dst, dcols):
        for ki in range(kh):
            for kj in range(kw):
                dst[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += \
                    dcols[:, :, ki, kj]

    if per_image:
        step = max(1, min(n, T._CHUNK_BYTES // (cin * kh * kw * p * xd.itemsize)))
        out = np.empty((n, groups, og, p), dtype=xd.dtype)
        dw = np.zeros((groups, k, og), dtype=xd.dtype)
        gg = g.reshape(n, groups, og, p)
        for start in range(0, n, step):
            src = xp[start:start + step]
            cols = np.empty((len(src), cin, kh, kw, ho, wo), dtype=xd.dtype)
            gather(src, cols)
            cols = cols.reshape(len(src), groups, k, p)
            np.matmul(wg, cols, out=out[start:start + len(src)])
            gs = gg[start:start + len(src)]
            dw += np.matmul(cols, gs.swapaxes(-1, -2)).sum(axis=0)
            dcols = np.matmul(wg.swapaxes(-1, -2), gs)
            fold(dxp[start:start + len(src)], dcols.reshape(len(src), cin, kh, kw, ho, wo))
        out = out.reshape(n, cout, ho, wo)
    else:
        cols = np.empty((cin, kh, kw, n, ho, wo), dtype=xd.dtype)
        gather(xp, cols.transpose(3, 0, 1, 2, 4, 5))
        cols = cols.reshape(groups, k, n * p)
        out = np.ascontiguousarray(
            np.matmul(wg, cols).reshape(cout, n, ho, wo).swapaxes(0, 1))
        gg = np.ascontiguousarray(g.swapaxes(0, 1)).reshape(groups, og, n * p)
        dw = np.matmul(cols, gg.swapaxes(-1, -2))
        dcols = np.matmul(wg.swapaxes(-1, -2), gg).reshape(cin, kh, kw, n, ho, wo)
        fold(dxp, dcols.transpose(3, 0, 1, 2, 4, 5))
    return out, dw, dxp[:, :, padding:padding + h, padding:padding + w]


def default_model_convs():
    """(Cin, Cout, k, groups, side, stride, padding) of every conv the default
    model runs per image (its output has at least _PER_IMAGE_MIN_PIXELS) at
    64 and 128 px."""
    from kneegrade.model import ModelConfig, build_model
    seen, fused = [], T.conv_bn_act

    def record(x, w, *args, **kw):
        ho = (x.shape[2] + 2 * kw["padding"] - w.shape[2]) // kw["stride"] + 1
        key = (x.shape[1], w.shape[0], w.shape[2], kw["groups"], x.shape[2],
               kw["stride"], kw["padding"])
        if ho * ho >= T._PER_IMAGE_MIN_PIXELS and key not in seen:
            seen.append(key)
        return fused(x, w, *args, **kw)
    model = build_model(ModelConfig(), seed=0).eval()
    T.conv_bn_act = record
    try:
        for side in (64, 128):
            model(T.Tensor(np.zeros((1, 1, side, side))))
    finally:
        T.conv_bn_act = fused
    return seen


class TestPadFreeColumns:
    """Columns gathered from the unpadded input equal those of a padded copy."""

    @pytest.mark.parametrize("lowering", ["_conv_per_image", "_conv_batch_wide"])
    def test_match_padded_columns_bitwise(self, rng, monkeypatch, lowering):
        convs = default_model_convs()
        assert len(convs) == 13
        cases = list(convs)
        for cin, cout, k, groups in dict.fromkeys(c[:4] for c in convs):
            cases += [(cin, cout, k, groups, 17, stride, padding)
                      for stride in (1, 2) for padding in (0, 1, 2)]
        for cin, cout, k, groups, side, stride, padding in cases:
            x = rng.normal(size=(3, cin, side, side)).astype(np.float32)
            w = rng.normal(size=(cout, cin // groups, k, k)).astype(np.float32)
            ho = (side + 2 * padding - k) // stride + 1
            g = rng.normal(size=(3, cout, ho, ho)).astype(np.float32)
            # chunks of 2 and 1 images: the column buffer is reused, partly
            monkeypatch.setattr(T, "_CHUNK_BYTES", 2 * cin * k * k * ho * ho * 4)
            out, grad = getattr(T, lowering)(x, w, stride, padding, groups, ho, ho)
            got = (out,) + grad(g, True)
            want = padded_lowering(lowering == "_conv_per_image", x, w, stride, padding,
                                   groups, ho, ho, g)
            for name, a, b in zip(("out", "dW", "dX"), got, want):
                assert a.flags.c_contiguous and np.array_equal(a, b), \
                    (lowering, cin, cout, k, side, stride, padding, name)


class TestChunkedEpilogues:
    """The eval unit's bias and ReLU per chunk, and pooling in image chunks,
    against their whole-batch forms."""

    @pytest.mark.parametrize("lowering,side", [("_conv_per_image", 17),
                                               ("_conv_batch_wide", 7)])
    def test_bias_relu_in_the_lowering(self, rng, monkeypatch, lowering, side):
        x = rng.normal(size=(5, 4, side, side)).astype(np.float32)
        w = rng.normal(size=(6, 4, 3, 3)).astype(np.float32)
        b = rng.normal(size=6).astype(np.float32)
        monkeypatch.setattr(T, "_CHUNK_BYTES", 2 * 4 * 9 * side * side * 4)
        lower = getattr(T, lowering)
        want, _ = lower(x, w, 1, 1, 1, side, side)
        want += b[None, :, None, None]
        np.maximum(want, 0, out=want)
        got, _ = lower(x, w, 1, 1, 1, side, side, bias=b, relu=True)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2), (3, 1), (1, 1)])
    def test_avg_pool_chunks_match_whole_batch(self, rng, monkeypatch, kernel, stride):
        x = rng.normal(size=(5, 3, 11, 9)).astype(np.float32)
        r = rng.normal(size=(5, 3, (11 - kernel) // stride + 1,
                             (9 - kernel) // stride + 1)).astype(np.float32)

        def run(chunk_bytes):
            monkeypatch.setattr(T, "_CHUNK_BYTES", chunk_bytes)
            t = T.Tensor(x, requires_grad=True)
            out = T.avg_pool2d(t, kernel, stride)
            T.backward(T.reduce_sum(T.mul(out, T.Tensor(r))))
            return out.data, t.grad
        whole = run(x.nbytes)
        chunked = run(x[:2].nbytes)           # chunks of 2, 2 and 1 images
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b)


def _join_chain(y, gate, short):
    """The residual join as it was spelled before gate_add_relu."""
    if gate is not None:
        n, c = gate.shape
        y = T.mul(y, T.broadcast_to(T.reshape(gate, (n, c, 1, 1)), y.shape))
    return T.relu(T.add(y, short))


class TestGateAddRelu:
    @pytest.mark.parametrize("gated", [True, False])
    def test_equals_chain_bitwise(self, rng, gated):
        arrays = [rng.normal(size=(3, 4, 5, 6)), rng.uniform(size=(3, 4)),
                  rng.normal(size=(3, 4, 5, 6))]
        r = T.Tensor(rng.normal(size=(3, 4, 5, 6)))
        results = []
        for op in (T.gate_add_relu, _join_chain):
            y, gate, short = [T.Tensor(a, requires_grad=True) for a in arrays]
            gate = gate if gated else None
            out = op(y, gate, short)
            T.backward(T.reduce_sum(T.mul(out, r)))
            results.append([out.data, y.grad, short.grad] + ([gate.grad] if gated else []))
        for a, b in zip(*results):
            assert a.dtype == b.dtype == np.float32 and np.array_equal(a, b)

    @pytest.mark.parametrize("gated", [True, False])
    def test_grads(self, rng, gated):
        arrays = [rng.normal(size=(2, 3, 4, 5)), rng.uniform(size=(2, 3)),
                  rng.normal(size=(2, 3, 4, 5))]
        r = T.Tensor(rng.normal(size=(2, 3, 4, 5)), dtype=np.float64)
        if not gated:
            del arrays[1]
        check_gradients(
            lambda ts: T.mean_all(T.mul(T.gate_add_relu(ts[0], ts[1] if gated else None,
                                                        ts[-1]), r)), arrays)

    def test_shapes_checked(self, rng):
        y = T.Tensor(rng.normal(size=(2, 3, 4, 4)))
        with pytest.raises(ConfigurationError):
            T.gate_add_relu(y, T.Tensor(np.ones((2, 4))), y)
        with pytest.raises(ConfigurationError):
            T.gate_add_relu(y, None, T.Tensor(np.ones((2, 3, 4, 5))))


class TestBatchNorm:
    def test_train_constant_batch_gives_beta(self):
        x = T.Tensor(np.full((2, 3, 4, 4), 5.0))
        gamma = T.Tensor(np.ones(3))
        beta = T.Tensor(np.full(3, 0.25))
        rm, rv = np.zeros(3), np.ones(3)
        out = T.batch_norm2d(x, gamma, beta, rm, rv, training=True)
        assert np.allclose(out.data, 0.25, atol=1e-6)

    def test_eval_matches_closed_form(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        gamma = rng.normal(size=3)
        beta = rng.normal(size=3)
        rm = rng.normal(size=3)
        rv = rng.uniform(0.5, 2.0, size=3)
        out = T.batch_norm2d(T.Tensor(x, dtype=np.float64), T.Tensor(gamma, dtype=np.float64),
                             T.Tensor(beta, dtype=np.float64), rm, rv, training=False).data
        want = (x - rm[None, :, None, None]) / np.sqrt(rv + 1e-5)[None, :, None, None]
        want = want * gamma[None, :, None, None] + beta[None, :, None, None]
        assert np.allclose(out, want, atol=1e-12)

    def test_running_stats_update(self, rng):
        x = rng.normal(size=(4, 2, 3, 3))
        rm, rv = np.zeros(2), np.ones(2)
        T.batch_norm2d(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)),
                       rm, rv, training=True)
        assert np.allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), atol=1e-6)
        assert np.allclose(rv, 0.9 + 0.1 * x.var(axis=(0, 2, 3)), atol=1e-6)

    def test_single_element_batch_rejected(self):
        from kneegrade.errors import NormalizationError
        x = T.Tensor(np.zeros((1, 3, 1, 1)))
        with pytest.raises(NormalizationError):
            T.batch_norm2d(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)),
                           np.zeros(3), np.ones(3), training=True)

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_grads(self, rng, training):
        x = rng.normal(size=(3, 2, 4, 4))
        gamma = rng.uniform(0.5, 1.5, size=2)
        beta = rng.normal(size=2)
        rm = rng.normal(size=2)
        rv = rng.uniform(0.5, 2.0, size=2)
        check_gradients(
            lambda ts: T.mean_all(T.batch_norm2d(ts[0], ts[1], ts[2], rm.copy(), rv.copy(),
                                                 training=training)),
            [x, gamma, beta])


# (name, input for output side S, weight, stride, padding, groups): the
# unit's conv shapes, on both sides of the per-image cut-over
_UNIT_PATHS = [c for c in _CONV_PATHS
               if c[0] in ("stem_1ch", "3x3_stride2", "1x1_stride2_shortcut", "3x3_groups2")]


def _bn_state(rng, c):
    """gamma, beta, running mean and running variance away from the defaults."""
    return (rng.uniform(0.5, 1.5, size=c), rng.normal(size=c),
            rng.normal(size=c), rng.uniform(0.5, 2.0, size=c))


def _unit(fused, x, w, gamma, beta, rm, rv, training, act, stride, padding, groups):
    if fused:
        return T.conv_bn_act(x, w, gamma, beta, rm, rv, training, act=act, stride=stride,
                             padding=padding, groups=groups)
    y = T.batch_norm2d(T.conv2d(x, w, stride=stride, padding=padding, groups=groups),
                       gamma, beta, rm, rv, training)
    return T.relu(y) if act == "relu" else y


def _unit_run(fused, arrays, training, act, geometry, dtype=np.float32):
    """Output, input/weight/gamma/beta gradients and running stats of one unit."""
    x, w, gamma, beta, rm, rv = arrays
    ts = [T.Tensor(a, requires_grad=True, dtype=dtype) for a in (x, w, gamma, beta)]
    rm, rv = rm.astype(dtype, copy=False), rv.astype(dtype, copy=False)
    out = _unit(fused, *ts, rm, rv, training, act, *geometry)
    r = np.random.default_rng(3).normal(size=out.shape).astype(dtype)
    T.backward(T.reduce_sum(T.mul(out, T.Tensor(r, dtype=dtype))))
    return [out.data] + [t.grad for t in ts] + [rm, rv]


class TestConvBnAct:
    """The fused conv -> batch norm -> ReLU unit against the three-op chain."""

    @pytest.mark.parametrize("act", ["relu", None])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("side", _sides_around_lowering_switch())
    @pytest.mark.parametrize("name,x_shape,w_shape,stride,padding,groups", _UNIT_PATHS,
                             ids=[c[0] for c in _UNIT_PATHS])
    def test_grads(self, rng, name, x_shape, w_shape, stride, padding, groups, side,
                   training, act):
        x = rng.normal(size=x_shape(side))
        w = rng.normal(size=w_shape)
        gamma, beta, rm, rv = _bn_state(rng, w_shape[0])
        r = T.Tensor(rng.normal(size=(x.shape[0], w.shape[0], side, side)), dtype=np.float64)
        check_gradients(
            lambda ts: T.mean_all(T.mul(T.conv_bn_act(
                ts[0], ts[1], ts[2], ts[3], rm.copy(), rv.copy(), training, act=act,
                stride=stride, padding=padding, groups=groups), r)),
            [x, w, gamma, beta], samples=200)

    @pytest.mark.parametrize("act", ["relu", None])
    @pytest.mark.parametrize("name,x_shape,w_shape,stride,padding,groups", _CONV_PATHS,
                             ids=[c[0] for c in _CONV_PATHS])
    def test_training_equals_chain_bitwise(self, rng, name, x_shape, w_shape, stride,
                                           padding, groups, act):
        side = _sides_around_lowering_switch()[1]
        arrays = [rng.normal(size=x_shape(side)), rng.normal(size=w_shape),
                  *_bn_state(rng, w_shape[0])]
        geometry = (stride, padding, groups)
        fused = _unit_run(True, arrays, True, act, geometry)
        chain = _unit_run(False, arrays, True, act, geometry)
        for a, b in zip(fused, chain):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("act", ["relu", None])
    @pytest.mark.parametrize("name,x_shape,w_shape,stride,padding,groups", _CONV_PATHS,
                             ids=[c[0] for c in _CONV_PATHS])
    def test_eval_folds_within_float32_rounding(self, rng, name, x_shape, w_shape, stride,
                                                padding, groups, act):
        side = _sides_around_lowering_switch()[0]
        arrays = [a.astype(np.float32) for a in
                  (rng.normal(size=x_shape(side)), rng.normal(size=w_shape),
                   *_bn_state(rng, w_shape[0]))]
        before = [a.copy() for a in arrays]
        geometry = (stride, padding, groups)
        fused = _unit_run(True, arrays, False, act, geometry)
        chain = _unit_run(False, arrays, False, act, geometry)
        for a, b in zip(fused, chain):
            assert np.allclose(a, b, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(b).max()))
        # the fold builds new arrays: inputs, weights and statistics keep their bytes
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()

    def test_eval_leaves_module_state_byte_identical(self, rng):
        from kneegrade.nn import BatchNorm2d, Conv2d, conv_bn
        conv = Conv2d(3, 4, 3, rng, padding=1)
        bn = BatchNorm2d(4).eval()
        bn.running_mean[...] = rng.normal(size=4)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=4)
        state = {k: v.tobytes() for k, v in {**conv.state_arrays(), **bn.state_arrays()}.items()}
        x = T.Tensor(rng.normal(size=(2, 3, 6, 6)))
        T.backward(T.mean_all(conv_bn(conv, bn, x)))
        assert conv.weight.grad is not None and bn.gamma.grad is not None
        after = {k: v.tobytes() for k, v in {**conv.state_arrays(), **bn.state_arrays()}.items()}
        assert after == state

    @pytest.mark.parametrize("training", [True, False])
    def test_no_grad_records_nothing(self, rng, training):
        ts = [T.Tensor(a, requires_grad=True) for a in
              (rng.normal(size=(2, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3)),
               np.ones(4), np.zeros(4))]
        with T.no_grad():
            out = T.conv_bn_act(*ts, np.zeros(4, np.float32), np.ones(4, np.float32),
                                training, padding=1)
        assert out._parents == () and out._backward is None and not out.requires_grad

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("training", [True, False])
    def test_inf_weight_raises(self, rng, training):
        w = rng.normal(size=(4, 3, 3, 3))
        w[1, 0, 1, 1] = np.inf
        with pytest.raises(NumericsError):
            T.conv_bn_act(T.Tensor(rng.normal(size=(2, 3, 6, 6))), T.Tensor(w),
                          T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)),
                          np.zeros(4, np.float32), np.ones(4, np.float32), training, padding=1)

    def test_non_finite_running_mean_raises_in_eval(self, rng):
        # +inf folded into the bias would read 0 after the ReLU
        with pytest.raises(NumericsError):
            T.conv_bn_act(T.Tensor(rng.normal(size=(2, 3, 6, 6))),
                          T.Tensor(rng.normal(size=(4, 3, 3, 3))),
                          T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)),
                          np.full(4, np.inf, np.float32), np.ones(4, np.float32), False,
                          padding=1)

    def test_bad_act_and_shapes_rejected(self, rng):
        x = T.Tensor(rng.normal(size=(2, 3, 6, 6)))
        w = T.Tensor(rng.normal(size=(4, 3, 3, 3)))
        stats = (np.zeros(4, np.float32), np.ones(4, np.float32))
        with pytest.raises(ConfigurationError):
            T.conv_bn_act(x, w, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)), *stats, True,
                          act="sigmoid")
        with pytest.raises(ConfigurationError):
            T.conv_bn_act(x, w, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), *stats, True)


class TestPooling:
    def test_avg_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = T.avg_pool2d(T.Tensor(x), 2, 2).data
        want = np.array([[2.5, 4.5], [10.5, 12.5]], dtype=np.float32)
        assert np.array_equal(out[0, 0], want)

    def test_avg_pool_overlapping_matches_windows(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        out = T.avg_pool2d(T.Tensor(x, dtype=np.float64), 3, 1).data
        for i in range(3):
            for j in range(3):
                assert np.allclose(out[:, :, i, j], x[:, :, i:i + 3, j:j + 3].mean(axis=(2, 3)))

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        out = T.global_avg_pool(T.Tensor(x, dtype=np.float64)).data
        assert np.allclose(out, x.mean(axis=(2, 3)))

    @pytest.mark.parametrize("kernel,stride,shape", [
        (2, 2, (2, 3, 8, 8)), (2, 2, (2, 3, 9, 7)), (3, 3, (1, 2, 9, 9)),
        (2, 3, (2, 3, 9, 9)), (1, 2, (1, 2, 6, 5)), (3, 1, (2, 3, 7, 6)),
        (3, 2, (2, 3, 9, 9))])
    def test_strided_windows_match_naive(self, rng, kernel, stride, shape):
        x = rng.normal(size=shape)
        out = T.avg_pool2d(T.Tensor(x, dtype=np.float64), kernel, stride).data
        ho = (shape[2] - kernel) // stride + 1
        wo = (shape[3] - kernel) // stride + 1
        assert out.shape == shape[:2] + (ho, wo)
        for i in range(ho):
            for j in range(wo):
                win = x[:, :, i * stride:i * stride + kernel, j * stride:j * stride + kernel]
                assert np.allclose(out[:, :, i, j], win.mean(axis=(2, 3)), atol=1e-12)
        r = T.Tensor(rng.normal(size=out.shape), dtype=np.float64)
        check_gradients(lambda ts: T.mean_all(T.mul(T.avg_pool2d(ts[0], kernel, stride), r)),
                        [x])

    def test_pool_grads(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        check_gradients(lambda ts: T.mean_all(T.avg_pool2d(ts[0], 2, 2)), [x])
        check_gradients(lambda ts: T.mean_all(T.avg_pool2d(ts[0], 3, 1)), [x])
        check_gradients(lambda ts: T.mean_all(T.global_avg_pool(ts[0])), [x])


class TestLinearDropout:
    def test_linear_values(self):
        x = T.Tensor([[1.0, 2.0]])
        w = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
        b = T.Tensor([0.5, -0.5])
        assert np.allclose(T.linear(x, w, b).data, [[11.5, 16.5]])

    def test_linear_grads(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        check_gradients(lambda ts: T.mean_all(T.linear(ts[0], ts[1], ts[2])), [x, w, b])

    def test_dropout_eval_and_p0_are_identity(self, rng):
        x = T.Tensor(rng.normal(size=(3, 3)))
        assert T.dropout(x, 0.5, training=False, rng=None) is x
        assert T.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_dropout_scales_survivors(self, rng):
        x = T.Tensor(np.ones((100, 100)))
        out = T.dropout(x, 0.5, training=True, rng=np.random.default_rng(3)).data
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)
        assert abs(kept.size / out.size - 0.5) < 0.02

    def test_dropout_deterministic_given_seed(self):
        x = T.Tensor(np.ones((8, 8)))
        a = T.dropout(x, 0.3, training=True, rng=np.random.default_rng(11)).data
        b = T.dropout(x, 0.3, training=True, rng=np.random.default_rng(11)).data
        assert np.array_equal(a, b)

    def test_dropout_bad_p(self):
        with pytest.raises(ConfigurationError):
            T.dropout(T.Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))

    def test_dropout_grad_with_fixed_mask(self, rng):
        x = rng.normal(size=(4, 4))
        check_gradients(
            lambda ts: T.mean_all(T.dropout(ts[0], 0.4, training=True,
                                            rng=np.random.default_rng(5))),
            [x])


class TestClassification:
    def test_softmax_uniform(self):
        out = T.softmax(T.Tensor(np.zeros((2, 5)))).data
        assert np.allclose(out, 0.2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_softmax_rows_sum_to_one(self, n, k, seed):
        logits = np.random.default_rng(seed).normal(scale=20.0, size=(n, k))
        out = T.softmax(T.Tensor(logits, dtype=np.float64)).data
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0)

    def test_softmax_huge_logits_finite(self):
        out = T.softmax(T.Tensor([[1e4, -1e4, 0.0]], dtype=np.float64)).data
        assert np.all(np.isfinite(out))

    def test_cross_entropy_uniform_logits(self):
        logits = T.Tensor(np.zeros((3, 5)))
        out = T.cross_entropy(logits, np.array([0, 2, 4]))
        assert abs(out.item() - np.log(5.0)) < 1e-6

    def test_cross_entropy_matches_log_softmax(self, rng):
        logits = rng.normal(size=(6, 4))
        t = rng.integers(0, 4, size=6)
        out = T.cross_entropy(T.Tensor(logits, dtype=np.float64), t).item()
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        assert abs(out + logp[np.arange(6), t].mean()) < 1e-12

    def test_cross_entropy_target_validation(self):
        logits = T.Tensor(np.zeros((2, 3)))
        with pytest.raises(DataError, match="row 1"):
            T.cross_entropy(logits, np.array([0, 3]))
        with pytest.raises(DataError):
            T.cross_entropy(logits, np.array([0.5, 1.5]))

    def test_classification_grads(self, rng):
        logits = rng.normal(size=(5, 4))
        t = rng.integers(0, 4, size=5)
        check_gradients(lambda ts: T.cross_entropy(ts[0], t), [logits])
        check_gradients(lambda ts: T.mean_all(T.mul(T.softmax(ts[0]), ts[0])), [logits])


class TestBackward:
    def test_sum_of_squares(self):
        x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        T.backward(T.reduce_sum(T.mul(x, x)))
        assert np.allclose(x.grad, [2.0, -4.0, 6.0])

    def test_repeated_backward_accumulates(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        loss = T.reduce_sum(T.mul(x, x))
        T.backward(loss)
        T.backward(loss)
        assert np.allclose(x.grad, [4.0, 8.0])

    def test_shared_input_fan_out(self):
        # y = x*x + x so dy/dx = 2x + 1
        x = T.Tensor([3.0], requires_grad=True)
        T.backward(T.reduce_sum(T.add(T.mul(x, x), x)))
        assert np.allclose(x.grad, [7.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            T.backward(T.mul(x, x))

    def test_no_grad_graph_rejected(self):
        x = T.Tensor([1.0])
        with pytest.raises(UsageError):
            T.backward(T.reduce_sum(x))

    def test_no_tape_without_requires_grad(self):
        x = T.Tensor([1.0, 2.0])
        y = T.mul(x, x)
        assert y._parents == () and y._backward is None


def _training_unit(rng, shape):
    """A training-mode 3x3 conv_bn_act, as many channels out as in, over a
    random ``shape`` input; every argument wants gradients. Returns the
    output node and its four parents."""
    c = shape[1]
    x = T.Tensor(rng.normal(size=shape), requires_grad=True)
    weight = T.Tensor(rng.normal(size=(c, c, 3, 3)) * 0.2, requires_grad=True)
    gamma = T.Tensor(rng.uniform(0.5, 1.5, size=c), requires_grad=True)
    beta = T.Tensor(rng.normal(size=c), requires_grad=True)
    out = T.conv_bn_act(x, weight, gamma, beta, np.zeros(c, np.float32),
                        np.ones(c, np.float32), training=True, padding=1)
    return out, (x, weight, gamma, beta)


class TestGradientOwnership:
    """A closure owns the gradient array it is handed and may write over it.
    An alias between two pending gradients, or a read-only one, would make
    those writes a silent wrong gradient."""

    def test_pending_gradients_are_disjoint_and_writable(self, monkeypatch):
        from kneegrade.model import ModelConfig, build_model
        from kneegrade.training import Adam, _train_step
        rng = np.random.default_rng(0)
        model = build_model(ModelConfig(), seed=0).train()
        x = T.Tensor(rng.normal(size=(32, 1, 64, 64)))
        targets = [rng.integers(0, k, 32) for _, k in model.head_specs()]
        put, handed = T._put, []

        def checked_put(grads, t, g):
            if t.requires_grad:
                assert g.flags.writeable, t
                for pending in grads.values():
                    assert not np.shares_memory(g, pending), t
                handed.append(g.nbytes)
            put(grads, t, g)

        monkeypatch.setattr(T, "_put", checked_put)
        _train_step(model, Adam(model.named_parameters(), lr=1e-3), x, targets,
                    [1.0] * len(targets))
        assert max(handed) == 32 * 16 * 64 * 64 * 4     # the stem's own gradient
        assert len(handed) > 100

    def test_scalar_nodes_hold_arrays(self, monkeypatch):
        """numpy turns 0-d results into scalars; nodes and the gradients
        handed to closures stay 0-d arrays all the same."""
        from kneegrade.training import multi_task_loss
        logits = [T.Tensor(np.zeros((2, 3)), requires_grad=True) for _ in range(2)]
        loss = multi_task_loss(logits, [np.array([0, 1])] * 2, weights=[0.5, 2.0])
        assert type(loss.data) is np.ndarray and loss.data.shape == ()
        put, handed = T._put, []

        def spy(grads, t, g):
            handed.append(g)
            put(grads, t, g)

        monkeypatch.setattr(T, "_put", spy)
        T.backward(loss)
        assert handed and all(type(g) is np.ndarray and g.flags.writeable for g in handed)
        assert np.allclose(logits[1].grad, 2.0 * logits[0].grad / 0.5)

    def test_unit_backward_allocates_only_its_dx(self, rng):
        import tracemalloc
        out, (x, *_) = _training_unit(rng, (32, 16, 64, 64))
        g = rng.normal(size=out.shape).astype(np.float32)
        grads = {}
        tracemalloc.start()
        try:
            out._backward(g, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads[id(x)].shape == x.shape
        # 18 MiB when the masked gradient and the batch norm's dX were each a
        # new full-size array
        assert peak <= x.data.nbytes + (4 << 20), peak

    def test_repeated_unit_backward_doubles_every_gradient(self, rng):
        # the in-place writes land on the gradient, never on what the graph keeps
        out, params = _training_unit(rng, (4, 3, 8, 8))
        r = T.Tensor(rng.normal(size=out.shape))
        loss = T.reduce_sum(T.mul(out, r))
        T.backward(loss)
        once = [p.grad.copy() for p in params]
        T.backward(loss)
        for p, g in zip(params, once):
            assert np.array_equal(p.grad, 2 * g)


class TestNoGrad:
    def _model_and_input(self):
        from kneegrade.model import ModelConfig, build_model
        model = build_model(ModelConfig(), seed=3)
        model.eval()
        x = np.random.default_rng(5).normal(size=(2, 1, 32, 32)).astype(np.float32)
        return model, x

    def test_untaped_logits_match_taped_bitwise(self):
        model, x = self._model_and_input()
        taped = model(T.Tensor(x))
        assert all(lg._backward is not None for lg in taped)
        with T.no_grad():
            untaped = model(T.Tensor(x))
        for a, b in zip(taped, untaped):
            assert b._parents == () and b._backward is None and not b.requires_grad
            assert np.array_equal(a.data.view(np.uint32), b.data.view(np.uint32))

    def test_restores_recording_after_the_block(self):
        w = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            assert T.mul(w, w)._backward is None
        assert T.mul(w, w)._backward is not None

    def test_is_thread_local(self):
        w = T.Tensor([1.0, 2.0], requires_grad=True)
        entered, release = threading.Event(), threading.Event()
        seen = []

        def untaped():
            with T.no_grad():
                entered.set()
                release.wait(10)
                seen.append(T.mul(w, w)._backward)

        worker = threading.Thread(target=untaped)
        worker.start()
        try:
            assert entered.wait(10)
            loss = T.reduce_sum(T.mul(w, w))    # this thread still records
            T.backward(loss)
            assert np.allclose(w.grad, [2.0, 4.0])
        finally:
            release.set()
            worker.join(10)
        assert not worker.is_alive()
        assert seen == [None]


class TestNumerics:
    def test_nan_input_raises_at_first_op(self):
        x = T.Tensor([1.0, 2.0])
        x.data[0] = np.nan
        with pytest.raises(NumericsError):
            T.mul(x, x)

    def test_float64_opt_in(self):
        t = T.Tensor([1.0], dtype=np.float64)
        assert t.dtype == np.float64
        assert T.Tensor([1.0]).dtype == np.float32
        assert T.mul(t, t).dtype == np.float64

    def test_forward_determinism(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        runs = []
        for _ in range(2):
            xt = T.Tensor(x, requires_grad=True)
            out = T.mean_all(T.conv2d(xt, T.Tensor(w, requires_grad=True), padding=1))
            T.backward(out)
            runs.append((out.data.copy(), xt.grad.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
