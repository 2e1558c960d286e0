"""Op-level tests for the autodiff engine.

Expected values come from three places: hand-computable cases asserted
inline, naive loop oracles implemented here, and central finite differences
(tests/gradcheck.py) for every backward rule.
"""

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


# Output sides whose GEMM chunk width m*Ho*Wo is not (15) and is (16) a
# multiple of 16: OpenBLAS's float32 GEMM may round the columns past the last
# multiple of 16 in their own way.
_SIDES = (15, 16)

# ``_CHUNK_BYTES`` budgets for the gradient checks: 1 makes every chunk one
# image, whose GEMM writes its output in place and reads NCHW operands as
# they are; the default holds these small batches in multi-image chunks.
_BUDGETS = (1, T._CHUNK_BYTES)


# (name, input [N, C, H, W] for output side S, weight, stride, padding, groups)
_CONV_PATHS = [
    ("stem_1ch", lambda s: (2, 1, s, s), (4, 1, 3, 3), 1, 1, 1),
    ("3x3_16to16", lambda s: (2, 16, s, s), (16, 16, 3, 3), 1, 1, 1),
    ("3x3_stride2", lambda s: (2, 3, 2 * s, 2 * s), (4, 3, 3, 3), 2, 1, 1),
    ("1x1_stride2_shortcut", lambda s: (2, 3, 2 * s, 2 * s), (4, 3, 1, 1), 2, 0, 1),
    ("1x1_stride1", lambda s: (2, 3, s, s), (4, 3, 1, 1), 1, 0, 1),
    ("3x3_groups2", lambda s: (2, 4, s, s), (4, 2, 3, 3), 1, 1, 2),
    # the transposed backward's padding k - 1 - padding, and an input map
    # larger or smaller than the output
    ("3x3_pad0", lambda s: (2, 3, s + 2, s + 2), (4, 3, 3, 3), 1, 0, 1),
    ("3x3_pad2", lambda s: (2, 3, s - 2, s - 2), (4, 3, 3, 3), 1, 2, 1),
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
        check_gradients(lambda ts: T.mean_all(T.reduce_sum(ts[0], axis=1)), [x])

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
    """The conv lowering in one-image and multi-image chunks."""

    @pytest.mark.parametrize("side", _SIDES)
    @pytest.mark.parametrize("name,x_shape,w_shape,stride,padding,groups", _CONV_PATHS,
                             ids=[c[0] for c in _CONV_PATHS])
    def test_matches_naive_oracle(self, rng, monkeypatch, name, x_shape, w_shape, stride,
                                  padding, groups, side):
        x = rng.normal(size=x_shape(side))
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        want = naive_conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
        for budget in _BUDGETS:
            monkeypatch.setattr(T, "_CHUNK_BYTES", budget)
            got = T.conv2d(T.Tensor(x, dtype=np.float64), T.Tensor(w, dtype=np.float64),
                           T.Tensor(b, dtype=np.float64), stride=stride, padding=padding,
                           groups=groups).data
            assert got.shape[2:] == (side, side)
            assert np.allclose(got, want, atol=1e-10), budget

    @pytest.mark.parametrize("side", _SIDES)
    @pytest.mark.parametrize("name,x_shape,w_shape,stride,padding,groups", _CONV_PATHS,
                             ids=[c[0] for c in _CONV_PATHS])
    def test_grads(self, rng, monkeypatch, name, x_shape, w_shape, stride, padding, groups,
                   side):
        x = rng.normal(size=x_shape(side))
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        # weight the outputs so every pixel's gradient differs
        r = T.Tensor(rng.normal(size=(x.shape[0], w.shape[0], side, side)), dtype=np.float64)
        for budget in _BUDGETS:
            monkeypatch.setattr(T, "_CHUNK_BYTES", budget)
            check_gradients(
                lambda ts: T.mean_all(T.mul(T.conv2d(ts[0], ts[1], ts[2], stride=stride,
                                                     padding=padding, groups=groups), r)),
                [x, w, b], samples=400)

    def test_chunked_columns_match_whole_batch(self, rng, monkeypatch):
        for side in _SIDES:
            x = rng.normal(size=(5, 4, side, side))
            w = rng.normal(size=(4, 4, 3, 3))
            r = rng.normal(size=(5, 4, side, side))

            def run(chunk_bytes):
                monkeypatch.setattr(T, "_CHUNK_BYTES", chunk_bytes)
                tx = T.Tensor(x, requires_grad=True, dtype=np.float64)
                tw = T.Tensor(w, requires_grad=True, dtype=np.float64)
                out = T.conv2d(tx, tw, padding=1)
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(r, dtype=np.float64))))
                return out.data, tx.grad, tw.grad

            image_bytes = 4 * 9 * side * side * 8      # the input's columns and dY's
            whole = run(5 * image_bytes)
            # one-image chunks; chunks of 2, 2 and 1; of 3 and a ragged 2
            for step in (1, 2, 3):
                for a, b in zip(whole, run(step * image_bytes)):
                    assert np.allclose(a, b, rtol=0, atol=1e-12), (side, step)

    @pytest.mark.parametrize("side", _SIDES)
    def test_stride1_backward_gathers_only_dy_columns(self, rng, monkeypatch, side):
        x = T.Tensor(rng.normal(size=(3, 4, side, side)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(6, 4, 3, 3)), requires_grad=True)
        out = T.conv2d(x, w, padding=1)
        gather, chunks = T._column_chunks, []

        def spy(src, *args, **kwargs):
            for images, cols in gather(src, *args, **kwargs):
                chunks.append((src.shape[1], images))
                yield images, cols
        monkeypatch.setattr(T, "_column_chunks", spy)
        T.backward(T.reduce_sum(out))
        # the columns of dY's 6 channels, each image in one chunk
        assert {c for c, _ in chunks} == {6}
        assert sorted(i for _, s in chunks for i in range(s.start, s.stop)) == [0, 1, 2]

    def test_stride1_backward_holds_two_weight_sized_arrays(self, rng):
        """Block 3's 128 -> 128 3x3 backward at 64 px and batch 32 makes,
        beside dW, dX and its chunk of dY's columns, one weight-sized array
        (the dW accumulator) and small chunk buffers."""
        import tracemalloc
        x, g = (rng.normal(size=(32, 128, 4, 4)).astype(np.float32) for _ in range(2))
        w = rng.normal(size=(128, 128, 3, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            dw, dx = T._transposed_grads(g, x, w, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 3.15 MiB (+0.56 MiB) while the flipped kernel and each chunk's dW
        # product had buffers of their own
        assert peak <= dw.nbytes + dx.nbytes + w.nbytes + T._CHUNK_BYTES + (256 << 10), peak

    @pytest.mark.parametrize("side", _SIDES)
    def test_one_gather_dw_matches_input_columns_dw(self, rng, side):
        # float64 to 1e-12; float32 to 1e-5 of the largest |dW|, ~100 float32
        # epsilons, for sums of up to 2 * side^2 products in another order
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            for cin, cout, groups in ((3, 4, 1), (4, 6, 2)):
                for padding in (0, 1, 2):
                    x = rng.normal(size=(2, cin, side, side)).astype(dtype)
                    w = rng.normal(size=(cout, cin // groups, 3, 3)).astype(dtype)
                    ho = side + 2 * padding - 2
                    g = rng.normal(size=(2, cout, ho, ho)).astype(dtype)
                    want = T._lowered_grads(g, x, w, 1, padding, groups, False)[0]
                    want = want.swapaxes(-1, -2).reshape(w.shape)
                    got, dx = T._transposed_grads(g.copy(), x, w, padding, groups)
                    assert got.shape == w.shape and dx.shape == x.shape
                    assert np.abs(got - want).max() <= tol * np.abs(want).max(), \
                        (dtype, cin, groups, padding)


def padded_lowering(xd, wd, stride, padding, groups, ho, wo, g):
    """Output, dW and folded dX of the conv lowering gathered from a zero-padded
    copy of the input: the formulation the pad-free gathers replaced, with the
    same chunks, GEMMs and dW reductions (one product per chunk, added in
    turn), so results must agree bit for bit. Backward's chunks hold half the
    forward's images, since their column gradients share the budget."""
    n, cin, h, w = xd.shape
    cout, _, kh, kw = wd.shape
    og, p = cout // groups, ho * wo
    wg = wd.reshape(groups, og, -1)
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    col_bytes = cin * kh * kw * p * xd.itemsize

    cols = np.empty((n, cin, kh, kw, ho, wo), dtype=xd.dtype)
    for ki in range(kh):
        for kj in range(kw):
            cols[:, :, ki, kj] = xp[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride]

    def chunks(budget):
        step = max(1, min(n, T._CHUNK_BYTES // budget))
        return [slice(start, min(start + step, n)) for start in range(0, n, step)]

    def matrices(a, images):
        """Images of [N, C, ...] as [groups, C/groups*..., m*P] GEMM operands."""
        m = images.stop - images.start
        rows = np.ascontiguousarray(a[images].reshape(m, -1, p).swapaxes(0, 1))
        return rows.reshape(groups, -1, m * p)

    def images_of(y, m):
        """[groups, C/groups, m*P] back to [m, C, P]."""
        return y.reshape(-1, m, p).swapaxes(0, 1)

    out = np.empty((n, cout, ho, wo), dtype=xd.dtype)
    for images in chunks(col_bytes):
        m = images.stop - images.start
        out[images] = images_of(np.matmul(wg, matrices(cols, images)), m).reshape(m, cout, ho, wo)
    dw = np.zeros((groups, wg.shape[2], og), dtype=xd.dtype)
    for images in chunks(2 * col_bytes):
        m = images.stop - images.start
        cm, gm = matrices(cols, images), matrices(g, images)
        dw += np.matmul(cm, gm.swapaxes(-1, -2))
        dcols = images_of(np.matmul(wg.swapaxes(-1, -2), gm), m)
        dcols = dcols.reshape(m, cin, kh, kw, ho, wo)
        for ki in range(kh):
            for kj in range(kw):
                dxp[images, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += \
                    dcols[:, :, ki, kj]
    return out, dw, dxp[:, :, padding:padding + h, padding:padding + w]


def eval_unit(x, conv, bn, relu, pool, stem):
    """A model's conv unit on the array ``x`` in eval mode, by its owner's
    code: the stem's :func:`T.conv_bn_act`, or the eval unit every unit of
    :func:`T.residual_block` runs."""
    if stem:
        return T.conv_bn_act(T.Tensor(x), conv.weight, bn.gamma, bn.beta, bn.running_mean,
                             bn.running_var, False, stride=conv.stride, padding=conv.padding,
                             pool=pool).data
    return T._unit(x, (conv.weight, bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                       conv.stride, conv.padding, conv.groups), False, relu, [], "residual_block")


def model_units(model, x):
    """Every conv unit of an eval-mode ``model``'s backbone, with its input
    in a forward of the batch ``x``: (input, conv, bn, relu, pool, stem) for
    the stem, pooled as the model runs it and unpooled, then each block's
    units and shortcut, whose ``relu`` is False for the last unit and the
    shortcut."""
    bb = model.backbone
    units = [(x, bb.conv, bb.bn, True, pool, True)
             for pool in dict.fromkeys((bb.stem_spec.pool, 0))]
    with T.no_grad():
        y = eval_unit(x, bb.conv, bb.bn, True, bb.stem_spec.pool, True)
        for block in bb.blocks:
            xi = y
            for i, (conv, bn) in enumerate(block._units):
                units.append((xi, conv, bn, i < len(block._units) - 1, 0, False))
                xi = eval_unit(*units[-1])
            if block._short:
                units.append((y, *block._short, False, 0, False))
            y = block(T.Tensor(y)).data
    return units


def default_model_convs():
    """(Cin, Cout, k, groups, side, stride, padding) of every conv the default
    model runs at 64 and 128 px."""
    from kneegrade.model import ModelConfig, build_model
    model = build_model(ModelConfig(), seed=0).eval()
    seen = []
    for side in (64, 128):
        for x, conv, *_ in model_units(model, np.zeros((1, 1, side, side), np.float32)):
            key = (x.shape[1], conv.weight.shape[0], conv.weight.shape[2], conv.groups,
                   x.shape[2], conv.stride, conv.padding)
            if key not in seen:
                seen.append(key)
    return seen


# Chunk layouts of the one conv lowering, named after the per-image and
# batch-wide lowerings they replaced so their test ids hold. Budgets, in
# images of forward columns, that cut a 3-image batch into one-image chunks
# forward and backward (1); into forward chunks of 2 and a ragged 1 and
# backward chunks of 1 (2); and into one forward chunk and backward chunks of
# 2 and a ragged 1 (4).
_PADDED_BUDGETS = {"_conv_per_image": (1,), "_conv_batch_wide": (2, 4)}


class TestPadFreeColumns:
    """Columns gathered from the unpadded input equal those of a padded copy."""

    @pytest.mark.parametrize("layout", list(_PADDED_BUDGETS))
    def test_match_padded_columns_bitwise(self, rng, monkeypatch, layout):
        convs = default_model_convs()
        assert len(convs) == 22
        cases = list(convs)
        for cin, cout, k, groups in dict.fromkeys(c[:4] for c in convs):
            cases += [(cin, cout, k, groups, 17, stride, padding)
                      for stride in (1, 2) for padding in (0, 1, 2)]
        for cin, cout, k, groups, side, stride, padding in cases:
            x = rng.normal(size=(3, cin, side, side)).astype(np.float32)
            w = rng.normal(size=(cout, cin // groups, k, k)).astype(np.float32)
            ho = (side + 2 * padding - k) // stride + 1
            g = rng.normal(size=(3, cout, ho, ho)).astype(np.float32)
            for images in _PADDED_BUDGETS[layout]:
                monkeypatch.setattr(T, "_CHUNK_BYTES", images * cin * k * k * ho * ho * 4)
                got = (T._conv_lowered(x, w, stride, padding, groups, ho, ho),
                       *T._lowered_grads(g, x, w, stride, padding, groups, True))
                want = padded_lowering(x, w, stride, padding, groups, ho, ho, g)
                for name, a, b in zip(("out", "dW", "dX"), got, want):
                    assert a.flags.c_contiguous and np.array_equal(a, b), \
                        (images, cin, cout, k, side, stride, padding, name)

    @pytest.mark.parametrize("layout", list(_PADDED_BUDGETS))
    def test_phase_fold_matches_the_nine_tap_fold_bitwise(self, rng, monkeypatch, layout):
        # dX summed per input phase in its own buffer equals, byte for byte,
        # the taps added one by one in row-major order over a zeroed input
        for side in (12, 13):
            for stride in (2, 3):
                for k, padding in ((3, 1), (1, 0)):
                    x = rng.normal(size=(3, 4, side, side)).astype(np.float32)
                    w = rng.normal(size=(5, 4, k, k)).astype(np.float32)
                    ho = (side + 2 * padding - k) // stride + 1
                    g = rng.normal(size=(3, 5, ho, ho)).astype(np.float32)
                    for images in _PADDED_BUDGETS[layout]:
                        monkeypatch.setattr(T, "_CHUNK_BYTES", images * 4 * k * k * ho * ho * 4)
                        got = T._lowered_grads(g, x, w, stride, padding, 1, True)[1]
                        want = padded_lowering(x, w, stride, padding, 1, ho, ho, g)[2]
                        assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), \
                            (images, side, stride, k)


class TestChunkedEpilogues:
    """The eval unit's bias and ReLU per chunk, and pooling in image chunks,
    against their whole-batch forms."""

    # chunks of 5 images, by layout: one image each; 2, 2 and 1; 3 and a ragged 2
    @pytest.mark.parametrize("layout,side", [("_conv_per_image", 17),
                                             ("_conv_batch_wide", 7),
                                             ("_conv_per_image", 7),
                                             ("_conv_batch_wide", 17)])
    def test_bias_relu_in_the_lowering(self, rng, monkeypatch, layout, side):
        x = rng.normal(size=(5, 4, side, side)).astype(np.float32)
        w = rng.normal(size=(6, 4, 3, 3)).astype(np.float32)
        b = rng.normal(size=6).astype(np.float32)
        for step in {"_conv_per_image": (1,), "_conv_batch_wide": (2, 3)}[layout]:
            monkeypatch.setattr(T, "_CHUNK_BYTES", step * 4 * 9 * side * side * 4)
            want = T._conv_lowered(x, w, 1, 1, 1, side, side)
            want += b[None, :, None, None]
            np.maximum(want, 0, out=want)
            got = T._conv_lowered(x, w, 1, 1, 1, side, side, bias=b, relu=True)
            assert np.array_equal(got, want), step

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


def join_chain(y, gate, short):
    """A residual block's join, ``relu(y * gate + short)``, as separate ops;
    no gate when ``gate`` is None."""
    if gate is not None:
        n, c = gate.shape
        y = T.mul(y, T.broadcast_to(T.reshape(gate, (n, c, 1, 1)), y.shape))
    return T.relu(T.add(y, short))


def _basic_block(ts, stride, projection, gated):
    """(x, units, short, se) of a basic block for :func:`T.residual_block`,
    from tensors ``ts``: the input, then (w, gamma, beta) of two 3x3 units,
    of a 1x1 projection shortcut when ``projection``, and the SE weights when
    ``gated``. Running statistics start at 0 and 1."""
    x, rest = ts[0], list(ts[1:])

    def unit(stride, padding):
        w, gamma, beta = rest.pop(0), rest.pop(0), rest.pop(0)
        c = w.shape[0]
        return (w, gamma, beta, np.zeros(c, w.dtype), np.ones(c, w.dtype), stride, padding, 1)
    units = [unit(stride, 1), unit(1, 1)]
    short = unit(stride, 0) if projection else None
    return x, units, short, (tuple(rest) if gated else None)


def _basic_block_arrays(rng, cin, cout, projection, gated):
    """Random arrays in :func:`_basic_block`'s order, for a [3, cin, 6, 6] input."""
    shapes = [(3, cin, 6, 6), (cout, cin, 3, 3), (cout,), (cout,),
              (cout, cout, 3, 3), (cout,), (cout,)]
    if projection:
        shapes += [(cout, cin, 1, 1), (cout,), (cout,)]
    if gated:
        shapes += [(cout // 2, cout), (cout, cout // 2)]
    return [rng.normal(size=shape) for shape in shapes]


def _block_chain(x, units, short, se):
    """:func:`T.residual_block` in training mode, spelled as conv2d,
    batch_norm2d and relu per unit, the SE gate as its five ops, and
    :func:`join_chain`."""
    def unit(t, u, relu):
        w, gamma, beta, running_mean, running_var, stride, padding, groups = u
        t = T.batch_norm2d(T.conv2d(t, w, stride=stride, padding=padding, groups=groups),
                           gamma, beta, running_mean, running_var, training=True)
        return T.relu(t) if relu else t
    y = unit(unit(x, units[0], True), units[1], False)
    gate = None if se is None else \
        T.sigmoid(T.linear(T.relu(T.linear(T.global_avg_pool(y), se[0])), se[1]))
    return join_chain(y, gate, x if short is None else unit(x, short, False))


# (cin, cout, stride, projection): a block with an identity shortcut, and a
# strided one with a projection
_JOIN_BLOCKS = ((4, 4, 1, False), (4, 6, 2, True))


class TestGateAddRelu:
    """A residual block's join (SE gate, shortcut add, ReLU), which
    :func:`T.residual_block` runs in its one node with the units."""

    @pytest.mark.parametrize("gated", [True, False])
    def test_equals_chain_bitwise(self, rng, gated):
        for cin, cout, stride, projection in _JOIN_BLOCKS:
            arrays = [a.astype(np.float32)
                      for a in _basic_block_arrays(rng, cin, cout, projection, gated)]
            results = []
            for op in (lambda *args: T.residual_block(*args, True), _block_chain):
                ts = [T.Tensor(a, requires_grad=True) for a in arrays]
                x, units, short, se = _basic_block(ts, stride, projection, gated)
                out = op(x, units, short, se)
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(
                    np.random.default_rng(0).normal(size=out.shape)))))
                stats = [a for u in units + ([short] if projection else []) for a in u[3:5]]
                results.append([out.data] + [t.grad for t in ts] + stats)
            for a, b in zip(*results):
                assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("gated", [True, False])
    def test_grads(self, rng, gated):
        for cin, cout, stride, projection in _JOIN_BLOCKS:
            arrays = _basic_block_arrays(rng, cin, cout, projection, gated)
            r = T.Tensor(rng.normal(size=(3, cout, 6 // stride, 6 // stride)), dtype=np.float64)
            check_gradients(lambda ts: T.reduce_sum(T.mul(T.residual_block(
                *_basic_block(ts, stride, projection, gated), True), r)), arrays)

    def test_shapes_checked(self, rng):
        ts = [T.Tensor(a) for a in _basic_block_arrays(rng, 4, 6, False, True)]
        with pytest.raises(ConfigurationError, match="shortcut"):
            # an identity shortcut cannot add 4 channels to 6
            T.residual_block(*_basic_block(ts, 1, False, True), True)
        ts = [T.Tensor(a) for a in _basic_block_arrays(rng, 4, 4, False, False)]
        x, units, _, _ = _basic_block(ts, 1, False, False)
        for bad in ((np.ones((3, 6)), np.ones((6, 3))), (np.ones((2, 4)), np.ones((4, 3)))):
            with pytest.raises(ConfigurationError, match="SE weights"):
                T.residual_block(x, units, None, tuple(map(T.Tensor, bad)), True)
        with pytest.raises(ConfigurationError, match="NCHW"):
            T.residual_block(T.Tensor(np.ones((3, 4, 6))), units, None, None, True)

    @pytest.mark.parametrize("training", [True, False])
    def test_conv_error_names_the_op(self, rng, training):
        ts = [T.Tensor(a) for a in _basic_block_arrays(rng, 4, 6, True, False)]
        x, units, short, _ = _basic_block(ts, 1, True, False)
        units[1] = units[1][:7] + (4,)          # 4 groups cannot divide 6 channels
        with pytest.raises(ConfigurationError, match=r"^residual_block: groups=4 must divide"):
            T.residual_block(x, units, short, None, training)

    def test_eval_node_runs_and_has_no_backward(self, rng):
        ts = [T.Tensor(a, requires_grad=True)
              for a in _basic_block_arrays(rng, 4, 6, True, True)]
        x, units, short, se = _basic_block(ts, 2, True, True)
        out = T.residual_block(x, units, short, se, False)
        assert out.shape == (3, 6, 3, 3)
        with pytest.raises(UsageError, match="no backward in eval mode"):
            T.backward(T.mean_all(out))
        with T.no_grad():
            assert T.residual_block(x, units, short, se, False)._backward is None

    @pytest.mark.parametrize("where", ["input", "weight", "beta"])
    def test_a_planted_inf_raises(self, rng, where):
        ts = [T.Tensor(a) for a in _basic_block_arrays(rng, 4, 6, True, True)]
        x, units, short, se = _basic_block(ts, 2, True, True)
        if where == "input":
            x.data[1, 2, 3, 4] = np.inf
        elif where == "weight":
            units[0][0].data[0, 0, 1, 1] = np.inf
        else:       # -inf in the shortcut's shift, which the final ReLU would hide
            short[2].data[3] = -np.inf
        with pytest.raises(NumericsError, match="residual_block"), \
                np.errstate(invalid="ignore"):
            T.residual_block(x, units, short, se, True)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("where", ["last_unit", "shortcut"])
    def test_an_eval_overflow_without_a_relu_raises_at_the_join(self, rng, where, sign):
        # finite weights whose conv overflows float32 to +-inf in the last
        # branch unit or the shortcut: neither ends in a ReLU, so the inf stays
        # non-finite through the gate and the sum, and the join's scan raises
        arrays = _basic_block_arrays(rng, 4, 6, True, True)
        arrays[0] = np.abs(arrays[0]) + 1.0         # a positive input
        x, units, short, se = _basic_block([T.Tensor(a) for a in arrays], 2, True, True)
        w, gamma, beta = (units[1] if where == "last_unit" else short)[:3]
        w.data[...] = sign * 1e38
        gamma.data[...] = 1.0
        beta.data[...] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            branch = T._unit(x.data, units[0], False, True, [], "t")
            y = T._unit(branch, units[1], False, False, [], "t") if where == "last_unit" \
                else T._unit(x.data, short, False, False, [], "t")
            assert np.all(np.isfinite(branch)) and np.any(y == sign * np.inf)
            assert not np.any(np.isnan(y))
            with pytest.raises(NumericsError,
                               match="^residual_block produced non-finite values$"):
                T.residual_block(x, units, short, se, False)


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
# unit's conv shapes
_UNIT_PATHS = [c for c in _CONV_PATHS
               if c[0] in ("stem_1ch", "3x3_stride2", "1x1_stride2_shortcut", "3x3_groups2")]


def _bn_state(rng, c):
    """gamma, beta, running mean and running variance away from the defaults."""
    return (rng.uniform(0.5, 1.5, size=c), rng.normal(size=c),
            rng.normal(size=c), rng.uniform(0.5, 2.0, size=c))


# Geometries only a residual block's units have. conv_bn_act runs the stem's
# unit, always one group and a ReLU; these, and every case without a ReLU,
# run as residual_block runs a unit.
_BLOCK_UNIT_PATHS = ("1x1_stride2_shortcut", "1x1_stride1", "3x3_groups2")

# What a lone block unit without a ReLU is lifted by, so that the join's
# ReLU passes most of its output.
_LIFT = 4.0


def lone_unit(x, w, gamma, beta, rm, rv, training, stride, padding, groups, lift):
    """``relu(unit(x) + lift)`` for a conv unit run as :func:`T.residual_block`
    runs one: the block's only branch unit, so it has no ReLU of its own,
    beside a shortcut unit of its geometry whose weight and gamma are 0 and
    whose beta is ``lift``, so the shortcut adds exactly ``lift``."""
    c, dtype = w.shape[0], w.dtype
    short = (T.Tensor(np.zeros(w.shape), dtype=dtype), T.Tensor(np.zeros(c), dtype=dtype),
             T.Tensor(np.full(c, lift), dtype=dtype), np.zeros(c, dtype), np.ones(c, dtype),
             stride, padding, groups)
    return T.residual_block(x, [(w, gamma, beta, rm, rv, stride, padding, groups)], short,
                            None, training)


def _unit(fused, name, x, w, gamma, beta, rm, rv, training, act, stride, padding, groups):
    """The conv unit of path ``name``, fused or as the chain of conv2d,
    batch_norm2d and relu. A block's unit is :func:`lone_unit`'s, lifted by
    0 when ``act`` is "relu", which gives the unit's own output, and by
    ``_LIFT`` when None."""
    block = act is None or name in _BLOCK_UNIT_PATHS
    if fused and not block:
        return T.conv_bn_act(x, w, gamma, beta, rm, rv, training, stride=stride,
                             padding=padding)
    lift = 0.0 if act == "relu" else _LIFT
    if fused:
        return lone_unit(x, w, gamma, beta, rm, rv, training, stride, padding, groups, lift)
    y = T.batch_norm2d(T.conv2d(x, w, stride=stride, padding=padding, groups=groups),
                       gamma, beta, rm, rv, training)
    if block:
        y = T.add(y, T.Tensor(np.full(y.shape, lift), dtype=y.dtype))
    return T.relu(y)


def _unit_run(fused, name, arrays, training, act, geometry, dtype=np.float32):
    """Output, input/weight/gamma/beta gradients and running stats of one
    unit; in eval mode, which has no backward, output and running stats."""
    x, w, gamma, beta, rm, rv = arrays
    ts = [T.Tensor(a, requires_grad=training, dtype=dtype) for a in (x, w, gamma, beta)]
    rm, rv = rm.astype(dtype, copy=False), rv.astype(dtype, copy=False)
    out = _unit(fused, name, *ts, rm, rv, training, act, *geometry)
    if not training:
        return [out.data, rm, rv]
    r = np.random.default_rng(3).normal(size=out.shape).astype(dtype)
    T.backward(T.reduce_sum(T.mul(out, T.Tensor(r, dtype=dtype))))
    return [out.data] + [t.grad for t in ts] + [rm, rv]


class TestConvBnAct:
    """The stem's fused conv -> batch norm -> ReLU unit, and a block's unit
    as :func:`T.residual_block` runs it, against the chain of ops."""

    @pytest.mark.parametrize("act", ["relu", None])
    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("side", _SIDES)
    @pytest.mark.parametrize("name,x_shape,w_shape,stride,padding,groups", _UNIT_PATHS,
                             ids=[c[0] for c in _UNIT_PATHS])
    def test_grads(self, rng, monkeypatch, name, x_shape, w_shape, stride, padding, groups,
                   side, input_grad, act):
        """Training-mode gradients, with the input's and without it; an input
        that wants none skips dX (and the 1-channel stem takes the moment path)."""
        x = rng.normal(size=x_shape(side))
        w = rng.normal(size=w_shape)
        gamma, beta, rm, rv = _bn_state(rng, w_shape[0])
        r = T.Tensor(rng.normal(size=(x.shape[0], w.shape[0], side, side)), dtype=np.float64)

        def loss(x, w, gamma, beta):
            return T.mean_all(T.mul(_unit(True, name, x, w, gamma, beta, rm.copy(), rv.copy(),
                                          True, act, stride, padding, groups), r))
        fixed = T.Tensor(x, dtype=np.float64)
        for budget in _BUDGETS:
            monkeypatch.setattr(T, "_CHUNK_BYTES", budget)
            if input_grad:
                check_gradients(lambda ts: loss(*ts), [x, w, gamma, beta], samples=200)
            else:
                check_gradients(lambda ts: loss(fixed, *ts), [w, gamma, beta], samples=200)

    @pytest.mark.parametrize("act", ["relu", None])
    @pytest.mark.parametrize("name,x_shape,w_shape,stride,padding,groups", _CONV_PATHS,
                             ids=[c[0] for c in _CONV_PATHS])
    def test_training_equals_chain_bitwise(self, rng, name, x_shape, w_shape, stride,
                                           padding, groups, act):
        side = _SIDES[1]
        arrays = [rng.normal(size=x_shape(side)), rng.normal(size=w_shape),
                  *_bn_state(rng, w_shape[0])]
        geometry = (stride, padding, groups)
        fused = _unit_run(True, name, arrays, True, act, geometry)
        chain = _unit_run(False, name, arrays, True, act, geometry)
        for a, b in zip(fused, chain):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("act", ["relu", None])
    @pytest.mark.parametrize("name,x_shape,w_shape,stride,padding,groups", _CONV_PATHS,
                             ids=[c[0] for c in _CONV_PATHS])
    def test_eval_folds_within_float32_rounding(self, rng, name, x_shape, w_shape, stride,
                                                padding, groups, act):
        side = _SIDES[0]
        arrays = [a.astype(np.float32) for a in
                  (rng.normal(size=x_shape(side)), rng.normal(size=w_shape),
                   *_bn_state(rng, w_shape[0]))]
        before = [a.copy() for a in arrays]
        geometry = (stride, padding, groups)
        fused = _unit_run(True, name, arrays, False, act, geometry)
        chain = _unit_run(False, name, arrays, False, act, geometry)
        for a, b in zip(fused, chain):
            assert np.allclose(a, b, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(b).max()))
        # the fold builds new arrays: inputs, weights and statistics keep their bytes
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def _module_unit(conv, bn, x):
        """The unit of the modules ``conv`` and ``bn``, as the stem runs it."""
        return T.conv_bn_act(x, conv.weight, bn.gamma, bn.beta, bn.running_mean,
                             bn.running_var, bn.batch_stats, padding=conv.padding)

    def test_eval_leaves_module_state_byte_identical(self, rng):
        from kneegrade.nn import BatchNorm2d, Conv2d
        conv = Conv2d(3, 4, 3, rng, padding=1)
        bn = BatchNorm2d(4).eval()
        bn.running_mean[...] = rng.normal(size=4)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=4)
        state = {k: v.tobytes() for k, v in {**conv.state_arrays(), **bn.state_arrays()}.items()}
        x = T.Tensor(rng.normal(size=(2, 3, 6, 6)))
        self._module_unit(conv, bn, x)
        after = {k: v.tobytes() for k, v in {**conv.state_arrays(), **bn.state_arrays()}.items()}
        assert after == state

    def test_eval_and_frozen_units_have_no_backward(self, rng):
        from kneegrade.nn import BatchNorm2d, Conv2d
        conv = Conv2d(3, 4, 3, rng, padding=1)
        x = T.Tensor(rng.normal(size=(2, 3, 6, 6)))
        frozen = BatchNorm2d(4)
        frozen.stats_frozen = True              # parameters still want gradients
        for bn in (BatchNorm2d(4).eval(), frozen):
            for inp in (x, T.Tensor(x.data, requires_grad=True)):
                loss = T.mean_all(self._module_unit(conv, bn, inp))     # the forward runs
                with pytest.raises(UsageError, match="no backward in eval mode"):
                    T.backward(loss)
        # a fully frozen unit over an input that wants no gradient records nothing
        conv.set_trainable(False)
        assert not self._module_unit(conv, BatchNorm2d(4).set_trainable(False),
                                     x).requires_grad

    def test_a_frozen_weight_under_a_training_norm(self, rng):
        """A conv weight frozen by hand while its batch norm trains, a state
        set_trainable never makes, over an image and off the moment path (a
        5x5 kernel over one channel is deeper than 4 output channels): gamma
        and beta get their gradients and the weight none."""
        x = T.Tensor(rng.normal(size=(2, 1, 6, 6)), dtype=np.float64)
        w = T.Tensor(rng.normal(size=(4, 1, 5, 5)), dtype=np.float64)
        gamma, beta, rm, rv = _bn_state(rng, 4)
        r = T.Tensor(rng.normal(size=(2, 4, 6, 6)), dtype=np.float64)

        def loss(ts):
            return T.mean_all(T.mul(T.conv_bn_act(x, w, *ts, rm.copy(), rv.copy(), True,
                                                  padding=2), r))
        assert check_gradients(loss, [gamma, beta]) < 1e-4
        assert w.grad is None

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

    @pytest.mark.parametrize("training", [True, False])
    def test_conv_error_names_the_op(self, rng, training):
        with pytest.raises(ConfigurationError,
                           match=r"^conv_bn_act: weight expects 2 channels per group, input "):
            T.conv_bn_act(T.Tensor(rng.normal(size=(2, 3, 6, 6))),
                          T.Tensor(rng.normal(size=(4, 2, 3, 3))), T.Tensor(np.ones(4)),
                          T.Tensor(np.zeros(4)), np.zeros(4, np.float32), np.ones(4, np.float32),
                          training, padding=1)

    def test_bad_act_and_shapes_rejected(self, rng):
        x = T.Tensor(rng.normal(size=(2, 3, 6, 6)))
        w = T.Tensor(rng.normal(size=(4, 3, 3, 3)))
        stats = (np.zeros(4, np.float32), np.ones(4, np.float32))
        with pytest.raises(TypeError):          # the unit always ends in a ReLU
            T.conv_bn_act(x, w, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)), *stats, True,
                          act="sigmoid")
        with pytest.raises(ConfigurationError):
            T.conv_bn_act(x, w, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), *stats, True)


# (name, input for output side S, weight, stride): training units whose
# input wants no gradient and whose column depth Cin*kH*kW is at most Cout,
# so their batch statistics come from the columns' moments; padding 1
_MOMENT_PATHS = [
    ("stem", lambda s: (2, 1, s, s), (16, 1, 3, 3), 1),
    ("stride2_2to32", lambda s: (2, 2, 2 * s, 2 * s), (32, 2, 3, 3), 2),
]


class TestMomentPath:
    """A training unit over an input that wants no gradient, with no deeper
    columns than output channels, normalizes by statistics taken from its
    columns' float64 moments and folds them into the conv."""

    @pytest.mark.parametrize("act", ["relu"])       # the unit's one activation
    @pytest.mark.parametrize("side", _SIDES)
    @pytest.mark.parametrize("name,x_shape,w_shape,stride", _MOMENT_PATHS,
                             ids=[c[0] for c in _MOMENT_PATHS])
    def test_grads_with_a_constant_input(self, rng, monkeypatch, name, x_shape, w_shape,
                                         stride, side, act):
        x = T.Tensor(rng.normal(size=x_shape(side)), dtype=np.float64)
        w = rng.normal(size=w_shape)
        gamma, beta, rm, rv = _bn_state(rng, w_shape[0])
        r = T.Tensor(rng.normal(size=(x.shape[0], w_shape[0], side, side)), dtype=np.float64)
        for budget in _BUDGETS:
            monkeypatch.setattr(T, "_CHUNK_BYTES", budget)
            check_gradients(
                lambda ts: T.mean_all(T.mul(T.conv_bn_act(
                    x, ts[0], ts[1], ts[2], rm.copy(), rv.copy(), True, stride=stride,
                    padding=1), r)),
                [w, gamma, beta], samples=200)

    def test_offset_input_keeps_its_running_statistics(self, rng):
        # E[cc^T] - mu mu^T cancels ~8 digits here: float32 moments would keep none
        x = (100.0 + 1e-2 * rng.normal(size=(4, 1, 32, 32))).astype(np.float32)
        w = rng.normal(size=(16, 1, 3, 3)).astype(np.float32)
        rm, rv = np.zeros(16, np.float32), np.zeros(16, np.float32)
        T.conv_bn_act(T.Tensor(x), T.Tensor(w, requires_grad=True), T.Tensor(np.ones(16)),
                      T.Tensor(np.zeros(16)), rm, rv, True, padding=1)
        y = naive_conv2d(x.astype(np.float64), w.astype(np.float64), padding=1)
        mean = y.mean(axis=(0, 2, 3))
        var = ((y - mean[None, :, None, None]) ** 2).mean(axis=(0, 2, 3))
        eps = np.finfo(np.float32).eps
        assert np.allclose(rm, 0.1 * mean, rtol=2 * eps, atol=0)
        assert np.allclose(rv, 0.1 * var, rtol=2 * eps, atol=0)

    @staticmethod
    def _pooled_step(side, itemsize):
        """Images per chunk of a pooled 3x3 unit over one channel at ``side``
        px: about ``_CHUNK_BYTES`` of its 9-row columns."""
        step = T._CHUNK_BYTES // (9 * side * side * itemsize)
        assert step >= 2
        return step

    @pytest.mark.parametrize("act", ["relu"])       # the unit's one activation
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_pooled_grads_around_the_chunk_step(self, rng, offset, act):
        # 63 px: the 2x2 pool drops the last row and column of the unit output
        side = 63
        batch = self._pooled_step(side, 8) + offset
        x = T.Tensor(rng.normal(size=(batch, 1, side, side)), dtype=np.float64)
        gamma, beta, rm, rv = _bn_state(rng, 16)
        r = T.Tensor(rng.normal(size=(batch, 16, 31, 31)), dtype=np.float64)

        def build(ts):
            out = T.conv_bn_act(x, ts[0], ts[1], ts[2], rm.copy(), rv.copy(), True,
                                padding=1, pool=2)
            assert out._parents[0] is x          # no separate pool node
            return T.mean_all(T.mul(out, r))
        # a step of 1e-7: with ~10^5 ReLU inputs, 1e-5 steps some of them across 0
        check_gradients(build, [rng.normal(size=(16, 1, 3, 3)), gamma, beta], h=1e-7,
                        samples=200)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_pooled_epilogue_equals_unit_then_pool(self, rng, offset):
        """Output and running statistics keep the bits of the unit and
        ``avg_pool2d`` in turn; gradients too while one chunk holds the batch,
        and to float32 rounding once the channel sums are taken by chunk."""
        side = 64
        batch = self._pooled_step(side, 4) + offset
        arrays = [a.astype(np.float32) for a in
                  (rng.normal(size=(batch, 1, side, side)), rng.normal(size=(16, 1, 3, 3)),
                   *_bn_state(rng, 16))]
        r = T.Tensor(rng.normal(size=(batch, 16, 32, 32)).astype(np.float32))
        runs = []
        for fused in (True, False):
            x, w, gamma, beta, rm, rv = [a.copy() for a in arrays]
            ts = [T.Tensor(a, requires_grad=True) for a in (w, gamma, beta)]
            if fused:
                out = T.conv_bn_act(T.Tensor(x), *ts, rm, rv, True, padding=1, pool=2)
            else:
                out = T.avg_pool2d(T.conv_bn_act(T.Tensor(x), *ts, rm, rv, True, padding=1), 2)
            T.backward(T.reduce_sum(T.mul(out, r)))
            runs.append(([out.data, rm, rv], [t.grad for t in ts]))
        (values, grads), (want_values, want_grads) = runs
        for a, b in zip(values, want_values):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(grads, want_grads):
            if offset == 0:
                assert a.tobytes() == b.tobytes()
            else:
                assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max()

    def test_pool_window_checked(self, rng):
        args = (T.Tensor(rng.normal(size=(2, 1, 4, 4))),
                T.Tensor(rng.normal(size=(16, 1, 3, 3)), requires_grad=True),
                T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)),
                np.zeros(16, np.float32), np.ones(16, np.float32), True)
        for pool in (-1, 5):
            with pytest.raises(ConfigurationError):
                T.conv_bn_act(*args, padding=1, pool=pool)

    def test_single_value_per_channel_rejected(self):
        from kneegrade.errors import NormalizationError
        with pytest.raises(NormalizationError):
            T.conv_bn_act(T.Tensor(np.ones((1, 1, 1, 1))),
                          T.Tensor(np.ones((16, 1, 1, 1)), requires_grad=True),
                          T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)),
                          np.zeros(16, np.float32), np.ones(16, np.float32), True)


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
        T.backward(T.reduce_sum(T.mul(x, x)))
        T.backward(T.reduce_sum(T.mul(x, x)))
        assert np.allclose(x.grad, [4.0, 8.0])

    def test_second_backward_through_a_consumed_graph_raises(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        y = T.mul(x, x)
        loss = T.reduce_sum(y)
        T.backward(loss)
        assert y._parents == () and loss._parents == ()
        for again in (loss, T.reduce_sum(T.scale(y, 2.0))):
            with pytest.raises(UsageError, match="consumed"):
                T.backward(again)
        # a consumed node is never taken for a leaf, and its value stays
        assert np.allclose(x.grad, [2.0, 4.0]) and y.grad is None
        assert float(loss.data) == 5.0

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
        # the largest is the pooled stem output's gradient: the stem pools in
        # its own epilogue, so no full-resolution (64 x 64) gradient is handed
        assert max(handed) == 32 * 16 * 32 * 32 * 4
        assert 32 * 16 * 64 * 64 * 4 not in handed
        # one per parameter and one per node input that wants a gradient (135
        # while each unit, SE op and join was a node of its own)
        assert len(handed) == 100

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

    def test_batch_wide_unit_backward_stays_chunk_sized(self, rng):
        import tracemalloc
        # block 2's second unit at 64 px: one stride-1 gather, chunk by chunk
        out, (x, w, *_) = _training_unit(rng, (32, 64, 8, 8))
        g = rng.normal(size=out.shape).astype(np.float32)
        grads = {}
        tracemalloc.start()
        try:
            out._backward(g, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads[id(x)].shape == x.shape
        # dX, a few weight-sized arrays and about one chunk of dY's columns
        # (2.1 MiB); 5.6 MiB when the batch-wide backward gathered the
        # input's whole-batch columns (4.5 MiB), then dY's
        assert peak <= x.data.nbytes + 4 * w.data.nbytes + 3 * T._CHUNK_BYTES // 2, peak

    def test_stem_unit_keeps_no_centred_copy(self, rng):
        import tracemalloc
        x = T.Tensor(rng.normal(size=(32, 1, 64, 64)))
        params = [T.Tensor(a, requires_grad=True) for a in
                  (rng.normal(size=(16, 1, 3, 3)) * 0.3, np.ones(16), np.zeros(16))]
        stats = np.zeros(16, np.float32), np.ones(16, np.float32)
        g = rng.normal(size=(32, 16, 64, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            out = T.conv_bn_act(x, *params, *stats, True, padding=1)
            out._backward(g, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 19 MiB when forward centred the conv output in a buffer backward kept
        assert peak <= out.data.nbytes + (4 << 20), peak

    def test_pooled_stem_keeps_no_full_resolution_output(self, rng):
        import tracemalloc
        x = T.Tensor(rng.normal(size=(32, 1, 64, 64)))
        params = [T.Tensor(a, requires_grad=True) for a in
                  (rng.normal(size=(16, 1, 3, 3)) * 0.3, np.ones(16), np.zeros(16))]
        stats = np.zeros(16, np.float32), np.ones(16, np.float32)
        g = rng.normal(size=(32, 16, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            out = T.conv_bn_act(x, *params, *stats, True, padding=1, pool=2)
            out._backward(g, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (32, 16, 32, 32) and out._parents[0] is x
        # the unit's full-resolution output alone is 8 MiB, and a pool node's
        # dX as much again
        assert peak <= out.data.nbytes + (4 << 20), peak

    def test_repeated_unit_backward_doubles_every_gradient(self, rng):
        # the in-place writes land on the gradient, never on what the graph
        # keeps or on the output the caller holds
        out, params = _training_unit(rng, (4, 3, 8, 8))
        r = T.Tensor(rng.normal(size=out.shape))
        held = out.data.copy()
        T.backward(T.reduce_sum(T.mul(out, r)))
        assert np.array_equal(out.data.view(np.uint32), held.view(np.uint32))
        once = [p.grad.copy() for p in params]
        c = params[0].shape[1]
        again = T.conv_bn_act(*params, np.zeros(c, np.float32), np.ones(c, np.float32),
                              training=True, padding=1)
        assert np.array_equal(again.data.view(np.uint32), held.view(np.uint32))
        T.backward(T.reduce_sum(T.mul(again, r)))
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
