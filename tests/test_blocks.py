"""Block-level behavior: SE gating, residual wiring, pooling heads."""

import numpy as np
import pytest

from kneegrade import tensor as T
from kneegrade.blocks import BlockSpec, PoolHead, PoolingSpec, ResidualBlock, SEGate, StemSpec, Backbone
from kneegrade.errors import ConfigurationError

from gradcheck import check_param_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(13)


def se_oracle(x, w1, w2):
    """Independent numpy SE computation used to pin the module down."""
    z = x.mean(axis=(2, 3))
    h = np.maximum(z @ w1.T, 0.0)
    gate = 1.0 / (1.0 + np.exp(-(h @ w2.T)))
    return x * gate[:, :, None, None]


def unit_oracle(x, w, gamma, beta, running_mean, running_var, training, act, stride=1,
                padding=0, groups=1, momentum=0.1, eps=1e-5):
    """Independent float64 conv -> batch norm -> optional ReLU.

    The conv accumulates shifted input windows over kernel offsets (no
    columns), the batch norm loops over channels. Returns the output and the
    updated running mean and variance; the inputs are not written.
    """
    n, _, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    og = cout // groups
    xp = np.pad(np.asarray(x, dtype=np.float64),
                ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    y = np.zeros((n, cout, ho, wo))
    for gi in range(groups):
        for i in range(kh):
            for j in range(kw):
                window = xp[:, gi * cg:(gi + 1) * cg, i:i + stride * (ho - 1) + 1:stride,
                            j:j + stride * (wo - 1) + 1:stride]
                y[:, gi * og:(gi + 1) * og] += np.einsum(
                    "nchw,oc->nohw", window, w[gi * og:(gi + 1) * og, :, i, j])
    out = np.empty_like(y)
    rm = np.array(running_mean, dtype=np.float64)
    rv = np.array(running_var, dtype=np.float64)
    for c in range(cout):
        v = y[:, c]
        if training:
            mu, var = v.mean(), ((v - v.mean()) ** 2).mean()
            rm[c] = (1 - momentum) * rm[c] + momentum * mu
            rv[c] = (1 - momentum) * rv[c] + momentum * var
        else:
            mu, var = float(running_mean[c]), float(running_var[c])
        out[:, c] = gamma[c] * (v - mu) / np.sqrt(var + eps) + beta[c]
    if act == "relu":
        out = np.maximum(out, 0.0)
    return out, rm, rv


class TestSEGate:
    def test_zero_weights_halve_input(self, rng):
        se = SEGate(8, 4, rng)
        se.squeeze.weight.data[...] = 0.0
        se.excite.weight.data[...] = 0.0
        x = T.Tensor(rng.normal(size=(2, 8, 3, 3)))
        out = se(x)
        assert np.array_equal(out.data, 0.5 * x.data)

    def test_zero_input_stays_zero(self, rng):
        se = SEGate(8, 2, rng)
        out = se(T.Tensor(np.zeros((1, 8, 4, 4))))
        assert np.array_equal(out.data, np.zeros((1, 8, 4, 4), dtype=np.float32))

    def test_matches_numpy_oracle(self, rng):
        se = SEGate(6, 3, rng, dtype=np.float64)
        x = rng.normal(size=(3, 6, 4, 5))
        got = se(T.Tensor(x, dtype=np.float64)).data
        want = se_oracle(x, se.squeeze.weight.data, se.excite.weight.data)
        assert np.allclose(got, want, atol=1e-12)

    def test_gate_never_amplifies(self, rng):
        se = SEGate(4, 2, rng, dtype=np.float64)
        x = rng.normal(size=(2, 4, 5, 5))
        out = se(T.Tensor(x, dtype=np.float64)).data
        assert np.all(np.abs(out) <= np.abs(x) + 1e-12)

    def test_reduction_must_divide(self, rng):
        with pytest.raises(ConfigurationError):
            SEGate(6, 4, rng)

    def test_grads(self, rng):
        se = SEGate(4, 2, rng, dtype=np.float64)
        x = T.Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True, dtype=np.float64)
        check_param_gradients(lambda: T.mean_all(se(x)), [x] + se.parameters())


class TestResidualBlock:
    def test_zero_branch_is_relu_identity(self, rng):
        spec = BlockSpec("basic", 8, 8)
        block = ResidualBlock(spec, rng).eval()
        for _, p in block.named_parameters():
            if p.data.ndim == 4:  # conv weights only
                p.data[...] = 0.0
        x = rng.normal(size=(2, 8, 5, 5)).astype(np.float32)
        out = block(T.Tensor(x)).data
        assert np.array_equal(out, np.maximum(x, 0.0))

    def test_stride_two_halves_spatial(self, rng):
        spec = BlockSpec("basic", 8, 16, stride=2)
        block = ResidualBlock(spec, rng).eval()
        out = block(T.Tensor(rng.normal(size=(1, 8, 8, 8))))
        assert out.shape == (1, 16, 4, 4)

    def test_bottleneck_shapes_and_expansion(self, rng):
        spec = BlockSpec("bottleneck", 16, 32, stride=2)
        block = ResidualBlock(spec, rng).eval()
        assert block.conv1.weight.shape == (8, 16, 1, 1)   # 32 / 4
        out = block(T.Tensor(rng.normal(size=(1, 16, 6, 6))))
        assert out.shape == (1, 32, 3, 3)

    def test_grouped_bottleneck_equals_two_path_oracle(self, rng):
        # A groups=2 middle conv must behave exactly like two half-width convs
        # run side by side and concatenated.
        spec = BlockSpec("bottleneck", 8, 16, groups=2, group_width=4)
        block = ResidualBlock(spec, rng, dtype=np.float64).eval()
        x = rng.normal(size=(2, 8, 5, 5))
        mid_in = T.relu(block.bn1(block.conv1(T.Tensor(x, dtype=np.float64)))).data
        grouped = T.conv2d(T.Tensor(mid_in, dtype=np.float64), block.conv2.weight,
                           padding=1, groups=2).data
        w = block.conv2.weight.data
        lo = T.conv2d(T.Tensor(mid_in[:, :4], dtype=np.float64),
                      T.Tensor(w[:4], dtype=np.float64), padding=1).data
        hi = T.conv2d(T.Tensor(mid_in[:, 4:], dtype=np.float64),
                      T.Tensor(w[4:], dtype=np.float64), padding=1).data
        assert np.array_equal(grouped, np.concatenate([lo, hi], axis=1))

    def test_grouped_requires_bottleneck(self):
        with pytest.raises(ConfigurationError):
            BlockSpec("basic", 8, 8, groups=2).validate()

    def test_bottleneck_expansion_enforced(self):
        with pytest.raises(ConfigurationError):
            BlockSpec("bottleneck", 8, 10).validate()

    def test_se_block_grads(self, rng):
        spec = BlockSpec("basic", 4, 4, se_enabled=True, se_reduction=2)
        block = ResidualBlock(spec, rng, dtype=np.float64)
        x = T.Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True, dtype=np.float64)
        check_param_gradients(lambda: T.mean_all(block(x)), [x] + block.parameters())


class TestUnits:
    """Blocks run each conv/BN pair as one conv_bn_act node."""

    @staticmethod
    def _chain(block, x):
        """A basic block with a projection shortcut and no SE gate, spelled as
        separate conv, batch-norm and ReLU ops."""
        y = T.relu(block.bn1(block.conv1(x)))
        y = block.bn2(block.conv2(y))
        shortcut = block.short_bn(block.short_conv(x))
        return T.relu(T.add(y, shortcut))

    @staticmethod
    def _randomize_stats(module, rng):
        for name, b in module.named_buffers():
            b[...] = rng.uniform(0.5, 2.0, b.shape) if name.endswith("var") else \
                rng.normal(size=b.shape)

    def test_training_block_equals_chain_bitwise(self, rng):
        spec = BlockSpec("basic", 4, 8, stride=2)
        fused, chain = ResidualBlock(spec, np.random.default_rng(1)), \
            ResidualBlock(spec, np.random.default_rng(1))
        x = rng.normal(size=(3, 4, 8, 8)).astype(np.float32)
        outs = []
        for block, run in ((fused, lambda b, t: b(t)), (chain, self._chain)):
            t = T.Tensor(x, requires_grad=True)
            out = run(block, t)
            T.backward(T.mean_all(out))
            outs.append([out.data, t.grad] + [p.grad for p in block.parameters()]
                        + [b for _, b in block.named_buffers()])
        for a, b in zip(*outs):
            assert np.array_equal(a, b)

    def test_eval_block_folds_within_float32_rounding(self, rng):
        spec = BlockSpec("basic", 4, 8, stride=2)
        block = ResidualBlock(spec, rng).eval()
        self._randomize_stats(block, rng)
        state = {k: v.tobytes() for k, v in block.state_arrays().items()}
        x = T.Tensor(rng.normal(size=(3, 4, 8, 8)))
        got, want = block(x).data, self._chain(block, x).data
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5)
        assert {k: v.tobytes() for k, v in block.state_arrays().items()} == state

    def test_eval_bottleneck_grads(self, rng):
        spec = BlockSpec("bottleneck", 4, 8, groups=2, group_width=2, stride=2)
        block = ResidualBlock(spec, rng, dtype=np.float64).eval()
        self._randomize_stats(block, rng)
        x = T.Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True, dtype=np.float64)
        check_param_gradients(lambda: T.mean_all(block(x)), [x] + block.parameters())

    def test_frozen_stats_take_the_eval_fold(self, rng):
        block = ResidualBlock(BlockSpec("basic", 4, 4), rng).set_trainable(False)
        self._randomize_stats(block, rng)
        buffers = {k: v.copy() for k, v in block.named_buffers()}
        x = T.Tensor(rng.normal(size=(2, 4, 5, 5)))
        assert block.training
        train_mode = block(x).data
        assert np.array_equal(train_mode, block.eval()(x).data)
        for k, v in block.named_buffers():
            assert np.array_equal(v, buffers[k])

    @pytest.mark.parametrize("side", [64, 128])
    def test_every_default_model_unit_matches_a_float64_reference(self, monkeypatch, side):
        """Forward, running statistics and gradients of every conv/BN unit the
        default model meets, in training and eval mode, against
        :func:`unit_oracle`."""
        from kneegrade.model import ModelConfig, build_model
        units, fused_op = [], T.conv_bn_act

        def record(x, w, *args, **kwargs):
            key = (x.shape[1:], w.shape, kwargs["stride"], kwargs["padding"],
                   kwargs["groups"], kwargs["act"])
            if key not in units:
                units.append(key)
            return fused_op(x, w, *args, **kwargs)
        monkeypatch.setattr(T, "conv_bn_act", record)
        build_model(ModelConfig(), seed=0).eval()(T.Tensor(np.zeros((1, 1, side, side))))
        monkeypatch.undo()
        assert len(units) == 12       # stem, 2 units in block 0, 3 in blocks 1-3

        g = np.random.default_rng(side)
        for xs, ws, stride, padding, groups, act in units:
            c = ws[0]
            arrays = [g.normal(size=(2,) + xs), g.normal(size=ws) * 0.3,
                      g.uniform(0.5, 1.5, c), g.normal(size=c)]
            rm0, rv0 = 0.1 * g.normal(size=c), g.uniform(0.5, 2.0, c)
            geometry = dict(stride=stride, padding=padding, groups=groups)
            where = (xs, ws, stride, act)
            for training in (True, False):
                want, want_rm, want_rv = unit_oracle(*arrays, rm0, rv0, training, act,
                                                     **geometry)
                for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-4)):
                    rm, rv = rm0.astype(dtype), rv0.astype(dtype)
                    got = T.conv_bn_act(*[T.Tensor(a, dtype=dtype) for a in arrays], rm, rv,
                                        training, act=act, **geometry)
                    for a, b in ((got.data, want), (rm, want_rm), (rv, want_rv)):
                        gap = np.abs(a.astype(np.float64) - b).max() / (1 + np.abs(b).max())
                        assert gap <= tol, (where, training, np.dtype(dtype).name, gap)

                # d/dh of sum(out * r) along a random direction of each input; the
                # ReLU's mask is taken at the base point, the oracle runs without it
                r = g.normal(size=want.shape)
                ts = [T.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
                out = T.conv_bn_act(*ts, rm0.copy(), rv0.copy(), training, act=act,
                                    **geometry)
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(r, dtype=np.float64))))
                if act == "relu":
                    r = r * (want > 0)

                def loss(values):
                    return float((unit_oracle(*values, rm0, rv0, training, None,
                                              **geometry)[0] * r).sum())
                h = 1e-6
                for i, t in enumerate(ts):
                    v = g.normal(size=arrays[i].shape)
                    numeric = (loss([a + h * v if j == i else a for j, a in enumerate(arrays)])
                               - loss([a - h * v if j == i else a
                                       for j, a in enumerate(arrays)])) / (2 * h)
                    analytic = float((t.grad * v).sum())
                    assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(numeric)), \
                        (where, training, i, analytic, numeric)

    def test_training_step_graph_size(self):
        from kneegrade.model import ModelConfig, build_model
        from kneegrade.training import multi_task_loss
        model = build_model(ModelConfig(), seed=0).train()
        g = np.random.default_rng(0)
        logits = model(T.Tensor(g.normal(size=(4, 1, 64, 64))))
        loss = multi_task_loss(logits, [g.integers(0, lg.shape[1], 4) for lg in logits])
        seen, stack = set(), [loss]
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                stack.extend(t._parents)
        # 157 as separate conv, BN and ReLU ops
        assert len(seen) <= 140


class TestPoolHead:
    def test_avg_is_global_mean(self, rng):
        head = PoolHead(6, PoolingSpec("avg"), rng)
        x = rng.normal(size=(2, 6, 4, 4))
        out = head(T.Tensor(x, dtype=np.float64)).data
        assert np.allclose(out, x.mean(axis=(2, 3)), atol=1e-12)

    def test_gwap_zero_scores_equal_plain_average(self, rng):
        head = PoolHead(6, PoolingSpec("gwap"), rng, dtype=np.float64)
        head.score.weight.data[...] = 0.0
        x = rng.normal(size=(2, 6, 4, 4))
        out = head(T.Tensor(x, dtype=np.float64)).data
        assert np.allclose(out, x.mean(axis=(2, 3)), atol=1e-12)

    def test_gwap_weights_sum_to_one(self, rng):
        for kind, hidden in (("gwap", 0), ("gwap_hidden", 3)):
            head = PoolHead(5, PoolingSpec(kind, hidden), rng, dtype=np.float64)
            x = T.Tensor(rng.normal(size=(3, 5, 4, 4)), dtype=np.float64)
            w = head.spatial_weights(x).data
            assert np.allclose(w.sum(axis=(2, 3)), 1.0, atol=1e-12)
            assert np.all(w >= 0)

    def test_gwap_matches_manual_softmax_average(self, rng):
        head = PoolHead(4, PoolingSpec("gwap"), rng, dtype=np.float64)
        x = rng.normal(size=(2, 4, 3, 3))
        scores = np.einsum("nchw,oc->nohw", x, head.score.weight.data[:, :, 0, 0])
        flat = scores.reshape(2, -1)
        sm = np.exp(flat - flat.max(1, keepdims=True))
        sm /= sm.sum(1, keepdims=True)
        want = (x * sm.reshape(2, 1, 3, 3)).sum(axis=(2, 3))
        got = head(T.Tensor(x, dtype=np.float64)).data
        assert np.allclose(got, want, atol=1e-12)

    def test_gwap_grads(self, rng):
        head = PoolHead(3, PoolingSpec("gwap"), rng, dtype=np.float64)
        x = T.Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True, dtype=np.float64)
        check_param_gradients(lambda: T.mean_all(head(x)), [x] + head.parameters())


class TestBackbone:
    def test_channel_chain_validated(self, rng):
        blocks = [BlockSpec("basic", 16, 16), BlockSpec("basic", 32, 32)]
        with pytest.raises(ConfigurationError, match="block 1"):
            Backbone(StemSpec(out_channels=16), blocks, rng)

    def test_spatial_flow(self, rng):
        blocks = [BlockSpec("basic", 8, 8), BlockSpec("basic", 8, 16, stride=2)]
        bb = Backbone(StemSpec(out_channels=8, pool=2), blocks, rng).eval()
        out = bb(T.Tensor(rng.normal(size=(1, 1, 32, 32))))
        assert out.shape == (1, 16, 8, 8)
        assert bb.out_channels == 16
