"""Block-level behavior: SE gating, residual wiring, pooling heads."""

from dataclasses import asdict

import numpy as np
import pytest

from kneegrade import tensor as T
from kneegrade.blocks import BlockSpec, PoolHead, PoolingSpec, ResidualBlock, SEGate, StemSpec, Backbone
from kneegrade.errors import ConfigurationError, NumericsError, UsageError

from gradcheck import check_param_gradients, float64
from test_tensor import _LIFT, join_chain, lone_unit, model_units


@pytest.fixture
def rng():
    return np.random.default_rng(13)


def _bn(bn, x):
    """A BatchNorm2d module applied on its own, as the model's units apply it."""
    return T.batch_norm2d(x, bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                          training=bn.batch_stats)


def se_oracle(x, w1, w2):
    """Independent numpy SE computation used to pin the module down."""
    z = x.mean(axis=(2, 3))
    h = np.maximum(z @ w1.T, 0.0)
    gate = 1.0 / (1.0 + np.exp(-(h @ w2.T)))
    return x * gate[:, :, None, None]


def unit_oracle(x, w, gamma, beta, running_mean, running_var, training, act, stride=1,
                padding=0, groups=1, pool=0, momentum=0.1, eps=1e-5):
    """Independent float64 conv -> batch norm -> optional ReLU -> optional
    ``pool`` x ``pool`` average pool of step ``pool``.

    The conv accumulates shifted input windows over kernel offsets (no
    columns), the batch norm loops over channels, the pool averages a
    reshaped crop. Returns the output and the updated running mean and
    variance; the inputs are not written.
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
    return avg_pool_oracle(out, pool), rm, rv


def avg_pool_oracle(y, k):
    """Means of the k x k windows of step k tiling ``y`` [N, C, H, W] from its
    top left (the last H % k rows and W % k columns are dropped); ``y`` when
    k is 0."""
    if not k:
        return y
    n, c, h, w = y.shape
    ho, wo = h // k, w // k
    return y[:, :, :ho * k, :wo * k].reshape(n, c, ho, k, wo, k).mean(axis=(3, 5))


def gated(se, x):
    """``x`` scaled by its SE gate values, as a block's join applies them."""
    return se(x).data[:, :, None, None] * x.data


def block_chain(block, x):
    """``block`` on ``x`` spelled as separate ops: conv, batch norm and ReLU
    per unit, the SE gate as its module's ops, and :func:`join_chain`."""
    units = [(block.conv1, block.bn1), (block.conv2, block.bn2)]
    if block.conv3 is not None:
        units.append((block.conv3, block.bn3))
    y = x
    for i, (conv, bn) in enumerate(units):
        y = _bn(bn, conv(y))
        if i < len(units) - 1:
            y = T.relu(y)
    gate = None if block.se is None else block.se(y)
    short = x if block.short_conv is None else _bn(block.short_bn, block.short_conv(x))
    return join_chain(y, gate, short)


# (spec, input shape) of every kind of block: basic and bottleneck (grouped
# or not), stride 1 and 2, identity and projection shortcut; each runs with
# and without an SE gate
BLOCK_VARIANTS = {
    "basic-identity": (BlockSpec("basic", 4, 4), (3, 4, 6, 6)),
    "basic-stride2": (BlockSpec("basic", 4, 8, stride=2), (3, 4, 6, 6)),
    "basic-widen": (BlockSpec("basic", 4, 8), (3, 4, 5, 5)),
    "bottleneck-identity": (BlockSpec("bottleneck", 8, 8), (3, 8, 5, 5)),
    "bottleneck-grouped-stride2": (
        BlockSpec("bottleneck", 4, 8, stride=2, groups=2, group_width=2), (3, 4, 6, 6)),
}


def variant(name, se, dtype=np.float32, seed=1):
    """A training-mode block of kind ``name``, SE gate on or off, with random
    running statistics, and an input of its shape, all in ``dtype``."""
    spec, shape = BLOCK_VARIANTS[name]
    if se:
        spec = BlockSpec(**{**asdict(spec), "se_enabled": True, "se_reduction": 2})
    g = np.random.default_rng(seed)
    block = ResidualBlock(spec, g)
    if dtype == np.float64:
        float64(block)
    TestUnits._randomize_stats(block, g)
    return block, g.normal(size=shape).astype(dtype)


class TestSEGate:
    def test_zero_weights_halve_input(self, rng):
        se = SEGate(8, 4, rng)
        se.squeeze.weight.data[...] = 0.0
        se.excite.weight.data[...] = 0.0
        x = T.Tensor(rng.normal(size=(2, 8, 3, 3)))
        assert se(x).shape == (2, 8)
        assert np.array_equal(gated(se, x), 0.5 * x.data)

    def test_zero_input_stays_zero(self, rng):
        se = SEGate(8, 2, rng)
        out = gated(se, T.Tensor(np.zeros((1, 8, 4, 4))))
        assert np.array_equal(out, np.zeros((1, 8, 4, 4), dtype=np.float32))

    def test_matches_numpy_oracle(self, rng):
        se = float64(SEGate(6, 3, rng))
        x = rng.normal(size=(3, 6, 4, 5))
        got = gated(se, T.Tensor(x, dtype=np.float64))
        want = se_oracle(x, se.squeeze.weight.data, se.excite.weight.data)
        assert np.allclose(got, want, atol=1e-12)

    def test_gate_never_amplifies(self, rng):
        se = float64(SEGate(4, 2, rng))
        x = rng.normal(size=(2, 4, 5, 5))
        out = gated(se, T.Tensor(x, dtype=np.float64))
        assert np.all(np.abs(out) <= np.abs(x) + 1e-12)

    def test_reduction_must_divide(self, rng):
        with pytest.raises(ConfigurationError):
            SEGate(6, 4, rng)

    def test_grads(self, rng):
        se = float64(SEGate(4, 2, rng))
        x = T.Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True, dtype=np.float64)
        # a shortcut of 10 keeps the join's ReLU open, so this is d mean(x * gate)
        lift = T.Tensor(np.full(x.shape, 10.0), dtype=np.float64)
        check_param_gradients(lambda: T.mean_all(join_chain(x, se(x), lift)),
                              [x] + se.parameters())


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
        block = float64(ResidualBlock(spec, rng)).eval()
        x = rng.normal(size=(2, 8, 5, 5))
        mid_in = T.relu(_bn(block.bn1, block.conv1(T.Tensor(x, dtype=np.float64)))).data
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
            BlockSpec("basic", 8, 8, groups=2)

    def test_bottleneck_expansion_enforced(self):
        with pytest.raises(ConfigurationError):
            BlockSpec("bottleneck", 8, 10)

    def test_se_block_grads(self, rng):
        spec = BlockSpec("basic", 4, 4, se_enabled=True, se_reduction=2)
        block = float64(ResidualBlock(spec, rng))
        x = T.Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True, dtype=np.float64)
        check_param_gradients(lambda: T.mean_all(block(x)), [x] + block.parameters())


class TestUnits:
    """A block is one residual_block node, which runs its units itself."""

    @staticmethod
    def _randomize_stats(module, rng):
        for name, b in module.named_buffers():
            b[...] = rng.uniform(0.5, 2.0, b.shape) if name.endswith("var") else \
                rng.normal(size=b.shape)

    def test_training_block_equals_chain_bitwise(self):
        """Output, running statistics and every gradient of each block kind,
        with and without SE, equal the per-op chain's byte for byte."""
        for name in BLOCK_VARIANTS:
            for se in (False, True):
                results = []
                for run in (lambda b, t: b(t), block_chain):
                    block, x = variant(name, se)
                    r = T.Tensor(np.random.default_rng(2).normal(
                        size=block(T.Tensor(x)).shape))       # a throwaway forward
                    TestUnits._randomize_stats(block, np.random.default_rng(3))
                    t = T.Tensor(x, requires_grad=True)
                    out = run(block, t)
                    T.backward(T.reduce_sum(T.mul(out, r)))
                    results.append([out.data, t.grad] + [p.grad for p in block.parameters()]
                                   + [b for _, b in block.named_buffers()])
                assert len(results[0]) == len(results[1])
                for a, b in zip(*results):
                    assert a.tobytes() == b.tobytes(), (name, se)

    @pytest.mark.parametrize("se", [False, True])
    @pytest.mark.parametrize("name", list(BLOCK_VARIANTS))
    def test_block_grads(self, name, se):
        block, x = variant(name, se, dtype=np.float64)
        x = T.Tensor(x, requires_grad=True, dtype=np.float64)
        r = T.Tensor(np.random.default_rng(4).normal(size=block(x).shape), dtype=np.float64)
        check_param_gradients(lambda: T.reduce_sum(T.mul(block(x), r)),
                              [x] + block.parameters())

    def test_eval_block_folds_within_float32_rounding(self, rng):
        spec = BlockSpec("basic", 4, 8, stride=2)
        block = ResidualBlock(spec, rng).eval()
        self._randomize_stats(block, rng)
        state = {k: v.tobytes() for k, v in block.state_arrays().items()}
        x = T.Tensor(rng.normal(size=(3, 4, 8, 8)))
        got, want = block(x).data, block_chain(block, x).data
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5)
        assert {k: v.tobytes() for k, v in block.state_arrays().items()} == state

    def test_bottleneck_grads(self, rng):
        spec = BlockSpec("bottleneck", 4, 8, groups=2, group_width=2, stride=2)
        block = float64(ResidualBlock(spec, rng))
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

    def test_units_share_one_batch_norm_mode(self, rng):
        # one node runs every unit, so a lone frozen batch norm would go on
        # updating its running statistics; the block refuses to run instead
        block = ResidualBlock(BlockSpec("basic", 4, 8, stride=2), rng)
        block.short_bn.set_trainable(False)
        with pytest.raises(UsageError, match="all train on batch statistics"):
            block(T.Tensor(rng.normal(size=(2, 4, 6, 6))))
        block.set_trainable(False)
        assert block(T.Tensor(rng.normal(size=(2, 4, 6, 6)))).shape == (2, 8, 3, 3)

    @pytest.mark.parametrize("side", [64, 128])
    def test_every_default_model_unit_matches_a_float64_reference(self, side):
        """Forward and running statistics of every conv/BN unit the default
        model meets, pooled stem included, in training and eval mode, and its
        gradients in training mode, against :func:`unit_oracle`. The stem
        runs in conv_bn_act; a block's unit runs in training as
        :func:`lone_unit` runs it, ``relu(unit + lift)``, and in eval mode as
        the eval unit each of a block's units is."""
        from kneegrade.model import ModelConfig, build_model
        model = build_model(ModelConfig(), seed=0).eval()
        units = model_units(model, np.zeros((1, 1, side, side), np.float32))
        # the stem twice (pooled, and unpooled), 2 units in block 0, 2 units and
        # a shortcut in blocks 1-3
        assert len(units) == 13
        assert sum(1 for u in units if u[4]) == 1

        g = np.random.default_rng(side)
        for x0, conv, _, relu, pool, stem in units:
            xs, ws, c = x0.shape[1:], conv.weight.shape, conv.weight.shape[0]
            geometry = dict(stride=conv.stride, padding=conv.padding, groups=conv.groups)
            act = "relu" if relu else None
            arrays = [g.normal(size=(2,) + xs), g.normal(size=ws) * 0.3,
                      g.uniform(0.5, 1.5, c), g.normal(size=c)]
            rm0, rv0 = 0.1 * g.normal(size=c), g.uniform(0.5, 2.0, c)
            lift = 0.0 if relu else _LIFT
            where = (xs, ws, conv.stride, act, pool)

            def run(ts, rm, rv, training):
                """The unit's output, lifted as :func:`lone_unit` lifts it in a
                block in training mode."""
                if stem:
                    return T.conv_bn_act(*ts, rm, rv, training, stride=conv.stride,
                                         padding=conv.padding, pool=pool)
                if training:
                    return lone_unit(*ts, rm, rv, True, conv.stride, conv.padding, conv.groups,
                                     lift)
                u = (*ts[1:], rm, rv, conv.stride, conv.padding, conv.groups)
                out = T._unit(ts[0].data, u, False, relu, [], "residual_block")
                return T.Tensor(out, dtype=out.dtype)

            for training in (True, False):
                want, want_rm, want_rv = unit_oracle(*arrays, rm0, rv0, training, act,
                                                     pool=pool, **geometry)
                if training and not stem:
                    want = np.maximum(unit_oracle(*arrays, rm0, rv0, True, None,
                                                  **geometry)[0] + lift, 0.0)
                # the stem's image input wants no gradient, which takes the
                # column-moment statistics (and the pool as the unit's
                # epilogue) in training mode
                for x_wants in (True, False) if stem else (True,):
                    for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-4)):
                        rm, rv = rm0.astype(dtype), rv0.astype(dtype)
                        got = run([T.Tensor(a, requires_grad=x_wants or i > 0, dtype=dtype)
                                   for i, a in enumerate(arrays)], rm, rv, training)
                        for a, b in ((got.data, want), (rm, want_rm), (rv, want_rv)):
                            gap = np.abs(a.astype(np.float64) - b).max() / (1 + np.abs(b).max())
                            assert gap <= tol, (where, training, x_wants,
                                                np.dtype(dtype).name, gap)

                if not training:        # an eval-mode unit has no backward
                    continue
                # d/dh of sum(pool(relu(unit + lift)) * r) along a random
                # direction of each input; the ReLU's mask is taken at the base
                # point, the oracle runs without it
                r = g.normal(size=want.shape)
                pre = unit_oracle(*arrays, rm0, rv0, training, None, **geometry)[0] + lift
                mask = pre > 0

                def loss(values):
                    pre = unit_oracle(*values, rm0, rv0, training, None, **geometry)[0]
                    return float((avg_pool_oracle(pre * mask, pool) * r).sum())
                h = 1e-6
                for x_wants in (True, False) if stem else (True,):
                    ts = [T.Tensor(a, requires_grad=x_wants or i > 0, dtype=np.float64)
                          for i, a in enumerate(arrays)]
                    out = run(ts, rm0.copy(), rv0.copy(), True)
                    T.backward(T.reduce_sum(T.mul(out, T.Tensor(r, dtype=np.float64))))
                    for i, t in enumerate(ts):
                        if not t.requires_grad:
                            continue
                        v = g.normal(size=arrays[i].shape)
                        numeric = (loss([a + h * v if j == i else a
                                         for j, a in enumerate(arrays)])
                                   - loss([a - h * v if j == i else a
                                           for j, a in enumerate(arrays)])) / (2 * h)
                        analytic = float((t.grad * v).sum())
                        assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(numeric)), \
                            (where, training, x_wants, i, analytic, numeric)

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
            if id(t) not in seen and t._backward is not None:
                seen.add(id(t))
                stack.extend(t._parents)
        # the stem, one node per block, the head pool, and 27 in the heads and
        # loss; 64 while each unit, SE op and join was a node of its own
        assert len(seen) == 33

    def test_eval_forward_graph_size(self, monkeypatch):
        from kneegrade.model import ModelConfig, build_model
        model = build_model(ModelConfig(), seed=0).eval()
        node, ops = T._node, []

        def spy(data, parents, backward_fn, op):
            ops.append(op)
            return node(data, parents, backward_fn, op)
        monkeypatch.setattr(T, "_node", spy)
        with T.no_grad():
            model(T.Tensor(np.zeros((2, 1, 64, 64))))
        # the stem unit, its pool, one node per block, the head pool and 7
        # linears; 25 while each unit of an eval block was a node of its own
        assert len(ops) == 14
        assert ops.count("residual_block") == 4 and ops.count("conv_bn_act") == 1

    def test_eval_unit_output_is_scanned(self):
        """A first unit that overflows to +inf at one pixel, under second-unit
        weights from that channel that are all negative: the second unit's
        ReLU turns the -inf it makes into 0, so only a scan of each eval
        unit's output, not the join's, sees it."""
        block = ResidualBlock(BlockSpec("bottleneck", 8, 8), np.random.default_rng(0)).eval()
        block.conv1.weight.data[:, 0] = 0.0
        block.conv1.weight.data[0, 0] = 10.0
        w2 = block.conv2.weight.data
        w2[:, 0] = -0.1 - np.abs(w2[:, 0])
        x = np.random.default_rng(1).normal(size=(1, 8, 5, 5)).astype(np.float32)
        x[0, 0, 2, 2] = 3e38                  # finite; ten times it is not
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericsError, match="residual_block"):
            block(T.Tensor(x))

    def test_training_block_keeps_its_input_and_three_arrays(self):
        """A training block of block 0's shape (16 channels, 32 x 32, SE,
        batch 32) keeps, beside its input, its two centred conv outputs and
        its output, not the units' outputs."""
        import tracemalloc
        block = ResidualBlock(BlockSpec("basic", 16, 16, se_enabled=True),
                              np.random.default_rng(0))
        x = T.Tensor(np.random.default_rng(1).normal(size=(32, 16, 32, 32)),
                     requires_grad=True)
        block(x)
        tracemalloc.start()
        try:
            out = block(x)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        # five arrays while each unit output and the join were nodes of their own
        assert kept <= 3 * x.data.nbytes + (64 << 10), kept / x.data.nbytes


class TestPoolHead:
    def test_avg_is_global_mean(self, rng):
        head = PoolHead(6, PoolingSpec("avg"), rng)
        x = rng.normal(size=(2, 6, 4, 4))
        out = head(T.Tensor(x, dtype=np.float64)).data
        assert np.allclose(out, x.mean(axis=(2, 3)), atol=1e-12)

    def test_gwap_zero_scores_equal_plain_average(self, rng):
        head = float64(PoolHead(6, PoolingSpec("gwap"), rng))
        head.score.weight.data[...] = 0.0
        x = rng.normal(size=(2, 6, 4, 4))
        out = head(T.Tensor(x, dtype=np.float64)).data
        assert np.allclose(out, x.mean(axis=(2, 3)), atol=1e-12)

    def test_gwap_weights_sum_to_one(self, rng):
        for kind, hidden in (("gwap", 0), ("gwap_hidden", 3)):
            head = float64(PoolHead(5, PoolingSpec(kind, hidden), rng))
            x = T.Tensor(rng.normal(size=(3, 5, 4, 4)), dtype=np.float64)
            w = head.spatial_weights(x).data
            assert np.allclose(w.sum(axis=(2, 3)), 1.0, atol=1e-12)
            assert np.all(w >= 0)

    def test_gwap_matches_manual_softmax_average(self, rng):
        head = float64(PoolHead(4, PoolingSpec("gwap"), rng))
        x = rng.normal(size=(2, 4, 3, 3))
        scores = np.einsum("nchw,oc->nohw", x, head.score.weight.data[:, :, 0, 0])
        flat = scores.reshape(2, -1)
        sm = np.exp(flat - flat.max(1, keepdims=True))
        sm /= sm.sum(1, keepdims=True)
        want = (x * sm.reshape(2, 1, 3, 3)).sum(axis=(2, 3))
        got = head(T.Tensor(x, dtype=np.float64)).data
        assert np.allclose(got, want, atol=1e-12)

    def test_gwap_grads(self, rng):
        head = float64(PoolHead(3, PoolingSpec("gwap"), rng))
        x = T.Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True, dtype=np.float64)
        check_param_gradients(lambda: T.mean_all(head(x)), [x] + head.parameters())


class TestBackbone:
    def test_spatial_flow(self, rng):
        blocks = [BlockSpec("basic", 8, 8), BlockSpec("basic", 8, 16, stride=2)]
        bb = Backbone(StemSpec(out_channels=8, pool=2), blocks, rng).eval()
        out = bb(T.Tensor(rng.normal(size=(1, 1, 32, 32))))
        assert out.shape == (1, 16, 8, 8)
        assert bb.out_channels == 16
