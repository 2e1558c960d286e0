"""Model construction, head wiring, serialization, and freezing."""

import dataclasses
import hashlib

import numpy as np
import pytest

from kneegrade import cli, report, training
from kneegrade import tensor as T
from kneegrade.blocks import (Backbone, BlockSpec, PoolHead, PoolingSpec, ResidualBlock, SEGate,
                              StemSpec)
from kneegrade.config import from_doc
from kneegrade.data import FoldAssignment
from kneegrade.ensemble import snapshot_model
from kneegrade.errors import ConfigurationError, DataError, WeightLoadError
from kneegrade.model import (BACKBONE_PREFIX, ModelConfig, MultiTaskModel, backbone_checksum,
                             build_model, config_hash, default_blocks, load_backbone_weights,
                             save_backbone_weights, task_names)
from kneegrade.nn import BatchNorm2d, Conv2d, Dropout, Linear, Parameter
from kneegrade.serialize import load_tensors, save_tensors
from kneegrade.training import Snapshot

from gradcheck import check_param_gradients, float64


def tiny_config(include_kl=True, se=True):
    blocks = (BlockSpec("basic", 8, 8, se_enabled=se, se_reduction=4),
              BlockSpec("basic", 8, 16, stride=2, se_enabled=se, se_reduction=4))
    return ModelConfig(stem=StemSpec(out_channels=8, pool=2), blocks=blocks,
                       pooling=PoolingSpec("avg"), dropout_p=0.5,
                       include_kl_head=include_kl)


def batch(n=2, side=16, seed=0):
    return T.Tensor(np.random.default_rng(seed).normal(size=(n, 1, side, side)))


class TestConstruction:
    def test_head_layout_with_kl(self):
        m = build_model(tiny_config(), seed=1)
        assert m.head_names == ["KL", "FO_L", "FO_M", "TO_L", "TO_M", "JSN_L", "JSN_M"]
        outs = m.eval()(batch())
        assert [o.shape[1] for o in outs] == [5, 4, 4, 4, 4, 4, 4]

    def test_head_layout_without_kl(self):
        m = build_model(tiny_config(include_kl=False), seed=1)
        assert m.head_names == list(task_names(False))
        outs = m.eval()(batch())
        assert [o.shape[1] for o in outs] == [4, 4, 4, 4, 4, 4]

    def test_same_seed_same_weights(self):
        a = build_model(tiny_config(), seed=42)
        b = build_model(tiny_config(), seed=42)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = build_model(tiny_config(), seed=1)
        b = build_model(tiny_config(), seed=2)
        diffs = [not np.array_equal(pa.data, pb.data)
                 for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
                 if pa.data.ndim >= 2]
        assert any(diffs)

    def test_init_statistics(self):
        # conv kernels: He fan-in; biases zero; bn gamma 1, beta 0
        m = build_model(tiny_config(se=False), seed=3)
        w = m.backbone.conv.weight.data
        fan_in = w.shape[1] * w.shape[2] * w.shape[3]
        assert abs(w.std() - np.sqrt(2.0 / fan_in)) < 0.3 * np.sqrt(2.0 / fan_in)
        for name, p in m.named_parameters():
            if name.endswith(".bias"):
                assert np.array_equal(p.data, np.zeros_like(p.data))
            if name.endswith(".gamma"):
                assert np.array_equal(p.data, np.ones_like(p.data))
            if name.endswith(".beta"):
                assert np.array_equal(p.data, np.zeros_like(p.data))

    def test_wrong_input_layout_rejected(self):
        m = build_model(tiny_config(), seed=1).eval()
        with pytest.raises(DataError):
            m(T.Tensor(np.zeros((2, 3, 16, 16))))

    def test_wrong_head_classes_rejected(self):
        m_cfg = tiny_config()
        with pytest.raises(ConfigurationError):
            build_model(m_cfg, seed=1, heads_override=[("KL", 4)])

    def test_eval_forward_deterministic(self):
        m = build_model(tiny_config(), seed=5).eval()
        x = batch()
        a = [o.data.copy() for o in m(x)]
        b = [o.data.copy() for o in m(x)]
        for u, v in zip(a, b):
            assert np.array_equal(u, v)


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = tiny_config()
        again = from_doc(ModelConfig, cfg.to_dict(), "model")
        assert again == cfg
        assert config_hash(cfg.to_dict()) == config_hash(again.to_dict())

    def test_unknown_keys_rejected(self):
        doc = tiny_config().to_dict()
        doc["extra"] = 1
        with pytest.raises(ConfigurationError, match=r"^model: unknown keys \['extra'\]"):
            from_doc(ModelConfig, doc, "model")

    def test_unknown_block_keys_rejected(self):
        doc = tiny_config().to_dict()
        doc["blocks"][0]["bogus"] = 2
        with pytest.raises(ConfigurationError,
                           match=r"^model\.blocks\[0\]: unknown keys \['bogus'\]"):
            from_doc(ModelConfig, doc, "model")

    def test_default_blocks_chain(self):
        cfg = ModelConfig()
        assert len(cfg.blocks) == 4
        assert cfg.blocks[0].in_channels == cfg.stem.out_channels

    def test_default_model_initial_state_is_pinned(self):
        """Names, shapes and bytes of the default model's initial weights and
        buffers. A zero-initialized tensor gained or lost (an SE projection
        that grows a bias, say) moves this digest even though it leaves every
        output equal."""
        arrays = build_model(ModelConfig(), 0).state_arrays()
        h = hashlib.sha256()
        for name in sorted(arrays):
            h.update(name.encode())
            h.update(repr(arrays[name].shape).encode())
            h.update(np.ascontiguousarray(arrays[name]).tobytes())
        assert len(arrays) == 82
        assert h.hexdigest() == \
            "471b693089d2f98ea8e7acba798ccfb9facb71c6bd7d74c0ddbee10fb7f825f1"


def _knob_calls():
    """One call per parameter that was removed because no caller set it."""
    rng = np.random.default_rng(0)
    x = T.Tensor(np.zeros((2, 1, 4, 4)))
    w = T.Tensor(np.zeros((1, 1, 3, 3)))
    bn_args = (T.Tensor(np.ones(1)), T.Tensor(np.zeros(1)), np.zeros(1), np.ones(1), True)
    snap = Snapshot(weights={}, meta={})
    calls = [(f"default_blocks({k})", lambda k=k: default_blocks(**{k: v}))
             for k, v in (("base_width", 16), ("se_enabled", True), ("kind", "basic"),
                          ("groups", 1), ("group_width", 0), ("se_reduction", 16))]
    for k, v in (("momentum", 0.1), ("eps", 1e-5)):
        calls += [(f"BatchNorm2d({k})", lambda k=k, v=v: BatchNorm2d(1, **{k: v})),
                  (f"batch_norm2d({k})", lambda k=k, v=v: T.batch_norm2d(x, *bn_args, **{k: v})),
                  (f"conv_bn_act({k})",
                   lambda k=k, v=v: T.conv_bn_act(x, w, *bn_args, padding=1, **{k: v}))]
    # the stem, conv_bn_act's one caller, always rectifies and has one group
    calls += [(f"conv_bn_act({k})", lambda k=k, v=v: T.conv_bn_act(x, w, *bn_args, **{k: v}))
              for k, v in (("act", "relu"), ("groups", 1))]
    return calls + [
        ("reduce_sum(keepdims)", lambda: T.reduce_sum(x, axis=1, keepdims=True)),
        ("Conv2d(bias)", lambda: Conv2d(1, 1, 3, rng, bias=False)),
        ("Backbone(in_channels)", lambda: Backbone(StemSpec(), [], rng, in_channels=1)),
        ("Dropout(seed)", lambda: Dropout(0.5, seed=0)),
        ("snapshot_model(dtype)", lambda: snapshot_model(snap, dtype=np.float32)),
        # modules build in float32; a gradient check casts a built module
        ("Parameter(dtype)", lambda: Parameter(np.zeros(1), dtype=np.float64)),
        ("Conv2d(dtype)", lambda: Conv2d(1, 1, 3, rng, dtype=np.float64)),
        ("BatchNorm2d(dtype)", lambda: BatchNorm2d(1, dtype=np.float64)),
        ("Linear(dtype)", lambda: Linear(1, 1, rng, dtype=np.float64)),
        ("SEGate(dtype)", lambda: SEGate(2, 1, rng, dtype=np.float64)),
        ("ResidualBlock(dtype)",
         lambda: ResidualBlock(BlockSpec("basic", 1, 1), rng, dtype=np.float64)),
        ("PoolHead(dtype)", lambda: PoolHead(1, PoolingSpec(), rng, dtype=np.float64)),
        ("Backbone(dtype)", lambda: Backbone(StemSpec(), [], rng, dtype=np.float64)),
        ("MultiTaskModel(dtype)", lambda: MultiTaskModel(ModelConfig(), rng, dtype=np.float64)),
        ("build_model(dtype)", lambda: build_model(ModelConfig(), 0, dtype=np.float64)),
        # the command line writes a run's files; training returns them in memory
        ("run_fold(out_dir)",
         lambda: training.run_fold(None, [], [], {}, None, 0, out_dir="folds")),
        ("run_fold(meta)", lambda: training.run_fold(None, [], [], {}, None, 0, meta={})),
        ("pretrain_backbone(out_path)",
         lambda: training.pretrain_backbone([], {}, None, None, 0, out_path="b.kgw")),
    ]


class TestNoDeadKnobs:
    @pytest.mark.parametrize("call", _knob_calls(), ids=lambda c: c[0])
    def test_removed_parameter_is_refused(self, call):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call[1]()

    @pytest.mark.parametrize("owner, attr", [
        (T.Tensor, "zero_grad"), (Dropout, "reseed"), (training, "predict_grades"),
        (training, "adam_update"), (training, "snapshot_model"), (report, "write_sidecar"),
        (report, "read_sidecar"), (training, "_train_one_epoch"), (training, "_log_rows_to_csv"),
        (cli, "Artifacts")])
    def test_removed_name_is_gone(self, owner, attr):
        assert not hasattr(owner, attr)

    def test_fold_result_has_no_log_path(self):
        assert "log_path" not in {f.name for f in dataclasses.fields(training.FoldResult)}

    def test_fold_assignment_holds_only_the_assignment(self):
        assert [f.name for f in dataclasses.fields(FoldAssignment)] == ["n_folds", "subject_fold"]


class TestHeadIsolation:
    def test_cross_head_gradients_are_zero(self):
        m = build_model(tiny_config(), seed=7)
        m.eval()  # kill dropout so only the KL path is active
        m.backbone.set_trainable(False)     # an eval-mode unit has no backward
        outs = m(batch())
        loss = T.cross_entropy(outs[0], np.zeros(2, dtype=np.int64))
        T.backward(loss)
        kl_head = dict(m.named_parameters())["head_KL.weight"]
        assert kl_head.grad is not None and np.any(kl_head.grad != 0)
        for name, p in m.named_parameters():
            if name.startswith("head_") and not name.startswith("head_KL"):
                assert p.grad is None or not np.any(p.grad != 0), name

    def test_zeroing_one_head_changes_only_it(self):
        m = build_model(tiny_config(), seed=7).eval()
        x = batch()
        before = [o.data.copy() for o in m(x)]
        params = dict(m.named_parameters())
        params["head_JSN_L.weight"].data[...] = 0.0
        params["head_JSN_L.bias"].data[...] = 0.0
        after = [o.data.copy() for o in m(x)]
        for i, name in enumerate(m.head_names):
            if name == "JSN_L":
                assert np.array_equal(after[i], np.zeros_like(after[i]))
            else:
                assert np.array_equal(before[i], after[i])


class TestSerialization:
    def test_model_weights_round_trip(self, tmp_path):
        m = build_model(tiny_config(), seed=9)
        path = tmp_path / "model.kgw"
        save_tensors(path, m.state_arrays())
        m2 = build_model(tiny_config(), seed=10)
        m2.load_state_arrays(load_tensors(path))
        for (na, pa), (_, pb) in zip(m.named_parameters(), m2.named_parameters()):
            assert np.array_equal(pa.data, pb.data), na

    def test_backbone_only_round_trip(self, tmp_path):
        m = build_model(tiny_config(), seed=9)
        path = tmp_path / "bb.kgw"
        save_backbone_weights(m, path)
        m2 = build_model(tiny_config(), seed=11)
        heads_before = {n: p.data.copy() for n, p in m2.named_parameters() if n.startswith("head_")}
        load_backbone_weights(m2, path)
        assert backbone_checksum(m2) == backbone_checksum(m)
        for n, p in m2.named_parameters():
            if n.startswith("head_"):
                assert np.array_equal(p.data, heads_before[n])

    def test_load_then_save_bit_identical(self, tmp_path):
        m = build_model(tiny_config(), seed=9)
        p1, p2 = tmp_path / "a.kgw", tmp_path / "b.kgw"
        save_backbone_weights(m, p1)
        m2 = build_model(tiny_config(), seed=12)
        load_backbone_weights(m2, p1)
        save_backbone_weights(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_shape_mismatch_names_tensor(self, tmp_path):
        m = build_model(tiny_config(), seed=9)
        path = tmp_path / "bb.kgw"
        save_backbone_weights(m, path)
        other = ModelConfig(stem=StemSpec(out_channels=4, pool=2),
                            blocks=(BlockSpec("basic", 4, 8),), pooling=PoolingSpec("avg"))
        m3 = build_model(other, seed=1)
        with pytest.raises(WeightLoadError):
            load_backbone_weights(m3, path)

    def test_extra_tensor_rejected(self, tmp_path):
        m = build_model(tiny_config(), seed=9)
        path = tmp_path / "bb.kgw"
        save_backbone_weights(m, path)
        arrays = load_tensors(path)
        arrays["backbone.rogue"] = np.zeros(3, dtype=np.float32)
        save_tensors(path, arrays)
        with pytest.raises(WeightLoadError, match="rogue"):
            load_backbone_weights(m, path)

    FAULTS = {"unexpected": "unexpected tensor", "missing": "missing tensor",
              "shape": "shape mismatch"}

    @staticmethod
    def _corrupt(arrays, fault):
        name = sorted(arrays)[-1]
        if fault == "unexpected":
            arrays[name + "_rogue"] = arrays[name].copy()
        elif fault == "missing":
            del arrays[name]
        else:
            arrays[name] = arrays[name][..., None]

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_backbone_load_rejects(self, tmp_path, fault):
        arrays = build_model(tiny_config(), seed=9).backbone.state_arrays(BACKBONE_PREFIX)
        self._corrupt(arrays, fault)
        path = tmp_path / "bb.kgw"
        save_tensors(path, arrays)
        m = build_model(tiny_config(), seed=11)
        before = backbone_checksum(m)
        with pytest.raises(WeightLoadError, match=self.FAULTS[fault]):
            load_backbone_weights(m, path)
        assert backbone_checksum(m) == before

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_model_load_rejects(self, fault):
        arrays = build_model(tiny_config(), seed=9).state_arrays()
        self._corrupt(arrays, fault)
        m = build_model(tiny_config(), seed=11)
        before = {k: v.copy() for k, v in m.state_arrays().items()}
        with pytest.raises(WeightLoadError, match=self.FAULTS[fault]):
            m.load_state_arrays(arrays)
        assert all(np.array_equal(v, before[k]) for k, v in m.state_arrays().items())


class TestFreezing:
    def test_frozen_backbone_builds_no_tape(self):
        m = build_model(tiny_config(), seed=4)
        m.backbone.set_trainable(False)
        outs = m(batch())
        loss = T.cross_entropy(outs[0], np.zeros(2, dtype=np.int64))
        T.backward(loss)
        for name, p in m.named_parameters():
            if name.startswith("backbone."):
                assert p.grad is None, name
        # its frozen units run the eval fold, which has no backward; the head trains
        assert np.any(dict(m.named_parameters())["head_KL.weight"].grad != 0)

    def test_freeze_also_pins_bn_stats(self):
        m = build_model(tiny_config(), seed=4)
        m.backbone.set_trainable(False)
        before = backbone_checksum(m)
        m.train()
        for _ in range(3):
            m(batch(seed=np.random.randint(10000)))
        assert backbone_checksum(m) == before

    def test_unfreeze_restores_gradients(self):
        m = build_model(tiny_config(), seed=4)
        m.backbone.set_trainable(False)
        m.backbone.set_trainable(True)
        outs = m.train()(batch())
        T.backward(T.cross_entropy(outs[0], np.zeros(2, dtype=np.int64)))
        grads = [p.grad is not None for n, p in m.named_parameters()
                 if n.startswith("backbone.") and "short" not in n]
        assert all(grads)


class TestModelGradients:
    def test_full_model_gradcheck(self):
        # tiny everything: one block, no dropout randomness (eval has no dropout,
        # so run train mode with p=0)
        cfg = ModelConfig(stem=StemSpec(out_channels=4, kernel=3, pool=0),
                          blocks=(BlockSpec("basic", 4, 4, se_enabled=True, se_reduction=2),),
                          pooling=PoolingSpec("gwap"), dropout_p=0.0)
        m = float64(build_model(cfg, seed=2))
        x = T.Tensor(np.random.default_rng(0).normal(size=(2, 1, 6, 6)),
                     requires_grad=True, dtype=np.float64)
        targets = [np.random.default_rng(i).integers(0, k, size=2)
                   for i, k in enumerate([5, 4, 4, 4, 4, 4, 4])]
        def forward():
            outs = m(x)
            total = None
            for o, t in zip(outs, targets):
                term = T.cross_entropy(o, t)
                total = term if total is None else T.add(total, term)
            return total
        check_param_gradients(forward, [x] + m.parameters())
