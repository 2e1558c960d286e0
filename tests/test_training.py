"""Optimizer maths, schedules, and the fold training loop."""

import gc
import weakref

import numpy as np
import pytest

from kneegrade import tensor as T
from kneegrade import training
from kneegrade.blocks import BlockSpec, PoolingSpec, StemSpec
from kneegrade.data import GradedExam
from kneegrade.errors import ConfigurationError, TrainingError
from kneegrade.model import (
    ModelConfig,
    backbone_checksum,
    build_model,
    load_backbone_weights,
)
from kneegrade.nn import Parameter
from kneegrade.preprocess import AugmentConfig, NormalizedImage
from kneegrade.tensor import Tensor
from kneegrade.training import (
    AUX_CLASSES,
    AUX_HEAD,
    Adam,
    FoldResult,
    Snapshot,
    TrainConfig,
    _train_one_epoch,
    batch_images,
    batched_logits,
    multi_task_loss,
    pretrain_backbone,
    run_fold,
    schedule_lr,
    select_snapshot,
    severity_bucket,
    snapshot_model,
    targets_for,
    validation_metrics,
)


def tiny_config():
    blocks = (BlockSpec("basic", 8, 8, se_enabled=True, se_reduction=4),
              BlockSpec("basic", 8, 16, stride=2, se_enabled=True, se_reduction=4))
    return ModelConfig(stem=StemSpec(out_channels=8, pool=2), blocks=blocks,
                       pooling=PoolingSpec("avg"), dropout_p=0.25)


def fake_dataset(n, side=16, seed=0, prefix="e"):
    """Graded exams with random standardized images; no learnable signal."""
    rng = np.random.default_rng(seed)
    exams = []
    images = {}
    for i in range(n):
        grades = {"KL": int(rng.integers(0, 5))}
        for name in ("FO_L", "FO_M", "TO_L", "TO_M", "JSN_L", "JSN_M"):
            grades[name] = int(rng.integers(0, 4))
        eid = f"{prefix}{i:03d}"
        exams.append(GradedExam(exam_id=eid, subject_id=f"s{i:03d}", side="R",
                                follow_up_months=0, image_path="", landmark_path="",
                                spacing_mm=1.0, grades=grades))
        grid = rng.random((side, side)).astype(np.float32)
        images[eid] = NormalizedImage(grid01=grid)
    return exams, images


def quick_cfg(**kw):
    base = dict(schedule="transfer", epochs=4, batch_size=8,
                head_epochs=2, thaw_epochs=1, sampler="none", augment=False)
    base.update(kw)
    return TrainConfig(**base)


class TestSchedule:
    def test_transfer_trace(self):
        cfg = TrainConfig(schedule="transfer", epochs=6)
        lrs, flags = zip(*(schedule_lr(cfg, e) for e in range(1, 7)))
        assert lrs == (1e-2, 1e-2, 1e-3, 1e-4, 1e-4, 1e-4)
        assert flags == (False, False, True, True, True, True)

    def test_scratch_trace(self):
        cfg = TrainConfig(schedule="scratch", epochs=20)
        lrs = [schedule_lr(cfg, e)[0] for e in range(1, 21)]
        assert lrs[:10] == [1e-4] * 10
        assert lrs[10:15] == pytest.approx([1e-5] * 5)
        assert lrs[15:] == pytest.approx([1e-6] * 5)
        assert all(schedule_lr(cfg, e)[1] for e in range(1, 21))

    def test_epoch_range_checked(self):
        cfg = TrainConfig(epochs=5)
        with pytest.raises(ConfigurationError):
            schedule_lr(cfg, 0)
        with pytest.raises(ConfigurationError):
            schedule_lr(cfg, 6)

    def test_transfer_needs_room_for_thaw(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(schedule="transfer", epochs=2)

    def test_bad_schedule_name(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(schedule="cosine")


class TestAdam:
    @staticmethod
    def one_parameter(theta, grad, lr):
        p = Parameter(theta.copy(), dtype=np.float64)
        p.grad = grad
        return p, Adam([("p", p)], lr=lr)

    def test_first_step_magnitude_is_lr(self):
        theta = np.array([1.0, -2.0, 0.5])
        grad = np.array([0.3, -0.7, 2.0])
        p, opt = self.one_parameter(theta, grad, lr=1e-2)
        opt.step()
        step = p.data - theta
        assert np.abs(step) == pytest.approx([1e-2] * 3, rel=1e-6)
        assert np.sign(step).tolist() == (-np.sign(grad)).tolist()

    def test_update_matches_closed_form(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=5)
        m = rng.normal(size=5) * 0.1
        v = rng.random(5) * 0.01
        g = rng.normal(size=5)
        t = 7
        p, opt = self.one_parameter(theta, g, lr=1e-3)
        opt.state["p"] = [m.copy(), v.copy(), t - 1]
        opt.step()
        new, (m2, v2, _) = p.data, opt.state["p"]
        em = 0.9 * m + 0.1 * g
        ev = 0.999 * v + 0.001 * g * g
        expect = theta - 1e-3 * (em / (1 - 0.9 ** t)) / (np.sqrt(ev / (1 - 0.999 ** t)) + 1e-8)
        assert new == pytest.approx(expect, abs=1e-15)
        assert m2 == pytest.approx(em)
        assert v2 == pytest.approx(ev)

    def test_frozen_parameters_skipped(self):
        p = Parameter(np.ones(3, dtype=np.float32))
        q = Parameter(np.ones(3, dtype=np.float32))
        q.requires_grad = False
        p.grad = np.full(3, 0.5)
        q.grad = np.full(3, 0.5)
        opt = Adam([("p", p), ("q", q)], lr=0.1)
        opt.step()
        assert not np.array_equal(p.data, np.ones(3))
        assert np.array_equal(q.data, np.ones(3))
        assert "q" not in opt.state

    def test_thawed_parameter_takes_full_first_step(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        q = Parameter(np.zeros(2, dtype=np.float32))
        q.requires_grad = False
        opt = Adam([("p", p), ("q", q)], lr=0.01)
        for _ in range(5):
            p.grad = np.array([1.0, -1.0])
            q.grad = np.array([1.0, -1.0])
            opt.step()
        q.requires_grad = True
        before = q.data.copy()
        q.grad = np.array([1.0, -1.0])
        opt.step()
        assert np.abs(q.data - before) == pytest.approx([0.01, 0.01], rel=1e-5)

    def test_nonfinite_gradient_names_tensor(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        p.grad = np.array([1.0, np.nan])
        opt = Adam([("backbone.block0.conv1.weight", p)], lr=0.1)
        with pytest.raises(TrainingError) as err:
            opt.step()
        assert "backbone.block0.conv1.weight" in str(err.value)

    def test_weight_decay_pulls_toward_zero(self):
        p = Parameter(np.full(3, 2.0, dtype=np.float32))
        p.grad = np.zeros(3)
        opt = Adam([("p", p)], lr=0.01, weight_decay=1e-2)
        opt.step()
        # decay term is the only gradient: step of ~lr toward zero
        assert np.all(p.data < 2.0)
        assert p.data == pytest.approx(np.full(3, 2.0 - 0.01), rel=1e-4)

    def test_duplicate_names_rejected(self):
        p = Parameter(np.ones(1, dtype=np.float32))
        with pytest.raises(ConfigurationError):
            Adam([("a", p), ("a", p)], lr=0.1)


class TestLossAndTargets:
    def test_uniform_logits_anchor_value(self):
        # 5-class head plus six 4-class heads, all logits equal
        logits = [Tensor(np.zeros((3, 5)))] + [Tensor(np.zeros((3, 4))) for _ in range(6)]
        targets = [np.zeros(3, dtype=np.int64)] * 7
        loss = multi_task_loss(logits, targets)
        expect = np.log(5) + 6 * np.log(4)
        assert float(loss.data) == pytest.approx(expect, rel=1e-6)

    def test_weights_scale_terms(self):
        logits = [Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4)))]
        targets = [np.zeros(2, dtype=np.int64)] * 2
        loss = multi_task_loss(logits, targets, weights=[2.0, 0.0])
        assert float(loss.data) == pytest.approx(2 * np.log(4), rel=1e-6)

    def test_head_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            multi_task_loss([Tensor(np.zeros((1, 4)))], [])

    def test_severity_buckets(self):
        def exam_with(total):
            grades = {"KL": 0, "FO_L": 0, "FO_M": 0, "TO_L": 0, "TO_M": 0,
                      "JSN_L": 0, "JSN_M": 0}
            names = ["FO_L", "FO_M", "TO_L", "TO_M", "JSN_L", "JSN_M"]
            i = 0
            while total > 0:
                add = min(3, total)
                grades[names[i]] = add
                total -= add
                i += 1
            return GradedExam("x", "s", "R", 0, "", "", 1.0, grades)

        assert severity_bucket(exam_with(0)) == 0
        assert severity_bucket(exam_with(1)) == 1
        assert severity_bucket(exam_with(3)) == 1
        assert severity_bucket(exam_with(4)) == 2
        assert severity_bucket(exam_with(8)) == 2
        assert severity_bucket(exam_with(9)) == 3
        assert severity_bucket(exam_with(18)) == 3

    def test_targets_for_standard_and_aux(self):
        exams, _ = fake_dataset(4, seed=1)
        t = targets_for(exams, ["KL", "FO_M", AUX_HEAD])
        assert t[0].tolist() == [e.grade("KL") for e in exams]
        assert t[1].tolist() == [e.grade("FO_M") for e in exams]
        assert t[2].tolist() == [severity_bucket(e) for e in exams]


class TestSelectSnapshot:
    def test_plain_argmax(self):
        assert select_snapshot([0.1, 0.5, 0.3]) == 1

    def test_ties_go_to_later_epoch(self):
        assert select_snapshot([0.5, 0.2, 0.5]) == 2
        assert select_snapshot([0.0, 0.0, 0.0]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            select_snapshot([])


class TestBatchImages:
    """Training and evaluation inputs are standardized in one place."""

    def test_identity_augment_equals_evaluation_batch(self):
        exams, images = fake_dataset(6, side=16)
        cfg = AugmentConfig(crop_ratio=1.0, noise_sigma=0.0, gamma_low=1.0, gamma_high=1.0)
        idxs = [4, 0, 2]
        train = batch_images(images, exams, idxs, np.random.default_rng(0), cfg)
        evaluation = batch_images(images, exams, idxs)
        assert evaluation.dtype == np.float32 and evaluation.shape == (3, 1, 16, 16)
        assert np.array_equal(train, evaluation)

    def test_output_standardized(self):
        exams, images = fake_dataset(6, side=32)
        idxs = range(6)
        for batch in (batch_images(images, exams, idxs),
                      batch_images(images, exams, idxs, np.random.default_rng(2),
                                   AugmentConfig())):
            planes = batch[:, 0].astype(np.float64)
            assert np.allclose(planes.mean(axis=(1, 2)), 0.0, atol=1e-6)
            assert np.allclose(planes.std(axis=(1, 2)), 1.0, atol=1e-6)


class TestBatchedLogits:
    """The one inference loop at 128 px, where a batch's stem output passes
    its budget and the loop streams 8-image batches."""

    def test_streamed_batches_equal_one_whole_batch_forward(self):
        exams, images = fake_dataset(10, side=128)
        model = build_model(ModelConfig(), seed=0)
        got = batched_logits(model, exams, images, lambda z: z, batch_size=32)
        x = np.stack([images[e.exam_id].values for e in exams])[:, None]
        with T.no_grad():
            want = model(Tensor(x))
        for name, lg in zip(model.head_names, want):
            assert np.array_equal(got[name], lg.data)

    def test_peak_memory_of_a_32_image_batch(self):
        import tracemalloc
        exams, images = fake_dataset(32, side=128)
        model = build_model(ModelConfig(), seed=0)
        tracemalloc.start()
        try:
            batched_logits(model, exams, images, lambda z: z, batch_size=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 58 MB when the 32 images went through as one batch
        assert peak <= 16 << 20, peak


class TestTrainStep:
    """A training step's graph lives only while its step runs."""

    @staticmethod
    def _epoch_runner(model, n, side):
        exams, images = fake_dataset(n, side=side)
        cfg = TrainConfig(batch_size=32, sampler="none", augment=False)
        opt = Adam(model.named_parameters(), lr=1e-3)
        targets = targets_for(exams, model.head_names)
        rngs = np.random.default_rng(0), np.random.default_rng(1)
        return lambda: _train_one_epoch(model, opt, exams, images, targets, cfg, *rngs)

    def test_graph_is_freed_before_the_next_forward(self, monkeypatch):
        model = build_model(tiny_config(), seed=0)
        graphs = []     # per step, weak references to every node's backward closure
        alive_at_forward = []

        def loss_spy(*args, **kwargs):
            loss = multi_task_loss(*args, **kwargs)
            refs, seen, stack = [], set(), [loss]
            while stack:
                t = stack.pop()
                if id(t) not in seen and t._backward is not None:
                    seen.add(id(t))
                    refs.append(weakref.ref(t._backward))
                    stack.extend(t._parents)
            graphs.append(refs)
            return loss

        def forward_spy(x):
            alive_at_forward.append([sum(r() is not None for r in refs) for refs in graphs])
            return type(model).forward(model, x)

        monkeypatch.setattr(training, "multi_task_loss", loss_spy)
        monkeypatch.setattr(model, "forward", forward_spy)
        run = self._epoch_runner(model, 96, 16)
        gc.disable()        # freed by reference counting alone, no cycle collection
        try:
            run()
        finally:
            gc.enable()
        assert len(graphs) == 3 and all(len(refs) > 20 for refs in graphs)
        assert alive_at_forward == [[], [0], [0, 0]]

    def test_peak_memory_of_two_steps(self):
        import tracemalloc
        run = self._epoch_runner(build_model(ModelConfig(), seed=0), 64, 64)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 113 MB while step 1's graph stayed alive beside step 2's, and the
        # unit's backward made full-size temporaries
        assert peak <= 80 << 20, peak


class TestRunFold:
    def test_history_schedule_and_log(self, tmp_path):
        exams, images = fake_dataset(24, seed=3)
        model = build_model(tiny_config(), seed=0)
        cfg = quick_cfg()
        res = run_fold(model, exams[:16], exams[16:], images, cfg, seed=0,
                       fold=0, out_dir=str(tmp_path))
        assert len(res.history) == 4
        assert res.lr_by_epoch == [1e-2, 1e-2, 1e-3, 1e-4]
        text = (tmp_path / "train_log_fold0.csv").read_text().splitlines()
        assert text[0].startswith("epoch,lr,train_loss,kappa_KL,")
        assert text[0].endswith(",mean_kappa")
        assert len(text) == 5
        assert text[1].split(",")[0] == "1"

    def test_frozen_backbone_is_bit_identical_then_moves(self, tmp_path):
        exams, images = fake_dataset(20, seed=4)
        model = build_model(tiny_config(), seed=1)
        initial = backbone_checksum(model)
        res = run_fold(model, exams[:14], exams[14:], images, quick_cfg(), seed=1)
        sums = res.backbone_checksums
        assert sums[0] == initial
        assert sums[1] == initial
        assert sums[2] != initial
        assert sums[3] != sums[2]

    def test_snapshot_matches_best_epoch_metrics(self, tmp_path):
        exams, images = fake_dataset(24, seed=5)
        model = build_model(tiny_config(), seed=2)
        res = run_fold(model, exams[:16], exams[16:], images, quick_cfg(), seed=2,
                       fold=3, out_dir=str(tmp_path))
        kappas = [r["mean_kappa"] for r in res.history]
        best = select_snapshot(kappas)
        assert res.snapshot.meta["epoch"] == best + 1
        assert res.snapshot.meta["fold"] == 3
        # reload from disk and re-evaluate: identical metrics
        loaded = Snapshot.load(str(tmp_path / "snapshot_fold3.kgw"))
        rebuilt = snapshot_model(loaded)
        again = validation_metrics(rebuilt, exams[16:], images, 8)
        assert again["mean_kappa"] == pytest.approx(
            loaded.meta["metrics"]["mean_kappa"], abs=1e-12)

    def test_two_runs_identical(self, tmp_path):
        exams, images = fake_dataset(20, seed=6)
        cfg = quick_cfg(augment=True, aug=AugmentConfig(noise_sigma=0.01),
                        sampler="kl_balanced")
        results = []
        for _ in range(2):
            model = build_model(tiny_config(), seed=7)
            results.append(run_fold(model, exams[:14], exams[14:], images, cfg, seed=7))
        a, b = results
        assert a.history == b.history
        assert a.backbone_checksums == b.backbone_checksums
        for k in a.snapshot.weights:
            assert np.array_equal(a.snapshot.weights[k], b.snapshot.weights[k])

    def test_missing_image_named(self):
        exams, images = fake_dataset(8, seed=7)
        del images[exams[2].exam_id]
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ConfigurationError) as err:
            run_fold(model, exams[:6], exams[6:], images, quick_cfg(), seed=0)
        assert exams[2].exam_id in str(err.value)

    def test_empty_val_rejected(self):
        exams, images = fake_dataset(8, seed=8)
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ConfigurationError):
            run_fold(model, exams, [], images, quick_cfg(), seed=0)

    def test_meta_carried_into_snapshot(self):
        exams, images = fake_dataset(16, seed=9)
        model = build_model(tiny_config(), seed=3)
        res = run_fold(model, exams[:12], exams[12:], images, quick_cfg(), seed=3,
                       meta={"config_hash": "beef", "model_config": tiny_config().to_dict()})
        assert res.snapshot.meta["config_hash"] == "beef"
        assert res.snapshot.meta["schedule"] == "transfer"
        assert res.snapshot.meta["seed"] == 3


class TestPretrain:
    def test_saves_loadable_backbone(self, tmp_path):
        exams, images = fake_dataset(16, seed=10)
        cfg = TrainConfig(schedule="scratch", epochs=2, batch_size=8,
                          sampler="none", augment=False)
        out = str(tmp_path / "pre.kgw")
        model = pretrain_backbone(exams, images, tiny_config(), cfg, seed=5, out_path=out)
        assert model.head_names == [AUX_HEAD]
        fresh = build_model(tiny_config(), seed=99)
        before = backbone_checksum(fresh)
        load_backbone_weights(fresh, out)
        assert backbone_checksum(fresh) == backbone_checksum(model)
        assert backbone_checksum(fresh) != before

    def test_requires_scratch_schedule(self):
        exams, images = fake_dataset(8, seed=11)
        cfg = quick_cfg()   # transfer
        with pytest.raises(ConfigurationError):
            pretrain_backbone(exams, images, tiny_config(), cfg, seed=0, out_path="x")

    def test_transfer_run_starts_from_pretrained_backbone(self, tmp_path):
        exams, images = fake_dataset(20, seed=12)
        pre_cfg = TrainConfig(schedule="scratch", epochs=1, batch_size=8,
                              sampler="none", augment=False)
        out = str(tmp_path / "pre.kgw")
        pretrained = pretrain_backbone(exams[:12], images, tiny_config(), pre_cfg,
                                       seed=6, out_path=out)
        model = build_model(tiny_config(), seed=7)
        load_backbone_weights(model, out)
        res = run_fold(model, exams[:14], exams[14:], images, quick_cfg(), seed=7)
        # frozen phase keeps exactly the pretrained bytes
        assert res.backbone_checksums[0] == backbone_checksum(pretrained)
        assert res.backbone_checksums[2] != res.backbone_checksums[0]
