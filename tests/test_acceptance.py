"""Acceptance suite: every external promise of the package, each checked at
its stated tolerance and reported as one PASS/FAIL line in the terminal
summary.

The two learnability checks (4 and 5) train real models on a generated
cohort of 1500 exams and together take a few minutes of CPU time; everything
else is seconds. Budget roughly ten minutes for the whole module on one
desktop core.
"""

import concurrent.futures
import functools
import json
import os
import time

import numpy as np
import pytest

import conftest
from gradcheck import check_gradients, check_param_gradients, float64

from kneegrade import cli
from kneegrade import tensor as T
from kneegrade.blocks import BlockSpec, PoolHead, PoolingSpec, ResidualBlock, SEGate, StemSpec
from kneegrade.data import (LandmarkSet, load_and_filter, load_landmarks,
                            split_cv, synth_generate)
from kneegrade.ensemble import ensemble_predict, predict_probs, snapshot_model
from kneegrade.imageio import read_pgm16
from kneegrade.metrics import (balanced_accuracy, bootstrap_ci, cohen_kappa, f1_macro,
                               mse_grades, resample_indices, roc_auc)
from kneegrade.model import ModelConfig, build_model, load_backbone_weights, save_backbone_weights
from kneegrade.preprocess import (PreprocessConfig, RawImage, crop_roi, normalize,
                                  preprocess_exam, rotate_align, standardize)
from kneegrade.training import TrainConfig, multi_task_loss, pretrain_backbone, run_fold


def criterion(num, title):
    """Append one summary line per acceptance check, pass or fail."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                text = " ".join(str(exc).split())[:140] or type(exc).__name__
                conftest.acceptance_lines.append(f"{num:2d} FAIL {title}: {text}")
                raise
            line = f"{num:2d} PASS {title}"
            if detail:
                line += f" [{detail}]"
            conftest.acceptance_lines.append(line)
        return run
    return wrap


# ---------------------------------------------------------------------------
# shared corpora


TINY_MODEL = ModelConfig(
    stem=StemSpec(out_channels=8, pool=2),
    blocks=(BlockSpec(kind="basic", in_channels=8, out_channels=8, stride=1),
            BlockSpec(kind="basic", in_channels=8, out_channels=16, stride=2)),
    dropout_p=0.25)


def _load_corpus(root, target_side):
    exams, _ = load_and_filter(os.path.join(root, "manifest.csv"))
    cfg = PreprocessConfig(target_side=target_side)
    images = {}
    for e in exams:
        pixels = read_pgm16(os.path.join(root, e.image_path))
        _, lm = load_landmarks(os.path.join(root, e.landmark_path))
        images[e.exam_id] = preprocess_exam(RawImage(pixels, e.spacing_mm), lm, cfg)
    return exams, images


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """30 subjects at 32 px for the fast schedule / ensemble checks."""
    root = tmp_path_factory.mktemp("small_corpus")
    synth_generate(root, n_subjects=30, exams_per_subject=2, seed=5)
    exams, images = _load_corpus(str(root), target_side=32)
    subjects = sorted({e.subject_id for e in exams})
    val_subjects = set(subjects[:8])
    return {
        "train": [e for e in exams if e.subject_id not in val_subjects],
        "val": [e for e in exams if e.subject_id in val_subjects],
        "images": images,
    }


@pytest.fixture(scope="session")
def full_corpus(tmp_path_factory):
    """750 subjects x 2 exams at 64 px, split subject-disjoint 1000/500."""
    t0 = time.monotonic()
    root = tmp_path_factory.mktemp("full_corpus")
    synth_generate(root, n_subjects=750, exams_per_subject=2, seed=2024)
    exams, images = _load_corpus(str(root), target_side=64)
    subjects = sorted({e.subject_id for e in exams})
    train_subjects = set(subjects[:500])
    return {
        "exams": exams,
        "train": [e for e in exams if e.subject_id in train_subjects],
        "test": [e for e in exams if e.subject_id not in train_subjects],
        "images": images,
        "seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def pretrained_backbone(full_corpus, tmp_path_factory):
    """Severity-bucket proxy pretraining on the 1000-exam train pool."""
    t0 = time.monotonic()
    path = str(tmp_path_factory.mktemp("backbone") / "backbone.kgw")
    cfg = TrainConfig(schedule="scratch", epochs=10, lr_scratch=1e-3,
                      batch_size=32, augment=False, sampler="none")
    save_backbone_weights(pretrain_backbone(full_corpus["train"], full_corpus["images"],
                                            ModelConfig(), cfg, seed=7), path)
    return {"path": path, "seconds": time.monotonic() - t0}


# ---------------------------------------------------------------------------
# 1. gradients


class TestGradients:
    @criterion(1, "gradient suite, rel err < 1e-4 in float64, < 2 min")
    def test_every_op_and_block(self):
        start = time.monotonic()
        rng = np.random.default_rng(11)
        worst = 0.0

        def arr(*shape):
            return rng.normal(size=shape)

        # primitive ops through the public tape
        worst = max(worst, check_gradients(
            lambda ts: T.mean_all(T.mul(T.add(ts[0], ts[1]), T.scale(ts[0], 1.7))),
            [arr(4, 5), arr(4, 5)]))
        worst = max(worst, check_gradients(
            lambda ts: T.mean_all(T.relu(ts[0])), [arr(6, 6) + 0.05]))
        worst = max(worst, check_gradients(
            lambda ts: T.mean_all(T.sigmoid(ts[0])), [arr(5, 3)]))
        worst = max(worst, check_gradients(
            lambda ts: T.mean_all(T.reshape(ts[0], (2, 12))), [arr(4, 6)]))
        worst = max(worst, check_gradients(
            lambda ts: T.mean_all(T.broadcast_to(ts[0], (4, 3, 5))), [arr(3, 1)]))
        worst = max(worst, check_gradients(
            lambda ts: T.mean_all(T.reduce_sum(ts[0], axis=1)), [arr(3, 4, 2)]))
        worst = max(worst, check_gradients(
            lambda ts: T.mean_all(T.linear(ts[0], ts[1], ts[2])),
            [arr(3, 4), arr(2, 4), arr(2)]))
        for groups in (1, 2):
            worst = max(worst, check_gradients(
                lambda ts: T.mean_all(T.conv2d(ts[0], ts[1], ts[2], stride=2,
                                               padding=1, groups=groups)),
                [arr(2, 4, 5, 5), arr(6, 4 // groups, 3, 3), arr(6)]))
        worst = max(worst, check_gradients(
            lambda ts: T.mean_all(T.avg_pool2d(ts[0], 2)), [arr(2, 3, 4, 4)]))
        worst = max(worst, check_gradients(
            lambda ts: T.mean_all(T.global_avg_pool(ts[0])), [arr(2, 3, 4, 4)]))
        worst = max(worst, check_gradients(
            lambda ts: T.mean_all(T.dropout(ts[0], 0.3, True,
                                            np.random.default_rng(3))),
            [arr(6, 6)]))
        targets = np.array([0, 2, 1])
        worst = max(worst, check_gradients(
            lambda ts: T.cross_entropy(ts[0], targets), [arr(3, 4)]))

        # batch norm, both modes, through live buffers
        def bn_case(training):
            gamma = T.Tensor(arr(4), requires_grad=True, dtype=np.float64)
            beta = T.Tensor(arr(4), requires_grad=True, dtype=np.float64)
            x = T.Tensor(arr(3, 4, 2, 2), requires_grad=True, dtype=np.float64)
            def forward():
                rm = np.zeros(4, dtype=np.float64)
                rv = np.ones(4, dtype=np.float64)
                return T.mean_all(T.batch_norm2d(x, gamma, beta, rm, rv, training))
            return check_param_gradients(forward, [x, gamma, beta])
        worst = max(worst, bn_case(True))
        worst = max(worst, bn_case(False))

        # composite blocks with registered parameters, in training mode: batch
        # norm on batch statistics (an eval-mode unit has no backward)
        def module_case(module, x_shape, forward=None):
            module.train()
            x = T.Tensor(arr(*x_shape), requires_grad=True, dtype=np.float64)
            fn = forward or (lambda: T.mean_all(module(x)))
            return check_param_gradients(fn, [x] + module.parameters())

        mk = np.random.default_rng(7)
        worst = max(worst, module_case(float64(SEGate(4, 2, mk)), (2, 4, 3, 3)))
        worst = max(worst, module_case(
            float64(ResidualBlock(BlockSpec(kind="basic", in_channels=3, out_channels=5,
                                            stride=2), mk)),
            (2, 3, 6, 6)))
        worst = max(worst, module_case(
            float64(ResidualBlock(BlockSpec(kind="bottleneck", in_channels=4, out_channels=8,
                                            stride=1, groups=2, group_width=2,
                                            se_reduction=4), mk)),
            (2, 4, 4, 4)))
        for kind in ("avg", "gwap", "gwap_hidden"):
            worst = max(worst, module_case(
                float64(PoolHead(4, PoolingSpec(kind=kind, hidden_width=4), mk)),
                (2, 4, 3, 3)))

        # the whole model against the multi-task objective
        model = float64(build_model(TINY_MODEL, seed=1)).train()
        x = T.Tensor(arr(2, 1, 16, 16), requires_grad=True, dtype=np.float64)
        y = [np.array([0, 1])] * 7

        def whole_model():
            model.reseed_dropout(5)     # the same dropout masks on every call
            return multi_task_loss(model(x), y)
        worst = max(worst, check_param_gradients(whole_model, [x] + model.parameters()))

        elapsed = time.monotonic() - start
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
        return f"worst rel err {worst:.1e}, {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. metrics against brute-force oracles


def oracle_kappa(y, p, k, weighting):
    observed = np.zeros((k, k))
    for a, b in zip(y, p):
        observed[a, b] += 1
    i = np.arange(k, dtype=float)
    diff = np.abs(i[:, None] - i[None, :])
    if weighting == "none":
        w = (diff > 0).astype(float)
    elif weighting == "linear":
        w = diff / (k - 1)
    else:
        w = (diff / (k - 1)) ** 2
    expected = np.outer(observed.sum(1), observed.sum(0)) / len(y)
    return 1.0 - (w * observed).sum() / (w * expected).sum()


def oracle_balanced_accuracy(y, p, k):
    recalls = [np.mean(p[y == c] == c) for c in range(k) if np.any(y == c)]
    return 100.0 * float(np.mean(recalls))


def oracle_f1(y, p, k):
    scores = []
    for c in range(k):
        tp = np.sum((y == c) & (p == c))
        fp = np.sum((y != c) & (p == c))
        fn = np.sum((y == c) & (p != c))
        if tp + fp + fn == 0:
            continue
        scores.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return float(np.mean(scores))


def oracle_auc(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for s in pos:
        wins += np.sum(s > neg) + 0.5 * np.sum(s == neg)
    return wins / (len(pos) * len(neg))


class TestMetricOracles:
    @criterion(2, "metrics match brute-force oracles on 200 instances to 1e-9")
    def test_two_hundred_randomized_instances(self):
        rng = np.random.default_rng(99)
        checked = 0
        for case in range(200):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(k, 51))
            y = rng.integers(0, k, size=n)
            y[rng.integers(0, n)] = k - 1      # keep the top class reachable
            p = rng.integers(0, k, size=n)
            for weighting in ("none", "linear", "quadratic"):
                want = oracle_kappa(y, p, k, weighting)
                if not np.isfinite(want):
                    continue
                got = cohen_kappa(y, p, k, weighting=weighting)
                assert abs(got - want) < 1e-9, (case, weighting)
                checked += 1
            assert abs(balanced_accuracy(y, p, k) -
                       oracle_balanced_accuracy(y, p, k)) < 1e-9
            assert abs(f1_macro(y, p, k) - oracle_f1(y, p, k)) < 1e-9
            assert abs(mse_grades(y, p, k) - float(np.mean((y - p) ** 2))) < 1e-9

            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]                 # both classes present
            scores = np.round(rng.random(n), 2)  # force score ties
            assert abs(roc_auc(labels, scores) -
                       oracle_auc(labels, scores)) < 1e-9

            # quadratic kappa is invariant under reversing the grade axis
            want = cohen_kappa(y, p, k, weighting="quadratic")
            got = cohen_kappa(k - 1 - y, k - 1 - p, k, weighting="quadratic")
            assert abs(got - want) < 1e-9
        return f"{checked} kappa comparisons across 200 instances"


# ---------------------------------------------------------------------------
# 3. schedule conformance on real training runs


@pytest.fixture(scope="session")
def schedule_runs(small_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("sched")
    backbone = str(root / "tiny_backbone.kgw")
    pre = TrainConfig(schedule="scratch", epochs=1, lr_scratch=1e-3,
                      batch_size=16, augment=False, sampler="none")
    save_backbone_weights(pretrain_backbone(small_corpus["train"], small_corpus["images"],
                                            TINY_MODEL, pre, seed=3), backbone)
    results = {}
    for schedule in ("transfer", "scratch"):
        cfg = TrainConfig(schedule=schedule, epochs=20, batch_size=16,
                          augment=False, sampler="none")
        model = build_model(TINY_MODEL, seed=3)
        if schedule == "transfer":
            load_backbone_weights(model, backbone)
        results[schedule] = run_fold(model, small_corpus["train"],
                                     small_corpus["val"], small_corpus["images"],
                                     cfg, seed=3, fold=0)
    return results


class TestScheduleConformance:
    @criterion(3, "recorded LR traces and frozen-backbone bit-identity")
    def test_recorded_traces(self, schedule_runs):
        transfer = schedule_runs["transfer"]
        scratch = schedule_runs["scratch"]
        assert transfer.lr_by_epoch == [1e-2, 1e-2, 1e-3] + [1e-4] * 17
        assert scratch.lr_by_epoch == [1e-4] * 10 + [1e-5] * 5 + [1e-6] * 5
        sums = transfer.backbone_checksums
        assert sums[0] == sums[1], "backbone changed while frozen"
        assert sums[1] != sums[2], "backbone failed to thaw"
        assert len(set(scratch.backbone_checksums[:3])) == 3
        return "traces exact, frozen epochs byte-stable"


# ---------------------------------------------------------------------------
# 4. end-to-end learnability at full scale


class TestLearnability:
    @criterion(4, "1000/500 split, 20 epochs: JSN BA >= 85, osteophyte BA >= 70, "
                  "< 30 min")
    def test_full_scale_training(self, full_corpus, pretrained_backbone):
        t0 = time.monotonic()
        cfg = TrainConfig(schedule="transfer", epochs=20, batch_size=32,
                          augment=False, sampler="none")
        model = build_model(ModelConfig(), seed=7)
        load_backbone_weights(model, pretrained_backbone["path"])
        result = run_fold(model, full_corpus["train"], full_corpus["test"],
                          full_corpus["images"], cfg, seed=7, fold=0)
        metrics = result.snapshot.meta["metrics"]
        elapsed = (time.monotonic() - t0 + full_corpus["seconds"]
                   + pretrained_backbone["seconds"])
        for head in ("JSN_L", "JSN_M"):
            assert metrics[f"ba_{head}"] >= 85.0, (head, metrics[f"ba_{head}"])
        for head in ("FO_L", "FO_M", "TO_L", "TO_M"):
            assert metrics[f"ba_{head}"] >= 70.0, (head, metrics[f"ba_{head}"])
        assert elapsed < 1800.0, f"took {elapsed:.0f}s"
        bas = " ".join(f"{h}={metrics['ba_' + h]:.1f}"
                       for h in ("JSN_L", "JSN_M", "FO_L", "FO_M", "TO_L", "TO_M"))
        return f"{bas}, {elapsed / 60:.1f} min incl. data+pretrain"


# ---------------------------------------------------------------------------
# 5. transfer beats scratch on a small budget


class TestTransferDirection:
    @criterion(5, "200-exam budget, 5 epochs: transfer >= scratch on >= 4/5 seeds")
    def test_five_seeds(self, full_corpus, pretrained_backbone):
        subjects = sorted({e.subject_id for e in full_corpus["train"]})
        val_subjects = sorted({e.subject_id for e in full_corpus["test"]})[:125]
        val = [e for e in full_corpus["test"] if e.subject_id in set(val_subjects)]
        outcomes = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            chosen = set(rng.permutation(subjects)[:100])
            budget = [e for e in full_corpus["train"] if e.subject_id in chosen]
            assert len(budget) == 200
            scores = {}
            for schedule in ("transfer", "scratch"):
                cfg = TrainConfig(schedule=schedule, epochs=5, batch_size=32,
                                  augment=False, sampler="none")
                model = build_model(ModelConfig(), seed=seed)
                if schedule == "transfer":
                    load_backbone_weights(model, pretrained_backbone["path"])
                res = run_fold(model, budget, val, full_corpus["images"],
                               cfg, seed=seed, fold=0)
                scores[schedule] = res.snapshot.meta["metrics"]["mean_kappa"]
            outcomes.append(scores["transfer"] >= scores["scratch"])
        wins = sum(outcomes)
        assert wins >= 4, f"transfer won only {wins}/5 seeds"
        return f"transfer won {wins}/5 seeds"


# ---------------------------------------------------------------------------
# 6. ensemble contracts


class TestEnsembleContracts:
    @criterion(6, "identical-member exactness, normalization, order invariance")
    def test_contracts(self, small_corpus, schedule_runs):
        snaps = [schedule_runs["transfer"].snapshot,
                 schedule_runs["scratch"].snapshot]
        val, images = small_corpus["val"], small_corpus["images"]

        single = predict_probs(snapshot_model(snaps[0]), val, images)
        tripled, _ = ensemble_predict([snaps[0]] * 3, val, images)
        for name in single:
            assert np.array_equal(single[name], tripled[name]), name

        forward, _ = ensemble_predict(snaps, val, images)
        reversed_, _ = ensemble_predict(snaps[::-1], val, images)
        for name in forward:
            assert np.array_equal(forward[name], reversed_[name]), name
            sums = forward[name].sum(axis=1)
            assert np.all(np.abs(sums - 1.0) < 1e-6), name
        return "exact for 3 identical members, bitwise order-invariant"


# ---------------------------------------------------------------------------
# 7. bootstrap contracts


class TestBootstrapContracts:
    @criterion(7, "stratum-exact resamples, parallel == serial, degenerate CI")
    def test_contracts(self):
        rng = np.random.default_rng(0)
        strata = rng.integers(0, 4, size=200)
        want = {label: int(np.sum(strata == label)) for label in np.unique(strata)}
        for iteration in range(50):
            idx = resample_indices(strata, seed=9, iteration=iteration)
            got = strata[idx]
            for label, count in want.items():
                assert int(np.sum(got == label)) == count, (iteration, label)

        y = rng.integers(0, 5, size=300)
        p = np.clip(y + rng.integers(-1, 2, size=300), 0, 4)
        stat = lambda a, b: cohen_kappa(a, b, 5)
        serial = bootstrap_ci(stat, y, p, n_iterations=100, seed=4)
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            parallel = bootstrap_ci(stat, y, p, n_iterations=100, seed=4,
                                    executor=pool)
        assert serial.to_dict() == parallel.to_dict()

        flat = bootstrap_ci(lambda a, b: 0.25, y, p, n_iterations=100, seed=4)
        assert flat.lo == flat.hi == flat.point == 0.25
        return "50 resamples stratum-exact, 100-iteration CI thread-stable"


# ---------------------------------------------------------------------------
# 8. cross-validation contracts


class TestCrossValidationContracts:
    @criterion(8, "100 seeds: subjects never span folds, strata balanced to 1")
    def test_hundred_seeds(self, full_corpus):
        exams = full_corpus["exams"]
        strata = {}     # each subject's worst KL grade, -1 when it has none
        for e in exams:
            kl = e.grade("KL")
            strata[e.subject_id] = max(strata.get(e.subject_id, -1), -1 if kl is None else kl)
        for seed in range(100):
            assignment = split_cv(exams, n_folds=5, seed=seed)
            folds_per_subject = {}
            for e in exams:
                folds_per_subject.setdefault(e.subject_id, set()).add(
                    assignment.fold_of(e))
            assert all(len(f) == 1 for f in folds_per_subject.values())
            counts = {}
            for subject, fold in assignment.subject_fold.items():
                counts.setdefault(strata[subject], [0] * 5)[fold] += 1
            for stratum, per_fold in counts.items():
                assert max(per_fold) - min(per_fold) <= 1, (seed, stratum)
        return "750 subjects x 100 seeds"


# ---------------------------------------------------------------------------
# 9. pipeline determinism


PIPELINE_CONFIG = {
    "seed": 21,
    "n_folds": 3,
    "synth": {"image_side": 32, "noise_sigma": 0.01},
    "preprocess": {"target_side": 32},
    "model": {
        "stem": {"out_channels": 8, "pool": 2},
        "blocks": [
            {"kind": "basic", "in_channels": 8, "out_channels": 8, "stride": 1},
            {"kind": "basic", "in_channels": 8, "out_channels": 16, "stride": 2},
        ],
        "dropout_p": 0.25,
    },
    "train": {"schedule": "transfer", "epochs": 4, "batch_size": 16,
              "augment": False, "sampler": "none"},
    "pretrain": {"schedule": "scratch", "epochs": 2, "lr_scratch": 0.001,
                 "batch_size": 16, "augment": False, "sampler": "none"},
    "n_bootstrap": 30,
}


def run_pipeline(root):
    cfg = root / "config.json"
    cfg.write_text(json.dumps(PIPELINE_CONFIG))
    steps = [
        ("synth", "--out", root / "data", "--subjects", "24"),
        ("preprocess", "--manifest", root / "data" / "manifest.csv",
         "--out", root / "cache"),
        ("pretrain", "--manifest", root / "cache" / "manifest.csv",
         "--images", root / "cache", "--out", root / "backbone.kgw"),
        ("train", "--manifest", root / "cache" / "manifest.csv",
         "--images", root / "cache", "--pretrained", root / "backbone.kgw",
         "--out", root / "folds"),
        ("predict", "--manifest", root / "cache" / "manifest.csv",
         "--images", root / "cache", "--snapshots", root / "folds",
         "--out", root / "preds.csv"),
        ("evaluate", "--manifest", root / "cache" / "manifest.csv",
         "--predictions", root / "preds.csv", "--out", root / "report"),
    ]
    for step in steps:
        argv = [step[0], "--config", str(cfg)] + [str(s) for s in step[1:]]
        assert cli.main(argv) == 0, argv


class TestPipelineDeterminism:
    @criterion(9, "two identical CLI pipelines byte-identical except timestamp")
    def test_two_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        run_pipeline(a)
        run_pipeline(b)
        capsys.readouterr()

        compared = 0
        for path_a in sorted(a.rglob("*")):
            if path_a.is_dir():
                continue
            rel = path_a.relative_to(a)
            path_b = b / rel
            assert path_b.is_file(), f"missing from second run: {rel}"
            if path_a.name == "metrics.json":
                doc_a = json.loads(path_a.read_text())
                doc_b = json.loads(path_b.read_text())
                assert doc_a["meta"].pop("generated_at") and \
                    doc_b["meta"].pop("generated_at")
                assert doc_a == doc_b
            else:
                assert path_a.read_bytes() == path_b.read_bytes(), rel
            compared += 1
        assert compared > 30
        return f"{compared} artifacts compared"


# ---------------------------------------------------------------------------
# 10. preprocessing geometry


class TestPreprocessingGeometry:
    @criterion(10, "alignment < 0.5 px over 1000 cases, exact crop, unit norm")
    def test_geometry(self):
        rng = np.random.default_rng(31)
        worst_dy = 0.0
        for _ in range(1000):
            size = int(rng.integers(48, 129))
            pixels = rng.integers(0, 4096, size=(size, size)).astype(np.uint16)
            cx, cy = size / 2 + rng.uniform(-4, 4), size / 2 + rng.uniform(-4, 4)
            angle = np.deg2rad(rng.uniform(-15, 15))
            span = rng.uniform(size / 5, size / 3)

            def at(dist):
                return (cx + dist * np.cos(angle), cy + dist * np.sin(angle))

            lm = LandmarkSet(knee_center=(cx, cy), plateau_left=at(-span),
                             plateau_right=at(span),
                             side="R" if rng.random() < 0.5 else "L")
            _, _, moved = rotate_align(RawImage(pixels, 0.2), lm)
            worst_dy = max(worst_dy, abs(moved.plateau_left[1]
                                         - moved.plateau_right[1]))
        assert worst_dy < 0.5

        image = RawImage(np.zeros((800, 800), dtype=np.uint16), 0.2)
        cropped, info = crop_roi(image, (400, 400), 140.0)
        assert cropped.pixels.shape == (700, 700)
        assert info["crop_side_px"] == 700
        assert crop_roi(RawImage(np.zeros((600, 600), dtype=np.uint16), 0.45),
                        (300, 300), 140.0)[0].pixels.shape == (311, 311)

        worst_mean, worst_std = 0.0, 0.0
        for _ in range(200):
            side = int(rng.integers(16, 96))
            img = RawImage(rng.integers(0, 65536, size=(side, side))
                           .astype(np.uint16), 0.2)
            out = standardize(normalize(img).grid01)
            worst_mean = max(worst_mean, abs(float(out.mean())))
            worst_std = max(worst_std, abs(float(out.std()) - 1.0))
        assert worst_mean < 1e-6
        assert worst_std < 1e-4
        return (f"worst plateau dy {worst_dy:.3f} px, "
                f"norm |mean| {worst_mean:.1e}, |std-1| {worst_std:.1e}")
