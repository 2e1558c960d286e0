"""Probability averaging guarantees and the prediction table format."""

import numpy as np
import pytest

from kneegrade.ensemble import (
    ensemble_mean,
    ensemble_predict,
    predict_probs,
    read_predictions_csv,
    softmax_probs,
    write_predictions_csv,
)
from kneegrade.errors import ConfigurationError, DataError
from kneegrade.training import Snapshot, run_fold

from test_training import fake_dataset, quick_cfg, tiny_config
from kneegrade.model import build_model


def random_probs(rng, n, k):
    raw = rng.random((n, k)).astype(np.float32)
    return (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax_probs(rng.normal(size=(10, 5)) * 3)
        assert p.dtype == np.float32
        assert p.sum(axis=1) == pytest.approx(np.ones(10), abs=1e-6)

    def test_matches_longhand(self):
        z = np.array([[1.0, 2.0, 3.0]])
        manual = np.exp(z) / np.exp(z).sum()
        assert softmax_probs(z)[0] == pytest.approx(manual[0], rel=1e-6)

    def test_large_logits_stay_finite(self):
        p = softmax_probs(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        assert np.all(np.isfinite(p))
        assert p[0, 0] == pytest.approx(1.0)


class TestEnsembleMean:
    def test_member_order_is_invisible_bitwise(self):
        rng = np.random.default_rng(1)
        members = [random_probs(rng, 40, 5) for _ in range(5)]
        a = ensemble_mean(members)
        order = rng.permutation(5)
        b = ensemble_mean([members[i] for i in order])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 12])
    def test_identical_members_reproduce_member_exactly(self, m):
        rng = np.random.default_rng(2)
        member = random_probs(rng, 30, 4)
        out = ensemble_mean([member.copy() for _ in range(m)])
        assert np.array_equal(out, member)

    def test_plain_mean_value(self):
        a = np.full((2, 2), 0.25, dtype=np.float32)
        b = np.full((2, 2), 0.75, dtype=np.float32)
        assert ensemble_mean([a, b]) == pytest.approx(np.full((2, 2), 0.5))

    def test_float64_members_rejected(self):
        with pytest.raises(ConfigurationError):
            ensemble_mean([np.ones((2, 2))])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ensemble_mean([])


def two_snapshots(tmp_path, seed=0):
    exams, images = fake_dataset(20, seed=seed)
    cfg = quick_cfg(epochs=3, thaw_epochs=1)
    snaps = []
    for fold in range(2):
        model = build_model(tiny_config(), seed=seed + fold)
        res = run_fold(model, exams[:14], exams[14:], images, cfg,
                       seed=seed + fold, fold=fold)
        snaps.append(res.snapshot)
    return snaps, exams[14:], images


class TestEnsemblePredict:
    def test_identical_snapshots_equal_single_model(self, tmp_path):
        snaps, val, images = two_snapshots(tmp_path)
        probs_multi, grades = ensemble_predict([snaps[0], snaps[0], snaps[0]],
                                               val, images)
        from kneegrade.training import snapshot_model
        single = predict_probs(snapshot_model(snaps[0]), val, images)
        for name in single:
            assert np.array_equal(probs_multi[name], single[name])
            assert np.array_equal(grades[name], np.argmax(single[name], axis=1))

    def test_two_member_order_invariance(self, tmp_path):
        snaps, val, images = two_snapshots(tmp_path, seed=3)
        p1, g1 = ensemble_predict(snaps, val, images)
        p2, g2 = ensemble_predict(snaps[::-1], val, images)
        for name in p1:
            assert np.array_equal(p1[name], p2[name])
            assert np.array_equal(g1[name], g2[name])

    def test_head_mismatch_rejected(self, tmp_path):
        snaps, val, images = two_snapshots(tmp_path, seed=4)
        other = Snapshot(weights=snaps[1].weights,
                         meta={**snaps[1].meta, "heads": [["aux", 4]]})
        with pytest.raises(ConfigurationError):
            ensemble_predict([snaps[0], other], val, images)

    def test_missing_image_rejected(self, tmp_path):
        snaps, val, images = two_snapshots(tmp_path, seed=5)
        del images[val[0].exam_id]
        with pytest.raises(ConfigurationError):
            ensemble_predict(snaps, val, images)

    def test_no_snapshots_rejected(self):
        with pytest.raises(ConfigurationError):
            ensemble_predict([], [], {})


class TestPredictionsCSV:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.specs = [("KL", 5), ("FO_L", 4)]
        self.ids = [f"x{i}" for i in range(7)]
        self.probs = {"KL": random_probs(rng, 7, 5), "FO_L": random_probs(rng, 7, 4)}
        self.grades = {n: np.argmax(self.probs[n], axis=1) for n, _ in self.specs}

    def test_round_trip_is_bit_exact(self, tmp_path):
        path = str(tmp_path / "pred.csv")
        write_predictions_csv(path, self.ids, self.specs, self.probs, self.grades)
        ids, specs, probs, grades = read_predictions_csv(path)
        assert ids == self.ids
        assert specs == self.specs
        for name, _ in self.specs:
            assert np.array_equal(probs[name], self.probs[name])
            assert np.array_equal(grades[name], self.grades[name])

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "pred.csv")
        write_predictions_csv(path, self.ids, self.specs, self.probs, self.grades)
        header = open(path).readline().strip().split(",")
        assert header[:3] == ["exam_id", "grade_KL", "p_KL_0"]
        assert header[6] == "p_KL_4"
        assert header[7] == "grade_FO_L"
        assert header[-1] == "p_FO_L_3"

    def test_rewrite_is_byte_identical(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        write_predictions_csv(a, self.ids, self.specs, self.probs, self.grades)
        write_predictions_csv(b, self.ids, self.specs, self.probs, self.grades)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_comma_in_id_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_predictions_csv(str(tmp_path / "bad.csv"), ["a,b"] + self.ids[1:],
                                  self.specs, self.probs, self.grades)

    def test_truncated_row_rejected(self, tmp_path):
        path = str(tmp_path / "pred.csv")
        write_predictions_csv(path, self.ids, self.specs, self.probs, self.grades)
        lines = open(path).read().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:-1])
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            read_predictions_csv(path)
        assert "line 4" in str(err.value)

    @pytest.mark.parametrize("grade", ["5", "-1"])
    def test_out_of_range_grade_rejected(self, tmp_path, grade):
        # KL has 5 classes; a grade past them would fail later in evaluate,
        # naming neither the file nor the line
        path = str(tmp_path / "pred.csv")
        write_predictions_csv(path, self.ids, self.specs, self.probs, self.grades)
        lines = open(path).read().splitlines()
        cells = lines[2].split(",")
        cells[1] = grade
        lines[2] = ",".join(cells)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"pred.csv line 3: head 'KL' grade {grade} "
                                            r"outside \[0, 4\]"):
            read_predictions_csv(path)

    def test_head_named_twice_rejected(self, tmp_path):
        path = str(tmp_path / "pred.csv")
        open(path, "w").write("exam_id,grade_KL,p_KL_0,p_KL_1,grade_KL,p_KL_0,p_KL_1\n"
                              "x,0,0.5,0.5,1,0.25,0.75\n")
        with pytest.raises(DataError, match="pred.csv: head 'KL' appears twice"):
            read_predictions_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = str(tmp_path / "pred.csv")
        open(path, "w").write("exam_id,kl\nx,1\n")
        with pytest.raises(DataError):
            read_predictions_csv(path)
