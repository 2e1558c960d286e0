"""Report emission: file layout, content, and byte-level determinism."""

import errno
import json
import os

import numpy as np
import pytest

from kneegrade import serialize
from kneegrade.errors import ConfigurationError, DataError
from kneegrade.metrics import cohen_kappa
from kneegrade.report import (
    align_predictions,
    binary_target,
    emit_report,
    write_confusion_csv,
    write_curve_csv,
    write_curve_svg,
    write_history_svg,
)


def sample(seed=0, n=120):
    rng = np.random.default_rng(seed)
    specs = [("KL", 5), ("FO_L", 4)]
    truths = {"KL": rng.integers(0, 5, size=n), "FO_L": rng.integers(0, 4, size=n)}
    preds = {}
    probs = {}
    for name, k in specs:
        noisy = np.clip(truths[name] + rng.integers(-1, 2, size=n), 0, k - 1)
        preds[name] = noisy
        p = rng.random((n, k))
        p[np.arange(n), noisy] += 2.0   # make argmax match the prediction
        probs[name] = p / p.sum(axis=1, keepdims=True)
    return specs, truths, preds, probs


class TestAlign:
    def test_permutation_recovered(self):
        idx = align_predictions(["a", "b", "c"], ["c", "a", "b"])
        assert idx == [1, 2, 0]

    def test_missing_prediction(self):
        with pytest.raises(DataError) as err:
            align_predictions(["a", "b"], ["a"])
        assert "'b'" in str(err.value)

    def test_extra_prediction(self):
        with pytest.raises(DataError) as err:
            align_predictions(["a"], ["a", "z"])
        assert "'z'" in str(err.value)

    def test_duplicate_prediction(self):
        with pytest.raises(DataError):
            align_predictions(["a"], ["a", "a"])


class TestTables:
    def test_confusion_counts_and_percentages(self, tmp_path):
        path = str(tmp_path / "c.csv")
        write_confusion_csv(path, [0, 0, 1, 1], [0, 1, 1, 1], 3)
        lines = open(path).read().splitlines()
        assert lines[0] == "true_grade,pred_0,pred_1,pred_2,total,pct_0,pct_1,pct_2"
        assert lines[1] == "0,1,1,0,2,50.00,50.00,0.00"
        assert lines[2] == "1,0,2,0,2,0.00,100.00,0.00"
        assert lines[3] == "2,0,0,0,0,0.00,0.00,0.00"

    def test_curve_csv_keeps_inf_threshold(self, tmp_path):
        path = str(tmp_path / "roc.csv")
        write_curve_csv(path, ["fpr", "tpr", "threshold"],
                        [[0.0, 1.0], [0.0, 1.0], [np.inf, 0.25]])
        lines = open(path).read().splitlines()
        assert lines[1] == "0,0,inf"
        assert lines[2] == "1,1,0.25"


class TestSVG:
    def test_curve_svg_is_deterministic(self, tmp_path):
        a = str(tmp_path / "a.svg")
        b = str(tmp_path / "b.svg")
        x = np.linspace(0, 1, 20)
        y = x ** 2
        write_curve_svg(a, x, y, "x", "y", "t", diagonal=True)
        write_curve_svg(b, x, y, "x", "y", "t", diagonal=True)
        blob = open(a, "rb").read()
        assert blob == open(b, "rb").read()
        assert blob.startswith(b"<svg")
        assert b"polyline" in blob

    def test_history_svg(self, tmp_path):
        path = str(tmp_path / "h.svg")
        history = [{"epoch": e, "train_loss": 10.0 / e, "mean_kappa": 0.1 * e}
                   for e in range(1, 6)]
        write_history_svg(path, history)
        blob = open(path).read()
        assert "train loss" in blob and "mean kappa" in blob

    def test_history_svg_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_history_svg(str(tmp_path / "h.svg"), [])


class TestEmitReport:
    def test_files_and_values(self, tmp_path):
        specs, truths, preds, probs = sample()
        out = str(tmp_path / "report")
        doc = emit_report(out, specs, truths, preds, probs,
                          meta={"config_hash": "aa"}, n_bootstrap=30, seed=1)
        names = sorted(os.listdir(out))
        assert "metrics.json" in names
        for task in ("KL", "FO_L"):
            assert f"confusion_{task}.csv" in names
        for target in ("KL_ge2", "FO_L_ge1"):
            for kind in ("roc", "pr"):
                assert f"{kind}_{target}.csv" in names
                assert f"{kind}_{target}.svg" in names
        on_disk = json.load(open(os.path.join(out, "metrics.json")))
        assert on_disk == doc
        got = doc["tasks"]["KL"]["kappa_quadratic"]["point"]
        assert got == pytest.approx(cohen_kappa(truths["KL"], preds["KL"], 5))
        assert doc["mean_kappa"] == pytest.approx(
            np.mean([doc["tasks"][t]["kappa_quadratic"]["point"] for t in ("KL", "FO_L")]))
        assert doc["binary"]["KL_ge2"]["roc_auc"]["point"] > 0.5
        assert doc["meta"]["config_hash"] == "aa"
        assert "generated_at" in doc["meta"]

    def test_everything_but_timestamp_reproduces(self, tmp_path):
        specs, truths, preds, probs = sample(seed=3)
        outs = []
        for tag in ("x", "y"):
            out = str(tmp_path / tag)
            emit_report(out, specs, truths, preds, probs, n_bootstrap=20, seed=2)
            outs.append(out)
        a, b = outs
        for name in sorted(os.listdir(a)):
            if name == "metrics.json":
                da = json.load(open(os.path.join(a, name)))
                db = json.load(open(os.path.join(b, name)))
                da["meta"].pop("generated_at")
                db["meta"].pop("generated_at")
                assert da == db
            else:
                assert open(os.path.join(a, name), "rb").read() == \
                    open(os.path.join(b, name), "rb").read(), name

    def test_single_class_binary_target_skipped(self, tmp_path):
        specs = [("FO_L", 4)]
        n = 40
        rng = np.random.default_rng(4)
        truths = {"FO_L": np.zeros(n, dtype=np.int64)}   # nobody positive
        preds = {"FO_L": rng.integers(0, 2, size=n)}
        p = rng.random((n, 4))
        probs = {"FO_L": p / p.sum(axis=1, keepdims=True)}
        doc = emit_report(str(tmp_path / "r"), specs, truths, preds, probs,
                          n_bootstrap=10, seed=0)
        assert doc["binary"]["FO_L_ge1"] == {"skipped": "single class in truth"}

    @pytest.mark.parametrize("which, message", [
        (1, "missing truth grades for head 'FO_L'"),
        (2, "missing prediction grades for head 'FO_L'"),
        (3, "missing probabilities for head 'FO_L'")])
    def test_missing_head_array_named(self, tmp_path, which, message):
        args = list(sample(seed=4, n=30))
        del args[which]["FO_L"]
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            emit_report(str(tmp_path / "r"), *args, n_bootstrap=5, seed=0)
        assert not os.listdir(tmp_path / "r")

    def test_misaligned_arrays_rejected(self, tmp_path):
        specs, truths, preds, probs = sample(seed=5, n=30)
        preds["KL"] = preds["KL"][:-1]
        with pytest.raises(ConfigurationError):
            emit_report(str(tmp_path / "r"), specs, truths, preds, probs,
                        n_bootstrap=5, seed=0)

    def test_failed_dump_leaves_no_partial_metrics(self, tmp_path, monkeypatch):
        specs, truths, preds, probs = sample(seed=6, n=40)
        out = tmp_path / "r"
        real_open = open

        class FullDisk:
            """A file that takes 8 bytes, then reports a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:8])
                raise OSError(errno.ENOSPC, "disk full")

        def full_disk_open(file, mode="r"):
            fh = real_open(file, mode)
            return FullDisk(fh) if ".metrics.json." in os.path.basename(file) else fh

        # write_atomic looks open up in its own module first
        monkeypatch.setattr(serialize, "open", full_disk_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            emit_report(str(out), specs, truths, preds, probs, n_bootstrap=5, seed=0)
        assert "metrics.json" not in os.listdir(out)
        assert not [name for name in os.listdir(out) if name.startswith(".")]

        monkeypatch.delattr(serialize, "open")
        emit_report(str(out), specs, truths, preds, probs, n_bootstrap=5, seed=0)
        before = (out / "metrics.json").read_bytes()
        monkeypatch.setattr(serialize, "open", full_disk_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            emit_report(str(out), specs, truths, preds, probs, n_bootstrap=5, seed=1)
        assert (out / "metrics.json").read_bytes() == before
        assert not [name for name in os.listdir(out) if name.startswith(".")]

    def test_binary_target_names(self):
        assert binary_target("KL") == ("KL_ge2", 2)
        assert binary_target("JSN_M") == ("JSN_M_ge1", 1)
