"""Command line contract: exit codes, one-line errors, artifact hygiene,
hash guards, and reproducibility across invocations.

The pipeline fixtures run at a deliberately tiny scale (32 px, two folds,
two epochs) so the whole module stays fast.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kneegrade import cli
from kneegrade.errors import TrainingError
from kneegrade.preprocess import load_image_cache
from kneegrade.training import Snapshot

CONFIG = {
    "seed": 9,
    "n_folds": 2,
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
    "train": {"schedule": "scratch", "epochs": 2, "batch_size": 16,
              "augment": False, "sampler": "none"},
    "pretrain": {"schedule": "scratch", "epochs": 1, "batch_size": 16,
                 "augment": False, "sampler": "none"},
    "n_bootstrap": 20,
}


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synth + preprocess + train once; read-only for the tests."""
    root = tmp_path_factory.mktemp("cliwork")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    cfg = str(cfg_path)
    assert run_cli("synth", "--config", cfg, "--out", str(root / "data"),
                   "--subjects", "14") == 0
    assert run_cli("preprocess", "--config", cfg,
                   "--manifest", str(root / "data" / "manifest.csv"),
                   "--out", str(root / "cache")) == 0
    assert run_cli("train", "--config", cfg,
                   "--manifest", str(root / "cache" / "manifest.csv"),
                   "--images", str(root / "cache"),
                   "--out", str(root / "folds")) == 0
    return root


@pytest.fixture(scope="module")
def backbone(workdir):
    path = workdir / "backbone.kgw"
    assert run_cli("pretrain", "--config", str(workdir / "config.json"),
                   "--manifest", str(workdir / "cache" / "manifest.csv"),
                   "--images", str(workdir / "cache"), "--out", str(path)) == 0
    return path


def config_file(tmp_path, **changes):
    doc = json.loads(json.dumps(CONFIG))
    for key, value in changes.items():
        if isinstance(value, dict):
            doc.setdefault(key, {}).update(value)
        else:
            doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestBasics:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert "kneegrade" in capsys.readouterr().out

    def test_console_script_installed(self):
        exe = shutil.which("kneegrade")
        if exe is None:
            pytest.skip("package not installed with entry points")
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0

    def test_unknown_config_key_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "bogus": True}))
        code = run_cli("synth", "--config", str(path),
                       "--out", str(tmp_path / "d"), "--subjects", "2")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ConfigurationError:")
        assert err.count("\n") == 1

    def test_runtime_failures_exit_one(self, workdir, tmp_path, capsys, monkeypatch):
        def boom(*a, **k):
            raise TrainingError("synthetic failure")
        monkeypatch.setattr(cli, "run_fold", boom)
        code = run_cli("train", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--out", str(tmp_path / "folds"))
        assert code == 1
        assert capsys.readouterr().err == "error: TrainingError: synthetic failure\n"

    def test_missing_input_file_exit_two(self, tmp_path, capsys):
        code = run_cli("preprocess", "--manifest", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "cache"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSynthPreprocess:
    def test_synth_writes_manifest_and_sidecar(self, workdir):
        manifest = workdir / "data" / "manifest.csv"
        assert manifest.exists()
        sidecar = json.loads((workdir / "data" / "manifest.csv.meta.json").read_text())
        assert sidecar["n_exams"] == 28
        assert len(sidecar["config_hash"]) == 64

    def test_synth_is_reproducible(self, workdir, tmp_path):
        cfg = str(workdir / "config.json")
        assert run_cli("synth", "--config", cfg, "--out", str(tmp_path / "again"),
                       "--subjects", "14") == 0
        a = (workdir / "data" / "manifest.csv").read_bytes()
        b = (tmp_path / "again" / "manifest.csv").read_bytes()
        assert a == b

    def test_seed_flag_changes_output(self, workdir, tmp_path):
        cfg = str(workdir / "config.json")
        assert run_cli("synth", "--config", cfg, "--seed", "10",
                       "--out", str(tmp_path / "other"), "--subjects", "14") == 0
        a = (workdir / "data" / "manifest.csv").read_bytes()
        b = (tmp_path / "other" / "manifest.csv").read_bytes()
        assert a != b
        sidecar = json.loads((tmp_path / "other" / "manifest.csv.meta.json").read_text())
        assert sidecar["seed"] == 10

    def test_cache_matches_config(self, workdir):
        images, meta = load_image_cache(str(workdir / "cache" / "images.kgw"))
        assert meta["target_side"] == 32
        assert len(images) == 28
        sample = next(iter(images.values()))
        assert sample.values.shape == (32, 32)

    def test_preprocess_failure_leaves_no_partial_cache(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        pgms = sorted((data / "images").glob("*.pgm"))
        pgms[-1].unlink()
        code = run_cli("preprocess", "--config", str(workdir / "config.json"),
                       "--manifest", str(data / "manifest.csv"),
                       "--out", str(tmp_path / "cache"))
        assert code == 2
        capsys.readouterr()
        assert not (tmp_path / "cache" / "images.kgw").exists()
        assert not (tmp_path / "cache" / "manifest.csv").exists()


class TestHashGuards:
    def test_stale_cache_rejected_then_forced(self, workdir, tmp_path, capsys):
        other = config_file(tmp_path, preprocess={"clip_high": 98.0})
        args = ["pretrain", "--config", other,
                "--manifest", str(workdir / "cache" / "manifest.csv"),
                "--images", str(workdir / "cache"),
                "--out", str(tmp_path / "backbone.kgw")]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: UsageError:") and "--force" in err
        assert run_cli(*args, "--force") == 0
        assert (tmp_path / "backbone.kgw").exists()

    def test_cache_guard_ignores_keys_preprocessing_never_reads(self, workdir, tmp_path):
        other = config_file(tmp_path, train={"epochs": 3})
        assert run_cli("pretrain", "--config", other,
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--out", str(tmp_path / "backbone.kgw")) == 0

    def test_disagreeing_snapshots_need_force_twice(self, workdir, tmp_path, capsys):
        folds = tmp_path / "folds"
        shutil.copytree(workdir / "folds", folds)
        sidecar = folds / "snapshot_fold1.kgw.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["config_hash"] = "f" * 64
        sidecar.write_text(json.dumps(meta))
        cfg = str(workdir / "config.json")
        args = ["predict", "--config", cfg,
                "--manifest", str(workdir / "cache" / "manifest.csv"),
                "--images", str(workdir / "cache"),
                "--snapshots", str(folds), "--out", str(tmp_path / "preds.csv")]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert "snapshot_fold1.kgw" in err and "ffffffffffff" in err and "--force" in err
        assert run_cli(*args, "--force") == 0
        sidecar = json.loads((tmp_path / "preds.csv.meta.json").read_text())
        assert sidecar["config_hash"] == "mixed"
        # predictions from mixed snapshots match no config
        args = ["evaluate", "--config", cfg,
                "--manifest", str(workdir / "cache" / "manifest.csv"),
                "--predictions", str(tmp_path / "preds.csv"),
                "--out", str(tmp_path / "report")]
        assert run_cli(*args) == 2
        assert "--force" in capsys.readouterr().err
        assert run_cli(*args, "--force") == 0

    def test_train_refuses_a_backbone_from_another_config(self, workdir, backbone,
                                                           tmp_path, capsys):
        other = config_file(tmp_path, pretrain={"epochs": 2})
        args = ["train", "--config", other,
                "--manifest", str(workdir / "cache" / "manifest.csv"),
                "--images", str(workdir / "cache"), "--pretrained", str(backbone),
                "--out", str(tmp_path / "folds")]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: UsageError: backbone") and "--force" in err
        assert not (tmp_path / "folds" / "snapshot_fold0.kgw").exists()
        assert run_cli(*args, "--force") == 0
        assert (tmp_path / "folds" / "snapshot_fold1.kgw").exists()

    def test_backbone_guard_ignores_the_grading_heads(self, workdir, backbone, tmp_path):
        # pretraining never builds the grading heads, so dropping KL keeps the backbone
        assert run_cli("train", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"), "--pretrained", str(backbone),
                       "--no-kl-head", "--out", str(tmp_path / "folds")) == 0

    def test_predict_refuses_a_cache_from_another_config(self, workdir, tmp_path, capsys):
        other = config_file(tmp_path, preprocess={"clip_high": 98.0})
        assert run_cli("preprocess", "--config", other,
                       "--manifest", str(workdir / "data" / "manifest.csv"),
                       "--out", str(tmp_path / "cache")) == 0
        args = ["predict", "--config", str(workdir / "config.json"),
                "--manifest", str(workdir / "cache" / "manifest.csv"),
                "--images", str(tmp_path / "cache"), "--snapshots", str(workdir / "folds"),
                "--out", str(tmp_path / "preds.csv")]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: UsageError: image cache") and "--force" in err
        assert not (tmp_path / "preds.csv").exists()
        assert run_cli(*args, "--force") == 0
        assert (tmp_path / "preds.csv").exists()

    def test_predict_rejects_foreign_snapshots(self, workdir, tmp_path, capsys):
        other = config_file(tmp_path, seed=123)
        code = run_cli("predict", "--config", other,
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--snapshots", str(workdir / "folds"),
                       "--out", str(tmp_path / "preds.csv"))
        assert code == 2
        assert "--force" in capsys.readouterr().err
        assert not (tmp_path / "preds.csv").exists()


class TestTrain:
    def test_fold_artifacts_exist(self, workdir):
        for fold in range(2):
            assert (workdir / "folds" / f"snapshot_fold{fold}.kgw").exists()
            assert (workdir / "folds" / f"train_log_fold{fold}.csv").exists()
            assert (workdir / "folds" / f"curves_fold{fold}.svg").exists()

    def test_transfer_requires_pretrained(self, workdir, tmp_path, capsys):
        cfg = config_file(tmp_path, train={"schedule": "transfer", "epochs": 4,
                                           "augment": False, "sampler": "none"})
        code = run_cli("train", "--config", cfg,
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--out", str(tmp_path / "folds"))
        assert code == 2
        assert "--pretrained" in capsys.readouterr().err

    def test_no_kl_head_drops_the_head(self, workdir, tmp_path):
        # the cache guard reads only the preprocess subtree, so no --force
        assert run_cli("train", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--no-kl-head",
                       "--out", str(tmp_path / "folds")) == 0
        snap = Snapshot.load(str(tmp_path / "folds" / "snapshot_fold0.kgw"))
        names = [name for name, _ in snap.meta["heads"]]
        assert "KL" not in names and "JSN_M" in names

    def test_interrupt_discards_written_snapshots(self, workdir, tmp_path, monkeypatch):
        out = tmp_path / "folds"
        seen = []

        def interrupt(*args):
            seen.extend(sorted(os.listdir(out)))
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "write_history_svg", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_cli("train", "--config", str(workdir / "config.json"),
                    "--manifest", str(workdir / "cache" / "manifest.csv"),
                    "--images", str(workdir / "cache"), "--out", str(out))
        for fold in range(2):
            assert f"snapshot_fold{fold}.kgw" in seen
            assert f"train_log_fold{fold}.csv" in seen
        assert list(out.iterdir()) == []

    def test_parallel_folds_match_serial(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("OARSI_MT_THREADS", "2")
        assert run_cli("train", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--parallel-folds",
                       "--out", str(tmp_path / "folds")) == 0
        for fold in range(2):
            serial = (workdir / "folds" / f"snapshot_fold{fold}.kgw").read_bytes()
            parallel = (tmp_path / "folds" / f"snapshot_fold{fold}.kgw").read_bytes()
            assert serial == parallel


@pytest.fixture(scope="module")
def predictions(workdir):
    out = workdir / "preds.csv"
    assert run_cli("predict", "--config", str(workdir / "config.json"),
                   "--manifest", str(workdir / "cache" / "manifest.csv"),
                   "--images", str(workdir / "cache"),
                   "--snapshots", str(workdir / "folds"),
                   "--out", str(out)) == 0
    return out


class TestPredictEvaluate:
    def test_predictions_cover_every_exam(self, predictions):
        lines = predictions.read_text().strip().split("\n")
        assert len(lines) == 1 + 28
        sidecar = json.loads((predictions.parent / "preds.csv.meta.json").read_text())
        assert sidecar["n_members"] == 2

    def test_explicit_snapshot_paths_equivalent(self, workdir, predictions, tmp_path):
        paths = [str(workdir / "folds" / f"snapshot_fold{f}.kgw") for f in range(2)]
        out = tmp_path / "explicit.csv"
        assert run_cli("predict", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--snapshots", *paths,
                       "--out", str(out)) == 0
        assert out.read_bytes() == predictions.read_bytes()

    def test_evaluate_emits_report(self, workdir, predictions, capsys):
        out = workdir / "report"
        assert run_cli("evaluate", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--predictions", str(predictions),
                       "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "mean kappa" in stdout
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc["tasks"]) == {"KL", "FO_L", "FO_M", "TO_L", "TO_M",
                                     "JSN_L", "JSN_M"}
        assert (out / "confusion_KL.csv").exists()

    def test_ci_level_sets_every_interval(self, workdir, predictions, tmp_path):
        wide = json.loads((workdir / "report" / "metrics.json").read_text())
        # ci_level is read by evaluate alone, so the predictions still match
        assert run_cli("evaluate", "--config", config_file(tmp_path, ci_level=0.9),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--predictions", str(predictions),
                       "--out", str(tmp_path / "report")) == 0
        narrow = json.loads((tmp_path / "report" / "metrics.json").read_text())

        def intervals(doc):
            for section in ("tasks", "binary"):
                for target, entry in sorted(doc[section].items()):
                    for metric, value in sorted(entry.items()):
                        if isinstance(value, dict) and "level" in value:
                            yield (section, target, metric), value

        pairs = list(zip(intervals(wide), intervals(narrow)))
        assert pairs and all(a[0] == b[0] for a, b in pairs)
        shrunk = 0
        for (key, w), (_, n) in pairs:
            assert w["level"] == 0.95 and n["level"] == 0.9, key
            assert n["point"] == w["point"], key
            assert w["lo"] <= n["lo"] <= n["hi"] <= w["hi"], key
            shrunk += (n["hi"] - n["lo"]) < (w["hi"] - w["lo"])
        assert shrunk > 0

    def test_bad_thread_cap_rejected(self, workdir, tmp_path, capsys, monkeypatch):
        # every command refuses the cap, not only the one that sizes a pool from it
        commands = [
            ["synth", "--out", str(tmp_path / "data"), "--subjects", "2"],
            ["preprocess", "--config", str(workdir / "config.json"),
             "--manifest", str(workdir / "data" / "manifest.csv"),
             "--out", str(tmp_path / "cache")],
            ["train", "--config", str(workdir / "config.json"),
             "--manifest", str(workdir / "cache" / "manifest.csv"),
             "--images", str(workdir / "cache"),
             "--parallel-folds", "--out", str(tmp_path / "folds")],
        ]
        for bad in ("abc", "0", "-3"):
            monkeypatch.setenv("OARSI_MT_THREADS", bad)
            for argv in commands:
                assert run_cli(*argv) == 2
                assert capsys.readouterr().err == \
                    f"error: ConfigurationError: OARSI_MT_THREADS={bad!r} is not an integer >= 1\n"
        assert list(tmp_path.iterdir()) == []


def _kgwb(extents, payload=b""):
    """A one-tensor weight container with the given extents and raw payload."""
    import struct
    body = struct.pack("<I", 1) + b"w" + struct.pack("<I", len(extents))
    body += struct.pack(f"<{len(extents)}Q", *extents)
    return b"KGWB" + struct.pack("<IQ", 1, 1) + body + payload


class TestCorruptInputs:
    """A reader meets a corrupt file: one typed error line, exit 2."""

    def _expect(self, capsys, code, kind, *fragments):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {kind}:") and err.count("\n") == 1, err
        for fragment in fragments:
            assert fragment in err

    @pytest.mark.parametrize("extents", [(2 ** 40, 2 ** 40), (2 ** 32, 2 ** 32, 2 ** 32),
                                         (1000, 1000)], ids=["wraps_int64", "huge", "past_end"])
    def test_weight_container_extents(self, workdir, tmp_path, capsys, extents):
        snap = tmp_path / "snapshot_fold0.kgw"
        snap.write_bytes(_kgwb(extents, payload=b"\0" * 64))
        code = run_cli("predict", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--snapshots", str(snap), "--out", str(tmp_path / "preds.csv"))
        self._expect(capsys, code, "WeightLoadError", str(snap), "tensor 0")
        assert not (tmp_path / "preds.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("column,bad", [(1, "two"), (2, "abc"), (3, "nan"), (4, "inf"),
                                            (2, "1e39")])
    def test_predictions_cell(self, workdir, predictions, tmp_path, capsys, column, bad):
        lines = predictions.read_text().split("\n")
        cells = lines[3].split(",")
        cells[column] = bad
        lines[3] = ",".join(cells)
        lines.insert(2, "")     # a blank line is skipped but still counted
        path = tmp_path / "preds.csv"
        path.write_text("\n".join(lines))
        code = run_cli("evaluate", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--predictions", str(path), "--out", str(tmp_path / "report"))
        self._expect(capsys, code, "DataError", f"{path} line 5:", "KL")

    @pytest.mark.parametrize("sidecar", [b"{not json", b"\xff\xfe\x00", b"[1, 2]"],
                             ids=["malformed", "undecodable", "not_an_object"])
    def test_sidecar(self, workdir, predictions, tmp_path, capsys, sidecar):
        path = tmp_path / "preds.csv"
        path.write_bytes(predictions.read_bytes())
        (tmp_path / "preds.csv.meta.json").write_bytes(sidecar)
        code = run_cli("evaluate", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--predictions", str(path), "--out", str(tmp_path / "report"))
        self._expect(capsys, code, "DataError", f"{path}.meta.json")

    def _preprocess_corrupt(self, workdir, tmp_path, capsys, corrupt):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        bad = corrupt(data)
        code = run_cli("preprocess", "--config", str(workdir / "config.json"),
                       "--manifest", str(data / "manifest.csv"),
                       "--out", str(tmp_path / "cache"))
        self._expect(capsys, code, "DataError", str(bad))
        assert not (tmp_path / "cache" / "images.kgw").exists()

    def test_manifest_row_missing_cells(self, workdir, tmp_path, capsys):
        def corrupt(data):
            path = data / "manifest.csv"
            lines = path.read_text().split("\n")
            lines[3] = ",".join(lines[3].split(",")[:5])
            path.write_text("\n".join(lines))
            return f"{path} line 4:"
        self._preprocess_corrupt(workdir, tmp_path, capsys, corrupt)

    @pytest.mark.parametrize("key,value", [("knee_center", [5]), ("side", "X")],
                             ids=["point_not_a_pair", "side_not_l_or_r"])
    def test_landmark_field(self, workdir, tmp_path, capsys, key, value):
        def corrupt(data):
            path = sorted((data / "landmarks").glob("*.json"))[0]
            doc = json.loads(path.read_text())
            doc[key] = value
            path.write_text(json.dumps(doc))
            return path
        self._preprocess_corrupt(workdir, tmp_path, capsys, corrupt)

    @pytest.mark.parametrize("command,kind", [("synth", "ConfigurationError"),
                                              ("preprocess", "DataError"),
                                              ("evaluate", "DataError")])
    def test_undecodable_text(self, workdir, predictions, tmp_path, capsys, command, kind):
        cfg = str(workdir / "config.json")
        flag, source, rest = {
            "synth": ("--config", cfg, ["--subjects", "2"]),
            "preprocess": ("--manifest", workdir / "data" / "manifest.csv", ["--config", cfg]),
            "evaluate": ("--predictions", predictions,
                         ["--config", cfg, "--manifest", str(workdir / "cache" / "manifest.csv")]),
        }[command]
        raw = Path(source).read_bytes()
        bad = tmp_path / Path(source).name
        bad.write_bytes(raw[:40] + b"\xff" + raw[40:])
        code = run_cli(command, flag, str(bad), "--out", str(tmp_path / "out"), *rest)
        self._expect(capsys, code, kind, str(bad))
        assert not (tmp_path / "out").exists()

    def test_pgm_negative_extents(self, workdir, tmp_path, capsys):
        def corrupt(data):
            path = sorted((data / "images").glob("*.pgm"))[0]
            path.write_bytes(b"P5\n-2 -2\n65535\n" + b"\0" * 8)
            return path
        self._preprocess_corrupt(workdir, tmp_path, capsys, corrupt)

    def test_image_cache_foreign_entry(self, workdir, tmp_path, capsys):
        from kneegrade.serialize import load_tensors, save_tensors
        cache = tmp_path / "cache"
        shutil.copytree(workdir / "cache", cache)
        path = cache / "images.kgw"
        arrays = load_tensors(path)
        arrays[next(iter(arrays)).replace("/grid01", "/mask")] = np.zeros(3, dtype=np.float32)
        save_tensors(path, arrays)
        code = run_cli("train", "--config", str(workdir / "config.json"),
                       "--manifest", str(cache / "manifest.csv"),
                       "--images", str(cache), "--out", str(tmp_path / "folds"))
        self._expect(capsys, code, "DataError", str(path), "/mask")
        assert not (tmp_path / "folds").exists()

    @pytest.mark.parametrize("whole", [True, False], ids=["provenance", "one_exam"])
    def test_image_cache_provenance_not_an_object(self, workdir, tmp_path, capsys, whole):
        cache = tmp_path / "cache"
        shutil.copytree(workdir / "cache", cache)
        sidecar = cache / "images.kgw.meta.json"
        meta = json.loads(sidecar.read_text())
        if whole:
            meta["provenance"] = ["clip_pct"]
        else:
            meta["provenance"][min(meta["provenance"])] = ["clip_pct"]
        sidecar.write_text(json.dumps(meta))
        code = run_cli("train", "--config", str(workdir / "config.json"),
                       "--manifest", str(cache / "manifest.csv"),
                       "--images", str(cache), "--out", str(tmp_path / "folds"))
        self._expect(capsys, code, "DataError", str(sidecar))
        assert not (tmp_path / "folds").exists()

    def test_snapshot_with_extra_tensor(self, workdir, tmp_path, capsys):
        from kneegrade.serialize import load_tensors, save_tensors
        snap = tmp_path / "snapshot_fold0.kgw"
        shutil.copy(workdir / "folds" / "snapshot_fold0.kgw", snap)
        shutil.copy(workdir / "folds" / "snapshot_fold0.kgw.meta.json",
                    tmp_path / "snapshot_fold0.kgw.meta.json")
        arrays = load_tensors(snap)
        arrays["backbone.rogue"] = np.zeros(3, dtype=np.float32)
        save_tensors(snap, arrays)
        code = run_cli("predict", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--snapshots", str(snap), "--out", str(tmp_path / "preds.csv"))
        self._expect(capsys, code, "WeightLoadError", f"{snap}: ", "backbone.rogue")
        assert not (tmp_path / "preds.csv").exists()

    def test_snapshot_with_refused_model_config(self, workdir, tmp_path, capsys):
        snap = tmp_path / "snapshot_fold0.kgw"
        shutil.copy(workdir / "folds" / "snapshot_fold0.kgw", snap)
        meta = json.loads((workdir / "folds" / "snapshot_fold0.kgw.meta.json").read_text())
        meta["model_config"]["dropout_p"] = 1.5
        (tmp_path / "snapshot_fold0.kgw.meta.json").write_text(json.dumps(meta))
        code = run_cli("predict", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--snapshots", str(snap), "--out", str(tmp_path / "preds.csv"))
        self._expect(capsys, code, "ConfigurationError", f"{snap}: model: ", "dropout_p")
        assert not (tmp_path / "preds.csv").exists()

    @pytest.mark.parametrize("key,value", [("heads", None), ("heads", [["KL", "5"]]),
                                           ("heads", [["KL", True]]), ("model_config", None),
                                           ("model_config", []), ("seed", "7")],
                             ids=["no_heads", "str_classes", "bool_classes", "no_model_config",
                                  "list_model_config", "str_seed"])
    def test_snapshot_sidecar_keys(self, workdir, tmp_path, capsys, key, value):
        snap = tmp_path / "snapshot_fold0.kgw"
        shutil.copy(workdir / "folds" / "snapshot_fold0.kgw", snap)
        meta = json.loads((workdir / "folds" / "snapshot_fold0.kgw.meta.json").read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        (tmp_path / "snapshot_fold0.kgw.meta.json").write_text(json.dumps(meta))
        code = run_cli("predict", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--snapshots", str(snap), "--out", str(tmp_path / "preds.csv"))
        self._expect(capsys, code, "DataError", f"{snap}.meta.json: '{key}'")
        assert not (tmp_path / "preds.csv").exists()


class TestThreadCap:
    """OARSI_MT_THREADS sizes BLAS's pool when kneegrade is imported before numpy."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def _blas_env(self, cap, preset=None, numpy_first=False):
        import kneegrade
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(kneegrade.__file__))
        env["OARSI_MT_THREADS"] = cap
        env.update(preset or {})
        code = ("import numpy\n" if numpy_first else "") + (
            "import os, kneegrade\n"
            f"print(','.join(os.environ.get(v, '-') for v in {self.VARS!r}))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        return proc.stdout.strip().split(",")

    def test_cap_sets_every_blas_variable(self):
        assert self._blas_env("3") == ["3", "3", "3"]

    def test_user_settings_win(self):
        assert self._blas_env("3", {"OMP_NUM_THREADS": "2"}) == ["3", "2", "3"]

    def test_too_late_once_numpy_is_loaded(self):
        assert self._blas_env("3", numpy_first=True) == ["-", "-", "-"]

    def test_invalid_cap_left_to_the_cli(self):
        assert self._blas_env("0") == ["-", "-", "-"]
        assert self._blas_env("abc") == ["-", "-", "-"]
