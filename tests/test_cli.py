"""Command line contract: exit codes, one-line errors, artifact hygiene,
hash guards, and reproducibility across invocations.

The pipeline fixtures run at a deliberately tiny scale (32 px, two folds,
two epochs) so the whole module stays fast.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kneegrade import cli, training
from kneegrade.config import load_run_config
from kneegrade.data import load_manifest, save_landmarks, split_cv
from kneegrade.errors import BootstrapError, TrainingError
from kneegrade.metrics import bootstrap_rows
from kneegrade.model import build_model
from kneegrade.preprocess import load_image_cache, standardize
from kneegrade.report import write_history_csv
from kneegrade.training import Snapshot, run_fold

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


def tree_bytes(root):
    """Relative path -> bytes of every file under ``root``."""
    return {str(p.relative_to(root)): p.read_bytes() for p in Path(root).rglob("*")
            if p.is_file()}


def blank_grades(manifest, cells):
    """Empty each (row, column name) cell of the manifest file, in place."""
    lines = Path(manifest).read_text().strip().split("\n")
    header = lines[0].split(",")
    for row, name in cells:
        values = lines[row].split(",")
        values[header.index(name)] = ""
        lines[row] = ",".join(values)
    Path(manifest).write_text("\n".join(lines) + "\n")


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

    @pytest.mark.parametrize("flag,count", [("--subjects", "0"), ("--exams-per-subject", "-2")])
    def test_synth_refuses_an_empty_cohort(self, workdir, tmp_path, capsys, flag, count):
        argv = {"--subjects": "2", "--exams-per-subject": "2", flag: count}
        code = run_cli("synth", "--config", str(workdir / "config.json"),
                       "--out", str(tmp_path / "data"), *[a for kv in argv.items() for a in kv])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: UsageError: {flag} must be >= 1, got {count}\n"
        assert list(tmp_path.iterdir()) == []

    def _interrupt_third_landmarks(self, monkeypatch):
        written = []

        def interrupt(path, *args):
            written.append(str(Path(path).relative_to(Path(path).parent.parent)))
            if len(written) == 3:
                raise KeyboardInterrupt
            save_landmarks(path, *args)
        monkeypatch.setattr("kneegrade.data.save_landmarks", interrupt)
        return written

    def test_interrupted_synth_keeps_the_dataset_it_did_not_replace(self, workdir, tmp_path,
                                                                    monkeypatch):
        out = tmp_path / "data"
        shutil.copytree(workdir / "data", out)
        before = tree_bytes(out)
        tried = self._interrupt_third_landmarks(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run_cli("synth", "--config", str(workdir / "config.json"), "--seed", "10",
                    "--out", str(out), "--subjects", "14")
        after = tree_bytes(out)
        # the three images and two landmark files it wrote are gone, the rest untouched
        wrote = {p.replace("landmarks", "images").replace(".json", ".pgm") for p in tried}
        assert set(before) - set(after) == wrote | set(tried[:2])
        assert after.items() <= before.items()
        assert {"manifest.csv", "manifest.csv.meta.json"} <= set(after)

    def test_interrupted_synth_into_a_fresh_directory_leaves_no_file(self, workdir, tmp_path,
                                                                     monkeypatch):
        self._interrupt_third_landmarks(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run_cli("synth", "--config", str(workdir / "config.json"),
                    "--out", str(tmp_path / "new" / "data"), "--subjects", "14")
        assert list(tmp_path.iterdir()) == []     # nor any directory it made

    def test_cache_matches_config(self, workdir):
        images, meta = load_image_cache(str(workdir / "cache" / "images.kgw"))
        assert meta["target_side"] == 32
        assert len(images) == 28
        sample = next(iter(images.values()))
        assert standardize(sample.grid01).shape == (32, 32)

    def test_preprocess_names_what_it_excluded(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        blank_grades(data / "manifest.csv", [(1, "KL"), (2, "KL"), (3, "FO_L")])
        assert run_cli("preprocess", "--config", str(workdir / "config.json"),
                       "--manifest", str(data / "manifest.csv"),
                       "--out", str(tmp_path / "cache")) == 0
        assert "preprocess: excluded FO_L=1 KL=2\n" in capsys.readouterr().out
        assert len(load_image_cache(str(tmp_path / "cache" / "images.kgw"))[0]) == 28 - 3

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


class TestPretrain:
    def test_interrupt_keeps_the_existing_backbone(self, workdir, backbone, tmp_path,
                                                   monkeypatch):
        out = tmp_path / "backbone.kgw"
        shutil.copy(backbone, out)
        shutil.copy(f"{backbone}.meta.json", f"{out}.meta.json")

        def interrupt(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(training, "_train_step", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_cli("pretrain", "--config", str(workdir / "config.json"),
                    "--manifest", str(workdir / "cache" / "manifest.csv"),
                    "--images", str(workdir / "cache"), "--out", str(out))
        assert out.read_bytes() == backbone.read_bytes()
        assert Path(f"{out}.meta.json").read_bytes() == \
            Path(f"{backbone}.meta.json").read_bytes()


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

    def test_schedule_flag_overrides_the_config(self, workdir, tmp_path):
        cfg = config_file(tmp_path, train={"schedule": "transfer", "epochs": 3})
        assert run_cli("train", "--config", cfg, "--schedule", "scratch",
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--out", str(tmp_path / "folds")) == 0
        for fold in range(2):
            snap = Snapshot.load(str(tmp_path / "folds" / f"snapshot_fold{fold}.kgw"))
            assert snap.meta["schedule"] == "scratch"

    def test_saved_snapshot_matches_an_in_memory_fold(self, workdir, tmp_path):
        # the saved fold is run_fold's snapshot and history, stamped with the config hash
        cfg = load_run_config(str(workdir / "config.json"))
        exams = load_manifest(str(workdir / "cache" / "manifest.csv"))
        images, _ = load_image_cache(str(workdir / "cache" / "images.kgw"))
        train, val = split_cv(exams, n_folds=cfg.n_folds, seed=cfg.seed).split(exams, 1)
        model = build_model(cfg.model, cli._fold_seed(cfg.seed, 1))
        held = run_fold(model, train, val, images, cfg.train, seed=cfg.seed, fold=1)
        saved = Snapshot.load(str(workdir / "folds" / "snapshot_fold1.kgw"))
        assert saved.weights is None
        stamped = dict(held.snapshot.meta, config_hash=cfg.stage_hash("train"))
        assert saved.meta == json.loads(json.dumps(stamped))
        read = saved.arrays()
        assert sorted(read) == sorted(held.snapshot.weights)
        for name in read:
            assert np.array_equal(read[name], held.snapshot.weights[name])
        write_history_csv(str(tmp_path / "log.csv"), model.head_names, held.history)
        assert (tmp_path / "log.csv").read_bytes() == \
            (workdir / "folds" / "train_log_fold1.csv").read_bytes()

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
        assert not out.exists()     # train made it, so it goes too

    @pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel_folds"])
    def test_failed_train_leaves_no_fold_file(self, workdir, tmp_path, monkeypatch, parallel):
        out = tmp_path / "folds"
        shutil.copytree(workdir / "folds", out)

        def fold_one_fails(*args, fold, **kwargs):
            if fold == 1:
                raise TrainingError("planted")
            return run_fold(*args, fold=fold, **kwargs)
        monkeypatch.setattr(cli, "run_fold", fold_one_fails)
        monkeypatch.setenv("OARSI_MT_THREADS", "2")
        code = run_cli("train", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"), "--out", str(out),
                       *(["--parallel-folds"] if parallel else []))
        assert code == 1
        assert list(out.iterdir()) == []

    def test_train_replaces_the_whole_old_fold_set(self, workdir, tmp_path, capsys):
        out = tmp_path / "folds"
        train = ("train", "--manifest", str(workdir / "cache" / "manifest.csv"),
                 "--images", str(workdir / "cache"), "--out", str(out))
        assert run_cli(*train, "--config", config_file(tmp_path, n_folds=3)) == 0
        assert (out / "curves_fold2.svg").exists()
        (out / "snapshot_fold_old.kgw").write_bytes(b"not a fold of this run")
        assert run_cli(*train, "--config", str(workdir / "config.json")) == 0
        assert tree_bytes(out) == dict(tree_bytes(workdir / "folds"),
                                       **{"snapshot_fold_old.kgw": b"not a fold of this run"})
        capsys.readouterr()
        assert run_cli("predict", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"), "--snapshots", str(out),
                       "--out", str(tmp_path / "preds.csv")) == 0, capsys.readouterr().err
        assert json.loads((tmp_path / "preds.csv.meta.json").read_text())["snapshots"] == \
            ["snapshot_fold0.kgw", "snapshot_fold1.kgw"]

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


@pytest.fixture(scope="module")
def report(workdir, predictions):
    """The default evaluate's report directory and what it printed."""
    out = workdir / "report"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run_cli("evaluate", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--predictions", str(predictions),
                       "--out", str(out)) == 0
    return out, printed.getvalue()


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

    def test_out_in_a_missing_directory_is_named(self, workdir, tmp_path, capsys):
        out = tmp_path / "nodir" / "preds.csv"
        code = run_cli("predict", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--snapshots", str(workdir / "folds"), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("error: FileNotFoundError:") and f"'{out}'" in err, err
        assert ".tmp" not in err

    def test_a_directory_without_snapshots_is_refused(self, workdir, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = run_cli("predict", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--images", str(workdir / "cache"),
                       "--snapshots", str(tmp_path / "empty"), "--out", str(tmp_path / "p.csv"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: UsageError: no snapshots found under")
        assert not (tmp_path / "p.csv").exists()

    def test_evaluate_refuses_a_manifest_without_every_head(self, workdir, predictions,
                                                            tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        shutil.copy(workdir / "cache" / "manifest.csv", manifest)
        blank_grades(manifest, [(row, "KL") for row in range(1, 29)])
        code = run_cli("evaluate", "--config", str(workdir / "config.json"),
                       "--manifest", str(manifest), "--predictions", str(predictions),
                       "--out", str(tmp_path / "report"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: DataError: {manifest}: no exam carries all of ['KL',")
        assert not (tmp_path / "report").exists()

    def test_evaluate_emits_report(self, report):
        out, stdout = report
        assert "mean kappa" in stdout
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc["tasks"]) == {"KL", "FO_L", "FO_M", "TO_L", "TO_M",
                                     "JSN_L", "JSN_M"}
        assert (out / "confusion_KL.csv").exists()

    def test_failed_evaluate_keeps_or_removes_each_report_file(self, workdir, predictions,
                                                               tmp_path, capsys, monkeypatch):
        # the existing report comes from fold 0's snapshot alone, so its files differ
        cfg = str(workdir / "config.json")
        manifest = str(workdir / "cache" / "manifest.csv")
        one = tmp_path / "one.csv"
        out = tmp_path / "report"
        assert run_cli("predict", "--config", cfg, "--manifest", manifest,
                       "--images", str(workdir / "cache"),
                       "--snapshots", str(workdir / "folds" / "snapshot_fold0.kgw"),
                       "--out", str(one)) == 0
        assert run_cli("evaluate", "--config", cfg, "--manifest", manifest,
                       "--predictions", str(one), "--out", str(out)) == 0
        before = tree_bytes(out)
        calls = []

        def second_head_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise BootstrapError("planted")
            return bootstrap_rows(*args, **kwargs)
        monkeypatch.setattr("kneegrade.report.bootstrap_rows", second_head_fails)
        capsys.readouterr()
        code = run_cli("evaluate", "--config", cfg, "--manifest", manifest,
                       "--predictions", str(predictions), "--out", str(out))
        assert (code, capsys.readouterr().err) == (1, "error: BootstrapError: planted\n")
        after = tree_bytes(out)
        assert after.items() <= before.items()
        assert "metrics.json" in after and "roc_KL_ge2.csv" not in after

    @pytest.mark.parametrize("existed", [False, True], ids=["new_out", "existing_empty_out"])
    def test_failed_evaluate_removes_only_a_directory_it_made(self, workdir, predictions,
                                                              tmp_path, monkeypatch, existed):
        out = tmp_path / "report"
        if existed:
            out.mkdir()

        def fails(*args, **kwargs):
            raise BootstrapError("planted")
        monkeypatch.setattr("kneegrade.report.bootstrap_rows", fails)
        assert run_cli("evaluate", "--config", str(workdir / "config.json"),
                       "--manifest", str(workdir / "cache" / "manifest.csv"),
                       "--predictions", str(predictions), "--out", str(out)) == 1
        assert list(tmp_path.iterdir()) == ([out] if existed else [])
        assert not existed or list(out.iterdir()) == []

    def test_ci_level_sets_every_interval(self, workdir, predictions, report, tmp_path):
        wide = json.loads((report[0] / "metrics.json").read_text())
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

    def _preprocess_corrupt(self, workdir, tmp_path, capsys, corrupt, *fragments):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        bad = corrupt(data)
        code = run_cli("preprocess", "--config", str(workdir / "config.json"),
                       "--manifest", str(data / "manifest.csv"),
                       "--out", str(tmp_path / "cache"))
        self._expect(capsys, code, "DataError", str(bad), *fragments)
        assert not (tmp_path / "cache" / "images.kgw").exists()

    def test_manifest_row_missing_cells(self, workdir, tmp_path, capsys):
        def corrupt(data):
            path = data / "manifest.csv"
            lines = path.read_text().split("\n")
            lines[3] = ",".join(lines[3].split(",")[:5])
            path.write_text("\n".join(lines))
            return f"{path} line 4:"
        self._preprocess_corrupt(workdir, tmp_path, capsys, corrupt)

    def test_manifest_without_a_fully_graded_exam(self, workdir, tmp_path, capsys):
        def corrupt(data):
            path = data / "manifest.csv"
            blank_grades(path, [(row, "JSN_M") for row in range(1, 29)])
            return f"{path}: no exam has a complete set of grades"
        self._preprocess_corrupt(workdir, tmp_path, capsys, corrupt)

    # the first landmark file is exam S00000_L_000's
    @pytest.mark.parametrize("key,value", [("knee_center", [5]), ("side", "X"),
                                           ("exam_id", "S00000_R_000"), ("side", "R")],
                             ids=["point_not_a_pair", "side_not_l_or_r",
                                  "exam_id_of_another_exam", "side_of_the_other_knee"])
    def test_landmark_field(self, workdir, tmp_path, capsys, key, value):
        def corrupt(data):
            path = sorted((data / "landmarks").glob("*.json"))[0]
            doc = json.loads(path.read_text())
            doc[key] = value
            path.write_text(json.dumps(doc))
            return path
        self._preprocess_corrupt(workdir, tmp_path, capsys, corrupt)

    def test_manifest_row_names_another_exams_landmarks(self, workdir, tmp_path, capsys):
        def corrupt(data):
            path = data / "manifest.csv"
            path.write_text(path.read_text().replace("landmarks/S00000_R_000.json",
                                                     "landmarks/S00000_L_000.json"))
            return data / "landmarks" / "S00000_L_000.json"
        self._preprocess_corrupt(workdir, tmp_path, capsys, corrupt, "exam S00000_L_000 side L",
                                 "manifest row is exam S00000_R_000 side R")

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
                                           ("heads", [["KL", True]]), ("heads", [["X", -1]]),
                                           ("model_config", None), ("model_config", []),
                                           ("seed", "7")],
                             ids=["no_heads", "str_classes", "bool_classes", "classes_below_2",
                                  "no_model_config", "list_model_config", "str_seed"])
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
    """BLAS runs one thread when kneegrade is imported before numpy, whatever
    OARSI_MT_THREADS says, so the cap sizes only the fold pool."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def _env(self, cap, preset=None):
        """This environment without BLAS settings, with ``cap`` (None unsets it)."""
        import kneegrade
        env = {k: v for k, v in os.environ.items() if k not in self.VARS + ("OARSI_MT_THREADS",)}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(kneegrade.__file__))
        if cap is not None:
            env["OARSI_MT_THREADS"] = cap
        env.update(preset or {})
        return env

    def _blas_env(self, cap, preset=None, numpy_first=False):
        code = ("import numpy\n" if numpy_first else "") + (
            "import os, kneegrade\n"
            f"print(','.join(os.environ.get(v, '-') for v in {self.VARS!r}))")
        proc = subprocess.run([sys.executable, "-c", code], env=self._env(cap, preset),
                              capture_output=True, text=True, check=True)
        return proc.stdout.strip().split(",")

    def test_cap_sets_every_blas_variable(self):
        assert self._blas_env(None) == ["1", "1", "1"]
        assert self._blas_env("3") == ["1", "1", "1"]

    def test_user_settings_win(self):
        assert self._blas_env("3", {"OMP_NUM_THREADS": "2"}) == ["1", "2", "1"]

    def test_too_late_once_numpy_is_loaded(self):
        assert self._blas_env("3", numpy_first=True) == ["-", "-", "-"]

    def test_invalid_cap_left_to_the_cli(self):
        assert self._blas_env("0") == ["1", "1", "1"]
        assert self._blas_env("abc") == ["1", "1", "1"]

    def test_the_cap_changes_no_byte_of_a_train(self, tmp_path):
        # a fresh interpreter per run: BLAS's thread count is fixed when numpy loads
        (tmp_path / "config.json").write_text(json.dumps({
            "seed": 3, "n_folds": 2, "synth": {"image_side": 32},
            "preprocess": {"target_side": 32},
            "train": {"schedule": "scratch", "epochs": 2, "batch_size": 8}}))
        cfg = str(tmp_path / "config.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("synth", "--config", cfg, "--out", str(tmp_path / "data"),
                           "--subjects", "10", "--exams-per-subject", "2") == 0
            assert run_cli("preprocess", "--config", cfg,
                           "--manifest", str(tmp_path / "data" / "manifest.csv"),
                           "--out", str(tmp_path / "cache")) == 0
        runs = {}
        for cap, extra in ((None, []), ("1", []), ("2", []), ("2", ["--parallel-folds"])):
            out = tmp_path / f"folds_{cap}_{len(extra)}"
            subprocess.run([sys.executable, "-c",
                            "import sys, kneegrade.cli as cli; sys.exit(cli.main(sys.argv[1:]))",
                            "train", "--config", cfg, "--out", str(out),
                            "--manifest", str(tmp_path / "cache" / "manifest.csv"),
                            "--images", str(tmp_path / "cache"), *extra],
                           env=self._env(cap), capture_output=True, check=True, timeout=300)
            runs[f"OARSI_MT_THREADS={cap} {' '.join(extra)}"] = {
                name: data for name, data in tree_bytes(out).items()
                if name.startswith(("snapshot_fold", "train_log_fold"))}
        first = next(iter(runs.values()))
        assert len(first) == 6      # two snapshots, their sidecars and two logs
        for run, files in runs.items():
            assert files == first, run
