"""Command line entry point: synth, preprocess, pretrain, train, predict, evaluate.

Every command takes an optional JSON config file; flags override single
fields *inside the document*, so the hash of the config keys a stage reads
(``config.STAGE_KEYS``), stamped on its artifacts, always reflects what
actually ran. Every file is written through ``serialize.write_atomic``, so
each is replaced whole or not at all. A command runs inside
``serialize.rollback``: if it fails, on any exception including Ctrl-C, the
files it wrote are removed; ``train`` first removes its old fold set, so it
never leaves a mix of old and new folds. An expected
failure (a ``KneeGradeError`` or ``OSError``) then prints one line to stderr
(``error: <kind>: <message>``); any other exception propagates. Exit codes:
0 success, 2 for configuration, usage, or input-data problems, 1 for
runtime failures. The environment variable OARSI_MT_THREADS sizes the
``train --parallel-folds`` pool and BLAS's threads (the package sets them
before numpy loads); ``evaluate`` runs serially. Every command refuses a
malformed cap with exit 2.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import glob
import os
import sys

import numpy as np

from . import __version__, thread_cap
from .config import load_run_config
from .data import (
    load_and_filter,
    load_landmarks,
    load_manifest,
    save_manifest,
    split_cv,
    synth_generate,
)
from .ensemble import ensemble_predict, read_predictions_csv, write_predictions_csv
from .errors import (
    ConfigurationError,
    DataError,
    KneeGradeError,
    UsageError,
    WeightLoadError,
)
from .imageio import read_pgm16
from .model import build_model, load_backbone_weights, save_backbone_weights
from .preprocess import RawImage, load_image_cache, preprocess_exam, save_image_cache
from .report import align_predictions, emit_report, write_history_csv, write_history_svg
from .serialize import read_sidecar, rollback, write_sidecar
from .training import Snapshot, pretrain_backbone, run_fold

_USER_FAULT = (UsageError, ConfigurationError, DataError, WeightLoadError)


def max_workers(n_tasks):
    """Pool size for ``n_tasks``: cpu count, capped by OARSI_MT_THREADS."""
    return max(1, min(int(n_tasks), thread_cap() or os.cpu_count() or 1))


def _say(text):
    print(text)
    sys.stdout.flush()


def _config_from_args(args, overrides=None):
    doc = dict(overrides or {})
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    return load_run_config(getattr(args, "config", None), doc)


def _resolve(base_dir, rel):
    return rel if os.path.isabs(rel) else os.path.join(base_dir, rel)


def _check_config(recorded, expected, what, force):
    """Refuse ``what`` if it records a config hash other than ``expected``."""
    if recorded not in (None, expected) and not force:
        raise UsageError(f"{what} was made under config {recorded!s:.12} but this run "
                         f"expects {expected!s:.12}; pass --force to use it anyway")


def _recorded_hash(artifact_path):
    """The config hash in an artifact's sidecar, None if it has no sidecar."""
    try:
        return read_sidecar(artifact_path).get("config_hash")
    except FileNotFoundError:
        return None


def _fold_seed(seed, fold):
    return int(np.random.SeedSequence([int(seed), 7, int(fold)]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args):
    for flag, count in (("--subjects", args.subjects),
                        ("--exams-per-subject", args.exams_per_subject)):
        if count < 1:
            raise UsageError(f"{flag} must be >= 1, got {count}")
    cfg = _config_from_args(args)
    manifest, exams = synth_generate(args.out, args.subjects,
                                     exams_per_subject=args.exams_per_subject,
                                     seed=cfg.seed, cfg=cfg.synth)
    write_sidecar(manifest, {"config_hash": cfg.stage_hash("synth"), "seed": cfg.seed,
                             "n_exams": len(exams)})
    _say(f"synth: wrote {len(exams)} exams to {manifest}")


def cmd_preprocess(args):
    cfg = _config_from_args(args)
    kept, excluded = load_and_filter(args.manifest)
    if not kept:
        raise DataError(f"{args.manifest}: no exam has a complete set of grades")
    base = os.path.dirname(os.path.abspath(args.manifest))
    images = {}
    for exam in kept:
        pixels = read_pgm16(_resolve(base, exam.image_path))
        landmark_path = _resolve(base, exam.landmark_path)
        exam_id, landmarks = load_landmarks(landmark_path)
        if (exam_id, landmarks.side) != (exam.exam_id, exam.side):
            raise DataError(f"{landmark_path}: landmarks of exam {exam_id} side {landmarks.side}, "
                            f"but its manifest row is exam {exam.exam_id} side {exam.side}")
        raw = RawImage(pixels=pixels, spacing_mm=exam.spacing_mm)
        images[exam.exam_id] = preprocess_exam(raw, landmarks, cfg.preprocess)
    os.makedirs(args.out, exist_ok=True)
    cache = os.path.join(args.out, "images.kgw")
    save_image_cache(cache, images, meta={
        "config_hash": cfg.stage_hash("preprocess"),
        "target_side": cfg.preprocess.target_side,
        "excluded": excluded,
    })
    save_manifest(os.path.join(args.out, "manifest.csv"), kept)
    dropped = sum(excluded.values())
    if dropped:
        detail = " ".join(f"{col}={n}" for col, n in sorted(excluded.items()) if n)
        _say(f"preprocess: excluded {detail}")
    _say(f"preprocess: kept {len(kept)} exams -> {cache}")


def _cache_path(path):
    # accept the preprocess output directory as shorthand for the cache inside
    return os.path.join(path, "images.kgw") if os.path.isdir(path) else path


def _load_inputs(args, cfg):
    exams = load_manifest(args.manifest)
    images, meta = load_image_cache(_cache_path(args.images))
    _check_config(meta.get("config_hash"), cfg.stage_hash("preprocess"), "image cache",
                  args.force)
    return exams, images


def cmd_pretrain(args):
    cfg = _config_from_args(args)
    exams, images = _load_inputs(args, cfg)
    model = pretrain_backbone(exams, images, cfg.model, cfg.pretrain, cfg.seed, log=_say)
    save_backbone_weights(model, args.out)
    write_sidecar(args.out, {"config_hash": cfg.stage_hash("pretrain"), "seed": cfg.seed,
                             "n_exams": len(exams)})
    _say(f"pretrain: backbone -> {args.out}")


def cmd_train(args):
    overrides = {}
    if args.schedule:
        overrides.setdefault("train", {})["schedule"] = args.schedule
    if args.no_kl_head:
        overrides.setdefault("model", {})["include_kl_head"] = False
    cfg = _config_from_args(args, overrides)
    if cfg.train.schedule == "transfer" and not args.pretrained:
        raise UsageError("transfer schedule needs --pretrained BACKBONE")
    exams, images = _load_inputs(args, cfg)
    if args.pretrained:
        _check_config(_recorded_hash(args.pretrained), cfg.stage_hash("pretrain"),
                      "backbone", args.force)
    assignment = split_cv(exams, n_folds=cfg.n_folds, seed=cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    folds = list(range(cfg.n_folds))
    paths = [{stem: os.path.join(args.out, f"{stem}_fold{fold}.{ext}")
              for stem, ext in (("snapshot", "kgw"), ("train_log", "csv"), ("curves", "svg"))}
             for fold in folds]
    # the old fold set goes first, so a failed run leaves no mix of old and new folds
    for fold_paths in paths:
        for target in [*fold_paths.values(), fold_paths["snapshot"] + ".meta.json"]:
            if os.path.isfile(target):
                os.remove(target)

    def train_fold(fold):
        """Train and save one fold; returns its history and snapshot meta, so
        only one fold's weights are held per worker."""
        train_exams, val_exams = assignment.split(exams, fold)
        model = build_model(cfg.model, _fold_seed(cfg.seed, fold))
        if args.pretrained:
            load_backbone_weights(model, args.pretrained)
        res = run_fold(model, train_exams, val_exams, images, cfg.train,
                       seed=cfg.seed, fold=fold, log=_say)
        res.snapshot.meta["config_hash"] = cfg.stage_hash("train")
        write_history_csv(paths[fold]["train_log"], model.head_names, res.history)
        res.snapshot.save(paths[fold]["snapshot"])
        return res.history, res.snapshot.meta

    if args.parallel_folds and cfg.n_folds > 1:
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=max_workers(cfg.n_folds)) as pool:
            results = list(pool.map(train_fold, folds))
    else:
        results = [train_fold(fold) for fold in folds]
    for fold, (history, best) in zip(folds, results):
        write_history_svg(paths[fold]["curves"], history)
        _say(f"train: fold {fold} best epoch {best['epoch']} "
             f"mean_kappa {best['metrics']['mean_kappa']:.4f}")
    _say(f"train: {cfg.n_folds} snapshots -> {args.out}")


def _load_snapshots(args, cfg):
    if len(args.snapshots) == 1 and os.path.isdir(args.snapshots[0]):
        paths = sorted(glob.glob(os.path.join(args.snapshots[0], "snapshot_fold*.kgw")))
    else:
        paths = list(args.snapshots)
    if not paths:
        raise UsageError(f"no snapshots found under {args.snapshots[0]!r}")
    snaps = [Snapshot.load(p) for p in paths]
    hashes = [s.meta.get("config_hash") for s in snaps]
    for path, recorded in zip(paths, hashes):
        _check_config(recorded, hashes[0], f"snapshot {path}", args.force)
    snap_hash = hashes[0] if len(set(hashes)) == 1 else "mixed"
    _check_config(snap_hash, cfg.stage_hash("train"), "the snapshots", args.force)
    return snaps, paths, snap_hash


def cmd_predict(args):
    cfg = _config_from_args(args)
    snaps, paths, snap_hash = _load_snapshots(args, cfg)
    exams, images = _load_inputs(args, cfg)
    probs, grades = ensemble_predict(snaps, exams, images,
                                     batch_size=cfg.train.batch_size)
    head_specs = [tuple(h) for h in snaps[0].meta["heads"]]
    write_predictions_csv(args.out, [e.exam_id for e in exams], head_specs,
                          probs, grades)
    write_sidecar(args.out, {
        "config_hash": snap_hash,
        "n_members": len(snaps),
        "snapshots": [os.path.basename(p) for p in paths],
        "n_exams": len(exams),
    })
    _say(f"predict: {len(exams)} exams x {len(snaps)} snapshots -> {args.out}")


def cmd_evaluate(args):
    cfg = _config_from_args(args)
    exam_ids, head_specs, probs, grades = read_predictions_csv(args.predictions)
    pred_hash = _recorded_hash(args.predictions)
    train_hash = cfg.stage_hash("train")
    _check_config(pred_hash, train_hash, "predictions", args.force)
    task_names = [name for name, _ in head_specs]
    kept, excluded = load_and_filter(args.manifest, required=task_names)
    if not kept:
        raise DataError(f"{args.manifest}: no exam carries all of {task_names}")
    order = align_predictions([e.exam_id for e in kept], exam_ids)
    truths = {name: np.array([e.grade(name) for e in kept], dtype=np.int64)
              for name in task_names}
    preds = {name: grades[name][order] for name in task_names}
    aligned_probs = {name: probs[name][order] for name in task_names}
    doc = emit_report(args.out, head_specs, truths, preds, aligned_probs,
                      meta={"config_hash": pred_hash or train_hash,
                            "n_exams": len(kept),
                            "excluded": {k: v for k, v in excluded.items() if v}},
                      n_bootstrap=cfg.n_bootstrap, seed=cfg.seed, ci_level=cfg.ci_level)
    _say(f"evaluate: mean kappa {doc['mean_kappa']:.4f} over {len(kept)} exams "
         f"-> {os.path.join(args.out, 'metrics.json')}")


# ---------------------------------------------------------------------------
# wiring


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kneegrade",
        description="Knee radiograph KL/OARSI grading pipeline.")
    parser.add_argument("--version", action="version", version=f"kneegrade {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("synth", help="generate a synthetic graded dataset")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--subjects", type=int, default=100)
    p.add_argument("--exams-per-subject", type=int, default=2)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="align, crop, resize, normalize")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory for the cache")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pretrain", help="train the auxiliary-task backbone")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--images", required=True, help="preprocessed image cache")
    p.add_argument("--out", required=True, help="backbone weights file")
    p.add_argument("--force", action="store_true",
                   help="ignore config-hash mismatches")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="cross-validated multi-task training")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--images", required=True, help="preprocessed image cache")
    p.add_argument("--out", required=True, help="output directory for snapshots")
    p.add_argument("--schedule", choices=("transfer", "scratch"))
    p.add_argument("--pretrained", help="backbone weights for the transfer schedule")
    p.add_argument("--no-kl-head", action="store_true",
                   help="train compartment heads only")
    p.add_argument("--parallel-folds", action="store_true")
    p.add_argument("--force", action="store_true",
                   help="ignore config-hash mismatches")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="ensemble snapshot predictions")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--images", required=True, help="preprocessed image cache")
    p.add_argument("--snapshots", required=True, nargs="+",
                   help="snapshot directory or explicit .kgw paths")
    p.add_argument("--out", required=True, help="predictions csv path")
    p.add_argument("--force", action="store_true",
                   help="ignore config-hash mismatches")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics, tables and plots")
    common(p)
    p.add_argument("--manifest", required=True, help="manifest with true grades")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--force", action="store_true",
                   help="ignore config-hash mismatches")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with rollback():    # any exception, Ctrl-C and bugs too, removes what was written
            thread_cap()    # a malformed cap fails every command, not only a pool's
            args.func(args)
    except (KneeGradeError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2 if isinstance(exc, _USER_FAULT + (OSError,)) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
