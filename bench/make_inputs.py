"""Generate the benchmark's inputs for one seed.

    python3 bench/make_inputs.py --seed 3 [--workload train_fold ...]

Writes ``.bench_work/inputs/seed<N>/<workload>/`` under the checkout root.
A ``DONE`` file is written last, so a half-written directory is rebuilt on
the next call. The same seed always gives the same inputs:

- train_fold: a synthetic cohort preprocessed at 64 px (image cache and
  manifest), the validation exam ids, and an untrained default backbone.
- predict_ensemble_128: a synthetic cohort preprocessed at 128 px and five
  untrained default-model snapshots built from distinct fixed seeds.
- cli_pipeline: the run configuration; the pipeline makes its own data.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import (EXAMS_PER_SUBJECT, PREDICT_MEMBERS, PREDICT_SIDE, PREDICT_SUBJECTS,
                    TRAIN_SIDE, TRAIN_SUBJECTS, TRAIN_VAL_FOLDS, WORKLOADS, cli_config,
                    input_dir, use_source_tree)


def _cohort(out, n_subjects, side, seed):
    """Synthesize a cohort under out/raw and write its preprocessed cache."""
    from kneegrade.data import SynthConfig, load_landmarks, save_manifest, synth_generate
    from kneegrade.imageio import read_pgm16
    from kneegrade.preprocess import PreprocessConfig, RawImage, preprocess_exam, \
        save_image_cache

    raw = os.path.join(out, "raw")
    _, exams = synth_generate(raw, n_subjects, exams_per_subject=EXAMS_PER_SUBJECT, seed=seed,
                              cfg=SynthConfig(image_side=side))
    pcfg = PreprocessConfig(target_side=side)
    images = {}
    for exam in exams:
        pixels = read_pgm16(os.path.join(raw, exam.image_path))
        _, landmarks = load_landmarks(os.path.join(raw, exam.landmark_path))
        images[exam.exam_id] = preprocess_exam(
            RawImage(pixels=pixels, spacing_mm=exam.spacing_mm), landmarks, pcfg)
    save_image_cache(os.path.join(out, "images.kgw"), images)
    save_manifest(os.path.join(out, "manifest.csv"), exams)
    return exams


def _train_fold(out, seed):
    from kneegrade.data import split_cv
    from kneegrade.model import ModelConfig, build_model, save_backbone_weights

    exams = _cohort(out, TRAIN_SUBJECTS, TRAIN_SIDE, seed)
    assignment = split_cv(exams, n_folds=TRAIN_VAL_FOLDS, seed=seed)
    _, val = assignment.split(exams, 0)
    with open(os.path.join(out, "split.json"), "w") as fh:
        json.dump({"val": [e.exam_id for e in val]}, fh, indent=1)
    save_backbone_weights(build_model(ModelConfig(), seed), os.path.join(out, "backbone.kgw"))


def _predict(out, seed):
    import numpy as np

    from kneegrade.model import ModelConfig, build_model
    from kneegrade.training import Snapshot

    _cohort(out, PREDICT_SUBJECTS, PREDICT_SIDE, seed)
    cfg = ModelConfig()
    os.makedirs(os.path.join(out, "snapshots"))
    for i in range(PREDICT_MEMBERS):
        # Member weights do not follow --seed: an untrained member's
        # log-loss differs from seed to seed by far more than rounding, and
        # task_nll is meant to move only when the arithmetic changes.
        member_seed = int(np.random.SeedSequence([0x5a, i]).generate_state(1)[0])
        model = build_model(cfg, member_seed)
        meta = {"fold": i, "epoch": 0, "seed": member_seed, "schedule": "untrained",
                "model_config": cfg.to_dict(),
                "heads": [list(h) for h in model.head_specs()], "metrics": {}}
        Snapshot(weights=model.state_arrays(), meta=meta).save(
            os.path.join(out, "snapshots", f"snapshot_fold{i}.kgw"))


def _cli(out, seed):
    with open(os.path.join(out, "config.json"), "w") as fh:
        json.dump(cli_config(seed), fh, indent=1, sort_keys=True)


BUILDERS = {"train_fold": _train_fold, "predict_ensemble_128": _predict, "cli_pipeline": _cli}


def make(workload, seed):
    """Build the inputs of one workload unless a complete set exists."""
    out = input_dir(workload, seed)
    if os.path.isfile(os.path.join(out, "DONE")):
        return out
    tmp = out + ".partial"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(tmp)
    BUILDERS[workload](tmp, seed)
    with open(os.path.join(tmp, "DONE"), "w") as fh:
        fh.write(f"{workload} seed {seed}\n")
    os.replace(tmp, out)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default is every workload")
    args = parser.parse_args(argv)
    use_source_tree()
    for workload in args.workload or WORKLOADS:
        print(make(workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
