"""Workload definitions and paths shared by the benchmark scripts.

Importing this module touches neither numpy nor kneegrade, so the
orchestrator (run.py) can use it before the thread environment of its
children is fixed.
"""

from __future__ import annotations

import math
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("train_fold", "predict_ensemble_128", "cli_pipeline")

# Every synthetic cohort: one right and one left knee per subject.
EXAMS_PER_SUBJECT = 2

# Every stage runs serially on one core: one BLAS thread, no kneegrade pools.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# train_fold: ~300 exams at 64 px, a tenth held out for validation, one
# frozen heads-only epoch then two thawed epochs.
TRAIN_SUBJECTS = 150
TRAIN_SIDE = 64
TRAIN_VAL_FOLDS = 10
TRAIN_CONFIG = {"schedule": "transfer", "epochs": 3, "head_epochs": 1, "thaw_epochs": 1,
                "batch_size": 32, "augment": True, "sampler": "kl_balanced"}

# predict_ensemble_128: 64 exams at 128 px through five untrained snapshots.
PREDICT_SUBJECTS = 32
PREDICT_SIDE = 128
PREDICT_MEMBERS = 5
PREDICT_BATCH = 32

# cli_pipeline: ~120 exams at 64 px through all six commands.
CLI_SUBJECTS = 60
CLI_COMMANDS = ("synth", "preprocess", "pretrain", "train", "predict", "evaluate")

# Know-nothing anchor of the multi-task loss: sum over heads of log K.
UNIFORM_NLL = math.log(5) + 6 * math.log(4)


def cli_config(seed):
    return {
        "seed": int(seed),
        "n_folds": 3,
        "synth": {"image_side": 64},
        "preprocess": {"target_side": 64},
        "train": dict(TRAIN_CONFIG),
        "pretrain": {"schedule": "scratch", "epochs": 2, "batch_size": 32,
                     "augment": True, "sampler": "kl_balanced"},
        "n_bootstrap": 1000,
    }


def predict_batches():
    return PREDICT_MEMBERS * math.ceil(EXAMS_PER_SUBJECT * PREDICT_SUBJECTS / PREDICT_BATCH)


def input_dir(workload, seed):
    return os.path.join(WORK, "inputs", f"seed{int(seed)}", workload)


def use_source_tree():
    """Import kneegrade from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "kneegrade", "__init__.py")):
        raise SystemExit(f"error: no kneegrade sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
