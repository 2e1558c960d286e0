"""Multi-task grading of knee radiographs on a from-scratch numpy engine.

The package covers the whole workflow: a reverse-mode autodiff tensor core
(`tensor`), layers and residual blocks with squeeze-excitation gating (`nn`,
`blocks`), the seven-head grading model (`model`), preprocessing from raw
pixels to standardized knee crops (`preprocess`, `imageio`), synthetic data
and cross-validation splits (`data`), staged training with snapshot selection
(`training`), probability ensembling (`ensemble`), ordinal metrics with
bootstrap intervals (`metrics`), report emission (`report`), and a CLI
(`cli`).
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys


def _cap_blas_threads():
    """Run BLAS on one thread, as its sums follow its thread count, and leave
    the cores to the fold pool: set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
    MKL_NUM_THREADS to 1 unless the user set them. BLAS fixes its pool when
    numpy loads, so once numpy is imported nothing is changed."""
    if "numpy" not in _sys.modules:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            _os.environ.setdefault(var, "1")


_cap_blas_threads()

from .config import RunConfig, load_run_config
from .data import (
    GradedExam,
    SynthConfig,
    load_and_filter,
    load_manifest,
    save_manifest,
    split_cv,
    synth_generate,
)
from .ensemble import ensemble_mean, ensemble_predict, read_predictions_csv, \
    snapshot_model, write_predictions_csv
from .errors import (
    BootstrapError,
    DataError,
    GeometryError,
    KneeGradeError,
    MetricUndefinedError,
    NormalizationError,
    NumericsError,
    TrainingError,
    UsageError,
    WeightLoadError,
)
from .metrics import (
    balanced_accuracy,
    bootstrap_ci,
    cohen_kappa,
    f1_macro,
    mse_grades,
    pr_curve,
    roc_curve,
)
from .model import (
    ModelConfig,
    MultiTaskModel,
    build_model,
    config_hash,
    load_backbone_weights,
    save_backbone_weights,
)
from .preprocess import (
    AugmentConfig,
    LandmarkSet,
    NormalizedImage,
    PreprocessConfig,
    RawImage,
    augment,
    load_image_cache,
    preprocess_exam,
    save_image_cache,
)
from .report import emit_report
from .tensor import Tensor, backward
from .training import (
    PretrainConfig,
    Snapshot,
    TrainConfig,
    pretrain_backbone,
    run_fold,
)

__all__ = [name for name in dir() if not name.startswith("_")]
