"""Evaluation reports: metrics.json, confusion tables, curves, and plots.

Everything emitted here is deterministic for a given input except the single
``meta.generated_at`` field in metrics.json; rerunning an identical evaluation
must reproduce every other byte, so floats are formatted explicitly and JSON
keys are sorted.
"""

from __future__ import annotations

import datetime
import json
import os

import numpy as np

from .errors import ConfigurationError, DataError
from .metrics import (
    average_precision_rows,
    balanced_accuracy,
    balanced_accuracy_rows,
    binarize_probs,
    bootstrap_rows,
    cohen_kappa,
    confusion_matrix,
    f1_macro,
    kappa_rows,
    mse_grades,
    pr_curve,
    roc_auc_rows,
    roc_curve,
)
# bootstrap_ci is not called here; bench/tracing.py times it under this name.
from .metrics import bootstrap_ci  # noqa: F401
from .serialize import write_atomic

KL_POSITIVE_GRADE = 2    # KL >= 2 is the accepted definition of radiographic disease
OARSI_POSITIVE_GRADE = 1


def iso_now():
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_sidecar(artifact_path, doc):
    """Drop a small JSON description next to an artifact (path + .meta.json)."""
    path = str(artifact_path) + ".meta.json"
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def read_sidecar(artifact_path):
    """The JSON object beside ``artifact_path``; DataError if it is not one."""
    path = str(artifact_path) + ".meta.json"
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:       # undecodable bytes or malformed JSON
            raise DataError(f"{path}: not a JSON sidecar: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def align_predictions(truth_ids, pred_ids):
    """Indices into the prediction rows matching truth order, or DataError.

    Every truth exam must be predicted exactly once; extra predictions are
    also an error because they signal the wrong file was passed.
    """
    pos = {}
    for i, pid in enumerate(pred_ids):
        if pid in pos:
            raise DataError(f"duplicate prediction for exam {pid!r}")
        pos[pid] = i
    missing = [t for t in truth_ids if t not in pos]
    if missing:
        raise DataError(
            f"{len(missing)} exams lack predictions, first: {missing[0]!r}")
    extra = set(pos) - set(truth_ids)
    if extra:
        raise DataError(
            f"{len(extra)} predictions match no exam, first: {sorted(extra)[0]!r}")
    return [pos[t] for t in truth_ids]


# ---------------------------------------------------------------------------
# tables


def write_confusion_csv(path, y_true, y_pred, n_classes):
    """Counts and row percentages in one table, one row per true grade."""
    m = confusion_matrix(y_true, y_pred, n_classes)
    cols = ["true_grade"] + [f"pred_{k}" for k in range(n_classes)] + ["total"]
    cols += [f"pct_{k}" for k in range(n_classes)]
    lines = [",".join(cols)]
    for i in range(n_classes):
        total = int(m[i].sum())
        cells = [str(i)] + [str(int(c)) for c in m[i]] + [str(total)]
        if total:
            cells += [f"{100.0 * c / total:.2f}" for c in m[i]]
        else:
            cells += ["0.00"] * n_classes
        lines.append(",".join(cells))
    write_atomic(path, "\n".join(lines) + "\n")
    return m


def write_curve_csv(path, header, columns):
    arrays = [np.asarray(c, dtype=np.float64) for c in columns]
    lines = [",".join(header)]
    for row in zip(*arrays):
        lines.append(",".join("inf" if np.isinf(v) else f"{v:.9g}" for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# plots

_W, _H = 480, 360
_ML, _MR, _MT, _MB = 55, 15, 30, 45


def _px(frac):
    return _ML + frac * (_W - _ML - _MR)


def _py(frac):
    return _H - _MB - frac * (_H - _MT - _MB)


def _svg_open(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
    ]


def _svg_axes(xlabel, ylabel):
    parts = [
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>'
    ]
    for i in range(5):
        f = i / 4.0
        label = f"{f:.2f}"
        parts.append(f'<text x="{_px(f):.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
                     f'font-family="monospace" font-size="10">{label}</text>')
        parts.append(f'<text x="{_ML - 6}" y="{_py(f) + 3:.1f}" text-anchor="end" '
                     f'font-family="monospace" font-size="10">{label}</text>')
        if 0 < i < 4:
            parts.append(f'<line x1="{_px(f):.1f}" y1="{_MT}" x2="{_px(f):.1f}" '
                         f'y2="{_H - _MB}" stroke="#dddddd"/>')
            parts.append(f'<line x1="{_ML}" y1="{_py(f):.1f}" x2="{_W - _MR}" '
                         f'y2="{_py(f):.1f}" stroke="#dddddd"/>')
    parts.append(f'<text x="{_px(0.5):.1f}" y="{_H - 10}" text-anchor="middle" '
                 f'font-family="monospace" font-size="11">{xlabel}</text>')
    parts.append(f'<text x="14" y="{_py(0.5):.1f}" text-anchor="middle" '
                 f'font-family="monospace" font-size="11" '
                 f'transform="rotate(-90 14 {_py(0.5):.1f})">{ylabel}</text>')
    return parts


def write_curve_svg(path, x, y, xlabel, ylabel, title, diagonal=False):
    """A unit-square curve plot built by hand so output bytes never vary."""
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    y = np.clip(np.asarray(y, dtype=np.float64), 0.0, 1.0)
    parts = _svg_open(title) + _svg_axes(xlabel, ylabel)
    if diagonal:
        parts.append(f'<line x1="{_px(0):.1f}" y1="{_py(0):.1f}" x2="{_px(1):.1f}" '
                     f'y2="{_py(1):.1f}" stroke="#999999" stroke-dasharray="4 3"/>')
    pts = " ".join(f"{_px(a):.2f},{_py(b):.2f}" for a, b in zip(x, y))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fa6" stroke-width="1.5"/>')
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts) + "\n")


def write_history_svg(path, history):
    """Training curves: loss on the top panel, mean kappa on the bottom."""
    if not history:
        raise ConfigurationError("no history to plot")
    epochs = [row["epoch"] for row in history]
    panels = [("train loss", [row["train_loss"] for row in history]),
              ("mean kappa", [row["mean_kappa"] for row in history])]
    h = 300
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{2 * h}" '
        f'viewBox="0 0 {_W} {2 * h}">',
        f'<rect width="{_W}" height="{2 * h}" fill="white"/>',
    ]
    for p, (label, values) in enumerate(panels):
        top = p * h + 25
        bottom = (p + 1) * h - 35
        lo = min(values)
        hi = max(values)
        span = (hi - lo) or 1.0
        xs = np.linspace(_ML, _W - _MR, num=len(values)) if len(values) > 1 \
            else np.array([(_ML + _W - _MR) / 2.0])
        ys = [bottom - (v - lo) / span * (bottom - top) for v in values]
        parts.append(f'<rect x="{_ML}" y="{top}" width="{_W - _ML - _MR}" '
                     f'height="{bottom - top}" fill="none" stroke="black"/>')
        parts.append(f'<text x="{_W / 2:.1f}" y="{top - 8}" text-anchor="middle" '
                     f'font-family="monospace" font-size="12">{label}</text>')
        for frac, v in ((0.0, lo), (1.0, hi)):
            yy = bottom - frac * (bottom - top)
            parts.append(f'<text x="{_ML - 6}" y="{yy + 3:.1f}" text-anchor="end" '
                         f'font-family="monospace" font-size="10">{v:.3f}</text>')
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fa6" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_W / 2:.1f}" y="{bottom + 25}" text-anchor="middle" '
                     f'font-family="monospace" font-size="11">epoch '
                     f'{epochs[0]}..{epochs[-1]}</text>')
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# the report itself


def binary_target(name):
    """(column title, positive-grade threshold) for a task's detection view."""
    if name == "KL":
        return f"KL_ge{KL_POSITIVE_GRADE}", KL_POSITIVE_GRADE
    return f"{name}_ge{OARSI_POSITIVE_GRADE}", OARSI_POSITIVE_GRADE


def emit_report(out_dir, head_specs, truths, preds, probs, meta=None,
                n_bootstrap=100, seed=0, ci_level=0.95):
    """Write metrics.json plus per-task/per-target tables and plots.

    ``truths``/``preds`` map head name to grade arrays, ``probs`` to [n, K]
    probability arrays, all aligned. Every interval is a ``ci_level``
    stratified bootstrap over ``n_bootstrap`` resamples; each head draws its
    resamples once and scores all its statistics on them. metrics.json is
    replaced whole or not at all. Returns the report document (identical to
    what lands in metrics.json).
    """
    os.makedirs(out_dir, exist_ok=True)
    n = None
    for name, _ in head_specs:
        for source, label in ((truths, "truth"), (preds, "prediction")):
            if name not in source:
                raise ConfigurationError(f"missing {label} grades for head {name!r}")
        if n is None:
            n = len(truths[name])
        if len(truths[name]) != n or len(preds[name]) != n or len(probs[name]) != n:
            raise ConfigurationError(f"head {name!r}: misaligned arrays")
    if not n:
        raise ConfigurationError("empty evaluation sample")

    tasks_doc = {}
    binary_doc = {}
    for name, k in head_specs:
        y_true = np.asarray(truths[name])
        y_pred = np.asarray(preds[name])
        stats = {
            "kappa_quadratic": (cohen_kappa(y_true, y_pred, k, "quadratic"),
                                lambda idx: kappa_rows(y_true, y_pred, idx, k, "quadratic")),
            "balanced_accuracy": (balanced_accuracy(y_true, y_pred, k),
                                  lambda idx: balanced_accuracy_rows(y_true, y_pred, idx, k)),
        }
        target, threshold = binary_target(name)
        labels, scores = binarize_probs(y_true, probs[name], threshold)
        curves = None
        if labels.min() != labels.max():
            curves = roc_curve(labels, scores), pr_curve(labels, scores)
            stats["roc_auc"] = (curves[0][3], lambda idx: roc_auc_rows(labels, scores, idx))
            stats["average_precision"] = (
                curves[1][3], lambda idx: average_precision_rows(labels, scores, idx))
        cis = {key: ci.to_dict() for key, ci in bootstrap_rows(
            stats, y_true, n_iterations=n_bootstrap, level=ci_level, seed=seed).items()}
        tasks_doc[name] = {
            "n_classes": k,
            "kappa_quadratic": cis["kappa_quadratic"],
            "balanced_accuracy": cis["balanced_accuracy"],
            "f1_harmonic": f1_macro(y_true, y_pred, k),
            "f1_geometric": f1_macro(y_true, y_pred, k, variant="geometric"),
            "mse": mse_grades(y_true, y_pred, k),
        }
        write_confusion_csv(os.path.join(out_dir, f"confusion_{name}.csv"),
                            y_true, y_pred, k)
        if curves is None:
            binary_doc[target] = {"skipped": "single class in truth"}
            continue
        (fpr, tpr, roc_thr, auc), (recall, precision, pr_thr, ap) = curves
        binary_doc[target] = {
            "prevalence": float(labels.mean()),
            "roc_auc": cis["roc_auc"],
            "average_precision": cis["average_precision"],
        }
        write_curve_csv(os.path.join(out_dir, f"roc_{target}.csv"),
                        ["fpr", "tpr", "threshold"], [fpr, tpr, roc_thr])
        write_curve_csv(os.path.join(out_dir, f"pr_{target}.csv"),
                        ["recall", "precision", "threshold"],
                        [recall, precision, pr_thr])
        write_curve_svg(os.path.join(out_dir, f"roc_{target}.svg"), fpr, tpr,
                        "false positive rate", "true positive rate",
                        f"ROC {target} (AUC {auc:.3f})", diagonal=True)
        write_curve_svg(os.path.join(out_dir, f"pr_{target}.svg"), recall, precision,
                        "recall", "precision", f"PR {target} (AP {ap:.3f})")

    doc = {
        "meta": dict(meta or {}),
        "tasks": tasks_doc,
        "binary": binary_doc,
        "mean_kappa": float(np.mean([tasks_doc[name]["kappa_quadratic"]["point"]
                                     for name, _ in head_specs])),
    }
    doc["meta"].setdefault("n_exams", int(n))
    doc["meta"]["n_bootstrap"] = int(n_bootstrap)
    doc["meta"]["bootstrap_seed"] = int(seed)
    doc["meta"]["generated_at"] = iso_now()
    write_atomic(os.path.join(out_dir, "metrics.json"),
                 json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc
