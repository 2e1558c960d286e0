"""Ordinal agreement metrics, binary curves, and the stratified bootstrap.

All metric functions accept integer label arrays (and probability matrices
where noted) and raise MetricUndefinedError when a statistic has no value on
the sample, rather than returning NaN.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import BootstrapError, ConfigurationError, MetricUndefinedError

KAPPA_WEIGHTINGS = ("none", "linear", "quadratic")


def _as_labels(y, name, n_classes):
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.any(arr != np.round(arr)):
            raise ConfigurationError(f"{name} must hold integer labels")
        arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
        raise ConfigurationError(
            f"{name} holds labels outside [0, {n_classes - 1}]")
    return arr.astype(np.int64)


def confusion_matrix(y_true, y_pred, n_classes):
    t = _as_labels(y_true, "y_true", n_classes)
    p = _as_labels(y_pred, "y_pred", n_classes)
    if t.shape != p.shape:
        raise ConfigurationError(f"length mismatch: {t.shape} vs {p.shape}")
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (t, p), 1)
    return m


def kappa_weights(n_classes, weighting):
    if weighting not in KAPPA_WEIGHTINGS:
        raise ConfigurationError(f"kappa weighting must be one of {KAPPA_WEIGHTINGS}")
    i = np.arange(n_classes, dtype=np.float64)
    diff = np.abs(i[:, None] - i[None, :])
    if weighting == "none":
        return (diff > 0).astype(np.float64)
    if n_classes < 2:
        raise MetricUndefinedError("weighted kappa needs at least 2 classes")
    if weighting == "linear":
        return diff / (n_classes - 1)
    return (diff / (n_classes - 1)) ** 2


def cohen_kappa(y_true, y_pred, n_classes, weighting="quadratic"):
    """Weighted Cohen's kappa: 1 - sum(w * O) / sum(w * E).

    O holds observed pair proportions, E the outer product of the marginals,
    and w the disagreement weights (0/1, linear, or quadratic distance).
    A sample where chance disagreement is zero (for example both raters stuck
    on one identical label) has no kappa and raises MetricUndefinedError.
    """
    m = confusion_matrix(y_true, y_pred, n_classes)
    n = m.sum()
    if n == 0:
        raise MetricUndefinedError("kappa of an empty sample")
    o = m.astype(np.float64) / n
    rows = o.sum(axis=1)
    cols = o.sum(axis=0)
    e = np.outer(rows, cols)
    w = kappa_weights(n_classes, weighting)
    denom = float((w * e).sum())
    if denom == 0.0:
        raise MetricUndefinedError(
            "kappa undefined: expected disagreement is zero on this sample")
    return 1.0 - float((w * o).sum()) / denom


def balanced_accuracy(y_true, y_pred, n_classes):
    """Mean per-class recall, in percent, over classes present in y_true."""
    m = confusion_matrix(y_true, y_pred, n_classes)
    support = m.sum(axis=1)
    present = support > 0
    if not present.any():
        raise MetricUndefinedError("balanced accuracy of an empty sample")
    recalls = np.diag(m)[present] / support[present]
    return float(recalls.mean() * 100.0)


def f1_macro(y_true, y_pred, n_classes, variant="harmonic"):
    """Macro F1 over classes present in either labeling.

    ``harmonic`` is the standard 2PR/(P+R); ``geometric`` uses sqrt(P*R)
    instead. Classes absent from both y_true and y_pred are skipped; a class
    with no predicted and no true positives contributes 0.
    """
    if variant not in ("harmonic", "geometric"):
        raise ConfigurationError(f"f1 variant must be harmonic or geometric, got {variant!r}")
    m = confusion_matrix(y_true, y_pred, n_classes)
    tp = np.diag(m).astype(np.float64)
    support = m.sum(axis=1)
    predicted = m.sum(axis=0)
    involved = (support > 0) | (predicted > 0)
    if not involved.any():
        raise MetricUndefinedError("F1 of an empty sample")
    scores = []
    for k in np.nonzero(involved)[0]:
        p = tp[k] / predicted[k] if predicted[k] else 0.0
        r = tp[k] / support[k] if support[k] else 0.0
        if p + r == 0.0:
            scores.append(0.0)
        elif variant == "harmonic":
            scores.append(2.0 * p * r / (p + r))
        else:
            scores.append(float(np.sqrt(p * r)))
    return float(np.mean(scores))


def mse_grades(y_true, y_pred, n_classes):
    """Mean squared difference between integer grades."""
    t = _as_labels(y_true, "y_true", n_classes)
    p = _as_labels(y_pred, "y_pred", n_classes)
    if t.shape != p.shape:
        raise ConfigurationError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise MetricUndefinedError("MSE of an empty sample")
    return float(np.mean((t - p) ** 2.0))


# ---------------------------------------------------------------------------
# binarized curves


def binarize_probs(y_true, probs, threshold_grade):
    """Collapse ordinal labels/probabilities to a binary detection problem.

    Positive means grade >= threshold_grade; the positive score is the summed
    probability mass of the positive grades.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ConfigurationError(f"probs must be [n, K], got {probs.shape}")
    k = probs.shape[1]
    if not 1 <= threshold_grade <= k - 1:
        raise ConfigurationError(
            f"threshold grade {threshold_grade} outside [1, {k - 1}]")
    t = _as_labels(y_true, "y_true", k)
    if t.shape[0] != probs.shape[0]:
        raise ConfigurationError("y_true and probs disagree on sample count")
    return (t >= threshold_grade).astype(np.int64), probs[:, threshold_grade:].sum(axis=1)


def roc_curve(y_true, scores):
    """ROC points over the distinct score thresholds, plus trapezoid AUC.

    Ties are grouped per threshold, which makes the trapezoid area equal the
    tie-adjusted Mann-Whitney statistic. Needs both classes present.
    """
    t = np.asarray(y_true).astype(np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if t.shape != s.shape or t.ndim != 1:
        raise ConfigurationError("y_true and scores must be matching 1-D arrays")
    pos = int((t == 1).sum())
    neg = int((t == 0).sum())
    if pos == 0 or neg == 0:
        raise MetricUndefinedError("ROC needs both classes present")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    distinct = np.nonzero(np.diff(s_sorted))[0]
    cut = np.concatenate([distinct, [t_sorted.size - 1]])
    tp = np.cumsum(t_sorted)[cut]
    fp = np.cumsum(1 - t_sorted)[cut]
    tpr = np.concatenate([[0.0], tp / pos])
    fpr = np.concatenate([[0.0], fp / neg])
    thresholds = np.concatenate([[np.inf], s_sorted[cut]])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    auc = float(trapezoid(tpr, fpr))
    return fpr, tpr, thresholds, auc


def pr_curve(y_true, scores):
    """Precision/recall points per distinct threshold and average precision.

    AP is the step integral sum((R_i - R_{i-1}) * P_i) walking thresholds
    from strict to loose.
    """
    t = np.asarray(y_true).astype(np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if t.shape != s.shape or t.ndim != 1:
        raise ConfigurationError("y_true and scores must be matching 1-D arrays")
    pos = int((t == 1).sum())
    if pos == 0:
        raise MetricUndefinedError("PR curve needs at least one positive")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    distinct = np.nonzero(np.diff(s_sorted))[0]
    cut = np.concatenate([distinct, [t_sorted.size - 1]])
    tp = np.cumsum(t_sorted)[cut].astype(np.float64)
    fp = np.cumsum(1 - t_sorted)[cut].astype(np.float64)
    precision = tp / (tp + fp)
    recall = tp / pos
    ap = float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))
    thresholds = s_sorted[cut]
    precision = np.concatenate([[1.0], precision])
    recall = np.concatenate([[0.0], recall])
    thresholds = np.concatenate([[np.inf], thresholds])
    return recall, precision, thresholds, ap


def roc_auc(y_true, scores):
    return roc_curve(y_true, scores)[3]


def average_precision(y_true, scores):
    return pr_curve(y_true, scores)[3]


# ---------------------------------------------------------------------------
# stratified bootstrap


@dataclass(frozen=True)
class MetricWithCI:
    point: float
    lo: float
    hi: float
    n_bootstrap: int
    level: float
    n_failed: int = 0

    @property
    def point_outside_interval(self):
        return not (self.lo <= self.point <= self.hi)

    def to_dict(self):
        return dict(asdict(self), point_outside_interval=self.point_outside_interval)


def _iteration_rng(seed, iteration):
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0xb007, int(iteration)]))


def resample_indices(strata, seed, iteration):
    """One stratified resample: draw with replacement inside each stratum.

    Stratum sizes are preserved exactly, strata are visited in sorted label
    order, and the generator depends only on (seed, iteration), so any
    execution order reproduces the same index array.
    """
    strata = np.asarray(strata)
    rng = _iteration_rng(seed, iteration)
    out = np.empty(strata.size, dtype=np.int64)
    pos = 0
    for label in np.unique(strata):   # np.unique sorts
        members = np.nonzero(strata == label)[0]
        draws = rng.integers(0, members.size, size=members.size)
        out[pos:pos + members.size] = members[draws]
        pos += members.size
    return out


def bootstrap_ci(statistic, y_true, y_other, n_iterations=100, level=0.95, seed=0,
                 strata=None, max_failure_fraction=0.2, executor=None):
    """Percentile bootstrap CI of ``statistic(y_true, y_other)``.

    Resampling is stratified (default strata: the true labels) and sizes per
    stratum are preserved exactly. The point estimate always comes from the
    original sample. Iterations where the statistic raises
    MetricUndefinedError are dropped; more than ``max_failure_fraction`` of
    them is a BootstrapError. Pass a concurrent.futures executor to fan the
    iterations out; results are identical to the serial run because every
    iteration seeds its own generator from (seed, iteration).
    """
    y_true = np.asarray(y_true)
    y_other = np.asarray(y_other)
    if y_true.shape[0] != y_other.shape[0]:
        raise ConfigurationError("y_true and predictions disagree on sample count")
    if y_true.size == 0:
        raise MetricUndefinedError("bootstrap of an empty sample")
    if n_iterations < 1:
        raise ConfigurationError("bootstrap needs at least one iteration")
    if not 0.5 < level < 1.0:
        raise ConfigurationError(f"confidence level {level} outside (0.5, 1)")
    strata = np.asarray(strata) if strata is not None else y_true
    if strata.shape[0] != y_true.shape[0]:
        raise ConfigurationError("strata must label every sample")

    point = float(statistic(y_true, y_other))

    def one(iteration):
        idx = resample_indices(strata, seed, iteration)
        try:
            return float(statistic(y_true[idx], y_other[idx]))
        except MetricUndefinedError:
            return None

    if executor is None:
        results = [one(i) for i in range(n_iterations)]
    else:
        results = list(executor.map(one, range(n_iterations)))

    values = [v for v in results if v is not None]
    failed = n_iterations - len(values)
    if failed > max_failure_fraction * n_iterations:
        raise BootstrapError(
            f"statistic undefined on {failed}/{n_iterations} bootstrap iterations")
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(values, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return MetricWithCI(point=point, lo=float(lo), hi=float(hi),
                        n_bootstrap=n_iterations, level=level, n_failed=failed)
