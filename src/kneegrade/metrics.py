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


def _label_pair(y_true, y_pred, n_classes):
    t = _as_labels(y_true, "y_true", n_classes)
    p = _as_labels(y_pred, "y_pred", n_classes)
    if t.shape != p.shape:
        raise ConfigurationError(f"length mismatch: {t.shape} vs {p.shape}")
    return t, p


def _row_counts(values, n_bins):
    """Histogram of each row of the integer matrix ``values``: [rows, n_bins]."""
    rows = values.shape[0]
    offsets = np.arange(rows)[:, None] * n_bins
    return np.bincount((values + offsets).ravel(), minlength=rows * n_bins).reshape(rows, n_bins)


def _confusions(t, p, idx, n_classes):
    """Confusion matrix [rows, K, K] of each resample ``t[idx[r]], p[idx[r]]``."""
    cells = _row_counts(t[idx] * n_classes + p[idx], n_classes * n_classes)
    return cells.reshape(-1, n_classes, n_classes)


def confusion_matrix(y_true, y_pred, n_classes):
    t, p = _label_pair(y_true, y_pred, n_classes)
    return _confusions(t, p, np.arange(t.size)[None], n_classes)[0]


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


def _kappa(m, w):
    """Weighted kappa of each confusion matrix in ``m`` [rows, K, K].

    NaN marks a matrix whose chance disagreement is zero.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        o = m / m.sum(axis=(1, 2))[:, None, None]
        e = o.sum(axis=2)[:, :, None] * o.sum(axis=1)[:, None, :]
        denom = (w * e).sum(axis=(1, 2))
        return np.where(denom == 0.0, np.nan, 1.0 - (w * o).sum(axis=(1, 2)) / denom)


def cohen_kappa(y_true, y_pred, n_classes, weighting="quadratic"):
    """Weighted Cohen's kappa: 1 - sum(w * O) / sum(w * E).

    O holds observed pair proportions, E the outer product of the marginals,
    and w the disagreement weights (0/1, linear, or quadratic distance).
    A sample where chance disagreement is zero (for example both raters stuck
    on one identical label) has no kappa and raises MetricUndefinedError.
    """
    m = confusion_matrix(y_true, y_pred, n_classes)
    if m.sum() == 0:
        raise MetricUndefinedError("kappa of an empty sample")
    kappa = _kappa(m[None], kappa_weights(n_classes, weighting))[0]
    if np.isnan(kappa):
        raise MetricUndefinedError(
            "kappa undefined: expected disagreement is zero on this sample")
    return float(kappa)


def kappa_rows(y_true, y_pred, idx, n_classes, weighting="quadratic"):
    """cohen_kappa of each resample ``idx[r]`` of the sample, NaN where undefined."""
    t, p = _label_pair(y_true, y_pred, n_classes)
    return _kappa(_confusions(t, p, idx, n_classes), kappa_weights(n_classes, weighting))


def _balanced_accuracy(m):
    """Mean recall in percent over the classes present, per matrix in ``m`` [rows, K, K].

    NaN marks an empty matrix.
    """
    support = m.sum(axis=2)
    recall = np.diagonal(m, axis1=1, axis2=2) / np.maximum(support, 1)
    with np.errstate(invalid="ignore"):
        return recall.sum(axis=1) / (support > 0).sum(axis=1) * 100.0


def balanced_accuracy(y_true, y_pred, n_classes):
    """Mean per-class recall, in percent, over classes present in y_true."""
    m = confusion_matrix(y_true, y_pred, n_classes)
    if m.sum() == 0:
        raise MetricUndefinedError("balanced accuracy of an empty sample")
    return float(_balanced_accuracy(m[None])[0])


def balanced_accuracy_rows(y_true, y_pred, idx, n_classes):
    """balanced_accuracy of each resample ``idx[r]`` of the sample."""
    t, p = _label_pair(y_true, y_pred, n_classes)
    return _balanced_accuracy(_confusions(t, p, idx, n_classes))


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
    t, p = _label_pair(y_true, y_pred, n_classes)
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


def _ranked(y_true, scores):
    """(order, labels in descending score order, thresholds, group ends).

    Tied scores form one group; a group's end is its last position in the
    ranking. The thresholds are inf, then each group's score.
    """
    t = np.asarray(y_true).astype(np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if t.shape != s.shape or t.ndim != 1:
        raise ConfigurationError("y_true and scores must be matching 1-D arrays")
    if np.any((t != 0) & (t != 1)):
        raise ConfigurationError("binary labels must be 0 or 1")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    cut = np.concatenate([np.nonzero(np.diff(s_sorted))[0], [t.size - 1]])
    return order, t[order], np.concatenate([[np.inf], s_sorted[cut]]), cut


def _positives(t_sorted, cut, weights):
    """True and false positives at each group end, sample j counted ``weights[..., j]`` times."""
    tp = np.cumsum(weights * t_sorted, axis=-1)[..., cut]
    fp = np.cumsum(weights * (1 - t_sorted), axis=-1)[..., cut]
    return tp, fp


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _roc(tp, fp):
    """(fpr, tpr, AUC) per row; the AUC is NaN where a class is absent."""
    origin = np.zeros(tp.shape[:-1] + (1,))
    with np.errstate(divide="ignore", invalid="ignore"):
        tpr = np.concatenate([origin, tp / tp[..., -1:]], axis=-1)
        fpr = np.concatenate([origin, fp / fp[..., -1:]], axis=-1)
        return fpr, tpr, _trapezoid(tpr, fpr, axis=-1)


def _pr(tp, fp):
    """(recall, precision, AP) per row; AP is NaN where no positive occurs.

    A group no sample falls into has precision 0 and adds no recall.
    """
    tp = tp.astype(np.float64)
    fp = fp.astype(np.float64)
    origin = np.zeros(tp.shape[:-1] + (1,))
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = tp / tp[..., -1:]
        steps = np.diff(np.concatenate([origin, recall], axis=-1), axis=-1)
        return recall, precision, np.sum(steps * precision, axis=-1)


def roc_curve(y_true, scores):
    """ROC points over the distinct score thresholds, plus trapezoid AUC.

    Ties are grouped per threshold, which makes the trapezoid area equal the
    tie-adjusted Mann-Whitney statistic. Needs both classes present.
    """
    _, t_sorted, thresholds, cut = _ranked(y_true, scores)
    if t_sorted.sum() in (0, t_sorted.size):
        raise MetricUndefinedError("ROC needs both classes present")
    fpr, tpr, auc = _roc(*_positives(t_sorted, cut, 1))
    return fpr, tpr, thresholds, float(auc)


def pr_curve(y_true, scores):
    """Precision/recall points per distinct threshold and average precision.

    AP is the step integral sum((R_i - R_{i-1}) * P_i) walking thresholds
    from strict to loose.
    """
    _, t_sorted, thresholds, cut = _ranked(y_true, scores)
    if not t_sorted.any():
        raise MetricUndefinedError("PR curve needs at least one positive")
    recall, precision, ap = _pr(*_positives(t_sorted, cut, 1))
    precision = np.concatenate([[1.0], precision])
    recall = np.concatenate([[0.0], recall])
    return recall, precision, thresholds, float(ap)


def roc_auc(y_true, scores):
    return roc_curve(y_true, scores)[3]


def average_precision(y_true, scores):
    return pr_curve(y_true, scores)[3]


def _resampled_positives(y_true, scores, idx):
    order, t_sorted, _, cut = _ranked(y_true, scores)
    weights = _row_counts(idx, t_sorted.size)[:, order]
    return _positives(t_sorted, cut, weights)


def roc_auc_rows(y_true, scores, idx):
    """roc_auc of each resample ``idx[r]`` of the sample, NaN where undefined.

    Each row weights the once-sorted sample by how often the resample draws
    it, so tied scores stay one group; groups the resample misses add nothing.
    """
    return _roc(*_resampled_positives(y_true, scores, idx))[2]


def average_precision_rows(y_true, scores, idx):
    """average_precision of each resample ``idx[r]``, NaN where it has no positive."""
    return _pr(*_resampled_positives(y_true, scores, idx))[2]


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
    """One stratified resample: row 0 of ``resample_matrix(strata, seed, 1, start=iteration)``."""
    return resample_matrix(strata, seed, 1, start=iteration)[0]


def resample_matrix(strata, seed, n_iterations, start=0):
    """Stratified resamples ``start .. start + n_iterations - 1`` as index rows.

    The one rule: a row draws with replacement inside each stratum (sizes
    kept exactly, strata in sorted label order, members ascending), every
    stratum in one call of a generator that depends only on ``(seed,
    start + i)``, so any execution order or block split gives the same rows.
    """
    strata = np.asarray(strata)
    members = np.argsort(strata, kind="stable")   # strata in label order, each ascending
    _, sizes = np.unique(strata, return_counts=True)
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    high = np.repeat(sizes, sizes)
    draws = np.empty((n_iterations, strata.size), dtype=np.int64)
    for row in range(n_iterations):
        draws[row] = _iteration_rng(seed, start + row).integers(0, high)
    return members[first + draws]


def _check_bootstrap(n, n_iterations, level):
    if n == 0:
        raise MetricUndefinedError("bootstrap of an empty sample")
    if n_iterations < 1:
        raise ConfigurationError("bootstrap needs at least one iteration")
    if not 0.5 < level < 1.0:
        raise ConfigurationError(f"confidence level {level} outside (0.5, 1)")


# More undefined bootstrap iterations than this share is a BootstrapError.
MAX_FAILURE_FRACTION = 0.2


def _interval(point, values, n_iterations, level):
    """Percentile interval of the defined bootstrap ``values``."""
    failed = n_iterations - len(values)
    if failed > MAX_FAILURE_FRACTION * n_iterations:
        raise BootstrapError(
            f"statistic undefined on {failed}/{n_iterations} bootstrap iterations")
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(values, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return MetricWithCI(point=float(point), lo=float(lo), hi=float(hi),
                        n_bootstrap=n_iterations, level=level, n_failed=failed)


def bootstrap_ci(statistic, y_true, y_other, n_iterations=100, level=0.95, seed=0,
                 strata=None, executor=None):
    """Percentile bootstrap CI of ``statistic(y_true, y_other)``.

    The point estimate comes from the original sample; the interval is
    bootstrap_rows' with the statistic scored on each resample row (default
    strata: the true labels), NaN where it raises MetricUndefinedError. An
    optional concurrent.futures executor scores each block's rows; they are
    drawn before they are scored, so the result equals the serial run.
    """
    y_true = np.asarray(y_true)
    y_other = np.asarray(y_other)
    if y_true.shape[0] != y_other.shape[0]:
        raise ConfigurationError("y_true and predictions disagree on sample count")
    _check_bootstrap(y_true.size, n_iterations, level)
    strata = np.asarray(strata) if strata is not None else y_true
    if strata.shape[0] != y_true.shape[0]:
        raise ConfigurationError("strata must label every sample")

    point = float(statistic(y_true, y_other))

    def score(row):
        try:
            return float(statistic(y_true[row], y_other[row]))
        except MetricUndefinedError:
            return np.nan

    def rows(idx):
        return list((map if executor is None else executor.map)(score, idx))

    return bootstrap_rows({"ci": (point, rows)}, strata, n_iterations, level, seed)["ci"]


# Index rows scored at once by bootstrap_rows: bounds its working memory.
_BLOCK_BYTES = 1 << 20


def bootstrap_rows(statistics, strata, n_iterations=100, level=0.95, seed=0):
    """Percentile bootstrap CIs of several statistics of one sample.

    ``statistics`` maps a name to ``(point, rows)``: the statistic on the
    original sample, and a function taking an index matrix [R, n] to the
    statistic on each row's resample, NaN where it is undefined (such as
    kappa_rows). The resamples are resample_matrix's rows, drawn block by
    block and shared by every statistic. A NaN row counts as failed; more
    than ``MAX_FAILURE_FRACTION`` of them is a BootstrapError. Rows sharing a
    statistic's arithmetic (kappa_rows, balanced_accuracy_rows) give
    bootstrap_ci's interval bit for bit; the AUC and AP rows sum in another
    order. Returns a MetricWithCI per name.
    """
    strata = np.asarray(strata)
    _check_bootstrap(strata.size, n_iterations, level)
    values = {name: np.empty(n_iterations) for name in statistics}
    block = max(1, _BLOCK_BYTES // (8 * strata.size))
    for start in range(0, n_iterations, block):
        idx = resample_matrix(strata, seed, min(block, n_iterations - start), start)
        for name, (_, rows) in statistics.items():
            values[name][start:start + len(idx)] = rows(idx)
    return {name: _interval(point, values[name][~np.isnan(values[name])], n_iterations, level)
            for name, (point, _) in statistics.items()}
