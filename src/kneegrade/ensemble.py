"""Snapshot ensembling: rebuild each trained fold's model from its snapshot and
average class probabilities across them.

Member probabilities are float32. The mean is taken in float64 after sorting
along the member axis, which buys two bitwise guarantees: member order cannot
change the output (sorting forgets it), and identical members reproduce the
single-member probabilities exactly (a float32 promoted to float64 has 29
spare mantissa bits, so sums of up to 2**29 equal values round nowhere).
"""

from __future__ import annotations

import numpy as np

from .config import from_doc
from .errors import ConfigurationError, DataError, WeightLoadError
from .model import ModelConfig, build_model
from .serialize import write_atomic
# batch_images is not called here; bench/tracing.py times it under this name.
from .training import batch_images, batched_logits, require_images  # noqa: F401


def softmax_probs(logits):
    """Row-wise softmax of a float array, returned as float32."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ConfigurationError(f"logits must be [n, K], got {z.shape}")
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def ensemble_mean(member_probs):
    """Bitwise order-independent mean of float32 probability arrays."""
    if len(member_probs) == 0:
        raise ConfigurationError("ensemble of zero members")
    stack = np.stack([np.asarray(m) for m in member_probs])
    if stack.dtype != np.float32:
        raise ConfigurationError(f"member probabilities must be float32, got {stack.dtype}")
    ordered = np.sort(stack.astype(np.float64), axis=0)
    return (ordered.sum(axis=0) / stack.shape[0]).astype(np.float32)


def snapshot_model(snapshot):
    """Rebuild the trained model a snapshot was taken from.

    A model config or weights the model refuses are an error naming the
    snapshot's file, when it came from one.
    """
    heads = [tuple(h) for h in snapshot.meta["heads"]]
    weights = snapshot.arrays()     # load_tensors names the file itself
    try:
        cfg = from_doc(ModelConfig, snapshot.meta["model_config"], "model")
        model = build_model(cfg, int(snapshot.meta["seed"]), heads_override=heads)
        model.load_state_arrays(weights)
    except (ConfigurationError, WeightLoadError) as exc:
        if snapshot.path is None:
            raise
        raise type(exc)(f"{snapshot.path}: {exc}") from None
    return model


def predict_probs(model, exams, images, batch_size=32):
    """Per-head class probabilities for one model over ``exams``."""
    return batched_logits(model, exams, images, softmax_probs, batch_size)


def ensemble_predict(snapshots, exams, images, batch_size=32):
    """Average the snapshots' probabilities and take per-head argmax grades.

    All snapshots must agree on their head layout; mixing models trained for
    different tasks is a configuration error, not something to paper over.
    Returns (probs, grades), both keyed by head name.
    """
    if not snapshots:
        raise ConfigurationError("ensemble needs at least one snapshot")
    if not exams:
        raise ConfigurationError("nothing to predict: empty exam list")
    heads = snapshots[0].meta["heads"]
    for s in snapshots[1:]:
        if s.meta["heads"] != heads:
            raise ConfigurationError(
                f"snapshot head mismatch: {s.meta['heads']} vs {heads}")
    require_images(exams, images)
    members = []
    for snap in snapshots:
        model = snapshot_model(snap)
        members.append(predict_probs(model, exams, images, batch_size))
    names = [h[0] for h in heads]
    probs = {name: ensemble_mean([m[name] for m in members]) for name in names}
    grades = {name: np.argmax(probs[name], axis=1).astype(np.int64) for name in names}
    return probs, grades


# ---------------------------------------------------------------------------
# prediction tables


def _prob_cell(x):
    return repr(float(x))


def write_predictions_csv(path, exam_ids, head_specs, probs, grades):
    """One row per exam: the argmax grade and every class probability per head.

    Probabilities are written as exact shortest-roundtrip decimals, so a file
    read back with read_predictions_csv reproduces the float32 values bit for
    bit.
    """
    cols = ["exam_id"]
    for name, k in head_specs:
        cols.append(f"grade_{name}")
        cols += [f"p_{name}_{c}" for c in range(k)]
    lines = [",".join(cols)]
    for i, eid in enumerate(exam_ids):
        if "," in eid or "\n" in eid:
            raise DataError(f"exam id {eid!r} cannot be stored in csv")
        cells = [eid]
        for name, k in head_specs:
            cells.append(str(int(grades[name][i])))
            cells += [_prob_cell(probs[name][i, c]) for c in range(k)]
        lines.append(",".join(cells))
    write_atomic(path, "\n".join(lines) + "\n")
    return path


def read_predictions_csv(path):
    """Inverse of write_predictions_csv: (exam_ids, head_specs, probs, grades).

    A cell that is not a number, a probability that is not finite, or a
    grade outside its head's classes is a DataError naming the file and line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [(n, line.rstrip("\n").split(","))
                    for n, line in enumerate(fh, start=1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    if not rows:
        raise DataError(f"{path}: empty predictions file")
    header = rows[0][1]
    if header[:1] != ["exam_id"]:
        raise DataError(f"{path}: missing exam_id column")
    head_specs = []
    i = 1
    while i < len(header):
        col = header[i]
        if not col.startswith("grade_"):
            raise DataError(f"{path}: expected grade_<task> column, got {col!r}")
        name = col[len("grade_"):]
        if name in dict(head_specs):
            raise DataError(f"{path}: head {name!r} appears twice")
        k = 0
        i += 1
        while i < len(header) and header[i] == f"p_{name}_{k}":
            k += 1
            i += 1
        if k == 0:
            raise DataError(f"{path}: head {name!r} has no probability columns")
        head_specs.append((name, k))
    exam_ids = []
    grades = {name: [] for name, _ in head_specs}
    probs = {name: [] for name, _ in head_specs}
    for r, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"{path} line {r}: {len(row)} cells, expected {len(header)}")
        exam_ids.append(row[0])
        j = 1
        for name, k in head_specs:
            try:
                grade = int(row[j])
                p = [np.float32(row[j + 1 + c]) for c in range(k)]
            except ValueError:
                raise DataError(f"{path} line {r}: head {name!r} has a non-numeric "
                                f"cell in {row[j:j + 1 + k]}") from None
            if not np.isfinite(p).all():
                raise DataError(f"{path} line {r}: head {name!r} has a non-finite probability")
            if not 0 <= grade < k:
                raise DataError(f"{path} line {r}: head {name!r} grade {grade} outside [0, {k - 1}]")
            grades[name].append(grade)
            probs[name].append(p)
            j += 1 + k
    grades = {n: np.array(v, dtype=np.int64) for n, v in grades.items()}
    probs = {n: np.array(probs[n], dtype=np.float32).reshape(len(exam_ids), k)
             for n, k in head_specs}
    return exam_ids, head_specs, probs, grades
