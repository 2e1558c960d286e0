"""Optimizer, learning-rate schedules, pretraining, and the per-fold training loop.

Two schedules are supported. ``transfer`` starts from pretrained backbone
weights: a short warm phase trains the heads alone at a high rate while the
backbone stays frozen (bit-identical, running stats included), then the whole
network thaws at a reduced rate, then drops to a low rate for the remainder.
``scratch`` trains everything from the first step at a low rate with two
tenfold drops late in the run.

Pretraining runs ``scratch`` on one auxiliary head; ``PretrainConfig`` holds
what it reads, and ``TrainConfig`` adds the transfer stages and head weights.

Every epoch ends with a validation pass; the epoch with the best mean
quadratic kappa across heads wins, later epochs winning ties. The winner's
full state is kept as the fold snapshot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .data import SAMPLERS, epoch_indices
from .errors import (ConfigurationError, DataError, MetricUndefinedError, TrainingError,
                     WeightLoadError)
from .metrics import balanced_accuracy, cohen_kappa
from .model import ModelConfig, OARSI_TASKS, backbone_checksum, build_model, save_backbone_weights
from .preprocess import AugmentConfig, augment, standardize
from .report import read_sidecar, write_sidecar
from .serialize import load_tensors, save_tensors, write_atomic
from .tensor import Tensor

AUX_HEAD = "aux"
AUX_CLASSES = 4


@dataclass(frozen=True)
class PretrainConfig:
    """What pretraining reads: the scratch schedule, Adam, and the data handling."""
    SCHEDULES = ("scratch",)    # unannotated, so a class constant and not a key
    schedule: str = "scratch"
    epochs: int = 5
    batch_size: int = 32
    # scratch stage
    lr_scratch: float = 1e-4
    scratch_drops: tuple[int, ...] = (10, 15)
    drop_factor: float = 10.0
    # Adam
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    # data handling
    sampler: str = "kl_balanced"
    augment: bool = True
    aug: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.schedule not in self.SCHEDULES:
            raise ConfigurationError(f"schedule must be one of {self.SCHEDULES}")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        for f in fields(self):
            if f.name.startswith("lr_") and getattr(self, f.name) <= 0:
                raise ConfigurationError(f"{f.name} must be positive")
        if self.drop_factor <= 0:
            raise ConfigurationError("drop_factor must be positive")
        if any(d < 1 for d in self.scratch_drops):
            raise ConfigurationError("scratch_drops must be epochs >= 1")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigurationError("Adam betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigurationError("eps must be positive")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be >= 0")
        if self.sampler not in SAMPLERS:
            raise ConfigurationError(f"sampler must be one of {SAMPLERS}")


@dataclass(frozen=True)
class TrainConfig(PretrainConfig):
    SCHEDULES = ("transfer", "scratch")
    schedule: str = "transfer"
    epochs: int = 20
    # transfer stages: heads-only, thawed, late
    lr_heads: float = 1e-2
    lr_thaw: float = 1e-3
    lr_late: float = 1e-4
    head_epochs: int = 2
    thaw_epochs: int = 1
    task_weights: tuple[tuple[str, float], ...] = ()   # unlisted heads get 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.head_epochs < 0 or self.thaw_epochs < 0:
            raise ConfigurationError("head_epochs and thaw_epochs must be >= 0")
        if self.schedule == "transfer" and self.epochs < self.head_epochs + self.thaw_epochs:
            raise ConfigurationError(
                "transfer schedule needs at least "
                f"{self.head_epochs + self.thaw_epochs} epochs to reach the thaw stage")
        for name, w in self.task_weights:
            if w < 0:
                raise ConfigurationError(f"task weight for {name!r} must be >= 0")

    def weight_for(self, head_name):
        for name, w in self.task_weights:
            if name == head_name:
                return float(w)
        return 1.0


def schedule_lr(cfg, epoch):
    """Learning rate and backbone trainability for a 1-based epoch number."""
    if epoch < 1 or epoch > cfg.epochs:
        raise ConfigurationError(f"epoch {epoch} outside [1, {cfg.epochs}]")
    if cfg.schedule == "transfer":
        if epoch <= cfg.head_epochs:
            return cfg.lr_heads, False
        if epoch <= cfg.head_epochs + cfg.thaw_epochs:
            return cfg.lr_thaw, True
        return cfg.lr_late, True
    drops = sum(epoch > d for d in cfg.scratch_drops)
    return cfg.lr_scratch / cfg.drop_factor ** drops, True


# ---------------------------------------------------------------------------
# optimizer


class Adam(object):
    """Adam with coupled L2 decay (decay added into the gradient).

    Bias-correction steps are counted per parameter, so a tensor that thaws
    mid-run takes a clean full-size first step. Frozen parameters are skipped
    entirely: no update and no state advance. With fresh state the step size
    is lr * g / (|g| + eps), so the first update moves each coordinate by
    almost exactly lr.
    """

    def __init__(self, named_params, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.named = list(named_params)
        seen = set()
        for name, _ in self.named:
            if name in seen:
                raise ConfigurationError(f"duplicate parameter name {name!r}")
            seen.add(name)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.state = {}

    def step(self):
        for name, p in self.named:
            if not p.requires_grad or p.grad is None:
                continue
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in {name}")
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            st = self.state.get(name)
            if st is None:
                st = [np.zeros_like(p.data), np.zeros_like(p.data), 0]
                self.state[name] = st
            st[2] += 1
            # in place, the operations of theta - lr * m_hat / (sqrt(v_hat) + eps) in order
            m, v, t = st
            tmp = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += tmp
            np.multiply(g, 1.0 - self.beta2, out=tmp)
            tmp *= g
            v *= self.beta2
            v += tmp
            denom = np.sqrt(np.divide(v, 1.0 - self.beta2 ** t, out=tmp), out=tmp)
            denom += self.eps
            upd = m / (1.0 - self.beta1 ** t)
            upd *= self.lr
            p.data -= np.divide(upd, denom, out=upd)


# ---------------------------------------------------------------------------
# losses and targets


def multi_task_loss(logits, targets, weights=None):
    """Weighted sum of per-head cross entropies (scalar Tensor).

    With all-equal logits and unit weights this evaluates to
    sum(log(n_classes)) over the heads, which is the natural "knows nothing"
    anchor when reading training curves.
    """
    if len(logits) != len(targets):
        raise ConfigurationError(
            f"{len(logits)} heads but {len(targets)} target arrays")
    if not logits:
        raise ConfigurationError("loss over zero heads")
    total = None
    for i, (lg, tg) in enumerate(zip(logits, targets)):
        term = T.cross_entropy(lg, tg)
        w = 1.0 if weights is None else float(weights[i])
        if w != 1.0:
            term = T.scale(term, w)
        total = term if total is None else T.add(total, term)
    return total


def severity_bucket(exam):
    """Pretraining label: the six compartment grades summed, then bucketed.

    0 -> 0, 1..3 -> 1, 4..8 -> 2, 9+ -> 3.
    """
    total = sum(exam.grade(name) for name in OARSI_TASKS)
    if total == 0:
        return 0
    if total <= 3:
        return 1
    if total <= 8:
        return 2
    return 3


def targets_for(exams, head_names):
    """Per-head int label arrays aligned with ``exams``."""
    out = []
    for name in head_names:
        if name == AUX_HEAD:
            out.append(np.array([severity_bucket(e) for e in exams], dtype=np.int64))
        else:
            out.append(np.array([e.grade(name) for e in exams], dtype=np.int64))
    return out


# ---------------------------------------------------------------------------
# batching and evaluation


def batch_images(images, exams, idxs, rng=None, aug_cfg=None):
    """Float32 model inputs [N, 1, S, S] for ``exams[idxs]``.

    Each cached [0, 1] grid is augmented when ``aug_cfg`` is given, then
    standardized here, so training and evaluation inputs share one path.
    """
    planes = []
    for i in idxs:
        grid = images[exams[i].exam_id].grid01
        if aug_cfg is not None:
            grid = augment(grid, rng, aug_cfg)
        planes.append(standardize(grid))
    return np.stack(planes)[:, None, :, :]


# Inference runs at most this many bytes of stem output at a time: 8 images
# at 128 px, a whole 32-image batch at 64 px. The stem output is the widest
# activation, so a batch's arrays stay a few times this size instead of
# growing with the batch. No eval-mode op mixes images. At 64 and 128 px each
# conv unit gives an image the same bits in any batch, but ``T.linear`` (SE
# gates, heads) rounds by row count, so logits agree with one whole-batch
# forward to float32 rounding, not bit for bit.
_INFER_STEM_BYTES = 8 << 20


def batched_logits(model, exams, images, reduce, batch_size=32):
    """Per-head ``reduce(logits)`` over ``exams``, concatenated in exam order.

    The one inference loop: validation and ensemble prediction both run it.
    Batches of at most ``batch_size`` images, fewer when their stem output
    would pass ``_INFER_STEM_BYTES``, go through the model in eval mode under
    ``no_grad``, so no graph is recorded and each batch's activations are
    freed before the next batch starts. The model is left in eval mode.
    """
    model.eval()
    step = batch_size
    if exams:
        h, w = images[exams[0].exam_id].grid01.shape
        step = max(1, min(batch_size, _INFER_STEM_BYTES // model.backbone.stem_bytes(h, w)))
    chunks = {name: [] for name in model.head_names}
    with T.no_grad():
        for start in range(0, len(exams), step):
            idxs = range(start, min(start + step, len(exams)))
            x = Tensor(batch_images(images, exams, idxs))
            for name, lg in zip(model.head_names, model(x)):
                chunks[name].append(reduce(lg.data))
    return {name: np.concatenate(parts) for name, parts in chunks.items()}


def validation_metrics(model, exams, images, batch_size=32):
    """Quadratic kappa and balanced accuracy per head, plus their kappa mean.

    A head whose metric is undefined on this sample (validation folds can be
    tiny) scores 0.0 rather than aborting the run. The model is left in eval
    mode.
    """
    preds = batched_logits(model, exams, images, lambda z: np.argmax(z, axis=1), batch_size)
    truths = targets_for(exams, model.head_names)
    out = {}
    kappas = []
    for (name, k), y_true in zip(model.head_specs(), truths):
        y_pred = preds[name]
        try:
            kap = cohen_kappa(y_true, y_pred, k, "quadratic")
        except MetricUndefinedError:
            kap = 0.0
        try:
            ba = balanced_accuracy(y_true, y_pred, k)
        except MetricUndefinedError:
            ba = 0.0
        out[f"kappa_{name}"] = kap
        out[f"ba_{name}"] = ba
        kappas.append(kap)
    out["mean_kappa"] = float(np.mean(kappas))
    return out


def select_snapshot(mean_kappas):
    """Index of the winning epoch: highest value, ties going to the later one."""
    if not mean_kappas:
        raise ConfigurationError("no epochs to select from")
    best = 0
    for i, v in enumerate(mean_kappas):
        if v >= mean_kappas[best]:
            best = i
    return best


# ---------------------------------------------------------------------------
# snapshots


@dataclass
class Snapshot:
    """One trained fold: full model state plus the context to rebuild it.

    ``path`` is the file it was loaded from, None for one held in memory.
    A loaded snapshot keeps ``weights`` None and reads them from ``path``
    whenever they are asked for, so holding snapshots costs their sidecars,
    not their model states.
    """
    weights: dict | None
    meta: dict
    path: str | None = field(default=None, compare=False)

    def arrays(self):
        """The model state: the held weights, or a fresh read of ``path``."""
        return self.weights if self.weights is not None else load_tensors(self.path)

    def save(self, path):
        path = str(path)
        save_tensors(path, self.arrays())
        write_sidecar(path, self.meta)
        return path

    @classmethod
    def load(cls, path):
        """The snapshot at ``path``; DataError naming its sidecar when that
        lacks a key the readers index, or holds one of the wrong type.

        The weight file is read in full here, so a corrupt one is refused
        before any work, but its arrays are not kept (see the class).
        """
        path = str(path)
        load_tensors(path)
        meta = read_sidecar(path)
        where = f"{path}.meta.json"
        heads = meta.get("heads")
        if not (isinstance(heads, list) and all(
                isinstance(h, list) and len(h) == 2 and isinstance(h[0], str)
                and type(h[1]) is int for h in heads)):
            raise DataError(f"{where}: 'heads' must be a list of [str, int] pairs, got {heads!r}")
        if not isinstance(meta.get("model_config"), dict):
            raise DataError(f"{where}: 'model_config' must be an object, "
                            f"got {meta.get('model_config')!r}")
        if type(meta.get("seed")) is not int:
            raise DataError(f"{where}: 'seed' must be an int, got {meta.get('seed')!r}")
        return cls(weights=None, meta=meta, path=path)


def snapshot_model(snapshot):
    """Rebuild the trained model a snapshot was taken from.

    A model config or weights the model refuses are an error naming the
    snapshot's file, when it came from one.
    """
    from .config import from_doc    # config imports this module
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


# ---------------------------------------------------------------------------
# training loops


@dataclass
class FoldResult:
    snapshot: Snapshot
    history: list
    lr_by_epoch: list
    backbone_checksums: list


def _epoch_rngs(seed, fold, epoch, stream=5):
    sampler = np.random.default_rng(np.random.SeedSequence([seed, stream, fold, epoch, 0]))
    aug = np.random.default_rng(np.random.SeedSequence([seed, stream, fold, epoch, 1]))
    return sampler, aug


def _train_step(model, opt, x, targets, weights):
    """One optimizer step on the batch ``x``; returns the loss as a float.

    The heads' losses are summed into one scalar before ``T.backward``,
    which consumes the graph as it walks it: each node's closure, and the
    arrays it keeps, is freed as soon as it has run. This frame holds only
    the loss's value after that, so nothing of the graph reaches the next
    batch's forward.
    """
    loss = multi_task_loss(model(x), targets, weights)
    model.zero_grad()
    T.backward(loss)
    opt.step()
    return float(loss.data)


def _train_one_epoch(model, opt, exams, images, targets, weights, cfg, rng_sampler, rng_aug):
    model.train()
    idxs = epoch_indices(exams, cfg.sampler, rng_sampler)
    aug_cfg = cfg.aug if cfg.augment else None
    total = 0.0
    seen = 0
    for start in range(0, len(idxs), cfg.batch_size):
        batch = idxs[start:start + cfg.batch_size]
        x = Tensor(batch_images(images, exams, batch, rng_aug, aug_cfg))
        loss = _train_step(model, opt, x, [t[batch] for t in targets], weights)
        total += loss * len(batch)
        seen += len(batch)
    return total / seen


def _log_rows_to_csv(path, head_names, history):
    cols = ["epoch", "lr", "train_loss"]
    cols += [f"kappa_{n}" for n in head_names]
    cols += [f"ba_{n}" for n in head_names]
    cols += ["mean_kappa"]
    lines = [",".join(cols)]
    for row in history:
        cells = [str(row["epoch"]), repr(row["lr"])]
        cells += [f"{row[c]:.6f}" for c in cols[2:]]
        lines.append(",".join(cells))
    write_atomic(path, "\n".join(lines) + "\n")


def run_fold(model, train_exams, val_exams, images, cfg, seed, fold=0,
             out_dir=None, meta=None, log=None):
    """Train one fold end to end and return its best-epoch snapshot.

    ``images`` maps exam_id to a preprocessed NormalizedImage covering both
    exam lists. ``meta`` entries (config hash, model config doc, ...) are
    carried into the snapshot sidecar. ``log`` is an optional callable taking
    one line of text per epoch.
    """
    if not train_exams or not val_exams:
        raise ConfigurationError("run_fold needs non-empty train and val sets")
    missing = [e.exam_id for e in list(train_exams) + list(val_exams)
               if e.exam_id not in images]
    if missing:
        raise ConfigurationError(
            f"{len(missing)} exams lack preprocessed images, first: {missing[0]}")
    seed = int(seed)
    model.reseed_dropout(
        int(np.random.SeedSequence([seed, 4, fold]).generate_state(1)[0]))
    opt = Adam(model.named_parameters(), lr=cfg.lr_late, beta1=cfg.beta1,
               beta2=cfg.beta2, eps=cfg.eps, weight_decay=cfg.weight_decay)
    train_targets = targets_for(train_exams, model.head_names)
    weights = [cfg.weight_for(name) for name in model.head_names]

    history = []
    lr_by_epoch = []
    checksums = []
    best_idx = -1
    best_weights = None
    for epoch in range(1, cfg.epochs + 1):
        lr, trainable = schedule_lr(cfg, epoch)
        if cfg.schedule == "transfer":
            model.backbone.set_trainable(trainable)
        opt.lr = lr
        rng_sampler, rng_aug = _epoch_rngs(seed, fold, epoch)
        train_loss = _train_one_epoch(model, opt, train_exams, images, train_targets,
                                      weights, cfg, rng_sampler, rng_aug)
        metrics = validation_metrics(model, val_exams, images, cfg.batch_size)
        row = {"epoch": epoch, "lr": lr, "train_loss": train_loss}
        row.update(metrics)
        history.append(row)
        lr_by_epoch.append(lr)
        checksums.append(backbone_checksum(model))
        if select_snapshot([r["mean_kappa"] for r in history]) == epoch - 1:
            best_idx = epoch - 1
            best_weights = {k: v.copy() for k, v in model.state_arrays().items()}
        if log is not None:
            log(f"fold {fold} epoch {epoch}/{cfg.epochs} lr={lr:g} "
                f"loss={train_loss:.4f} mean_kappa={metrics['mean_kappa']:.4f}")

    best = history[best_idx]
    snap_meta = {
        "fold": fold,
        "epoch": best["epoch"],
        "seed": seed,
        "schedule": cfg.schedule,
        "model_config": model.config.to_dict(),
        "heads": [list(spec) for spec in model.head_specs()],
        "metrics": {k: v for k, v in best.items() if k not in ("epoch", "lr")},
    }
    if meta:
        snap_meta.update(meta)
    snapshot = Snapshot(weights=best_weights, meta=snap_meta)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _log_rows_to_csv(os.path.join(out_dir, f"train_log_fold{fold}.csv"),
                         model.head_names, history)
        snapshot.save(os.path.join(out_dir, f"snapshot_fold{fold}.kgw"))
    return FoldResult(snapshot=snapshot, history=history,
                      lr_by_epoch=lr_by_epoch, backbone_checksums=checksums)


def pretrain_backbone(exams, images, model_config, cfg, seed, out_path,
                      log=None):
    """Train the auxiliary single-head task and save the backbone weights.

    The head predicts the severity bucket (see severity_bucket) so the
    backbone learns joint-space and margin texture before the real heads
    exist. ``cfg`` is a ``PretrainConfig``, or a scratch ``TrainConfig`` whose
    transfer keys and head weights go unread.
    """
    if cfg.schedule != "scratch":
        raise ConfigurationError("pretraining uses the scratch schedule")
    if not exams:
        raise ConfigurationError("pretraining needs a non-empty exam list")
    seed = int(seed)
    model = build_model(model_config, seed, heads_override=[(AUX_HEAD, AUX_CLASSES)])
    opt = Adam(model.named_parameters(), lr=cfg.lr_scratch, beta1=cfg.beta1,
               beta2=cfg.beta2, eps=cfg.eps, weight_decay=cfg.weight_decay)
    targets = targets_for(exams, model.head_names)
    for epoch in range(1, cfg.epochs + 1):
        opt.lr, _ = schedule_lr(cfg, epoch)
        rng_sampler, rng_aug = _epoch_rngs(seed, 0, epoch, stream=6)
        loss = _train_one_epoch(model, opt, exams, images, targets, None, cfg,
                                rng_sampler, rng_aug)
        if log is not None:
            log(f"pretrain epoch {epoch}/{cfg.epochs} lr={opt.lr:g} loss={loss:.4f}")
    save_backbone_weights(model, out_path)
    return model
