"""One JSON document that drives a whole run, with defaults for every field.

The document is hashed (sha256 of its fully-expanded canonical form). Each
artifact a run produces is stamped with the hash of the part of the document
its stage depends on, so a later stage can refuse inputs born from a
different configuration without refusing them over keys they never read.
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

from .data import SynthConfig
from .errors import ConfigurationError
from .model import ModelConfig, config_hash
from .preprocess import PreprocessConfig
from .training import PretrainConfig, TrainConfig

# Top-level keys each stage reads, its own and its upstream stages'. An
# artifact carries the hash of its stage's subtree, so a guard fires only on
# a change the artifact depends on.
STAGE_KEYS = {
    "synth": ("seed", "synth"),
    "preprocess": ("preprocess",),
    "pretrain": ("seed", "preprocess", "model", "pretrain"),
    "train": ("seed", "n_folds", "preprocess", "model", "pretrain", "train"),
}


def from_doc(cls, doc, where):
    """Build config dataclass ``cls`` from a JSON mapping; absent keys keep defaults.

    Every value is checked against its field's declared type, recursing into
    nested config dataclasses and tuples. ``where`` is the dotted path of
    ``doc`` in the run config ("" at the root) and prefixes every error, the
    range checks ``cls`` makes on construction included.
    """
    label = where or "run config"
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{label} must be a mapping, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"{label}: unknown keys {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"{label}: missing keys {missing}")
    prefix = f"{where}." if where else ""
    hints = typing.get_type_hints(cls)
    values = {key: _from_json(hints[key], value, prefix + key) for key, value in doc.items()}
    try:
        return cls(**values)
    except ConfigurationError as exc:
        if not where:
            raise
        raise ConfigurationError(f"{where}: {exc}") from None


def _from_json(tp, value, where):
    if is_dataclass(tp):
        return from_doc(tp, value, where)
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{where} must be a list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigurationError(f"{where} must have {len(args)} items, got {len(value)}")
        return tuple(_from_json(t, v, f"{where}[{i}]")
                     for i, (t, v) in enumerate(zip(args, value)))
    if tp is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)    # an int is a valid float, stored as one
    if not isinstance(value, tp) or (isinstance(value, bool) and tp is not bool):
        raise ConfigurationError(
            f"{where} must be {tp.__name__}, got {type(value).__name__} {value!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    n_folds: int = 5
    synth: SynthConfig = field(default_factory=SynthConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    n_bootstrap: int = 100
    ci_level: float = 0.95

    def __post_init__(self):
        if self.n_folds < 2:
            raise ConfigurationError("n_folds must be >= 2")
        if self.n_bootstrap < 1:
            raise ConfigurationError("n_bootstrap must be >= 1")
        if not 0.5 < self.ci_level < 1.0:
            raise ConfigurationError(f"ci_level {self.ci_level} outside (0.5, 1)")
        heads = [name for name, _ in self.model.heads()]
        for name, _ in self.train.task_weights:
            if name not in heads:
                raise ConfigurationError(
                    f"train.task_weights names {name!r}, which is not a head of this model {heads}")

    def stage_hash(self, stage):
        """Hash of the subtree ``stage`` and its upstream stages read."""
        doc = asdict(self)
        if stage == "pretrain":
            # pretraining swaps in its own head, so the backbone never sees
            # which grading heads the model will carry
            del doc["model"]["include_kl_head"]
        return config_hash({key: doc[key] for key in STAGE_KEYS[stage]})


def load_run_config(path=None, overrides=None):
    """Config file (JSON) plus optional top-level overrides, validated.

    ``path=None`` starts from the all-defaults document. ``overrides`` wins
    over the file; both go through the same unknown-key checks.
    """
    doc = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:       # undecodable bytes or malformed JSON
                raise ConfigurationError(f"{path}: not valid JSON ({exc})") from None
    if overrides:
        doc = _merge(doc, overrides)
    return from_doc(RunConfig, doc, "")


def _merge(base, extra):
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out
