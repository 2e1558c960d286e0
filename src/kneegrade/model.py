"""Multi-task model: shared backbone, pooled features, one FC head per task.

Head order is fixed so logits, losses, metrics, and reports always line up:
KL (5 classes), then lateral/medial femoral and tibial osteophytes, then
lateral/medial joint-space narrowing (4 classes each). ``include_kl_head``
drops the KL head and leaves the six OARSI heads untouched.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .blocks import Backbone, BlockSpec, PoolHead, PoolingSpec, StemSpec
from .errors import ConfigurationError, DataError
from .nn import Dropout, Linear, Module
from .serialize import load_tensors, save_tensors

KL_TASK = "KL"
OARSI_TASKS = ("FO_L", "FO_M", "TO_L", "TO_M", "JSN_L", "JSN_M")
TASK_CLASSES = {"KL": 5, "FO_L": 4, "FO_M": 4, "TO_L": 4, "TO_M": 4, "JSN_L": 4, "JSN_M": 4}


def task_names(include_kl=True):
    return ((KL_TASK,) if include_kl else ()) + OARSI_TASKS


def default_blocks():
    """Four basic SE stages of one block each, 16/32/64/128 channels, stride 2 from stage 2."""
    widths = (16, 32, 64, 128)
    return [BlockSpec(kind="basic", in_channels=cin, out_channels=cout,
                      stride=1 if i == 0 else 2, se_enabled=True)
            for i, (cin, cout) in enumerate(zip((16,) + widths, widths))]


@dataclass(frozen=True)
class ModelConfig:
    stem: StemSpec = field(default_factory=StemSpec)
    blocks: tuple[BlockSpec, ...] = field(default_factory=lambda: tuple(default_blocks()))
    pooling: PoolingSpec = field(default_factory=PoolingSpec)
    dropout_p: float = 0.5
    include_kl_head: bool = True

    def heads(self):
        return [(name, TASK_CLASSES[name]) for name in task_names(self.include_kl_head)]

    def __post_init__(self):
        if not self.blocks:
            raise ConfigurationError("model needs at least one residual block")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigurationError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")

    def to_dict(self):
        return asdict(self)


def config_hash(doc):
    """sha256 over the canonical JSON form of any config mapping."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class MultiTaskModel(Module):
    def __init__(self, config: ModelConfig, rng, dtype=np.float32, heads_override=None):
        super().__init__()
        self.config = config
        self.backbone = Backbone(config.stem, list(config.blocks), rng, dtype=dtype)
        self.pool = PoolHead(self.backbone.out_channels, config.pooling, rng, dtype=dtype)
        self.head_names = []
        self._heads = []
        specs = heads_override if heads_override is not None else config.heads()
        seen = set()
        for name, classes in specs:
            if name in seen:
                raise ConfigurationError(f"duplicate head name {name!r}")
            seen.add(name)
            if name in TASK_CLASSES and classes != TASK_CLASSES[name]:
                raise ConfigurationError(
                    f"head {name!r} must have {TASK_CLASSES[name]} classes, got {classes}")
            drop = Dropout(config.dropout_p)
            head = Linear(self.backbone.out_channels, classes, rng, dtype=dtype)
            self.add_child(f"drop_{name}", drop)
            self.add_child(f"head_{name}", head)
            self.head_names.append(name)
            self._heads.append((drop, head))

    def reseed_dropout(self, seed):
        """Give each dropout layer an independent stream derived from ``seed``."""
        for i, (drop, _) in enumerate(self._heads):
            drop.rng = np.random.default_rng(np.random.SeedSequence([seed, i]))

    def head_specs(self):
        """(name, n_classes) per head, in forward order."""
        return [(name, int(head.weight.data.shape[0]))
                for name, (_, head) in zip(self.head_names, self._heads)]

    def features(self, x):
        if x.ndim != 4 or x.shape[1] != 1:
            raise DataError(f"expected [N, 1, H, W] radiograph batch, got {tuple(x.shape)}")
        return self.pool(self.backbone(x))

    def forward(self, x):
        """Returns one logits Tensor per head, in ``head_names`` order."""
        feats = self.features(x)
        return [head(drop(feats)) for drop, head in self._heads]


def build_model(config, seed, dtype=np.float32, heads_override=None):
    """Deterministic construction: same (config, seed) -> identical weights."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6d6f64]))
    model = MultiTaskModel(config, rng, dtype=dtype, heads_override=heads_override)
    model.reseed_dropout(int(seed))
    return model


BACKBONE_PREFIX = "backbone."


def save_backbone_weights(model, path):
    save_tensors(path, model.backbone.state_arrays(BACKBONE_PREFIX))


def load_backbone_weights(model, path):
    """Load a backbone container; names and shapes must match exactly."""
    model.backbone.load_state_arrays(load_tensors(path), BACKBONE_PREFIX)
    return model


def backbone_checksum(model):
    """sha256 over every backbone parameter and buffer, for freeze checks."""
    h = hashlib.sha256()
    arrays = model.backbone.state_arrays(BACKBONE_PREFIX)
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()

