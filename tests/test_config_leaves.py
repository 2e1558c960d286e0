"""Every leaf of the run config has an effect, and is hashed only where it is read.

The walk changes each leaf of the default ``RunConfig`` in turn, under the
condition that makes it live where it has one, and checks that:

(a) exactly the stage hashes whose ``STAGE_KEYS`` hold its top-level key
    move, except that ``model.include_kl_head`` stays out of the pretrain
    hash;
(b) the first artifact that reads it changes bytes, on a tiny CLI run
    (32 px, 20 exams, 2 folds) that reuses the unchanged upstream
    artifacts. A config hash or the report's timestamp does not count as a
    change.

The entries of ``model.blocks`` share one set of leaves, a BlockSpec's
fields, tried on the tiny model's two blocks.
"""

import hashlib
import json
import re
from dataclasses import fields, is_dataclass

import pytest

from kneegrade import cli
from kneegrade.config import STAGE_KEYS, RunConfig, from_doc

BASE = {
    "seed": 3,
    "n_folds": 2,
    "synth": {"image_side": 32},
    "preprocess": {"target_side": 32},
    "model": {
        "stem": {"out_channels": 8},
        "blocks": [
            {"kind": "basic", "in_channels": 8, "out_channels": 8},
            {"kind": "basic", "in_channels": 8, "out_channels": 16, "stride": 2},
        ],
        "dropout_p": 0.25,
    },
    # transfer from the pretrained backbone: 2 heads-only epochs, 1 thawed,
    # in two steps each, so an epoch's loss shows that epoch's first step
    "train": {"epochs": 3, "batch_size": 8},
    "pretrain": {"epochs": 1, "batch_size": 16},
    "n_bootstrap": 20,
}
# Four exams per subject give every knee a follow-up, where grades progress.
SYNTH_ARGS = ("--subjects", "5", "--exams-per-subject", "4")

# The stage whose artifact first reads each top-level key.
FIRST_READER = {"seed": "synth", "synth": "synth", "preprocess": "preprocess",
                "model": "pretrain", "pretrain": "pretrain", "n_folds": "train",
                "train": "train", "n_bootstrap": "evaluate", "ci_level": "evaluate"}
STAGES = ("synth", "preprocess", "pretrain", "train", "predict", "evaluate")
ARTIFACTS = {"synth": ("data/**/*",), "preprocess": ("cache/images.kgw*",),
             "pretrain": ("backbone.kgw",),
             "train": ("folds/snapshot_fold*.kgw", "folds/train_log_fold*.csv"),
             "evaluate": ("report/metrics.json",)}


def live(path, value, when=None, also=None):
    """Leaf ``path`` set to ``value``, with the ``also`` changes a valid
    config needs alongside it, under the ``when`` overlay that makes it live."""
    return pytest.param(path, value, also or {}, when or {}, id=path)


SCRATCH = {"train.schedule": "scratch", "train.scratch_drops": [1]}
PRETRAIN_DROP = {"pretrain.epochs": 2, "pretrain.scratch_drops": [1]}
BOTTLENECK = {"model.blocks[0].kind": "bottleneck", "model.blocks[0].group_width": 2}


def _aug(block):
    return [live(f"{block}.aug.crop_ratio", 0.9), live(f"{block}.aug.noise_sigma", 0.05),
            live(f"{block}.aug.gamma_low", 0.8), live(f"{block}.aug.gamma_high", 1.2)]


LEAVES = [
    live("seed", 4),
    live("n_folds", 3),
    live("synth.image_side", 40),
    live("synth.spacing_mm", 4.0),        # derived: 140 mm over 32 px
    live("synth.gap_base_px", 5.0),       # derived: 4
    live("synth.band_px", 3),             # derived: 2
    live("synth.blob_px", 2.5),           # derived: 1.6
    live("synth.noise_sigma", 0.03),
    live("synth.max_rotation_deg", 5.0),
    live("synth.grade_probs", [0.25, 0.25, 0.25, 0.25]),
    live("synth.progression_p", 0.9),     # live at follow-ups (SYNTH_ARGS)
    live("preprocess.target_side", 24),
    live("preprocess.roi_mm", 120.0),
    live("preprocess.clip_low", 2.0),
    live("preprocess.clip_high", 98.0),
    live("model.stem.out_channels", 4, also={"model.blocks[0].in_channels": 4}),
    live("model.stem.kernel", 5),
    live("model.stem.stride", 2),
    live("model.stem.pool", 0),
    live("model.blocks[0].kind", "bottleneck"),
    live("model.blocks[1].in_channels", 4, also={"model.blocks[0].out_channels": 4}),
    live("model.blocks[1].out_channels", 24),
    live("model.blocks[0].stride", 2),
    live("model.blocks[0].groups", 2, when=BOTTLENECK),
    live("model.blocks[0].group_width", 4, when={**BOTTLENECK, "model.blocks[0].groups": 2}),
    live("model.blocks[1].se_enabled", True),
    live("model.blocks[1].se_reduction", 8, when={"model.blocks[1].se_enabled": True}),
    live("model.pooling.kind", "gwap"),
    live("model.pooling.hidden_width", 8,
         when={"model.pooling.kind": "gwap_hidden", "model.pooling.hidden_width": 4}),
    live("model.dropout_p", 0.1),
    live("model.include_kl_head", False),
    live("train.schedule", "scratch"),
    live("train.epochs", 4),
    live("train.batch_size", 4),
    live("train.lr_heads", 0.02),
    live("train.lr_thaw", 0.002),
    live("train.lr_late", 0.001, when={"train.epochs": 4}),
    live("train.head_epochs", 1),
    live("train.thaw_epochs", 0),
    live("train.lr_scratch", 0.001, when=SCRATCH),
    live("train.scratch_drops", [2], when=SCRATCH),
    live("train.drop_factor", 2.0, when=SCRATCH),
    live("train.beta1", 0.8),
    live("train.beta2", 0.99),
    live("train.eps", 1e-4),
    live("train.weight_decay", 0.01),
    live("train.sampler", "none"),
    live("train.augment", False),
    *_aug("train"),
    live("train.task_weights", [["KL", 2.0]]),
    live("pretrain.epochs", 2),
    live("pretrain.batch_size", 8),
    live("pretrain.lr_scratch", 0.001),
    # with the default 5 epochs and drops at 10 and 15 no drop ever fires
    live("pretrain.scratch_drops", [2], when=PRETRAIN_DROP),
    live("pretrain.drop_factor", 2.0, when=PRETRAIN_DROP),
    live("pretrain.beta1", 0.8),
    live("pretrain.beta2", 0.99),
    live("pretrain.eps", 1e-4),
    live("pretrain.weight_decay", 0.01),
    live("pretrain.sampler", "none"),
    live("pretrain.augment", False),
    *_aug("pretrain"),
    live("n_bootstrap", 30),
    live("ci_level", 0.9),
]
# Leaves with one valid value, so nothing to perturb; test_config checks that
# every other value is refused.
FIXED = ("pretrain.schedule",)


def _leaf_paths(value, path=""):
    if is_dataclass(value):
        for f in fields(value):
            yield from _leaf_paths(getattr(value, f.name), f"{path}.{f.name}" if path else f.name)
    elif isinstance(value, tuple) and value and is_dataclass(value[0]):
        for item in value:
            yield from _leaf_paths(item, path + "[]")
    else:
        yield path


def _with(doc, changes):
    """A copy of ``doc`` with each dotted ``path[i]`` in ``changes`` set."""
    doc = json.loads(json.dumps(doc))
    for path, value in changes.items():
        keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
        node = doc
        for key in keys[:-1]:
            node = node[key] if isinstance(key, int) else node.setdefault(key, {})
        node[keys[-1]] = value
    return doc


def _strip(doc):
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k not in ("config_hash", "generated_at")}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def _digest(root, patterns):
    """sha256 over the files ``patterns`` match, config hashes and timestamps left out."""
    h = hashlib.sha256()
    paths = sorted(p for pattern in patterns for p in root.glob(pattern) if p.is_file())
    assert paths, f"{root} has no {patterns}"
    for path in paths:
        data = path.read_bytes()
        if path.name.endswith(".json"):
            data = json.dumps(_strip(json.loads(data)), sort_keys=True).encode()
        elif path.name.startswith("train_log"):
            # its lr column echoes the schedule; the losses and kappas show its effect
            rows = [line.split(",") for line in data.decode().splitlines()]
            lr = rows[0].index("lr")
            data = "\n".join(",".join(r[:lr] + r[lr + 1:]) for r in rows).encode()
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
    return h.hexdigest()


class Pipeline:
    """The base run of every stage, and single stages rerun on its upstream artifacts."""

    def __init__(self, root):
        self.root = root
        self.base = root / "base"
        self.digests = {}
        for stage in STAGES:
            self._run(stage, BASE, self.base)

    def _run(self, stage, doc, out):
        out.mkdir(parents=True, exist_ok=True)
        config = out / f"{stage}.json"
        config.write_text(json.dumps(doc))
        b, manifest = self.base, self.base / "cache" / "manifest.csv"
        args = {
            "synth": ["--out", out / "data", *SYNTH_ARGS],
            "preprocess": ["--manifest", b / "data" / "manifest.csv", "--out", out / "cache"],
            "pretrain": ["--manifest", manifest, "--images", b / "cache",
                         "--out", out / "backbone.kgw"],
            "train": ["--manifest", manifest, "--images", b / "cache",
                      "--pretrained", b / "backbone.kgw", "--out", out / "folds"],
            "predict": ["--manifest", manifest, "--images", b / "cache",
                        "--snapshots", b / "folds", "--out", out / "preds.csv"],
            "evaluate": ["--manifest", manifest, "--predictions", b / "preds.csv",
                         "--out", out / "report"],
        }[stage]
        argv = [stage, "--config", str(config)] + [str(a) for a in args]
        assert cli.main(argv) == 0, argv
        if stage in ARTIFACTS:
            self.digests[stage, json.dumps(doc, sort_keys=True)] = _digest(out, ARTIFACTS[stage])

    def artifact(self, stage, doc):
        """Digest of ``stage``'s artifact under ``doc``, running the stage if needed."""
        key = (stage, json.dumps(doc, sort_keys=True))
        if key not in self.digests:
            self._run(stage, doc, self.root / f"run{len(self.digests)}")
        return self.digests[key]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return Pipeline(tmp_path_factory.mktemp("leaves"))


def _stage_hashes(doc):
    cfg = from_doc(RunConfig, doc, "")
    return {stage: cfg.stage_hash(stage) for stage in STAGE_KEYS}


@pytest.mark.parametrize("path,value,also,when", LEAVES)
def test_leaf_moves_its_stage_hashes_and_its_first_artifact(pipeline, path, value, also, when):
    before = _with(BASE, when)
    after = _with(before, {path: value, **also})
    top = re.match(r"\w+", path).group()
    moved = {stage for stage, keys in STAGE_KEYS.items() if top in keys}
    first = FIRST_READER[top]
    if path == "model.include_kl_head":     # pretraining swaps in its own head
        moved.discard("pretrain")
        first = "train"
    old, new = _stage_hashes(before), _stage_hashes(after)
    assert {stage for stage in STAGE_KEYS if old[stage] != new[stage]} == moved
    assert pipeline.artifact(first, before) != pipeline.artifact(first, after)


def test_every_leaf_is_walked_once():
    walked = [re.sub(r"\[\d+\]", "[]", p.values[0]) for p in LEAVES] + list(FIXED)
    assert sorted(walked) == sorted(set(_leaf_paths(RunConfig())))
