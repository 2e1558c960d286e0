"""Run config: one typed loader, its error paths, and the per-stage hashes."""

import json
from dataclasses import asdict, replace

import pytest

from kneegrade import cli
from kneegrade.config import STAGE_KEYS, RunConfig, from_doc, load_run_config
from kneegrade.blocks import BlockSpec, StemSpec
from kneegrade.data import SynthConfig
from kneegrade.errors import ConfigurationError
from kneegrade.model import ModelConfig, config_hash
from kneegrade.training import TrainConfig

BLOCK = {"kind": "basic", "in_channels": 16, "out_channels": 16}

BAD_DOCS = [
    ({"train": {"epochs": "20"}}, r"^train\.epochs must be int, got str '20'$"),
    ({"n_folds": "3"}, r"^n_folds must be int, got str"),
    ({"model": {"blocks": 3}}, r"^model\.blocks must be a list, got int$"),
    ({"preprocess": {"target_side": None}},
     r"^preprocess\.target_side must be int, got NoneType"),
    ({"model": {"blocks": [dict(BLOCK, sride=2)]}},
     r"^model\.blocks\[0\]: unknown keys \['sride'\]$"),
    ({"model": {"blocks": [{"kind": "basic", "in_channels": 16}]}},
     r"^model\.blocks\[0\]: missing keys \['out_channels'\]$"),
    ({"seed": True}, r"^seed must be int, got bool"),
    ({"train": {"augment": 1}}, r"^train\.augment must be bool, got int"),
    ({"train": {"task_weights": [["KL"]]}},
     r"^train\.task_weights\[0\] must have 2 items, got 1$"),
    ({"train": {"task_weights": [["KL", "2"]]}},
     r"^train\.task_weights\[0\]\[1\] must be float, got str"),
    # a weight must name a head the model has, once
    ({"train": {"task_weights": [["KLL", 2.0]]}},
     r"^train\.task_weights names 'KLL', which is not a head of this model"),
    ({"model": {"include_kl_head": False}, "train": {"task_weights": [["KL", 2.0]]}},
     r"^train\.task_weights names 'KL', which is not a head of this model"),
    ({"train": {"task_weights": [["KL", 1.0], ["KL", 3.0]]}},
     r"^train: task_weights lists 'KL' more than once$"),
    ({"pretrain": {"aug": {"bogus": 1}}}, r"^pretrain\.aug: unknown keys \['bogus'\]$"),
    ({"synth": {"image_side": 8, "grade_probs": [0.5, 0.5, 0.5, 0.5]}},
     r"image_side >= 32"),
    ({"synth": {"grade_probs": [0.5, 0.5, 0.5, 0.5]}}, r"grade_probs"),
    ({"bogus": 1}, r"^run config: unknown keys \['bogus'\]$"),
    ({"model": []}, r"^model must be a mapping, got list$"),
    # range checks run on construction and carry the path of their block
    ({"train": {"epochs": 0}}, r"^train: epochs must be >= 1$"),
    ({"n_bootstrap": 0}, r"^n_bootstrap must be >= 1$"),
    ({"ci_level": 0.4}, r"^ci_level 0\.4 outside \(0\.5, 1\)$"),
    ({"model": {"blocks": [dict(BLOCK, stride=3)]}},
     r"^model\.blocks\[0\]: block stride must be 1 or 2, got 3$"),
    ({"model": {"stem": {"out_channels": 8}}},
     r"^model: block 0: in_channels=16 but upstream provides 8$"),
    ({"train": {"augment": False, "aug": {"crop_ratio": 2.0}}},
     r"^train\.aug: crop_ratio must lie in \(0, 1\], got 2\.0$"),
    ({"train": {"drop_factor": 0}}, r"^train: drop_factor must be positive$"),
    ({"pretrain": {"drop_factor": -10}}, r"^pretrain: drop_factor must be positive$"),
    ({"train": {"eps": -1.0}}, r"^train: eps must be positive$"),
    ({"pretrain": {"eps": 0}}, r"^pretrain: eps must be positive$"),
    ({"train": {"sampler": "bogus"}},
     r"^train: sampler must be one of \('none', 'kl_balanced'\)$"),
    ({"pretrain": {"sampler": "bogus"}},
     r"^pretrain: sampler must be one of \('none', 'kl_balanced'\)$"),
    ({"train": {"head_epochs": -1}}, r"^train: head_epochs and thaw_epochs must be >= 0$"),
    ({"pretrain": {"scratch_drops": [0, 3]}}, r"^pretrain: scratch_drops must be epochs >= 1$"),
    # pretraining runs one schedule and one head, so the transfer keys are not its own
    *[({"pretrain": {key: value}}, rf"^pretrain: unknown keys \['{key}'\]$")
      for key, value in [("lr_heads", 0.1), ("lr_thaw", 0.1), ("lr_late", 0.1),
                         ("head_epochs", 1), ("thaw_epochs", 1), ("task_weights", [])]],
    ({"pretrain": {"schedule": "transfer"}},
     r"^pretrain: schedule must be one of \('scratch',\)$"),
]


@pytest.mark.parametrize("doc,message", BAD_DOCS, ids=[json.dumps(d) for d, _ in BAD_DOCS])
def test_bad_document_is_a_configuration_error(tmp_path, doc, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match=message):
        load_run_config(str(path))


def test_bad_document_exits_two_with_one_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"epochs": "20"}}))
    code = cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "d"),
                     "--subjects", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: ConfigurationError: train.epochs must be int, got str '20'\n"
    assert not (tmp_path / "d").exists()


def test_invalid_config_cannot_be_built():
    with pytest.raises(ConfigurationError, match=r"^epochs must be >= 1$"):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigurationError, match=r"^n_folds must be >= 2$"):
        replace(RunConfig(), n_folds=1)


def test_channel_chain_validated():
    blocks = (BlockSpec("basic", 16, 16), BlockSpec("basic", 32, 32))
    with pytest.raises(ConfigurationError,
                       match=r"^block 1: in_channels=32 but upstream provides 16$"):
        ModelConfig(stem=StemSpec(out_channels=16), blocks=blocks)


def test_int_is_stored_as_float():
    cfg = from_doc(RunConfig, {"model": {"dropout_p": 0}, "train": {"lr_heads": 1},
                               "synth": {"grade_probs": [1, 0, 0, 0]}}, "")
    assert type(cfg.model.dropout_p) is float and cfg.model.dropout_p == 0.0
    assert type(cfg.train.lr_heads) is float
    assert all(type(p) is float for p in cfg.synth.grade_probs)
    assert cfg == from_doc(RunConfig, {"model": {"dropout_p": 0.0}, "train": {"lr_heads": 1.0},
                                       "synth": {"grade_probs": [1.0, 0.0, 0.0, 0.0]}}, "")


def test_round_trip_through_json_and_through_memory():
    doc = {"seed": 3,
           "model": {"blocks": [BLOCK, dict(BLOCK, out_channels=32, stride=2)],
                     "pooling": {"kind": "gwap"}},
           "train": {"task_weights": [["KL", 2.0], ["JSN_M", 0.5]], "scratch_drops": [3, 4],
                     "aug": {"noise_sigma": 0.0}}}
    cfg = from_doc(RunConfig, doc, "")
    assert cfg.train.task_weights == (("KL", 2.0), ("JSN_M", 0.5))
    assert cfg.model.blocks[1].out_channels == 32
    assert from_doc(RunConfig, asdict(cfg), "") == cfg
    assert from_doc(RunConfig, json.loads(json.dumps(asdict(cfg))), "") == cfg
    assert from_doc(ModelConfig, cfg.model.to_dict(), "model") == cfg.model


def test_default_hashes_are_stable():
    # The hash of a config moves only when the config does: these digests of
    # the all-defaults document and of an int dropout_p date from the pretrain
    # block's own schema.
    assert config_hash(asdict(RunConfig())) == \
        "977a2aa2e6e5e561b64ee5ef00994b323f43dde4d496257a9e6585f0a2c19d68"
    assert config_hash(ModelConfig().to_dict()) == config_hash(asdict(RunConfig())["model"])
    assert config_hash(asdict(from_doc(RunConfig, {"model": {"dropout_p": 0}}, ""))) == \
        "b87622acfe08e0eb2ae3687a221952c2c70301213e202d414c0670ba69cbceef"


def _stage_hashes(doc):
    cfg = from_doc(RunConfig, doc, "")
    return {stage: cfg.stage_hash(stage) for stage in STAGE_KEYS}


@pytest.mark.parametrize("change,moved", [
    ({"train": {"epochs": 7}}, {"train"}),
    ({"n_bootstrap": 7}, set()),
    ({"ci_level": 0.9}, set()),
    ({"n_folds": 3}, {"train"}),
    ({"pretrain": {"schedule": "scratch", "epochs": 2}}, {"pretrain", "train"}),
    ({"model": {"dropout_p": 0.1}}, {"pretrain", "train"}),
    ({"preprocess": {"clip_high": 98.0}}, {"preprocess", "pretrain", "train"}),
    ({"seed": 1}, {"synth", "pretrain", "train"}),
    ({"synth": {"noise_sigma": 0.0}}, {"synth"}),
    ({"model": {"include_kl_head": False}}, {"train"}),
])
def test_stage_hash_moves_only_with_the_keys_it_reads(change, moved):
    before = _stage_hashes({})
    after = _stage_hashes(change)
    assert {stage for stage in STAGE_KEYS if before[stage] != after[stage]} == moved
    assert config_hash(asdict(from_doc(RunConfig, change, ""))) != \
        config_hash(asdict(RunConfig()))


def test_partial_pretrain_block_overlays_its_own_default():
    # the pretrain default is a scratch schedule; a partial block keeps it
    cfg = from_doc(RunConfig, {"pretrain": {"epochs": 2}}, "")
    assert cfg.pretrain == replace(RunConfig().pretrain, epochs=2)
    assert cfg.pretrain.schedule == "scratch"
    assert from_doc(RunConfig, {"pretrain": {}}, "").pretrain == RunConfig().pretrain
    # other blocks are built from their class, so derived fields follow the block
    assert from_doc(RunConfig, {"synth": {"image_side": 32}}, "").synth == \
        SynthConfig(image_side=32)
