"""The names and configs the benchmark in bench/ uses must keep working.

bench/tracing.py wraps kneegrade functions by module attribute and
bench/reference.py records layer shapes by patching tensor ops, so deleting
or renaming one of those names breaks the benchmark without failing any
other test. Installing the tracer and recording the shapes touches every one.
Likewise a config schema change that refuses bench/common.py's configs would
show only as a failed benchmark run.
"""

import importlib
from pathlib import Path

from kneegrade.config import load_run_config
from kneegrade.training import TrainConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module(name)


def test_tracer_installs_on_every_patched_name(monkeypatch):
    tracer = _bench_module(monkeypatch, "tracing").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_reference_records_default_model_layer_shapes(monkeypatch):
    """The benchmark's correctness gate: ``train_fold`` marks its run
    incorrect unless the float64 op checks of an eval forward's layers run
    and pass, so an eval path that hides the stem pool fails here first."""
    checks, failures = _bench_module(monkeypatch, "reference").check_ops(sides=(64, 128))
    assert checks >= 2 and failures == []


def test_benchmark_configs_load(monkeypatch):
    common = _bench_module(monkeypatch, "common")
    cfg = load_run_config(overrides=common.cli_config(1))
    assert cfg.pretrain.epochs == 2 and cfg.train.epochs == 3
    assert TrainConfig(**common.TRAIN_CONFIG).schedule == "transfer"
