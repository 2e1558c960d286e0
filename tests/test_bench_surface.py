"""The names the benchmark in bench/ patches or calls must keep existing.

bench/tracing.py wraps kneegrade functions by module attribute and
bench/reference.py records layer shapes by patching tensor ops, so deleting
or renaming one of those names breaks the benchmark without failing any
other test. Installing the tracer and recording the shapes touches every one.
"""

import importlib
from pathlib import Path

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
    shapes = _bench_module(monkeypatch, "reference").model_layer_shapes(64)
    assert shapes
