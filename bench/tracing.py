"""Spans around kneegrade's layers, recorded from outside the program.

``Tracer.install()`` replaces layer functions with timing wrappers at the
names their callers look up: ``training`` imports ``augment`` by name, so
the wrapper goes on ``kneegrade.training.augment``; one on
``kneegrade.preprocess.augment`` would never be called. Tensor ops also get
their backward closures wrapped, so forward and backward time are separate
spans.
``uninstall()`` puts every original back.

Each span is kept in memory as (name, start, end, parent index) and written
out by :meth:`Tracer.dump` when the run ends. A span's self time is its
duration minus the time its child spans cover. The tracer assumes one
thread, which holds for every workload (no kneegrade pool is started when
OARSI_MT_THREADS is unset and ``--parallel-folds`` is not passed).
"""

from __future__ import annotations

import json
import statistics
import time
import weakref
from collections import defaultdict

from common import CLI_COMMANDS

_clock = time.process_time   # CPU time, as in workload.py

# Tensor ops by span label; every other public op counts as "other".
_OPS = ("conv2d", "batch_norm2d", "avg_pool2d", "relu")
_OTHER_OPS = ("add", "mul", "scale", "sigmoid", "reshape", "broadcast_to", "reduce_sum",
              "linear", "global_avg_pool", "dropout", "softmax", "cross_entropy")


def _layer_functions():
    """(owner, attribute, span name) for every wrapped layer function."""
    from kneegrade import cli, ensemble, model, preprocess, report, serialize, training

    return [
        (training, "batch_images", "training.batch_images"),
        (ensemble, "batch_images", "training.batch_images"),
        (training, "augment", "preprocess.augment"),
        (training, "epoch_indices", "data.epoch_indices"),
        (training, "multi_task_loss", "training.loss"),
        (training, "validation_metrics", "training.validation"),
        (training, "backbone_checksum", "training.checksum"),
        (training.Adam, "step", "training.adam_step"),
        (training.Snapshot, "load", "ensemble.snapshot_load"),
        (ensemble, "predict_probs", "ensemble.member_forward"),
        (ensemble, "ensemble_mean", "ensemble.mean"),
        (ensemble, "write_predictions_csv", "ensemble.csv_write"),
        (cli, "write_predictions_csv", "ensemble.csv_write"),
        (ensemble, "read_predictions_csv", "ensemble.csv_read"),
        (cli, "read_predictions_csv", "ensemble.csv_read"),
        (serialize, "load_tensors", "serialize.load_tensors"),
        (training, "load_tensors", "serialize.load_tensors"),
        (model, "load_tensors", "serialize.load_tensors"),
        (serialize, "save_tensors", "serialize.save_tensors"),
        (training, "save_tensors", "serialize.save_tensors"),
        (model, "save_tensors", "serialize.save_tensors"),
        (preprocess, "load_image_cache", "preprocess.load_image_cache"),
        (cli, "load_image_cache", "preprocess.load_image_cache"),
        (cli, "preprocess_exam", "preprocess.preprocess_exam"),
        (cli, "read_pgm16", "imageio.read_pgm16"),
        (cli, "synth_generate", "data.synth_generate"),
        (cli, "load_run_config", "config.load_run_config"),
        (cli, "emit_report", "report.emit_report"),
        (report, "bootstrap_ci", "metrics.bootstrap_ci"),
    ] + [(cli, f"cmd_{c}", f"cli.{c}") for c in CLI_COMMANDS]


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self._stack = []
        self._saved = []           # (owner, attribute, original raw attribute)
        self._module_names = weakref.WeakKeyDictionary()
        self.tape_nodes = 0
        self.flops = defaultdict(float)   # "fwd"/"bwd" -> conv2d flop count

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, _clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def _timed(self, fn, name):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        from kneegrade import nn
        from kneegrade import tensor as T
        from kneegrade.blocks import Backbone, PoolHead
        from kneegrade.model import MultiTaskModel

        self._kinds = (MultiTaskModel, Backbone, PoolHead)

        for owner, attr, name in _layer_functions():
            self._patch(owner, attr, self._timed(getattr(owner, attr), name))
        for op in _OPS + _OTHER_OPS:
            label = op if op in _OPS else "other"
            self._patch(T, op, self._op_wrapper(getattr(T, op), label))
        self._patch(T, "backward", self._timed(T.backward, "tensor.backward"))
        self._patch(nn.Module, "__call__", self._module_wrapper(nn.Module.__call__))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _op_wrapper(self, fn, label):
        fwd_name = f"tensor.{label}.fwd"
        bwd_name = f"tensor.{label}.bwd"
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            flops = 0.0
            if label == "conv2d":
                # multiply-adds from the shapes alone: N*Cout*Ho*Wo outputs,
                # each a dot product over Cin/groups*kH*kW inputs
                flops = 2.0 * out.data.size * args[1].data[0].size
                tracer.flops["fwd"] += flops
                # backward always forms dW, and dX when the input needs it
                flops *= 2.0 if args[0].requires_grad else 1.0
            # dropout in eval mode hands back its input, whose closure (if
            # any) was wrapped when that input was made.
            if out._backward is None or getattr(out._backward, "traced", False):
                return out
            tracer.tape_nodes += 1
            bwd = out._backward

            def timed_bwd(g, grads):
                bidx = tracer._open(bwd_name)
                try:
                    bwd(g, grads)
                finally:
                    tracer._close(bidx)
                tracer.flops["bwd"] += flops
            timed_bwd.traced = True
            out._backward = timed_bwd
            return out
        return wrapper

    def _module_name(self, module):
        MultiTaskModel, Backbone, PoolHead = self._kinds
        # Blocks and heads are named when their parent is called, because a
        # child module does not know its own position.
        if isinstance(module, MultiTaskModel):
            for drop, head in module._heads:
                self._module_names[drop] = self._module_names[head] = "model.heads"
            return "model.forward"
        if isinstance(module, Backbone):
            for i, block in enumerate(module.blocks):
                self._module_names[block] = f"blocks.block{i}"
            return "blocks.backbone"
        if isinstance(module, PoolHead):
            return "blocks.pool_head"
        return self._module_names.get(module)

    def _module_wrapper(self, call):
        def wrapper(module, *args, **kwargs):
            name = self._module_name(module)
            if name is None:
                return call(module, *args, **kwargs)
            idx = self._open(name)
            try:
                return call(module, *args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    # -- results ----------------------------------------------------------

    def totals(self):
        """Per span name: (call count, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def step_durations(self):
        """Seconds per optimizer step: first training batch_images to Adam.step end.

        Batches built inside a validation pass or a prediction are not steps.
        """
        names = [s[0] for s in self.spans]

        def inside_eval(i):
            while i >= 0:
                if names[i] in ("training.validation", "ensemble.member_forward"):
                    return True
                i = self.spans[i][3]
            return False

        steps = []
        start = None
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            if name == "training.batch_images" and start is None and not inside_eval(parent):
                start = t0
            elif name == "training.adam_step" and start is not None:
                steps.append(t1 - start)
                start = None
        return steps

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(tracer, units, synth_exams):
    """Per-layer metrics from a traced run, in BENCHMARK.json order.

    ``units`` is the run's work count (optimizer steps, or member batches on
    predict_ensemble_128); step-path times are divided by it. Functions
    called per file or per exam report mean ms per call. Times are self
    times except the roll-ups named in the README (blocks, heads, loss,
    validation, member forward, snapshot load, cli commands, synth).
    """
    tot = tracer.totals()

    def seconds(name, inclusive=False):
        row = tot.get(name)
        return 0.0 if row is None else row[1 if inclusive else 2]

    def per_unit(name, inclusive=False):
        return 1e3 * seconds(name, inclusive) / units if units else 0.0

    def per_call(name, inclusive=False):
        row = tot.get(name)
        return 1e3 * seconds(name, inclusive) / row[0] if row else 0.0

    m = {}
    for op in _OPS + ("other",):
        for d in ("fwd", "bwd"):
            m[f"tensor.{op}.{d}_ms"] = per_unit(f"tensor.{op}.{d}")
    for d in ("fwd", "bwd"):
        busy = seconds(f"tensor.conv2d.{d}")
        m[f"tensor.conv2d.{d}_gflop_per_s"] = tracer.flops[d] / busy / 1e9 if busy else 0.0
    m["tensor.backward.walk_ms"] = per_unit("tensor.backward")
    m["tensor.tape_nodes"] = tracer.tape_nodes / units if units else 0.0

    blocks = [per_unit(f"blocks.block{i}", True) for i in range(4)]
    m["blocks.stem_ms"] = per_unit("blocks.backbone", True) - sum(blocks)
    for i, v in enumerate(blocks):
        m[f"blocks.block{i}_ms"] = v
    m["blocks.pool_head_ms"] = per_unit("blocks.pool_head", True)
    m["model.heads_ms"] = per_unit("model.heads", True)

    steps = tracer.step_durations()
    m["training.step_ms_p50"] = 1e3 * statistics.median(steps) if steps else 0.0
    m["training.step_samples"] = len(steps)
    m["training.batch_images_ms"] = per_unit("training.batch_images")
    m["preprocess.augment_ms"] = per_unit("preprocess.augment")
    m["data.epoch_indices_ms"] = per_unit("data.epoch_indices")
    m["training.loss_ms"] = per_unit("training.loss", True)
    m["training.adam_step_ms"] = per_unit("training.adam_step")
    m["training.validation_ms"] = per_unit("training.validation", True)
    m["training.checksum_ms"] = per_unit("training.checksum")

    m["ensemble.snapshot_load_ms"] = per_call("ensemble.snapshot_load", True)
    m["ensemble.member_forward_ms"] = per_unit("ensemble.member_forward", True)
    m["ensemble.mean_ms"] = per_unit("ensemble.mean")
    m["ensemble.csv_write_ms"] = per_call("ensemble.csv_write")
    m["ensemble.csv_read_ms"] = per_call("ensemble.csv_read")
    m["serialize.load_tensors_ms"] = per_call("serialize.load_tensors")
    m["serialize.save_tensors_ms"] = per_call("serialize.save_tensors")

    for c in CLI_COMMANDS:
        m[f"cli.{c}_s"] = per_call(f"cli.{c}", True) / 1e3
    m["data.synth_ms_per_exam"] = per_call("data.synth_generate", True) / synth_exams
    m["imageio.read_pgm16_ms"] = per_call("imageio.read_pgm16")
    m["preprocess.preprocess_exam_ms"] = per_call("preprocess.preprocess_exam")
    m["preprocess.load_image_cache_ms"] = per_call("preprocess.load_image_cache")
    m["config.load_run_config_ms"] = per_call("config.load_run_config")
    m["metrics.bootstrap_ci_ms"] = per_call("metrics.bootstrap_ci")
    m["report.emit_report_self_ms"] = per_call("report.emit_report")
    return m
