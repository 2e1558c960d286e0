"""The measured process: one workload, one seed, in a fresh interpreter.

    python3 bench/workload.py --workload W --seed N --seconds S --trace 0|1 \
        --result PATH [--setup-only]

run.py starts this with one BLAS thread and OARSI_MT_THREADS unset, after
make_inputs.py has written the seed's inputs. ``setup_s`` is the process's
CPU time when set-up ends: interpreter start, imports, loading inputs and
building the model.

The workload repeats whole rounds until ``--seconds`` of CPU time have
passed since the first timed call, then checks the program's outputs outside
the timed region and writes a JSON result to ``--result``. With ``--trace 1``
it runs a cold round and an untraced round, then traced rounds, and reports
per-layer metrics (see tracing.py) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from common import (CLI_COMMANDS, CLI_SUBJECTS, EXAMS_PER_SUBJECT, PREDICT_BATCH,
                    TRAIN_CONFIG, UNIFORM_NLL, WORK, WORKLOADS, input_dir, predict_batches,
                    use_source_tree)

# Every duration is CPU time of this process (user + system). All work runs
# serially on one pinned core, so on a dedicated core this equals wall time;
# on a shared virtual machine it leaves out the time the hypervisor gives
# the core to someone else (the "steal" column of /proc/stat), which on a
# 2-vCPU VM more than doubled the wall time of a fixed GEMM loop.
_clock = time.process_time


class RoundFailed(Exception):
    """A round's operations raised; they count as failed, not as wrong."""

    def __init__(self, message, failed_ops=None):
        super().__init__(message)
        self.failed_ops = failed_ops


# ---------------------------------------------------------------------------
# workloads
#
# Each workload has setup() (untimed, counted in setup_s), run_round() which
# returns (items, seconds, detail), check(detail) and task_nll(detail) for
# each round, and final_checks(detail) for the costlier checks done once per
# run on the last round.


class TrainFold:
    """One training.run_fold call with the transfer schedule per round."""

    ops_per_round = 1

    def __init__(self, seed, inputs, scratch):
        self.seed, self.inputs = seed, inputs

    def setup(self):
        import kneegrade  # noqa: F401  (the whole package, as a user's import)
        from kneegrade.data import load_manifest
        from kneegrade.preprocess import load_image_cache
        from kneegrade.training import TrainConfig

        exams = load_manifest(os.path.join(self.inputs, "manifest.csv"))
        self.images, _ = load_image_cache(os.path.join(self.inputs, "images.kgw"))
        with open(os.path.join(self.inputs, "split.json")) as fh:
            val_ids = set(json.load(fh)["val"])
        self.train = [e for e in exams if e.exam_id not in val_ids]
        self.val = [e for e in exams if e.exam_id in val_ids]
        self.cfg = TrainConfig(**TRAIN_CONFIG)
        self.model = self._fresh_model()

    def _fresh_model(self):
        from kneegrade.model import ModelConfig, build_model, load_backbone_weights

        model = build_model(ModelConfig(), self.seed)
        return load_backbone_weights(model, os.path.join(self.inputs, "backbone.kgw"))

    def run_round(self):
        from kneegrade.model import backbone_checksum
        from kneegrade.training import run_fold

        model = self.model or self._fresh_model()
        self.model = None
        before = backbone_checksum(model)
        t = _clock()
        try:
            res = run_fold(model, self.train, self.val, self.images, self.cfg,
                           seed=self.seed, fold=0)
        except Exception as exc:
            raise RoundFailed(traceback.format_exc()) from exc
        seconds = _clock() - t
        return self.cfg.epochs * len(self.train), seconds, (before, res)

    def check(self, detail):
        before, res = detail
        cfg = self.cfg
        fails = []
        expected = [cfg.lr_heads] * cfg.head_epochs + [cfg.lr_thaw] * cfg.thaw_epochs
        expected += [cfg.lr_late] * (cfg.epochs - len(expected))
        if res.lr_by_epoch != expected:
            fails.append(f"learning rates {res.lr_by_epoch} != stage rates {expected}")
        sums = res.backbone_checksums
        if sums[cfg.head_epochs - 1] != before:
            fails.append("backbone changed during the frozen epoch")
        if sums[cfg.head_epochs] == before:
            fails.append("backbone unchanged after thaw")
        loss = res.history[-1]["train_loss"]
        if not loss < UNIFORM_NLL:
            fails.append(f"final-epoch loss {loss} not below sum log K = {UNIFORM_NLL:.4f}")
        return fails

    def task_nll(self, detail):
        return float(detail[1].history[-1]["train_loss"])

    def final_checks(self, detail):
        import reference

        n, fails = reference.check_ops(sides=(64, 128), seed=self.seed)
        if n == 0:
            fails = ["no reference op checks ran"]
        return fails

    def work_units(self, tracer, rounds):
        return sum(1 for s in tracer.spans if s[0] == "training.adam_step")


class PredictEnsemble:
    """Five snapshots from disk, ensemble_predict at 128 px, CSV out and back."""

    def __init__(self, seed, inputs, scratch):
        self.seed, self.inputs = seed, inputs
        self.csv = os.path.join(scratch, "predictions.csv")

    def setup(self):
        import kneegrade  # noqa: F401
        from kneegrade.data import load_manifest
        from kneegrade.preprocess import load_image_cache

        self.exams = load_manifest(os.path.join(self.inputs, "manifest.csv"))
        self.images, _ = load_image_cache(os.path.join(self.inputs, "images.kgw"))
        folder = os.path.join(self.inputs, "snapshots")
        self.paths = sorted(os.path.join(folder, f) for f in os.listdir(folder)
                            if f.endswith(".kgw"))
        self.ops_per_round = len(self.exams)

    def run_round(self):
        from kneegrade import ensemble
        from kneegrade.training import Snapshot

        t = _clock()
        try:
            snaps = [Snapshot.load(p) for p in self.paths]
            probs, grades = ensemble.ensemble_predict(snaps, self.exams, self.images,
                                                      batch_size=PREDICT_BATCH)
            heads = [tuple(h) for h in snaps[0].meta["heads"]]
            ids = [e.exam_id for e in self.exams]
            ensemble.write_predictions_csv(self.csv, ids, heads, probs, grades)
            back = ensemble.read_predictions_csv(self.csv)
        except Exception as exc:
            raise RoundFailed(traceback.format_exc()) from exc
        seconds = _clock() - t
        return len(self.exams), seconds, (ids, heads, probs, grades, back, snaps)

    def check(self, detail):
        import numpy as np

        ids, heads, probs, grades, back, _ = detail
        fails = []
        for name, k in heads:
            p = probs[name]
            if p.dtype != np.float32 or p.shape != (len(ids), k):
                fails.append(f"{name}: probabilities {p.dtype} {p.shape}")
                continue
            gap = float(np.max(np.abs(p.astype(np.float64).sum(axis=1) - 1.0)))
            if gap > 8 * k * np.finfo(np.float32).eps:
                fails.append(f"{name}: a probability row sums to 1 {gap:+.3g}")
            if not np.array_equal(grades[name], np.argmax(p, axis=1)):
                fails.append(f"{name}: grade is not the argmax of its row")
        b_ids, b_heads, b_probs, b_grades = back
        if b_ids != ids or [tuple(h) for h in b_heads] != heads:
            fails.append("CSV round trip changed exam ids or head layout")
        for name, _ in heads:
            if not np.array_equal(b_probs[name].view(np.uint32), probs[name].view(np.uint32)):
                fails.append(f"{name}: CSV round trip changed float32 bits")
            if not np.array_equal(b_grades[name], grades[name]):
                fails.append(f"{name}: CSV round trip changed grades")
        return fails

    def task_nll(self, detail):
        import numpy as np

        ids, heads, probs = detail[:3]
        total = np.zeros(len(ids))
        for name, _ in heads:
            y = np.array([e.grade(name) for e in self.exams])
            total -= np.log(probs[name][np.arange(len(ids)), y].astype(np.float64))
        return float(total.mean())

    def final_checks(self, detail):
        """Reversed snapshot order reproduces the first batch bit for bit."""
        import numpy as np

        from kneegrade import ensemble

        fwd, snaps = detail[2], detail[5]
        subset = self.exams[:PREDICT_BATCH]
        rev, _ = ensemble.ensemble_predict(list(reversed(snaps)), subset, self.images,
                                           batch_size=PREDICT_BATCH)
        return [f"{name}: reversed snapshot order changed probabilities"
                for name in rev
                if not np.array_equal(rev[name].view(np.uint32),
                                      fwd[name][:len(subset)].view(np.uint32))]

    def work_units(self, tracer, rounds):
        return predict_batches() * rounds


class CliPipeline:
    """synth -> preprocess -> pretrain -> train -> predict -> evaluate via cli.main."""

    ops_per_round = len(CLI_COMMANDS)

    def __init__(self, seed, inputs, scratch):
        self.seed, self.inputs, self.scratch = seed, inputs, scratch
        self.round_no = 0

    def setup(self):
        from kneegrade import cli
        self.cli = cli
        self.config = os.path.join(self.inputs, "config.json")

    def _argv(self, d):
        c = self.config
        manifest = os.path.join(d, "cache", "manifest.csv")
        return [
            ["synth", "--config", c, "--out", os.path.join(d, "data"),
             "--subjects", str(CLI_SUBJECTS),
             "--exams-per-subject", str(EXAMS_PER_SUBJECT)],
            ["preprocess", "--config", c, "--manifest", os.path.join(d, "data", "manifest.csv"),
             "--out", os.path.join(d, "cache")],
            ["pretrain", "--config", c, "--manifest", manifest,
             "--images", os.path.join(d, "cache"), "--out", os.path.join(d, "backbone.kgw")],
            ["train", "--config", c, "--manifest", manifest, "--images", os.path.join(d, "cache"),
             "--pretrained", os.path.join(d, "backbone.kgw"), "--out", os.path.join(d, "folds")],
            ["predict", "--config", c, "--manifest", manifest,
             "--images", os.path.join(d, "cache"), "--snapshots", os.path.join(d, "folds"),
             "--out", os.path.join(d, "predictions.csv")],
            ["evaluate", "--config", c, "--manifest", manifest,
             "--predictions", os.path.join(d, "predictions.csv"),
             "--out", os.path.join(d, "report")],
        ]

    def run_round(self):
        self.round_no += 1
        d = os.path.join(self.scratch, f"round{self.round_no}")
        shutil.rmtree(os.path.join(self.scratch, f"round{self.round_no - 1}"),
                      ignore_errors=True)
        total = 0.0
        log = io.StringIO()
        for i, (name, argv) in enumerate(zip(CLI_COMMANDS, self._argv(d))):
            # a failed command fails the ones after it too
            t = _clock()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = self.cli.main(argv)
            except Exception as exc:
                raise RoundFailed(traceback.format_exc(), len(CLI_COMMANDS) - i) from exc
            seconds = _clock() - t
            if code != 0:
                raise RoundFailed(f"{name} exited {code}:\n{log.getvalue()}",
                                  len(CLI_COMMANDS) - i)
            total += seconds
        return CLI_SUBJECTS * EXAMS_PER_SUBJECT, total, d

    def _truth_and_preds(self, d):
        import csv

        with open(os.path.join(d, "cache", "manifest.csv"), newline="") as fh:
            truth = {row["exam_id"]: row for row in csv.DictReader(fh)}
        with open(os.path.join(d, "predictions.csv"), newline="") as fh:
            preds = list(csv.DictReader(fh))
        return truth, preds

    def check(self, d):
        import csv

        import reference

        truth, preds = self._truth_and_preds(d)
        fails = []
        if sorted(truth) != sorted(r["exam_id"] for r in preds):
            return ["predictions.csv does not cover the manifest's exams exactly"]
        with open(os.path.join(d, "report", "metrics.json")) as fh:
            report = json.load(fh)
        for name, entry in sorted(report["tasks"].items()):
            k = int(entry["n_classes"])
            y_true = [int(truth[r["exam_id"]][name]) for r in preds]
            y_pred = [int(r[f"grade_{name}"]) for r in preds]
            want = reference.quadratic_kappa_brute(y_true, y_pred, k)
            got = entry["kappa_quadratic"]["point"]
            if abs(got - want) > 1e-9:
                fails.append(f"{name}: metrics.json kappa {got!r} != brute force {want!r}")
            table = reference.confusion_brute(y_true, y_pred, k)
            with open(os.path.join(d, "report", f"confusion_{name}.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            counts = [[int(row[f"pred_{j}"]) for j in range(k)] for row in rows]
            if counts != table:
                fails.append(f"{name}: confusion_{name}.csv {counts} != {table}")
        if len(report["tasks"]) != 7:
            fails.append(f"metrics.json reports {len(report['tasks'])} heads, expected 7")
        return fails

    def task_nll(self, d):
        truth, preds = self._truth_and_preds(d)
        heads = [c[len("grade_"):] for c in preds[0] if c.startswith("grade_")]
        total = 0.0
        for row in preds:
            for name in heads:
                total -= math.log(float(row[f"p_{name}_{truth[row['exam_id']][name]}"]))
        return total / len(preds)

    def final_checks(self, detail):
        return []

    def work_units(self, tracer, rounds):
        return sum(1 for s in tracer.spans if s[0] == "training.adam_step")


WORKLOAD_CLASSES = {"train_fold": TrainFold, "predict_ensemble_128": PredictEnsemble,
                    "cli_pipeline": CliPipeline}


# ---------------------------------------------------------------------------
# the run


def _machine():
    import platform

    import numpy as np

    info = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "OARSI_MT_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def run(args):
    scratch = os.path.join(WORK, "runs", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch):
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()   # set-up loads are traced too
    wl = WORKLOAD_CLASSES[args.workload](args.seed, input_dir(args.workload, args.seed), scratch)
    wl.setup()
    setup_s = _clock()   # CPU time since this process was started
    if args.setup_only:
        return {"setup_s": setup_s}

    result = {"attempted": 0, "failed": 0, "failures": [], "errors": []}
    done = []        # (items, seconds, detail, task_nll) of rounds that ran to the end

    def one_round():
        ops = wl.ops_per_round
        result["attempted"] += ops
        try:
            items, seconds, detail = wl.run_round()
        except RoundFailed as exc:
            result["failed"] += exc.failed_ops or ops
            result["errors"].append(str(exc))
            return None
        result["failures"] += wl.check(detail)
        done.append((items, seconds, detail, wl.task_nll(detail)))
        return items, seconds

    start = _clock()
    if tracer is not None:
        # The first round of a process runs cold (page faults on fresh
        # buffers), so the overhead compares a second untraced round with
        # the traced ones that follow it.
        tracer.uninstall()
        one_round()
        untraced = one_round()
        tracer.install()
        first_traced = len(done)
    while True:
        one_round()
        if _clock() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if done:
        result["failures"] += wl.final_checks(done[-1][2])
    else:
        result["failures"].append("no round ran to its end")
    result["correct"] = not result["failures"]
    result["setup_s"] = setup_s
    result["machine"] = _machine()
    result["round_seconds"] = [r[1] for r in done]
    if not done:
        result["metrics"] = {}
        return result
    if tracer is None:
        nll = statistics.median(r[3] for r in done)
        result["metrics"] = {
            "items_per_s": statistics.median(r[0] / r[1] for r in done),
            "peak_rss_mb": peak_rss_mb,
            "task_nll": nll,
        }
        return result

    from tracing import layer_metrics

    traced = done[first_traced:]
    units = wl.work_units(tracer, len(traced))
    metrics = layer_metrics(tracer, units, synth_exams=CLI_SUBJECTS * EXAMS_PER_SUBJECT)
    metrics["trace.overhead_pct"] = 0.0
    if untraced is not None and traced:
        per_item = sum(r[1] for r in traced) / sum(r[0] for r in traced)
        metrics["trace.overhead_pct"] = 100.0 * (per_item / (untraced[1] / untraced[0]) - 1.0)
    result["metrics"] = metrics
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    tracer.dump(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only setup_s")
    args = parser.parse_args(argv)
    use_source_tree()
    result = run(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
