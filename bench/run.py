"""Benchmark for kneegrade: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload train_fold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload

For one workload this prints each metric by name and unit, then, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics.
``--workload all`` runs every workload and also writes the results with the
machine's details to ``.bench_work/results-seed<N>-trace<T>.json``.

Steps of one run, each in its own process pinned to the same core, with
one BLAS thread and OARSI_MT_THREADS unset (see README.md for why):

1. make_inputs.py writes the seed's inputs, unless they already exist;
2. without tracing, workload.py --setup-only runs SETUP_PROBES times, so
   that ``setup_s`` is the median of several set-ups;
3. workload.py measures the workload for ``--seconds`` and checks its
   outputs.

Exit status: 0 after a result was printed, 2 when no result can be made
(no kneegrade sources in this checkout, a child that failed or timed out).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, SRC, THREAD_ENV, WORK, WORKLOADS

SETUP_PROBES = 9
RUN_DEADLINE_S = 170   # a run must end within 180 s


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("OARSI_MT_THREADS", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(argv, deadline):
    """Run a benchmark script; its output goes to our stderr."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {os.path.basename(argv[0])}")
    try:
        proc = subprocess.run([sys.executable] + argv, env=_child_env(), cwd=ROOT,
                              stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(argv)} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited with {proc.returncode}")


def _measure(workload, seed, seconds, trace, deadline, setup_only=False):
    path = os.path.join(WORK, f"result-{workload}-{seed}-{os.getpid()}.json")
    argv = [os.path.join(BENCH_DIR, "workload.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--result", path]
    if setup_only:
        argv.append("--setup-only")
    try:
        _spawn(argv, deadline)
        with open(path) as fh:
            return json.load(fh)
    finally:
        if os.path.exists(path):
            os.remove(path)


def _declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return [(m["name"], m["unit"]) for m in doc["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    declared = _declared_metrics(trace)
    _spawn([os.path.join(BENCH_DIR, "make_inputs.py"), "--seed", str(seed),
            "--workload", workload], deadline)
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_measure(workload, seed, seconds, trace, deadline, True)["setup_s"])
    res = _measure(workload, seed, seconds, trace, deadline)
    setups.append(res["setup_s"])
    values = dict(res["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setups)
    names = [name for name, _ in declared]
    if res["metrics"] and sorted(values) != sorted(names):
        raise BenchError(f"{workload}: metrics {sorted(set(values) ^ set(names))} "
                         "do not match BENCHMARK.json")
    for name, value in values.items():
        if not math.isfinite(value):
            raise BenchError(f"{workload}: {name} is {value}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared if name in values}
    return res, metrics


def _report(workload, res, metrics):
    out = sys.stdout
    m = res["machine"]
    rounds = " ".join(f"{s:.3f}" for s in res["round_seconds"])
    print(f"# {workload}: rounds of {rounds} s; {res['attempted']} operations attempted, "
          f"{res['failed']} failed, correct={res['correct']}", file=out)
    print(f"# {m['cpu_count']} cores, python {m['python']}, numpy {m['numpy']}, "
          f"{m['blas']}, threads {m['threads']}", file=out)
    for msg in dict.fromkeys(res["failures"] + res["errors"]):   # each distinct one once
        print(f"# FAIL {msg.strip()}", file=out)
    width = max(len(n) for n in metrics) if metrics else 0
    for name, v in metrics.items():
        print(f"{name:<{width}}  {v['value']:.6g} {v['unit']}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kneegrade", "__init__.py")):
        print(f"error: no kneegrade sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    # One core for this process and every child: a process the scheduler
    # moves between cores runs slower and less steadily.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    try:
        for workload in workloads:
            res, metrics = run_workload(workload, args.seed, args.seconds, args.trace)
            _report(workload, res, metrics)
            summary[workload] = {"correct": res["correct"], "attempted": res["attempted"],
                                 "failed": res["failed"], "metrics": metrics}
            if args.workload == "all":
                summary[workload]["machine"] = res["machine"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        path = os.path.join(WORK, f"results-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=1)
        print(json.dumps(summary))
    else:
        print(json.dumps(summary[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
