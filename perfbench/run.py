"""icfcluster benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's inputs from the seed and writes them once, measures
set-up (a fresh interpreter through ``import icfcluster`` and a warm-up
call) in several separate processes, then starts one worker process that
repeats the workload's CLI operation for S seconds.  A fixed reference is
timed between any two timed steps (a calibration loop between operations,
a fresh interpreter importing numpy between set-ups), and total_s and
setup_s are medians of timings rescaled by it (environment.rescale), so
that the host's own speed drifting between runs does not show as a change.  Every operation's
output is checked; an operation that failed or whose output is wrong counts
as failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it records the environment, the per-layer self times and whether the
workload kept its character.

The benchmark uses the icfcluster sources under src/ of the checkout it
lives in and fails, printing no result, when they are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# one BLAS thread (at most nproc on any host), so a run's speed does not
# depend on whether a second core happens to be free
BLAS_THREADS = "1"

# separate fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 7

# seconds a set-up probe may take, and a worker beyond the measured window
# (its set-up and the operation in flight when the window closes)
PROBE_TIMEOUT = 20
WORKER_GRACE = 60


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "icfcluster" / "__init__.py").is_file():
        print(f"error: no icfcluster sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench import environment, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        report = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if report is None:
        return 1
    info, result = report
    info["environment"] = environment.describe(ROOT)
    info["loadavg_before"] = load_before
    info["loadavg_after"] = os.getloadavg()
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def _measure(args, workdir: Path):
    from perfbench import environment, tracing, workloads

    workload = workloads.WORKLOADS[args.workload]
    wcfg, ref = workload.prepare(args.seed, str(workdir))
    cfg = {"src": str(SRC), "root": str(ROOT), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": bool(args.trace), "workdir": str(workdir),
           "result": str(workdir / "result.json"), "workload_config": wcfg}

    setups, scaled_setups, imports = [], [], []
    before = environment.probe_seconds()
    for _ in range(SETUP_PROBES):
        probe = _start_worker(dict(cfg, mode="setup"), workdir / "setup.json", timeout=PROBE_TIMEOUT)
        if probe is None:
            return None
        after = environment.probe_seconds()
        setups.append(probe[0])
        scaled_setups.append(environment.rescale(probe[0], (before + after) / 2,
                                                 environment.PROBE_REFERENCE_S))
        imports.append(probe[1])
        before = after
    if _start_worker(dict(cfg, mode="run"), workdir / "run.json",
                     timeout=args.seconds + WORKER_GRACE) is None:
        return None
    with open(cfg["result"], encoding="utf-8") as f:
        out = json.load(f)

    ops = [workloads.Op(**op) for op in out["ops"]]
    failures, passed, accuracies = [], [], []
    for op in ops:
        problems, acc = workloads.check_op(workload, wcfg, ref, op)
        if problems:
            failures.append(f"op {op.index}: {'; '.join(problems)}")
            continue
        passed.append(op)
        if not op.traced:
            accuracies.append(acc)
    if out["wrappers_left"]:
        failures.append(f"tracing wrappers left installed: {out['wrappers_left']}")

    reference = sum(environment.REFERENCE_S[loop] for loop in workload.calibration)

    def scaled(op):
        return environment.rescale(op.seconds, op.calibration_s, reference)

    plain = [scaled(op) for op in ops if not op.traced]
    traced = [op for op in ops if op.traced and op.error is None]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "op_seconds": _summary([op.seconds for op in ops if not op.traced]),
            "op_scaled_seconds": _summary(plain),
            "op_calibration_s": _summary([op.calibration_s for op in ops]),
            "setup_seconds": _summary(setups),
            "failures": failures[:10],
            "character": workload.character(wcfg, passed)}
    if args.trace:
        metrics = {"cli.import_s": (statistics.median(imports), "s")}
        for name in tracing.layer_metrics([], input_bytes=0):
            value = statistics.median(op.layers[name] for op in traced) if traced else 0.0
            metrics[name] = (value, _unit(name))
        metrics["trace.overhead_s"] = (
            statistics.median(scaled(op) for op in traced) - statistics.median(plain)
            if traced else 0.0, "s")
        layers = {layer: statistics.median(op.layer_self.get(layer, 0.0) for op in traced)
                  for layer in sorted({k for op in traced for k in op.layer_self})}
        largest = max(layers, key=layers.get) if layers else None
        info.update(layer_self_s=layers, largest_layer=largest, predicted=workload.predicted,
                    as_predicted=largest in workload.predicted)
    else:
        metrics = {
            "total_s": (statistics.median(plain), "s"),
            "setup_s": (statistics.median(scaled_setups), "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
            # the mean, not the median: on lloyd-tail the operations' accuracies
            # split between local optima, and the median jumps between them
            "accuracy": (statistics.fmean(accuracies) if accuracies else 0.0, "fraction"),
        }
    if info["character"]:
        print(f"warning: {args.workload} lost its character: {info['character']}", file=sys.stderr)
    for line in failures[:10]:
        print(f"failed: {line}", file=sys.stderr)
    result = {"correct": not failures, "attempted": len(ops), "failed": len(ops) - len(passed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return info, result


def _start_worker(cfg: dict, path: Path, timeout: float):
    """Run one worker to completion; returns (seconds to ready, import_s) or None."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("worker.py")), str(path)],
                            stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], timeout)[0]:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: worker ({cfg['mode']}) exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not line:
        print(f"error: worker ({cfg['mode']}) exited with {proc.returncode}", file=sys.stderr)
        return None
    return ready, json.loads(line)["import_s"]


def _summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": q[1], "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values)}


def _unit(name: str) -> str:
    for suffix, unit in (("_mb_per_s", "MB/s"), ("gflop_per_s", "GFLOP/s"),
                         ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
