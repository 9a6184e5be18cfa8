"""The measured process: a fresh interpreter that plays the icfcluster user.

Usage: python3 perfbench/worker.py CONFIG_JSON

It imports icfcluster from the checkout's src/, warms up with one tiny
``icfcluster cluster`` call, and prints one JSON line ``{"ready": ...}``;
the parent's clock for set-up time stops at that line.  In ``setup`` mode it
then exits.  In ``run`` mode it repeats the workload's operation through
icfcluster.cli.main for the configured number of seconds, each call timed
alone with the host's calibration loop (environment.calibration_seconds)
timed between calls, and writes every operation's record and the process's
peak resident memory to the result file named in the config.  With tracing on, odd
operations run with the tracing wrappers installed and even ones without,
each pair on the same cluster seed, so their difference is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import resource
import sys
import time

# operations made even when one alone outlasts the run: enough for a median,
# and in a traced run two traced and two untraced
MIN_OPS = 4


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        cfg = json.load(f)
    sys.path[:0] = [cfg["src"], cfg["root"]]
    t0 = time.perf_counter()
    import icfcluster  # noqa: F401
    import icfcluster.cli
    import_s = time.perf_counter() - t0
    with contextlib.redirect_stdout(io.StringIO()):
        rc = icfcluster.cli.main(["cluster", "synth:ring:16:0.05:0", "--sigma", "16",
                                  "--subset-size", "4", "--clusters", "2"])
    if rc != 0:
        raise RuntimeError("warm-up cluster call failed")
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    if cfg["mode"] == "setup":
        return 0

    import numpy as np

    from perfbench import environment, tracing, workloads

    workload = workloads.WORKLOADS[cfg["workload"]]
    wcfg = cfg["workload_config"]
    state = workload.load(wcfg)
    tracer = tracing.Tracer() if cfg["trace"] else None
    ops = []
    calibration = environment.calibration_seconds(workload.calibration)
    deadline = time.perf_counter() + cfg["seconds"]
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        op = workloads.Op(i, 0.0, traced, cfg["seed"] + (i // 2 if tracer else i),
                          opdir=os.path.join(cfg["workdir"], f"op{i}"))
        os.makedirs(op.opdir)
        saved = _run_op(workload, wcfg, state, op, tracer if traced else None)
        after = environment.calibration_seconds(workload.calibration)
        op.calibration_s, calibration = (calibration + after) / 2, after
        if traced and op.error is None:
            op.layers = tracing.layer_metrics(tracer.spans, wcfg["input_bytes"])
            op.layer_self = tracing.layer_self_times(tracer.spans)
        if saved:
            np.savez(os.path.join(op.opdir, "readback.npz"), **saved)
        ops.append(op)

    result = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wrappers_left": tracing.installed_wrappers(),
        "ops": [dataclasses.asdict(op) for op in ops],
    }
    with open(cfg["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


def _run_op(workload, wcfg, state, op, tracer):
    """Time one operation, capturing its output; a failure is recorded, not raised."""
    from perfbench import tracing

    out = io.StringIO()
    saved = None
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    saved = workload.run(wcfg, state, op.cluster_seed, op.opdir)
                else:
                    with tracer.span(tracing.ROOT):
                        saved = workload.run(wcfg, state, op.cluster_seed, op.opdir)
            finally:
                op.seconds = time.perf_counter() - t0
    except Exception as exc:  # the run goes on; the parent counts the failed op
        op.error = f"{type(exc).__name__}: {exc}; output: {out.getvalue()[-300:]!r}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    op.stdout = out.getvalue()
    return saved


if __name__ == "__main__":
    sys.exit(main())
