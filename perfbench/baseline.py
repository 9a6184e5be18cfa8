"""Record a baseline: repeated benchmark runs summarised per workload and metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs every workload of BENCHMARK.json RUNS times untraced, seeds 1..RUNS,
and once traced (seed 1), one run at a time.  For each end-to-end metric it
records the median, the quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median, next to the metric's bound; for
the traced run it records every per-layer number and the largest self-time
layer.  A later change compares its own runs against these numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# untraced runs per workload, as many as a comparison of two commits uses
RUNS = 10


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / median if median else 0.0, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results, environment, failed = [], None, 0
        for seed in range(1, RUNS + 1):
            info, result = run_once(spec, workload, seed, trace=0)
            environment = environment or info["environment"]
            failed += result["failed"]
            results.append(result["metrics"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
        info, traced = run_once(spec, workload, 1, trace=1)
        report["workloads"][workload] = {
            "failed_ops": failed,
            "end_to_end": {name: summarise([r[name]["value"] for r in results], bounds.get(name))
                           for name in results[0]},
            "traced_seed_1": {"metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                              "layer_self_s": info["layer_self_s"],
                              "largest_layer": info["largest_layer"],
                              "as_predicted": info["as_predicted"]},
            "environment": environment,
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
