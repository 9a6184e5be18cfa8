"""Tests of the benchmark itself: span arithmetic, wrapper lifetime, output checks.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import icfcluster.cli  # noqa: E402
import icfcluster.icf  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402
from perfbench.worker import _run_op  # noqa: E402

TINY_CLUSTER = ["cluster", "synth:ring:40:0.05:0", "--sigma", "16",
                "--subset-size", "6", "--clusters", "2"]


def _span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("bench.op", 0.0, 10.0),
        _span("cli.main", 1.0, 9.0, parent=0),
        _span("icf.icf_factorize", 2.0, 6.0, parent=1),
        _span("kernel.kernel_column", 3.0, 4.0, parent=2),
        _span("kernel.kernel_column", 4.5, 5.0, parent=2),
        _span("cluster.lloyd", 6.5, 8.5, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 2.5, 1.0, 0.5, 2.0])
    by_layer = tracing.layer_self_times(spans)
    assert by_layer == pytest.approx({"bench": 2.0, "cli": 2.0, "icf": 2.5, "kernel": 1.5, "cluster": 2.0})
    assert sum(by_layer.values()) == pytest.approx(spans[0].seconds)


def test_dump_functions_form_their_own_layer():
    assert tracing.layer_of("icf.dump_factor") == "icf.dump"
    assert tracing.layer_of("icf.parse_factor_dump") == "icf.dump"
    assert tracing.layer_of("icf.icf_factorize") == "icf"


def test_tracer_records_nested_spans_and_restores_every_binding(capsys):
    originals = {(mod, name): getattr(sys.modules[mod], name) for mod, name in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert icfcluster.cli.main(TINY_CLUSTER) == 0
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main"
    factorize = names.index("icf.icf_factorize")
    assert tracer.spans[factorize].parent == 0
    columns = [s for s in tracer.spans if s.name == "kernel.kernel_column"]
    assert len(columns) == tracer.spans[factorize].info["s"] == 6
    assert all(s.parent == factorize for s in columns)
    assert tracer.spans[names.index("cluster.kmeans_pp_init")].parent == names.index("cluster.lloyd")
    metrics = tracing.layer_metrics(tracer.spans, input_bytes=0)
    assert metrics["kernel.column_calls"] == 6
    assert metrics["icf.kernel_evals"] == 80 * 7

    assert tracing.installed_wrappers() == []
    for (mod, name), fn in originals.items():
        assert getattr(sys.modules[mod], name) is fn
    assert icfcluster.cli.icf_factorize is icfcluster.icf.icf_factorize
    count = len(tracer.spans)
    assert icfcluster.cli.main(TINY_CLUSTER) == 0
    assert len(tracer.spans) == count
    capsys.readouterr()


def test_wrappers_are_removed_even_when_the_traced_operation_fails(tmp_path):
    workload, cfg, ref = _small_cluster_workload(tmp_path)
    cfg = dict(cfg, input=str(tmp_path / "missing.libsvm"))
    op = _op(tmp_path, 0, traced=True)
    _run_op(workload, cfg, None, op, tracing.Tracer())
    assert op.error is not None
    assert tracing.installed_wrappers() == []
    problems, _ = workloads.check_op(workload, cfg, ref, op)
    assert problems


def _op(tmp_path, index, traced=False):
    op = workloads.Op(index, 0.0, traced, cluster_seed=index, opdir=str(tmp_path / f"op{index}"))
    os.makedirs(op.opdir)
    return op


def _small_cluster_workload(tmp_path):
    workload = workloads.LloydTail()
    workload.n, workload.subset_size, workload.max_iter = 300, 20, 5
    cfg, ref = workload.prepare(3, str(tmp_path))
    return workload, cfg, ref


def test_cluster_check_accepts_good_output_and_fails_a_short_assignment_file(tmp_path):
    workload, cfg, ref = _small_cluster_workload(tmp_path)
    op = _op(tmp_path, 0)
    _run_op(workload, cfg, None, op, None)
    assert op.error is None
    problems, acc = workloads.check_op(workload, cfg, ref, op)
    assert problems == [] and 0.0 < acc <= 1.0

    path = os.path.join(op.opdir, "assign.txt")
    with open(path) as f:
        lines = f.readlines()
    with open(path, "w") as f:
        f.writelines(lines[:-3])
    problems, acc = workloads.check_op(workload, cfg, ref, op)
    assert problems and acc is None

    os.remove(path)
    problems, acc = workloads.check_op(workload, cfg, ref, op)
    assert problems and acc is None


def test_cluster_check_catches_a_wrong_objective(tmp_path):
    workload, cfg, ref = _small_cluster_workload(tmp_path)
    op = _op(tmp_path, 0)
    _run_op(workload, cfg, None, op, None)
    head, result, *rest = op.stdout.splitlines()
    objective = float(result.split()[0].split("=")[1])
    op.stdout = "\n".join([head, result.replace(repr(objective), repr(objective * (1 + 1e-6)))] + rest)
    problems, _ = workloads.check_op(workload, cfg, ref, op)
    assert any("objective" in p for p in problems)


def _small_io_workload(tmp_path):
    workload = workloads.IoRoundtrip()
    workload.n, workload.subset_size = 200, 10
    cfg, ref = workload.prepare(5, str(tmp_path))
    return workload, cfg, ref, workload.load(cfg)


def _run_io_op(workload, cfg, dataset, op):
    saved = _run_op(workload, cfg, dataset, op, None)
    if saved:
        np.savez(os.path.join(op.opdir, "readback.npz"), **saved)


def test_io_check_passes_a_bit_exact_round_trip(tmp_path):
    workload, cfg, ref, dataset = _small_io_workload(tmp_path)
    op = _op(tmp_path, 0)
    _run_io_op(workload, cfg, dataset, op)
    assert workloads.check_op(workload, cfg, ref, op) == ([], 1.0)


@pytest.mark.parametrize("corrupt", [
    lambda text: text[: len(text) // 2],
    lambda text: text.replace("e-01", "e-02", 1),
])
def test_a_corrupted_dump_counts_as_a_failed_op(tmp_path, monkeypatch, corrupt):
    workload, cfg, ref, dataset = _small_io_workload(tmp_path)
    dump = icfcluster.icf.dump_factor
    monkeypatch.setattr(icfcluster.cli, "dump_factor", lambda factor: corrupt(dump(factor)))
    op = _op(tmp_path, 0)
    _run_io_op(workload, cfg, dataset, op)
    problems, _ = workloads.check_op(workload, cfg, ref, op)
    assert problems


def test_bench_check_requires_the_exact_csv_header(tmp_path):
    workload = workloads.BaselineSweep()
    cfg, ref = workload.prepare(0, str(tmp_path))
    op = _op(tmp_path, 0)
    header = icfcluster.evaluate.CSV_HEADER
    row = "ring,kernel,400,0,1.0,0.5,400,1.000,1.000,2.000"
    with open(os.path.join(op.opdir, "bench.csv"), "w") as f:
        f.write("\n".join([header] + [row] * 25) + "\n")
    assert workloads.check_op(workload, cfg, ref, op) == ([], 1.0)
    with open(os.path.join(op.opdir, "bench.csv"), "w") as f:
        f.write("\n".join([header + " "] + [row] * 25) + "\n")
    problems, _ = workloads.check_op(workload, cfg, ref, op)
    assert any("header" in p for p in problems)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    per_layer = {m["name"] for m in spec["per_layer"]}
    printed = set(tracing.layer_metrics([], input_bytes=0)) | {"cli.import_s", "trace.overhead_s"}
    assert per_layer == printed
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"total_s", "setup_s", "peak_rss_mb", "accuracy"}


def test_benchmark_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "factor-mixture",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
