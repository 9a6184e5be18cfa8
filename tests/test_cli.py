"""Tests for the command line front end."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from icfcluster import (BenchmarkConfig, KernelSpec, gen_synthetic, icf_factorize, parse_factor_dump,
                        parse_libsvm, run_benchmark)
from icfcluster import cli
from icfcluster.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_writes_parseable_dataset(self, tmp_path, capsys):
        out = tmp_path / "ring.libsvm"
        code, stdout, _ = run_cli(capsys, "synth", "ring", "500", "0.1", "42", str(out))
        assert code == 0
        assert "n=1000" in stdout
        ds = parse_libsvm(out.read_text(), name="ring")
        ref = gen_synthetic("ring", 500, 0.1, 42)
        assert np.array_equal(ds.points, ref.points)
        assert np.array_equal(ds.labels, ref.labels)

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.libsvm"
        b = tmp_path / "b.libsvm"
        assert run_cli(capsys, "synth", "zigzag", "50", "0.05", "7", str(a))[0] == 0
        assert run_cli(capsys, "synth", "zigzag", "50", "0.05", "7", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_kind_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["synth", "spiral", "10", "0.1", "0", str(tmp_path / "x")])
        assert info.value.code != 0

    def test_unwritable_output_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.libsvm"
        code, _, stderr = run_cli(capsys, "synth", "ring", "5", "0.0", "0", str(out))
        assert code == 1
        assert "error:" in stderr

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_output_mode_follows_the_umask(self, tmp_path, capsys, umask, mode):
        out = tmp_path / "ring.libsvm"
        previous = os.umask(umask)
        try:
            code, _, _ = run_cli(capsys, "synth", "ring", "5", "0.05", "0", str(out))
        finally:
            os.umask(previous)
        assert code == 0
        assert out.stat().st_mode & 0o777 == mode

    def test_failed_rename_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def replace(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", replace)
        code, _, stderr = run_cli(capsys, "synth", "ring", "5", "0.0", "0", str(tmp_path / "x.libsvm"))
        assert code == 1
        assert stderr == "error: disk full\n"
        assert os.listdir(tmp_path) == []

    def test_a_large_output_is_written_without_a_whole_encoded_copy(self, tmp_path):
        # 25 MB encoded, with two-byte and three-byte characters on every line
        text = "1 1:0.5 2:\u00e9\u2028\n" * (21 * 2 ** 20 // 16)
        out = tmp_path / "big.txt"
        tracemalloc.start()
        try:
            cli._write_atomic(str(out), text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert out.read_bytes() == text.encode("utf-8")
        assert os.listdir(tmp_path) == ["big.txt"]


class TestFactorize:
    def test_summary_line(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "factorize", "synth:ring:100:0.05:0", "--sigma", "16",
            "--subset-size", "30")
        assert code == 0
        line = stdout.splitlines()[0]
        assert line.startswith("n=200 s=30 epsilon_final=")
        assert "kernel_evals=" in line
        evals = int(line.split("kernel_evals=")[1].split()[0])
        bound = int(line.split("evals_bound=")[1].split()[0])
        assert evals <= bound == 200 * 31

    def test_dump_round_trips_through_file(self, tmp_path, capsys):
        out = tmp_path / "factor.txt"
        code, _, _ = run_cli(
            capsys, "factorize", "synth:parabolic:40:0.05:1", "--sigma", "8",
            "--subset-size", "12", "--out", str(out))
        assert code == 0
        pivots, P, history = parse_factor_dump(out.read_text())
        ref = icf_factorize(gen_synthetic("parabolic", 40, 0.05, 1),
                            KernelSpec(sigma=8.0), max_rank=12)
        assert np.array_equal(pivots, ref.pivots)
        assert np.array_equal(P, ref.P)
        assert np.array_equal(history, ref.trace_history)

    def test_huge_epsilon_stops_immediately(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "factorize", "synth:ring:20:0.0:0", "--sigma", "1",
            "--subset-size", "10", "--epsilon", "1e9")
        assert code == 0
        assert stdout.startswith("n=40 s=0 ")

    def test_reads_libsvm_files(self, tmp_path, capsys):
        path = tmp_path / "data.libsvm"
        assert run_cli(capsys, "synth", "ring", "25", "0.05", "3", str(path))[0] == 0
        code, stdout, _ = run_cli(
            capsys, "factorize", str(path), "--sigma", "16", "--subset-size", "5")
        assert code == 0
        assert stdout.startswith("n=50 s=5 ")

    def test_standardize_flag(self, capsys):
        code, _, _ = run_cli(
            capsys, "factorize", "synth:ring:20:0.05:0", "--sigma", "1",
            "--subset-size", "5", "--standardize")
        assert code == 0


class TestCluster:
    def test_separates_the_rings(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "cluster", "synth:ring:100:0.05:0", "--sigma", "16",
            "--subset-size", "50", "--clusters", "2")
        assert code == 0
        assert "accuracy=1.0" in stdout
        assert "objective=" in stdout
        assert "total_ms=" in stdout

    def test_single_cluster_assignment_file_is_all_zero(self, tmp_path, capsys):
        out = tmp_path / "assign.txt"
        code, _, _ = run_cli(
            capsys, "cluster", "synth:ring:30:0.05:0", "--sigma", "16",
            "--subset-size", "10", "--clusters", "1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 60
        assert set(lines) == {"0"}

    def test_same_seed_gives_identical_assignments(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "cluster", "synth:zigzag:80:0.05:2", "--sigma", "8",
                "--subset-size", "40", "--clusters", "2", "--seed", "5",
                "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_csv_on_stdout(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "bench", "synth:ring:50:0.05:0", "--sigma", "16",
            "--subset-size", "10,20", "--algorithms", "icf,nystrom", "--seeds", "3")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("dataset,algorithm,subset_size,seed,")
        data_rows = [l for l in lines[1:] if l.startswith("ring,")]
        assert len(data_rows) == 2 * 2 * 3
        summaries = [l for l in lines if l.startswith("algorithm=")]
        assert len(summaries) == 2
        assert all("skipped=0" in s for s in summaries)

    def test_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code, stdout, _ = run_cli(
            capsys, "bench", "synth:ring:50:0.05:0", "--sigma", "16",
            "--subset-size", "10", "--algorithms", "icf", "--seeds", "2",
            "--out", str(out))
        assert code == 0
        assert f"wrote {out}: 2 rows" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 3

    def test_full_gram_rows_are_skipped_beyond_the_guard(self, capsys):
        # 2 x 2,501 points: n = 5,002 is past the n = 5,000 guard
        code, stdout, _ = run_cli(
            capsys, "bench", "synth:ring:2501:0.05:0", "--sigma", "16", "--subset-size", "5",
            "--clusters", "2", "--seeds", "1", "--algorithms", "kernel,icf")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[1] == "ring,kernel,5,0,,,,,,"
        icf = lines[2].split(",")
        assert icf[:4] == ["ring", "icf", "5", "0"] and all(icf[4:])
        assert lines[3].startswith("algorithm=kernel rows=1 skipped=1 ")

    def test_allow_full_gram_lifts_the_guard_to_n(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_GUARD", 10)
        argv = ["bench", "synth:ring:8:0.05:0", "--sigma", "16", "--subset-size", "4", "--seeds", "1",
                "--algorithms", "kernel,chol"]
        # n = 16 is past the guard of 10, so both rows are skipped unless the flag lifts it
        for flag, filled in (([], set()), (["--allow-full-gram"], {"kernel", "chol"})):
            code, stdout, _ = run_cli(capsys, *argv, *flag)
            assert code == 0
            rows = [line.split(",") for line in stdout.splitlines()[1:3]]
            assert [row[:4] for row in rows] == [["ring", "kernel", "4", "0"], ["ring", "chol", "4", "0"]]
            assert {row[1] for row in rows if all(row[4:])} == filled
            assert {row[1] for row in rows if not any(row[4:])} == {"kernel", "chol"} - filled

    def test_a_rank_0_factor_leaves_its_row_unclustered_and_the_sweep_goes_on(self, capsys):
        # epsilon above tr(K) = 6 stops the factorization before its first column
        code, stdout, _ = run_cli(
            capsys, "bench", "synth:ring:3:0.1:0", "--sigma", "1", "--epsilon", "1e9",
            "--subset-size", "2", "--seeds", "1", "--algorithms", "rff,icf")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[1].startswith("ring,rff,2,0,") and all(lines[1].split(",")[4:])
        icf = lines[2].split(",")
        assert icf[:4] == ["ring", "icf", "2", "0"]
        accuracy, objective, rank, factorize_ms, cluster_ms, total_ms = icf[4:]
        assert (accuracy, objective, rank, cluster_ms) == ("", "", "0", "")
        assert float(factorize_ms) == float(total_ms) >= 0.0
        assert len(lines) == 5

    def test_flags_reach_the_benchmark_config(self, capsys):
        spec = "synth:ring:30:0.05:2"
        code, stdout, _ = run_cli(
            capsys, "bench", spec, "--sigma", "0.5", "--subset-size", "8,12", "--clusters", "3",
            "--epsilon", "0.5", "--max-iter", "2", "--seeds", "2",
            "--algorithms", "icf,kernel,nystrom,rff,approx")
        assert code == 0
        config = BenchmarkConfig(dataset=gen_synthetic("ring", 30, 0.05, 2),
                                 algorithms=("icf", "kernel", "nystrom", "rff", "approx"),
                                 subset_sizes=(8, 12), sigma=0.5, clusters=3, num_seeds=2,
                                 epsilon=0.5, max_iter=2)
        expected = run_benchmark(config).to_csv().splitlines()
        got = [l for l in stdout.splitlines() if not l.startswith("algorithm=")]
        assert len(got) == len(expected) == 1 + 5 * 2 * 2
        assert [l.split(",")[:7] for l in got] == [l.split(",")[:7] for l in expected]

    def test_unknown_algorithm_exits_one(self, capsys):
        code, _, stderr = run_cli(
            capsys, "bench", "synth:ring:20:0.05:0", "--sigma", "16",
            "--subset-size", "5", "--algorithms", "svd")
        assert code == 1
        assert "error:" in stderr

    @pytest.mark.parametrize("flags", [
        ["--subset-size", "5", "--seeds", "0"],
        ["--subset-size", "5", "--seeds", "-2"],
        ["--subset-size", "5,5"],
        ["--subset-size", "5", "--algorithms", "icf,icf"],
    ], ids=["no-seeds", "negative-seeds", "repeated-size", "repeated-algorithm"])
    def test_a_sweep_without_rows_or_with_repeated_rows_exits_one(self, tmp_path, capsys, flags):
        out = tmp_path / "report.csv"
        code, stdout, stderr = run_cli(
            capsys, "bench", "synth:ring:10:0:0", "--sigma", "1", *flags, "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert not out.exists()


class TestErrorPaths:
    def test_missing_dataset_file(self, capsys):
        code, _, stderr = run_cli(
            capsys, "factorize", "/no/such/file.libsvm", "--sigma", "1",
            "--subset-size", "5")
        assert code == 1
        assert "no such dataset file" in stderr

    def test_malformed_synthetic_spec(self, capsys):
        code, _, stderr = run_cli(
            capsys, "factorize", "synth:ring:abc:0.1:0", "--sigma", "1",
            "--subset-size", "5")
        assert code == 1
        assert "bad synthetic spec" in stderr

    def test_index_too_large_for_memory(self, tmp_path, capsys):
        # 10**400 overflows a float, so the refusal is sized in ints
        path = tmp_path / "wide.libsvm"
        for idx in (10 ** 15, 10 ** 400):
            path.write_text(f"1 1:1\n1 {idx}:1\n")
            code, stdout, stderr = run_cli(capsys, "cluster", str(path), "--sigma", "1")
            assert (code, stdout) == (1, "")
            assert stderr == (f"error: line 2: index {idx} needs a dense 2 x {idx} point matrix, "
                              "more than this machine's memory\n")

    def test_byte_not_utf8_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.libsvm"
        path.write_bytes(b"1 1:1\n\xff 1:1\n")
        code, _, stderr = run_cli(capsys, "cluster", str(path), "--sigma", "1")
        assert code == 1
        assert stderr == "error: line 2: byte 0xff is not UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize("command", ["factorize", "cluster"])
    def test_subset_size_not_an_integer(self, capsys, command):
        code, _, stderr = run_cli(
            capsys, command, "synth:ring:5:0.0:0", "--sigma", "1", "--subset-size", "abc")
        assert code == 1
        assert stderr == "error: invalid literal for int() with base 10: 'abc'\n"

    @pytest.mark.parametrize("command", ["factorize", "bench"])
    def test_seed_is_refused_outside_cluster(self, capsys, command):
        # bench must not read --seed as an abbreviation of --seeds
        with pytest.raises(SystemExit) as info:
            main([command, "synth:ring:5:0.0:0", "--sigma", "1", "--seed", "1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
    @pytest.mark.parametrize("argv", [["synth", "ring", "3", "{noise}", "0", "{out}"],
                                      ["factorize", "synth:ring:3:{noise}:0", "--sigma", "1"]],
                             ids=["synth", "spec"])
    def test_noise_not_finite_and_non_negative(self, tmp_path, capsys, argv, noise):
        out = tmp_path / "x.libsvm"
        code, stdout, stderr = run_cli(capsys, *(a.format(noise=noise, out=out) for a in argv))
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert f"noise must be finite and >= 0, got {float(noise)}" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("per_cluster", [10 ** 30, 2 ** 63], ids=["10**30", "2**63"])
    @pytest.mark.parametrize("argv", [["synth", "ring", "{n}", "0.1", "1", "{out}"],
                                      ["factorize", "synth:ring:{n}:0.1:1", "--sigma", "1"]],
                             ids=["synth", "spec"])
    def test_a_per_cluster_too_large_for_memory_is_refused_by_name(self, tmp_path, capsys, argv, per_cluster):
        out = tmp_path / "x.libsvm"
        code, stdout, stderr = run_cli(capsys, *(a.format(n=per_cluster, out=out) for a in argv))
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert stderr.endswith(f"per_cluster={per_cluster} needs a dense {2 * per_cluster} x 2 point matrix, "
                               "more than this machine's memory\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["factorize", "synth:ring:500000:0.1:0", "--subset-size", "1000000"],
         "max_rank=1000000 needs a dense 1000000 x 1000000 factor"),
        (["bench", "synth:ring:500000:0.1:0", "--algorithms", "kernel", "--allow-full-gram", "--seeds", "1"],
         "full Gram matrix refused: n=1000000 with guard=1000000 needs a dense 1000000 x 1000000 Gram matrix"),
        (["bench", "synth:ring:500000:0.1:0", "--subset-size", "1000000", "--algorithms", "nystrom",
          "--seeds", "1"],
         "subset_size=1000000 needs a dense 1000000 x 1000000 block of Gram columns"),
        (["bench", "synth:ring:3:0.1:0", "--subset-size", str(10 ** 12), "--algorithms", "rff", "--seeds", "1"],
         f"num_features={10 ** 12} needs a dense 6 x {10 ** 12} feature matrix"),
        # refused before the k-means++ draws, which would take minutes
        (["cluster", "synth:ring:500000:0.1:0", "--subset-size", "1", "--clusters", "1000000"],
         "k=1000000 needs a dense 1000000 x 1000000 score matrix"),
    ], ids=["factor", "gram", "nystrom", "rff", "scores"])
    def test_a_size_too_large_for_memory_is_refused_by_name(self, tmp_path, capsys, argv, message):
        # terabytes, so a run that allocates fails at once rather than
        # filling this machine's memory
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, *argv, "--sigma", "1", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert stderr == f"error: {message}, more than this machine's memory\n"
        assert not out.exists()

    def test_cluster_on_a_rank_0_factor(self, capsys):
        # factorize reports s=0 (test_huge_epsilon_stops_immediately); there
        # is nothing to cluster in it
        code, stdout, stderr = run_cli(
            capsys, "cluster", "synth:ring:3:0.1:0", "--sigma", "1", "--subset-size", "3", "--epsilon", "1e9")
        assert (code, stdout) == (1, "")
        assert stderr == "error: points must have at least one column, got 6 x 0 (a rank-0 factor has none)\n"

    @pytest.mark.parametrize("target, errno, message", [("missing/x.out", 2, "No such file or directory"),
                                                        ("a-dir", 21, "Is a directory")],
                             ids=["missing-dir", "directory"])
    @pytest.mark.parametrize("argv", [["synth", "ring", "3", "0.1", "0", "{out}"],
                                      ["factorize", "synth:ring:3:0.1:0", "--sigma", "1", "--subset-size", "2",
                                       "--out", "{out}"],
                                      ["cluster", "synth:ring:3:0.1:0", "--sigma", "1", "--subset-size", "2",
                                       "--out", "{out}"],
                                      ["bench", "synth:ring:3:0.1:0", "--sigma", "1", "--subset-size", "2",
                                       "--seeds", "1", "--out", "{out}"]],
                             ids=["synth", "factorize", "cluster", "bench"])
    def test_an_unwritable_out_is_named_and_leaves_no_temp_file(self, tmp_path, capsys, argv, target, errno,
                                                                 message):
        (tmp_path / "a-dir").mkdir()
        out = str(tmp_path / target)
        code, stdout, stderr = run_cli(capsys, *(a.format(out=out) for a in argv))
        assert (code, stdout) == (1, "")
        assert stderr == f"error: [Errno {errno}] {message}: {out!r}\n"
        assert sorted(os.listdir(tmp_path)) == ["a-dir"] and os.listdir(tmp_path / "a-dir") == []

    @pytest.mark.parametrize("argv", [["cluster", "synth:ring:3:0.1:0", "--sigma", "1", "--subset-size", "2",
                                       "--seed", "-1"],
                                      ["synth", "ring", "3", "0.1", "-1", "{out}"],
                                      ["factorize", "synth:ring:3:0.1:-1", "--sigma", "1", "--subset-size", "2"]],
                             ids=["cluster", "synth", "spec"])
    def test_a_negative_seed_is_refused_by_name(self, tmp_path, capsys, argv):
        out = tmp_path / "x.libsvm"
        code, stdout, stderr = run_cli(capsys, *(a.format(out=out) for a in argv))
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert stderr.endswith("seed must be a non-negative integer, got -1\n")
        assert not out.exists()

    def test_points_whose_squared_distances_overflow_are_refused(self, capsys):
        code, stdout, stderr = run_cli(capsys, "factorize", "synth:ring:3:1e200:0", "--sigma", "1",
                                       "--subset-size", "2")
        assert (code, stdout) == (1, "")
        assert stderr == "error: points spread too far: their squared distances overflow\n"

    def test_a_sigma_too_large_for_random_features_is_refused(self, capsys):
        code, stdout, stderr = run_cli(capsys, "bench", "synth:ring:3:0.1:0", "--sigma", "1e308",
                                       "--subset-size", "2", "--seeds", "1", "--algorithms", "icf,rff")
        assert (code, stdout) == (1, "")
        assert stderr == "error: random Fourier features overflow: sigma=1e+308 is too large for these points\n"

    def test_subset_size_beyond_n(self, capsys):
        code, _, stderr = run_cli(
            capsys, "factorize", "synth:ring:5:0.0:0", "--sigma", "1",
            "--subset-size", "11")
        assert code == 1
        assert "max_rank" in stderr


class TestModuleEntryPoint:
    def test_cluster_leaves_numpy_ma_unimported(self, tmp_path):
        # plain np.unique, np.setdiff1d and np.median import numpy.ma, about
        # half of a fresh interpreter's first cluster call, where
        # np.unique(..., return_inverse=True) does not; the writers' exact
        # digits take neither decimal nor fractions.  So no command loads any
        # of the three: a synth write, a factor dump, a cluster call, one
        # whose k-means++ falls back to a uniform draw (two points, each
        # twice, in three clusters) and a bench sweep of every algorithm with
        # an even seed count, whose summary medians average two rows
        ring, dups = str(tmp_path / "ring.libsvm"), tmp_path / "dups.libsvm"
        dups.write_text("0 1:0 2:0\n0 1:0 2:0\n1 1:5 2:5\n1 1:5 2:5\n")
        calls = [["synth", "ring", "50", "0.1", "0", ring],
                 ["factorize", ring, "--sigma", "16", "--subset-size", "4", "--out", str(tmp_path / "ring.factor")],
                 ["cluster", "synth:ring:16:0.05:0", "--sigma", "16", "--subset-size", "4", "--clusters", "2"],
                 ["cluster", str(dups), "--sigma", "1", "--subset-size", "2", "--clusters", "3"],
                 ["bench", "synth:ring:16:0.05:0", "--sigma", "16", "--subset-size", "4", "--seeds", "2",
                  "--algorithms", "icf,kernel,chol,nystrom,rff,approx"]]
        code = ("import sys, icfcluster.cli\n"
                "loaded = lambda: [m for m in ('numpy.ma', 'decimal', 'fractions') if m in sys.modules]\n"
                "print('import', loaded())\n"
                f"for argv in {calls!r}:\n"
                "    code = icfcluster.cli.main(argv)\n"
                "    print(argv[0], code, loaded())\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports = [line for line in proc.stdout.splitlines() if line.endswith("]")]
        assert reports == ["import []"] + [f"{argv[0]} 0 []" for argv in calls]

    def test_runs_as_python_module(self, tmp_path):
        out = tmp_path / "ring.libsvm"
        proc = subprocess.run(
            [sys.executable, "-m", "icfcluster.cli", "synth", "ring", "5", "0.0", "0", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()
        proc2 = subprocess.run(
            [sys.executable, "-m", "icfcluster.cli", "factorize", str(out),
             "--sigma", "1", "--subset-size", "3"],
            capture_output=True, text=True)
        assert proc2.returncode == 0
        assert proc2.stdout.startswith("n=10 s=3 ")
