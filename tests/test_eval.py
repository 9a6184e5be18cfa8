"""Tests for scoring, diagnostics, and the benchmark harness."""

import gc
import itertools
import subprocess
import sys
import weakref

import numpy as np
import pytest

from icfcluster import (
    BenchmarkConfig,
    CSV_HEADER,
    Dataset,
    KernelSpec,
    accuracy,
    bound_gap,
    fit_decay,
    icf_factorize,
    reconstruct,
    run_benchmark,
    trace_objective,
)
from icfcluster import baselines, evaluate
from icfcluster.baselines import approx_kkmeans, chol_embedding, nystrom_embedding, rff_embedding
from icfcluster.cluster import lloyd, oracle_embedding
from icfcluster.kernel import full_gram, kernel_columns

GAUSS = KernelSpec(sigma=0.5)


class TestAccuracy:
    def test_identical_labelings(self):
        assert accuracy(np.array([0, 1, 2, 0]), np.array([0, 1, 2, 0])) == 1.0

    def test_relabeled_partition_scores_one(self):
        pred = np.array([2, 2, 0, 0, 1, 1])
        truth = np.array([0, 0, 1, 1, 2, 2])
        assert accuracy(pred, truth) == 1.0

    def test_single_disagreement(self):
        assert accuracy(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1])) == 0.75

    def test_invariant_to_id_permutations(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, size=50)
        pred = rng.integers(0, 4, size=50)
        base = accuracy(pred, truth)
        perm = np.array([2, 3, 0, 1])
        assert accuracy(perm[pred], truth) == base

    def test_non_contiguous_ids(self):
        assert accuracy(np.array([5, 5, 9, 9]), np.array([1, 1, 7, 7])) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0, 1, 1]))
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


    def test_a_contingency_table_beyond_memory_is_refused_by_name(self, physical_memory):
        # 100 label ids: the table and the matching's cost matrix are two
        # 100 x 100 matrices, of which this memory holds one and a half
        truth = np.arange(100)
        pred = truth[::-1].copy()
        physical_memory(150 * 100 * 8)
        with pytest.raises(ValueError) as info:
            accuracy(pred, truth)
        assert str(info.value) == ("accuracy of 100 cluster or label ids needs 2 times a dense 100 x 100 "
                                   "contingency table, more than this machine's memory")
        physical_memory(200 * 100 * 8)
        assert accuracy(pred, truth) == 1.0


def brute_force_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Best matched fraction over every one-to-one relabeling of the ids."""
    pred_ids, truth_ids = np.unique(pred), np.unique(truth)
    size = max(pred_ids.size, truth_ids.size)
    table = np.zeros((size, size), dtype=np.int64)
    for a, p in enumerate(pred_ids):
        for b, t in enumerate(truth_ids):
            table[a, b] = np.sum((pred == p) & (truth == t))
    perms = np.array(list(itertools.permutations(range(size))))
    return int(table[np.arange(size), perms].sum(axis=1).max()) / pred.size


class TestAccuracyMatchesBruteForce:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_random_labelings(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(12):
            n = int(rng.integers(1, 80))
            # sparse ids, so labels between the used ones are absent
            truth_ids = rng.choice(40, size=k, replace=False)
            pred_ids = rng.choice(40, size=int(rng.integers(1, k + 1)), replace=False)
            classes = rng.integers(0, k, n)
            truth = truth_ids[classes]
            # a noisy relabeling of the truth, so the best matching is far from random
            agree = rng.random(n) < rng.random()
            pred = pred_ids[np.where(agree, classes % pred_ids.size, rng.integers(0, pred_ids.size, n))]
            assert accuracy(pred, truth) == brute_force_accuracy(pred, truth)
            assert accuracy(truth, pred) == brute_force_accuracy(truth, pred)

    def test_large_relabeling_scores_one(self):
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 60, 3000)
        assert accuracy(rng.permutation(60)[truth], truth) == 1.0


def test_cli_starts_and_scores_without_scipy():
    # accuracy solves its matching in-package; scipy's import would
    # dominate the command line's start-up time
    code = (
        "import sys\n"
        "import icfcluster.cli\n"
        "assert icfcluster.cli.main(['cluster', 'synth:ring:20:0.05:0', '--sigma', '16',\n"
        "                            '--subset-size', '5', '--clusters', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "accuracy=" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


class TestTraceObjective:
    def test_single_cluster_closed_form(self):
        ds = Dataset(np.random.default_rng(31).normal(size=(15, 3)))
        K = full_gram(GAUSS, ds)
        got = trace_objective(K, np.zeros(15, dtype=int), 1)
        assert got == pytest.approx(float(K.sum()) / 15 ** 2, rel=1e-12)

    def test_one_point_per_cluster_scores_one(self):
        ds = Dataset(np.random.default_rng(32).normal(size=(8, 2)))
        K = full_gram(GAUSS, ds)
        assert trace_objective(K, np.arange(8), 8) == pytest.approx(1.0, rel=1e-12)

    def test_complements_the_clustering_objective(self):
        # the k-means objective plus this partition score equals tr(K)/n
        ds = Dataset(np.random.default_rng(33).normal(size=(12, 3)))
        K = full_gram(GAUSS, ds)
        model = lloyd(oracle_embedding(ds, GAUSS), 3, 0)
        lhs = float(np.trace(K)) / 12 - model.objective
        assert lhs == pytest.approx(trace_objective(K, model.assignments, 3), abs=1e-9)

    def test_oracle_attains_brute_force_maximum(self):
        # three tight separated groups of four: enumerate every partition into
        # exactly three non-empty clusters and check the solver finds the best
        rng = np.random.default_rng(30)
        pts = np.vstack([rng.normal(0, 0.3, (4, 2)), rng.normal((6, 0), 0.3, (4, 2)),
                         rng.normal((0, 6), 0.3, (4, 2))])
        ds = Dataset(pts)
        K = full_gram(GAUSS, ds)
        A = np.array(list(itertools.product(range(3), repeat=12)), dtype=np.int64)
        used = np.ones(len(A), dtype=bool)
        for c in range(3):
            used &= (A == c).any(axis=1)
        A = A[used]
        score = np.zeros(len(A))
        for c in range(3):
            M = (A == c).astype(np.float64)
            score += np.einsum("ij,ij->i", M @ K, M) / M.sum(axis=1)
        score /= 12.0
        best = float(score.max())
        model = lloyd(oracle_embedding(ds, GAUSS), 3, 0)
        assert trace_objective(K, model.assignments, 3) == pytest.approx(best, rel=1e-9)

    def test_factor_path_matches_dense_path(self):
        ds = Dataset(np.random.default_rng(34).normal(size=(25, 3)))
        factor = icf_factorize(ds, GAUSS, max_rank=10, epsilon=1e-300)
        assign = np.random.default_rng(35).integers(0, 3, size=25)
        assign[:3] = [0, 1, 2]
        via_factor = trace_objective(factor, assign, 3)
        via_dense = trace_objective(reconstruct(factor), assign, 3)
        assert via_factor == pytest.approx(via_dense, rel=1e-9)

    def test_validation(self):
        K = np.eye(4)
        with pytest.raises(ValueError):
            trace_objective(K, np.array([0, 1, 0]), 2)  # n mismatch
        with pytest.raises(ValueError):
            trace_objective(K, np.array([0, 1, 2, 3]), 3)  # id out of range
        with pytest.raises(ValueError):
            trace_objective(K, np.array([0, 0, 0, 0]), 2)  # empty cluster
        factor = icf_factorize(Dataset(np.random.default_rng(36).normal(size=(5, 2))), GAUSS,
                               max_rank=2, epsilon=1e-300)
        with pytest.raises(ValueError, match="does not match n=4"):
            trace_objective(factor, np.array([0, 1, 0, 1]), 2)  # n mismatch


class TestBoundGap:
    def test_full_rank_factor_gives_zero_gap(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(60, 3)))
        gap, bound = bound_gap(ds, GAUSS, k=2, subset_size=60, seed=0, epsilon=1e-300)
        assert gap == pytest.approx(0.0, abs=1e-6)
        assert gap <= bound + 1e-12

    def test_single_cluster_gap_is_exactly_zero(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(60, 3)))
        gap, bound = bound_gap(ds, GAUSS, k=1, subset_size=10, seed=0)
        assert gap == 0.0
        assert bound > 0.0

    def test_an_eigendecomposition_beyond_memory_is_refused_by_name(self, physical_memory):
        # one 200 x 200 K fits in this memory, eigh's 5.05 of them do not
        ds = Dataset(np.random.default_rng(0).normal(size=(200, 3)))
        physical_memory(4 * 200 * 200 * 8)
        with pytest.raises(ValueError) as info:
            bound_gap(ds, GAUSS, k=2, subset_size=10, seed=0)
        assert str(info.value) == ("full Gram matrix refused: n=200 with guard=5000 needs 5.05 times a dense "
                                   "200 x 200 Gram matrix, more than this machine's memory")

    @pytest.mark.parametrize("seed", range(3))
    def test_observed_degradation_within_guarantee(self, seed):
        ds = Dataset(np.random.default_rng(seed).normal(size=(200, 5)))
        gap, bound = bound_gap(ds, GAUSS, k=3, subset_size=20, seed=seed)
        assert gap <= bound


class TestFitDecay:
    def test_exact_geometric_sequence(self):
        C, b, r2 = fit_decay(np.array([8.0, 4.0, 2.0, 1.0]))
        assert C == pytest.approx(8.0, rel=1e-12)
        assert b == pytest.approx(np.log(2.0), rel=1e-12)
        assert r2 == 1.0

    def test_arithmetic_sequence_fits_poorly(self):
        C, b, r2 = fit_decay(np.arange(200.0, 150.0, -1.0))
        assert b > 0.0
        assert r2 < 1.0

    def test_requires_three_positive_entries(self):
        with pytest.raises(ValueError):
            fit_decay(np.array([5.0, 3.0]))
        with pytest.raises(ValueError):
            fit_decay(np.array([4.0, 2.0, 0.0]))

    def test_trailing_filler_below_floor_is_dropped(self):
        # entries below 1e-12 of the initial trace do not poison the log fit
        hist = np.array([8.0, 4.0, 2.0, 1.0, 1e-15, 1e-16])
        C, b, r2 = fit_decay(hist)
        assert b == pytest.approx(np.log(2.0), rel=1e-12)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            fit_decay(np.ones((3, 3)))


def small_labeled_dataset() -> Dataset:
    rng = np.random.default_rng(40)
    pts = np.vstack([rng.normal(0, 0.4, (20, 3)), rng.normal(4, 0.4, (20, 3))])
    return Dataset(pts, labels=np.repeat([0, 1], 20), name="blobs")


class TestRunBenchmark:
    def test_row_cardinality_is_the_cross_product(self):
        cfg = BenchmarkConfig(dataset=small_labeled_dataset(),
                              algorithms=["icf", "nystrom"],
                              subset_sizes=[5, 10, 20], sigma=0.5, clusters=2)
        report = run_benchmark(cfg)
        assert len(report.rows) == 1 * 2 * 3 * 10

    def test_metric_columns_reproducible(self):
        cfg = BenchmarkConfig(dataset=small_labeled_dataset(),
                              algorithms=["icf", "nystrom", "rff", "approx"],
                              subset_sizes=[5, 10], sigma=0.5, clusters=2, num_seeds=3)
        a = run_benchmark(cfg).rows
        b = run_benchmark(cfg).rows
        for ra, rb in zip(a, b):
            assert (ra.dataset, ra.algorithm, ra.subset_size, ra.seed) == \
                   (rb.dataset, rb.algorithm, rb.subset_size, rb.seed)
            assert ra.accuracy == rb.accuracy
            assert ra.objective == rb.objective
            assert ra.achieved_rank == rb.achieved_rank

    def test_csv_header_and_row_shape(self):
        cfg = BenchmarkConfig(dataset=small_labeled_dataset(), algorithms=["icf"],
                              subset_sizes=[5], sigma=0.5, clusters=2, num_seeds=1)
        csv = run_benchmark(cfg).to_csv()
        lines = csv.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == ("dataset,algorithm,subset_size,seed,accuracy,objective,"
                            "achieved_rank,factorize_ms,cluster_ms,total_ms")
        fields = lines[1].split(",")
        assert len(fields) == 10
        assert fields[0] == "blobs" and fields[1] == "icf"
        assert float(fields[4]) == 1.0
        assert repr(float(fields[5])) == fields[5]  # full-precision round trip
        assert int(fields[6]) <= 5
        for ms in fields[7:]:
            whole, frac = ms.split(".")
            assert whole.isdigit() and len(frac) == 3

    def test_full_matrix_algorithms_skipped_beyond_guard(self):
        cfg = BenchmarkConfig(dataset=small_labeled_dataset(),
                              algorithms=["kernel", "chol", "icf"],
                              subset_sizes=[5], sigma=0.5, clusters=2,
                              num_seeds=2, guard=30)
        report = run_benchmark(cfg)
        for row in report.rows:
            if row.algorithm in ("kernel", "chol"):
                assert row.skipped and row.objective is None
            else:
                assert not row.skipped and row.objective is not None
        line = report.to_csv().splitlines()[1]
        assert line == "blobs,kernel,5,0,,,,,,"

    def test_unlabeled_dataset_leaves_accuracy_empty(self):
        ds = Dataset(small_labeled_dataset().points, name="anon")
        cfg = BenchmarkConfig(dataset=ds, algorithms=["icf"], subset_sizes=[5],
                              sigma=0.5, clusters=2, num_seeds=1)
        report = run_benchmark(cfg)
        assert report.rows[0].accuracy is None
        fields = report.to_csv().splitlines()[1].split(",")
        assert fields[4] == "" and fields[5] != ""

    def test_rff_rounds_subset_size_up_to_even(self):
        cfg = BenchmarkConfig(dataset=small_labeled_dataset(), algorithms=["rff"],
                              subset_sizes=[5], sigma=0.5, clusters=2, num_seeds=1)
        report = run_benchmark(cfg)
        assert report.rows[0].achieved_rank == 6

    def test_unknown_algorithm_rejected(self):
        cfg = BenchmarkConfig(dataset=small_labeled_dataset(), algorithms=["svd"],
                              subset_sizes=[5], sigma=0.5, clusters=2)
        with pytest.raises(ValueError):
            run_benchmark(cfg)

    @pytest.mark.parametrize("field, value", [
        ("num_seeds", 0),
        ("num_seeds", -3),
        ("algorithms", ()),
        ("algorithms", ["icf", "nystrom", "icf"]),
        ("subset_sizes", ()),
        ("subset_sizes", [5, 5]),
    ])
    def test_a_sweep_without_rows_or_with_repeated_rows_is_refused_by_name(self, monkeypatch,
                                                                             field, value):
        built = []
        monkeypatch.setattr(evaluate, "_run_cell", lambda *args: built.append(args))
        monkeypatch.setattr(evaluate, "_warmup", lambda *args: built.append(args))
        fields = dict(dataset=small_labeled_dataset(), algorithms=["icf", "nystrom"],
                      subset_sizes=[5, 10], sigma=0.5, clusters=2, num_seeds=2)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            run_benchmark(BenchmarkConfig(**fields))
        assert built == []

    def test_a_huge_seed_count_is_checked_without_listing_the_seeds(self):
        # a set of range(10**30) would fill memory before the repeated
        # algorithm is named
        cfg = BenchmarkConfig(dataset=small_labeled_dataset(), algorithms=["icf", "icf"], subset_sizes=[5],
                              sigma=0.5, clusters=2, num_seeds=10 ** 30)
        with pytest.raises(ValueError, match="algorithms must give one or more rows"):
            run_benchmark(cfg)


ALL_ALGORITHMS = ["icf", "kernel", "chol", "nystrom", "rff", "approx"]


def shared_config(**overrides) -> BenchmarkConfig:
    fields = dict(dataset=small_labeled_dataset(), algorithms=ALL_ALGORITHMS,
                  subset_sizes=[5, 10], sigma=0.5, clusters=2, num_seeds=3)
    fields.update(overrides)
    return BenchmarkConfig(**fields)


class TestSeedFreeEmbeddingsShared:
    """icf, kernel and chol ignore the seed: one build per (algorithm, size)
    serves every seed's Lloyd run, and its rows charge that build's time."""

    def counted(self, monkeypatch, names, module=evaluate):
        calls = {name: 0 for name in names}
        for name in names:
            def wrapper(dataset, *args, _name=name, _inner=getattr(module, name), **kwargs):
                if dataset.name != "warmup":
                    calls[_name] += 1
                return _inner(dataset, *args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_builds_per_group_and_per_seed(self, monkeypatch):
        calls = self.counted(monkeypatch, ["icf_factorize", "oracle_embedding", "chol_embedding",
                                           "rff_embedding", "_approx_blocks"])
        unused = self.counted(monkeypatch, ["nystrom_embedding"], module=baselines)
        cfg = shared_config()
        report = run_benchmark(cfg)
        assert len(report.rows) == len(ALL_ALGORITHMS) * 2 * 3
        sizes, seeds = len(cfg.subset_sizes), cfg.num_seeds
        # nystrom and approx share one sample per (size, seed)
        assert calls == {"icf_factorize": sizes, "oracle_embedding": sizes, "chol_embedding": sizes,
                         "rff_embedding": sizes * seeds, "_approx_blocks": sizes * seeds}
        assert unused == {"nystrom_embedding": 0}

    def test_metric_columns_equal_direct_runs(self):
        cfg = shared_config()
        ds, spec, k = cfg.dataset, KernelSpec("gaussian", cfg.sigma), cfg.clusters
        for row in run_benchmark(cfg).rows:
            size, seed = row.subset_size, row.seed
            if row.algorithm == "approx":
                model = approx_kkmeans(ds, spec, size, k, seed)
                rank = nystrom_embedding(ds, spec, size, seed).shape[1]
            else:
                embed = {
                    "icf": lambda: icf_factorize(ds, spec, max_rank=size, epsilon=cfg.epsilon).P,
                    "kernel": lambda: oracle_embedding(ds, spec),
                    "chol": lambda: chol_embedding(ds, spec),
                    "nystrom": lambda: nystrom_embedding(ds, spec, size, seed),
                    "rff": lambda: rff_embedding(ds, spec, size + size % 2, seed),
                }[row.algorithm]()
                model, rank = lloyd(embed, k, seed), embed.shape[1]
            assert row.objective == model.objective, (row.algorithm, size, seed)
            assert row.accuracy == accuracy(model.assignments, ds.labels)
            assert row.achieved_rank == rank

    def test_later_seeds_charge_the_build_time(self):
        rows = run_benchmark(shared_config()).rows
        for (algorithm, size), group in itertools.groupby(rows, lambda r: (r.algorithm, r.subset_size)):
            group = list(group)
            assert [r.seed for r in group] == [0, 1, 2]
            for r in group:
                assert r.total_ms == r.factorize_ms + r.cluster_ms
            if algorithm in ("icf", "kernel", "chol"):
                assert all(r.factorize_ms == group[0].factorize_ms for r in group)
            else:
                assert all(r.factorize_ms > 0.0 for r in group)

    def test_shared_embedding_is_read_only_and_column_major(self, monkeypatch):
        seen = []

        def recording_lloyd(points, k, seed, **kwargs):
            seen.append(points)
            return lloyd(points, k, seed, **kwargs)

        monkeypatch.setattr(evaluate, "lloyd", recording_lloyd)
        cfg = shared_config(algorithms=["icf", "kernel", "chol", "nystrom", "rff"], subset_sizes=[5])
        run_benchmark(cfg)
        for a, algorithm in enumerate(cfg.algorithms):
            group = seen[3 * a: 3 * a + 3]
            if algorithm in ("icf", "kernel", "chol"):
                assert group[1] is group[0] and group[2] is group[0]
                assert not group[0].flags.writeable and group[0].flags.f_contiguous
                with pytest.raises(ValueError):
                    group[0][0, 0] = 1.0
            else:
                assert group[1] is not group[0]

    def test_no_embedding_outlives_its_group(self, monkeypatch):
        # one n x n embedding is 200 MB at n = 5,000, so only one may be alive
        groups, alive = [], []

        def recording_lloyd(points, k, seed, **kwargs):
            if seed == 0:
                gc.collect()
                alive.append([ref() is not None for ref in groups])
                groups.append(weakref.ref(points))
            return lloyd(points, k, seed, **kwargs)

        monkeypatch.setattr(evaluate, "lloyd", recording_lloyd)
        cfg = shared_config(algorithms=["icf", "kernel", "chol", "rff"])
        run_benchmark(cfg)
        assert len(groups) == len(cfg.algorithms) * len(cfg.subset_sizes)
        assert alive == [[False] * g for g in range(len(groups))]

    def test_guard_skipped_rows_build_nothing(self, monkeypatch):
        calls = self.counted(monkeypatch, ["oracle_embedding", "chol_embedding", "icf_factorize"])
        report = run_benchmark(shared_config(algorithms=["kernel", "chol", "icf"], subset_sizes=[5], guard=30))
        assert calls == {"oracle_embedding": 0, "chol_embedding": 0, "icf_factorize": 1}
        lines = report.to_csv().splitlines()[1:]
        assert lines[:6] == [f"blobs,{a},5,{seed},,,,,," for a in ("kernel", "chol") for seed in range(3)]
        assert all(not r.skipped and r.objective is not None for r in report.rows[6:])


class TestSampledPairShared:
    """nystrom and approx cluster the Nystrom rows of the same sample: the
    first of the two cells of a (size, seed) fills both rows from one run."""

    @pytest.mark.parametrize("algorithms", [["nystrom", "approx"], ["approx", "nystrom"],
                                            ["nystrom"], ["approx"]])
    def test_rows_equal_direct_runs_from_one_sample(self, monkeypatch, algorithms):
        cfg = shared_config(algorithms=algorithms)
        ds, spec, k = cfg.dataset, KernelSpec("gaussian", cfg.sigma), cfg.clusters
        columns = []

        def counting_columns(spec, dataset, cols):
            if dataset is ds:
                columns.extend(cols)
            return kernel_columns(spec, dataset, cols)

        monkeypatch.setattr(baselines, "kernel_columns", counting_columns)
        rows = run_benchmark(cfg).rows
        monkeypatch.undo()
        assert len(columns) == cfg.num_seeds * sum(cfg.subset_sizes)
        assert [r.algorithm for r in rows] == [a for a in algorithms for _ in range(2 * 3)]
        times = {}
        for row in rows:
            size, seed = row.subset_size, row.seed
            rank = nystrom_embedding(ds, spec, size, seed).shape[1]
            if row.algorithm == "approx":
                model = approx_kkmeans(ds, spec, size, k, seed)
            else:
                model = lloyd(nystrom_embedding(ds, spec, size, seed), k, seed)
            assert row.objective == model.objective, (row.algorithm, size, seed)
            assert row.accuracy == accuracy(model.assignments, ds.labels)
            assert row.achieved_rank == rank
            assert row.total_ms == row.factorize_ms + row.cluster_ms
            times[row.algorithm, size, seed] = row.factorize_ms, row.cluster_ms
        # one build of the rows serves both; approx's Lloyd run adds the residual
        for (algorithm, size, seed), (factorize_ms, cluster_ms) in times.items():
            if algorithm == "approx" and ("nystrom", size, seed) in times:
                assert factorize_ms == times["nystrom", size, seed][0]
                assert cluster_ms >= times["nystrom", size, seed][1]

    def test_approx_reports_the_rank_of_the_nystrom_rows_it_clusters(self):
        # three distinct points, six copies each: every sampled block has rank 3
        ds = Dataset(np.repeat(np.eye(3), 6, axis=0), labels=np.repeat([0, 1, 2], 6))
        cfg = shared_config(dataset=ds, algorithms=["approx", "nystrom"], subset_sizes=[12], clusters=3)
        assert {(r.algorithm, r.achieved_rank) for r in run_benchmark(cfg).rows} == {("approx", 3), ("nystrom", 3)}

    def test_approx_with_k_above_a_subset_size_is_refused_before_any_cell(self, monkeypatch):
        clustered = []
        monkeypatch.setattr(evaluate, "lloyd", lambda *args, **kwargs: clustered.append(args))
        cfg = shared_config(algorithms=["icf", "approx"], subset_sizes=[5, 2], clusters=3)
        with pytest.raises(ValueError, match=r"approx.*subset_size=2.*k=3"):
            run_benchmark(cfg)
        assert clustered == []

    def test_nystrom_alone_may_ask_for_more_clusters_than_samples(self):
        rows = run_benchmark(shared_config(algorithms=["nystrom"], subset_sizes=[2], clusters=3)).rows
        assert all(r.objective is not None for r in rows)
