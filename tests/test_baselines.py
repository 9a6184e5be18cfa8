"""Tests for the comparison algorithms: dense Cholesky, Nystrom, random
Fourier features, and subset-restricted kernel k-means."""

import tracemalloc

import numpy as np
import pytest

from icfcluster import (
    Dataset,
    KernelSpec,
    approx_kkmeans,
    chol_embedding,
    gen_synthetic,
    icf_factorize,
    lloyd,
    nystrom_embedding,
    oracle_embedding,
    residual_trace,
    rff_embedding,
)
from icfcluster.kernel import full_gram

GAUSS = KernelSpec(sigma=0.5)


def rand_dataset(seed: int, n: int, d: int) -> Dataset:
    return Dataset(np.random.default_rng(seed).normal(size=(n, d)))


class TestCholeskyBaseline:
    def test_identity_kernel_factor_is_identity(self):
        pts = (np.arange(6, dtype=float) * 100.0).reshape(-1, 1)
        ds = Dataset(pts)
        spec = KernelSpec(sigma=1.0)
        assert np.array_equal(chol_embedding(ds, spec), np.eye(6))
        model = lloyd(chol_embedding(ds, spec), 6, 0)
        assert model.objective == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_exact_oracle(self, seed):
        # triangular and eigendecomposition embeddings are both isometric to
        # the kernel feature space, so identical seeds give identical results
        ds = rand_dataset(20, 50, 3)
        a = lloyd(chol_embedding(ds, GAUSS), 3, seed)
        b = lloyd(oracle_embedding(ds, GAUSS), 3, seed)
        assert a.objective == pytest.approx(b.objective, rel=1e-6)

    def test_singular_matrix_engages_jitter(self):
        ds = Dataset(np.zeros((3, 2)))
        model = lloyd(chol_embedding(ds, GAUSS), 1, 0)
        assert model.objective == pytest.approx(0.0, abs=1e-8)

    def test_guard_refuses_large_n(self):
        ds = rand_dataset(0, 12, 2)
        with pytest.raises(ValueError):
            lloyd(chol_embedding(ds, GAUSS, guard=11), 2, 0)

    def test_a_factorization_beyond_memory_is_refused_by_name(self, physical_memory):
        # one 200 x 200 K fits in this memory, cholesky's 3.15 of them do not
        ds = rand_dataset(0, 200, 2)
        physical_memory(3 * 200 * 200 * 8)
        assert full_gram(GAUSS, ds).shape == (200, 200)
        with pytest.raises(ValueError) as info:
            chol_embedding(ds, GAUSS, guard=300)
        assert str(info.value) == ("full Gram matrix refused: n=200 with guard=300 needs 3.15 times a dense "
                                   "200 x 200 Gram matrix, more than this machine's memory")

    def test_peak_memory_is_the_gram_matrix_and_its_factor(self):
        ds = gen_synthetic("ring", 500, 0.05, 0)
        tracemalloc.start()
        try:
            L = chol_embedding(ds, KernelSpec(sigma=16.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * L.nbytes

    def test_jitter_leaves_the_factor_of_k_plus_jitter(self):
        # a rank-3 linear Gram of 40 points fails at no jitter and needs some
        ds = Dataset(np.random.default_rng(5).normal(size=(40, 3)))
        spec = KernelSpec(family="linear")
        K = full_gram(spec, ds)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(K)
        jitter = 1e-12 * float(np.trace(K)) / ds.n
        while True:
            try:
                expected = np.linalg.cholesky(K + jitter * np.eye(ds.n))
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        assert np.array_equal(chol_embedding(ds, spec), expected)

    def test_failure_at_every_jitter_names_the_largest_tried(self, monkeypatch):
        tried = []

        def cholesky(a):
            tried.append(float(a[0, 0]) - 1.0)
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        with pytest.raises(np.linalg.LinAlgError) as exc:
            chol_embedding(rand_dataset(0, 5, 2), GAUSS)
        # K_ii = 1, so the jitter runs from 1e-12 tenfold up to 1e-6
        assert tried == pytest.approx([0.0] + [10.0 ** e for e in range(-12, -5)], rel=1e-3, abs=1e-15)
        assert str(exc.value) == "Cholesky failed at maximum jitter 1.000e-06"

    def test_zero_gram_matrix_fails_without_looping(self):
        with pytest.raises(np.linalg.LinAlgError, match="maximum jitter"):
            chol_embedding(Dataset(np.zeros((4, 2))), KernelSpec(family="linear"))


class TestNystromBaseline:
    @pytest.mark.parametrize("seed", range(2))
    def test_full_sampling_matches_exact_oracle(self, seed):
        ds = rand_dataset(21, 40, 3)
        a = lloyd(nystrom_embedding(ds, GAUSS, 40, seed), 3, seed)
        b = lloyd(oracle_embedding(ds, GAUSS), 3, seed)
        assert a.objective == pytest.approx(b.objective, rel=1e-6)

    def test_full_sampling_is_seed_independent(self):
        # at subset_size = n the sorted sample is all indices regardless of seed
        ds = rand_dataset(22, 15, 2)
        a = nystrom_embedding(ds, GAUSS, 15, seed=0)
        b = nystrom_embedding(ds, GAUSS, 15, seed=99)
        assert np.array_equal(a, b)

    def test_duplicate_points_yield_lower_rank_without_error(self):
        ds = Dataset(np.zeros((3, 2)))
        E = nystrom_embedding(ds, GAUSS, 2, seed=0)
        assert E.shape == (3, 1)
        model = lloyd(E, 1, 0)
        assert model.objective == pytest.approx(0.0, abs=1e-12)

    def test_greedy_factorization_beats_uniform_sampling_on_mixtures(self):
        # on clustered data the greedy pivot covers every blob while a uniform
        # sample can miss some, so the factored residual should be smaller on
        # at least 8 of 10 paired trials
        wins = 0
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            centers = rng.uniform(-4, 4, (8, 3))
            pts = np.repeat(centers, 25, axis=0) + 0.15 * rng.normal(size=(200, 3))
            ds = Dataset(pts)
            factor = icf_factorize(ds, GAUSS, max_rank=20, epsilon=1e-300)
            E = nystrom_embedding(ds, GAUSS, 20, seed=trial)
            nys_residual = 200.0 - float(np.einsum("ij,ij->", E, E))
            wins += residual_trace(factor) <= nys_residual
        assert wins >= 8

    def test_objective_recomputable_from_embedding(self):
        ds = rand_dataset(23, 60, 3)
        E = nystrom_embedding(ds, GAUSS, 20, seed=4)
        model = lloyd(E, 3, 4)
        centers = np.vstack([E[model.assignments == c].mean(axis=0) for c in range(3)])
        diff = E - centers[model.assignments]
        assert model.objective == pytest.approx(float((diff ** 2).sum()) / 60, abs=1e-9)

    def test_subset_size_validation(self):
        ds = rand_dataset(0, 10, 2)
        with pytest.raises(ValueError):
            lloyd(nystrom_embedding(ds, GAUSS, 0, seed=0), 1, 0)
        with pytest.raises(ValueError):
            lloyd(nystrom_embedding(ds, GAUSS, 11, seed=0), 1, 0)

    def test_a_sample_too_large_for_memory_is_refused_by_name(self):
        # 8 TB of Gram columns, so a sample that allocates fails at once
        # rather than filling this machine's memory
        ds = gen_synthetic("ring", 500_000, 0.1, 0)
        with pytest.raises(ValueError) as info:
            nystrom_embedding(ds, GAUSS, 10 ** 6, seed=0)
        assert str(info.value) == ("subset_size=1000000 needs a dense 1000000 x 1000000 block of Gram columns, "
                                   "more than this machine's memory")

    def test_zero_sampled_block_rejected(self):
        ds = Dataset(np.zeros((6, 2)))
        spec = KernelSpec(family="linear")
        with pytest.raises(ValueError, match="sampled kernel block is numerically zero"):
            nystrom_embedding(ds, spec, 3, seed=0)
        with pytest.raises(ValueError, match="sampled kernel block is numerically zero"):
            approx_kkmeans(ds, spec, subset_size=3, k=2, seed=0)


class TestRandomFourierFeatures:
    def test_rows_have_unit_norm(self):
        ds = rand_dataset(24, 30, 5)
        Z = rff_embedding(ds, KernelSpec(sigma=2.0), 64, seed=0)
        np.testing.assert_allclose(np.einsum("ij,ij->i", Z, Z), np.ones(30), atol=1e-12)

    def test_monte_carlo_estimate_converges(self):
        # fixed pair with true kernel value 1/2; the mean estimate over 50
        # frequency draws must land within 0.02
        x = np.zeros(3)
        y = np.array([np.sqrt(np.log(2.0)), 0.0, 0.0])
        ds = Dataset(np.vstack([x, y]))
        spec = KernelSpec(sigma=1.0)
        estimates = []
        for seed in range(50):
            Z = rff_embedding(ds, spec, 2048, seed)
            estimates.append(float(Z[0] @ Z[1]))
        assert abs(float(np.mean(estimates)) - 0.5) <= 0.02

    def test_two_features_still_cluster_distinct_points(self):
        ds = rand_dataset(25, 5, 2)
        model = lloyd(rff_embedding(ds, GAUSS, 2, seed=0), 5, 0)
        assert model.objective == pytest.approx(0.0, abs=1e-12)

    def test_odd_feature_count_rejected(self):
        ds = rand_dataset(0, 5, 2)
        with pytest.raises(ValueError):
            lloyd(rff_embedding(ds, GAUSS, 3, seed=0), 2, 0)
        with pytest.raises(ValueError):
            lloyd(rff_embedding(ds, GAUSS, 0, seed=0), 2, 0)

    def test_features_too_many_for_memory_are_refused_by_name(self):
        # 8 TB, so features that are allocated fail at once rather than
        # filling this machine's memory
        ds = gen_synthetic("ring", 500_000, 0.1, 0)
        with pytest.raises(ValueError) as info:
            rff_embedding(ds, GAUSS, 10 ** 6, seed=0)
        assert str(info.value) == ("num_features=1000000 needs a dense 1000000 x 1000000 feature matrix, "
                                   "more than this machine's memory")

    def test_requires_gaussian_kernel(self):
        ds = rand_dataset(0, 5, 2)
        with pytest.raises(ValueError):
            rff_embedding(ds, KernelSpec(family="linear"), 4, seed=0)

    def test_objective_recomputable_from_embedding(self):
        ds = rand_dataset(26, 40, 3)
        Z = rff_embedding(ds, GAUSS, 32, seed=7)
        model = lloyd(Z, 3, 7)
        centers = np.vstack([Z[model.assignments == c].mean(axis=0) for c in range(3)])
        diff = Z - centers[model.assignments]
        assert model.objective == pytest.approx(float((diff ** 2).sum()) / 40, abs=1e-9)


class TestRestrictedKernelKmeans:
    @pytest.mark.parametrize("seed", range(2))
    def test_full_subset_matches_exact_oracle(self, seed):
        ds = rand_dataset(21, 40, 3)
        a = approx_kkmeans(ds, GAUSS, subset_size=40, k=3, seed=seed)
        b = lloyd(oracle_embedding(ds, GAUSS), 3, seed)
        assert a.objective == pytest.approx(b.objective, rel=1e-6)

    def test_objective_history_includes_the_residual(self):
        # the residual moves no assignment but is part of every objective
        ds = rand_dataset(21, 40, 3)
        model = approx_kkmeans(ds, GAUSS, subset_size=12, k=3, seed=0)
        assert model.objective_history.shape == (model.iterations,)
        assert model.objective_history[-1] == pytest.approx(model.objective, rel=1e-9)

    def test_identical_points_single_cluster(self):
        ds = Dataset(np.zeros((3, 2)))
        model = approx_kkmeans(ds, GAUSS, subset_size=2, k=1, seed=0)
        assert model.objective == pytest.approx(0.0, abs=1e-12)

    def test_median_objective_within_ten_percent_of_oracle(self):
        rng = np.random.default_rng(1)
        pts = np.vstack([rng.normal(0, 1, (100, 4)), rng.normal(4, 1, (100, 4))])
        ds = Dataset(pts)
        spec = KernelSpec(sigma=0.125)
        approx_objs = [approx_kkmeans(ds, spec, subset_size=50, k=2, seed=s).objective
                       for s in range(10)]
        oracle_objs = [lloyd(oracle_embedding(ds, spec), 2, s).objective
                       for s in range(10)]
        med_a, med_o = float(np.median(approx_objs)), float(np.median(oracle_objs))
        assert abs(med_a - med_o) <= 0.10 * med_o

    @pytest.mark.parametrize("subset_size", [30, 12])
    def test_objective_recomputable_from_returned_weights(self, subset_size):
        # the restricted centers are weight vectors over the sampled points,
        # so the objective can be recomputed from the Gram matrix
        ds = rand_dataset(27, 30, 3)
        model = approx_kkmeans(ds, GAUSS, subset_size=subset_size, k=3, seed=2)
        K = full_gram(GAUSS, ds)
        B = np.sort(np.random.default_rng(2).choice(30, size=subset_size, replace=False))
        A = model.centers
        d2 = (np.diag(K)[:, None] - 2.0 * K[:, B] @ A.T
              + np.einsum("ij,ij->i", A @ K[np.ix_(B, B)], A)[None, :])
        recomputed = float(d2[np.arange(30), model.assignments].mean())
        assert model.objective == pytest.approx(recomputed, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_assignments_equal_nystrom_kmeans(self, seed):
        # a center confined to the span of the sample is its cluster's mean
        # in the Nystrom embedding of that sample, so both give one partition
        ds = rand_dataset(29, 40, 3)
        a = approx_kkmeans(ds, GAUSS, subset_size=12, k=3, seed=seed)
        b = lloyd(nystrom_embedding(ds, GAUSS, 12, seed), 3, seed)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.iterations == b.iterations
        assert a.objective >= b.objective

    def test_k_larger_than_subset_rejected(self):
        ds = rand_dataset(0, 10, 2)
        with pytest.raises(ValueError):
            approx_kkmeans(ds, GAUSS, subset_size=3, k=4, seed=0)

    def test_zero_clusters_rejected(self):
        ds = rand_dataset(0, 10, 2)
        with pytest.raises(ValueError, match="k must be"):
            approx_kkmeans(ds, GAUSS, subset_size=5, k=0, seed=0)

    def test_zero_iterations_rejected(self):
        ds = rand_dataset(0, 10, 2)
        with pytest.raises(ValueError, match="max_iter"):
            approx_kkmeans(ds, GAUSS, subset_size=5, k=2, seed=0, max_iter=0)


class TestDeterminism:
    def test_same_seed_same_result(self):
        ds = rand_dataset(28, 50, 3)
        for fn in (
            lambda s: lloyd(nystrom_embedding(ds, GAUSS, 15, s), 3, s),
            lambda s: lloyd(rff_embedding(ds, GAUSS, 16, s), 3, s),
            lambda s: approx_kkmeans(ds, GAUSS, subset_size=15, k=3, seed=s),
        ):
            a, b = fn(5), fn(5)
            assert np.array_equal(a.assignments, b.assignments)
            assert a.objective == b.objective
