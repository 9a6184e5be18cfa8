"""Kernel evaluation: scalar entries, columns, diagonals, and the guarded full Gram."""

import math
import tracemalloc

import numpy as np
import pytest

from icfcluster import (
    Dataset,
    KernelSpec,
    full_gram,
    gen_synthetic,
    kernel_column,
    kernel_diag,
    kernel_eval,
)
from icfcluster.kernel import kernel_columns


def _random_dataset(n, d, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(0.0, scale, size=(n, d)), name=f"rand{n}x{d}")


class TestKernelSpec:
    def test_gaussian_requires_positive_sigma(self):
        KernelSpec("gaussian", 0.5)
        for bad in (None, 0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                KernelSpec("gaussian", bad)

    def test_linear_needs_no_sigma(self):
        KernelSpec("linear")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("polynomial", 1.0)


class TestKernelEval:
    def test_zero_distance_is_one(self):
        spec = KernelSpec("gaussian", 3.7)
        x = np.array([1.0, -2.0, 0.5])
        assert kernel_eval(spec, x, x) == 1.0

    def test_unit_distance_unit_sigma(self):
        spec = KernelSpec("gaussian", 1.0)
        got = kernel_eval(spec, np.array([0.0]), np.array([1.0]))
        assert got == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_hand_computed_entry(self):
        # sigma = 1/8, squared distance (0,0)-(2,2) = 8, product = 1
        spec = KernelSpec("gaussian", 2.0 ** -3)
        got = kernel_eval(spec, np.array([0.0, 0.0]), np.array([2.0, 2.0]))
        expected = math.exp(-(2.0 ** -3) * ((2.0 - 0.0) ** 2 + (2.0 - 0.0) ** 2))
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_symmetry(self):
        spec = KernelSpec("gaussian", 0.9)
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval(KernelSpec("gaussian", 1.0), np.zeros(2), np.zeros(3))

    def test_linear_is_dot_product(self):
        x, y = np.array([1.0, 2.0]), np.array([3.0, -1.0])
        assert kernel_eval(KernelSpec("linear"), x, y) == 1.0


class TestKernelColumn:
    def test_self_entry_exactly_one(self):
        ds = _random_dataset(9, 4, seed=2)
        spec = KernelSpec("gaussian", 0.8)
        for t in (0, 4, 8):
            assert kernel_column(spec, ds, t)[t] == 1.0

    def test_duplicate_points(self):
        ds = Dataset(np.ones((2, 3)))
        col = kernel_column(KernelSpec("gaussian", 1.0), ds, 0)
        assert np.array_equal(col, [1.0, 1.0])

    def test_matches_full_gram_column(self):
        ds = _random_dataset(5, 3, seed=3)
        spec = KernelSpec("gaussian", 0.5)
        K = full_gram(spec, ds)
        for t in range(5):
            assert np.array_equal(kernel_column(spec, ds, t), K[:, t])

    @pytest.mark.parametrize("query", [kernel_column, lambda spec, ds, t: kernel_columns(spec, ds, [0, t])],
                             ids=["column", "block"])
    def test_index_out_of_range(self, query):
        ds = _random_dataset(4, 2)
        spec = KernelSpec("gaussian", 1.0)
        with pytest.raises(ValueError, match="out of range for n=4"):
            query(spec, ds, 4)
        with pytest.raises(ValueError, match="out of range for n=4"):
            query(spec, ds, -1)

    def test_cached_norm_form_agrees_with_direct(self):
        # the expanded norms, taken about the mean, track the pointwise
        # difference form even far from the origin
        spec = KernelSpec("gaussian", 0.2)
        for offset in (0.0, 1e4, 1e6):
            ds = Dataset(_random_dataset(50, 8, seed=4, scale=3.0).points + offset)
            for t in (0, 17, 49):
                col = kernel_column(spec, ds, t)
                direct = [kernel_eval(spec, x, ds.points[t]) for x in ds.points]
                np.testing.assert_allclose(col, direct, rtol=1e-12, atol=1e-12)
                assert col[t] == 1.0

    def test_linear_column(self):
        ds = Dataset(np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]]))
        col = kernel_column(KernelSpec("linear"), ds, 1)
        assert np.array_equal(col, ds.points @ ds.points[1])


class TestKernelColumns:
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("family", ["gaussian", "linear"])
    @pytest.mark.parametrize("cols", [[5], [17, 3, 9, 0, 40], [8, 8, 2, 8], list(range(41))[::-1]])
    def test_block_has_the_bits_of_single_columns(self, cols, family, offset):
        ds = Dataset(_random_dataset(41, 6, seed=11, scale=3.0).points + offset)
        spec = KernelSpec(family, 0.3 if family == "gaussian" else None)
        block = kernel_columns(spec, ds, cols)
        single = np.column_stack([kernel_column(spec, ds, t) for t in cols])
        assert np.array_equal(block.view(np.int64), single.view(np.int64))


class TestKernelDiag:
    def test_gaussian_all_ones(self):
        ds = _random_dataset(7, 3)
        diag = kernel_diag(KernelSpec("gaussian", 2.0), ds)
        assert np.array_equal(diag, np.ones(7))
        assert diag.sum() == 7.0

    def test_single_point(self):
        ds = Dataset(np.array([[4.0]]))
        assert np.array_equal(kernel_diag(KernelSpec("gaussian", 1.0), ds), [1.0])

    def test_matches_full_gram_diagonal(self):
        ds = _random_dataset(10, 4, seed=5)
        for spec in (KernelSpec("gaussian", 0.7), KernelSpec("linear")):
            K = full_gram(spec, ds)
            assert np.allclose(kernel_diag(spec, ds), np.diag(K), rtol=1e-12)


class TestFullGram:
    def test_a_guard_beyond_memory_is_refused_by_name(self):
        # 8 TB, so a build that allocates fails at once rather than filling
        # this machine's memory
        ds = gen_synthetic("ring", 500_000, 0.1, 0)
        with pytest.raises(ValueError) as info:
            full_gram(KernelSpec("gaussian", 1.0), ds, guard=10 ** 6)
        assert str(info.value) == ("full Gram matrix refused: n=1000000 with guard=1000000 needs a dense "
                                   "1000000 x 1000000 Gram matrix, more than this machine's memory")

    def test_single_point(self):
        K = full_gram(KernelSpec("gaussian", 1.0), Dataset(np.array([[2.0, 3.0]])))
        assert np.array_equal(K, [[1.0]])

    def test_identical_points_rank_one(self):
        ds = Dataset(np.tile([1.5, -0.5], (3, 1)))
        K = full_gram(KernelSpec("gaussian", 1.0), ds)
        assert np.array_equal(K, np.ones((3, 3)))
        assert np.linalg.matrix_rank(K) == 1

    def test_exactly_symmetric(self):
        ds = _random_dataset(20, 5, seed=6)
        K = full_gram(KernelSpec("gaussian", 1.0), ds)
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("family", ["gaussian", "linear"])
    @pytest.mark.parametrize("d", [1, 2, 5, 8, 16, 33])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9, 20, 33, 65, 700, 1500])
    def test_exactly_symmetric_for_every_shape(self, n, d, family):
        # dot products are summed in a fixed order, whatever a row's position
        ds = _random_dataset(n, d, seed=n * 100 + d)
        spec = KernelSpec(family, 1.0 if family == "gaussian" else None)
        K = full_gram(spec, ds)
        assert np.array_equal(K, K.T)
        for t in range(n):
            assert np.array_equal(K[:, t], kernel_column(spec, ds, t))

    def test_entries_in_unit_interval(self):
        ds = _random_dataset(15, 3, seed=7, scale=4.0)
        K = full_gram(KernelSpec("gaussian", 0.5), ds)
        assert np.all(K > 0.0)
        assert np.all(K <= 1.0)

    def test_min_eigenvalue_nearly_nonnegative(self):
        ds = _random_dataset(20, 4, seed=8)
        K = full_gram(KernelSpec("gaussian", 1.0), ds)
        assert np.linalg.eigvalsh(K).min() >= -1e-10

    def test_temporaries_stay_small_beside_k(self):
        # K is filled in blocks: building all of it at once would double the
        # 200 MB the guard allows
        ds = _random_dataset(2000, 4, seed=12)
        spec = KernelSpec("gaussian", 1.0)
        tracemalloc.start()
        try:
            K = full_gram(spec, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < K.nbytes + 2 * 2 ** 20

    def test_guard(self):
        ds = _random_dataset(12, 2, seed=9)
        spec = KernelSpec("gaussian", 1.0)
        with pytest.raises(ValueError):
            full_gram(spec, ds, guard=11)
        K = full_gram(spec, ds, guard=12)
        assert K.shape == (12, 12)
