"""Tests for the incomplete Cholesky factorization core."""

import copy
import math
import pickle
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from icfcluster import (
    BreakdownError,
    Dataset,
    IcfFactor,
    KernelSpec,
    dump_factor,
    gen_synthetic,
    icf_factorize,
    kernel_column,
    kernel_diag,
    parse_factor_dump,
    reconstruct,
    residual_trace,
)
from icfcluster import icf
from icfcluster.kernel import full_gram

GAUSS = KernelSpec(sigma=0.5)
LINEAR = KernelSpec(family="linear")


def rand_dataset(seed: int, n: int, d: int, offset: float = 0.0) -> Dataset:
    return Dataset(np.random.default_rng(seed).normal(size=(n, d)) + offset)


def exact_rank_dataset(seed: int, r: int, n: int) -> Dataset:
    """n points spanning an r-dimensional subspace: linear Gram has rank r."""
    G = np.random.default_rng(seed).normal(size=(r, n))
    return Dataset(G.T)


def arrays(factor: IcfFactor) -> list[bytes]:
    """The bits of a factor's arrays and its evaluation count."""
    return [a.tobytes() for a in (factor.P, factor.pivots, factor.residual_diag, factor.trace_history)] + [
        factor.kernel_evals]


def prefix(factor: IcfFactor, r: int) -> list[bytes]:
    """The bits of a factor's first r columns, pivots and trace-history entries."""
    return [factor.P[:, :r].tobytes(), factor.pivots[:r].tobytes(), factor.trace_history[:r + 1].tobytes()]


def assert_ranks_are_prefixes(ds: Dataset, spec: KernelSpec, larger: IcfFactor, ranks) -> None:
    """Each rank-r factor is the first r steps of larger, with n (r + 1)
    kernel evaluations; a rank past where larger stopped gives larger itself."""
    for r in ranks:
        f = icf_factorize(ds, spec, max_rank=r, epsilon=1e-300)
        if r >= larger.s:
            assert arrays(f) == arrays(larger), r
        else:
            assert f.s == r
            assert prefix(f, r) == prefix(larger, r), r
            assert f.kernel_evals == ds.n * (r + 1)


def random_cases(seed: int, count: int) -> list:
    """Seeded random draws of size, dimension, scale, kernel and max_rank."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 6))
        ds = Dataset(rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-1.0, 1.0))
        spec = LINEAR if rng.random() < 0.25 else KernelSpec(sigma=float(10.0 ** rng.uniform(-2.0, 2.0)))
        cases.append((ds, spec, int(rng.integers(1, n + 1))))
    return cases


# (dataset, kernel, max_rank) inputs for the factorization invariants
FACTOR_CASES = [
    (rand_dataset(0, 40, 3), GAUSS, 40),
    (gen_synthetic("parabolic", 30, 0.05, 1), KernelSpec(sigma=8.0), 20),
    (rand_dataset(2, 35, 4), LINEAR, 35),
    # duplicated points: the Gram matrix has rank at most 20
    (Dataset(np.tile(np.random.default_rng(3).normal(size=(20, 3)), (2, 1))), GAUSS, 40),
    # a single point
    (rand_dataset(10, 1, 3), GAUSS, 1),
    # sigma extremes: all ones up to rounding, and the identity
    (rand_dataset(11, 30, 3), KernelSpec(sigma=1e-12), 30),
    (rand_dataset(12, 30, 3), KernelSpec(sigma=1e12), 30),
    # all points identical: rank 1
    (Dataset(np.full((12, 3), 0.7)), GAUSS, 12),
    # rank exhaustion: a linear Gram matrix of rank 2
    (exact_rank_dataset(13, 2, 30), LINEAR, 30),
    (rand_dataset(7, 25, 3), GAUSS, 15),
    *random_cases(14, 6),
    # far from the origin, where expanded squared distances cancel
    (rand_dataset(15, 100, 3, offset=1e4), GAUSS, 100),
    (rand_dataset(16, 100, 3, offset=1e6), GAUSS, 100),
]


class TestFactorizeBasics:
    def test_three_identical_points(self):
        ds = Dataset(np.zeros((3, 2)))
        f = icf_factorize(ds, GAUSS, max_rank=3, epsilon=1e-300)
        assert f.s == 1
        assert f.pivots.tolist() == [0]
        assert f.P.tolist() == [[1.0], [1.0], [1.0]]
        assert f.trace_history.tolist() == [3.0, 0.0]
        assert f.residual_diag.tolist() == [0.0, 0.0, 0.0]

    def test_far_separated_points_give_identity_kernel(self):
        # pairwise squared distances are so large the off-diagonal entries
        # underflow to zero, so each step removes exactly one unit of trace
        pts = (np.arange(12, dtype=float) * 100.0).reshape(-1, 1)
        f = icf_factorize(Dataset(pts), KernelSpec(sigma=1.0), max_rank=5)
        assert f.trace_history.tolist() == [12.0, 11.0, 10.0, 9.0, 8.0, 7.0]
        assert f.pivots.tolist() == [0, 1, 2, 3, 4]
        expected = np.zeros((12, 5))
        expected[np.arange(5), np.arange(5)] = 1.0
        assert np.array_equal(f.P, expected)

    def test_two_points_match_hand_algebra_and_dense_cholesky(self):
        c = np.exp(-1.0)
        ds = Dataset(np.array([[0.0], [1.0]]))
        f = icf_factorize(ds, KernelSpec(sigma=1.0), max_rank=2, epsilon=1e-300)
        assert f.pivots.tolist() == [0, 1]
        assert f.P[0, 0] == 1.0
        assert f.P[1, 0] == c
        assert f.P[0, 1] == 0.0
        assert f.P[1, 1] == pytest.approx(np.sqrt(1.0 - c * c), abs=1e-15)
        assert f.trace_history == pytest.approx([2.0, 1.0 - c * c, 0.0], abs=1e-15)
        L = np.linalg.cholesky(np.array([[1.0, c], [c, 1.0]]))
        np.testing.assert_allclose(f.P, L, atol=1e-15)

    def test_first_column_is_the_pivot_gram_column(self):
        # a Gaussian diagonal is all ones, so the first pivot is index 0 and
        # nu = 1 makes the first factor column the raw Gram column
        ds = rand_dataset(0, 20, 3)
        f = icf_factorize(ds, GAUSS, max_rank=1, epsilon=1e-300)
        assert f.pivots.tolist() == [0]
        assert np.array_equal(f.P[:, 0], kernel_column(GAUSS, ds, 0))

    def test_linear_kernel_picks_largest_norm_first(self):
        ds = Dataset(np.array([[1.0], [3.0], [2.0]]))
        f = icf_factorize(ds, LINEAR, max_rank=3, epsilon=1e-300)
        assert f.pivots[0] == 1
        assert f.P[:, 0].tolist() == [1.0, 3.0, 2.0]
        # one-dimensional points span a rank-1 Gram matrix
        assert f.s == 1

    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_translation_moves_the_factor_by_input_rounding_only(self, offset):
        # the Gaussian kernel does not see a shift; what the shifted factor
        # may differ by is the rounding of the shifted inputs themselves
        base = icf_factorize(rand_dataset(0, 100, 3), GAUSS, max_rank=100, epsilon=1e-300)
        moved = icf_factorize(rand_dataset(0, 100, 3, offset), GAUSS, max_rank=100, epsilon=1e-300)
        assert np.array_equal(moved.pivots, base.pivots)
        np.testing.assert_allclose(moved.P, base.P, rtol=0.0, atol=1e-14 * offset)


class TestFactorizeAgainstDense:
    def test_residual_matches_dense_subset_projection(self):
        # the rank-s approximation equals K[:, M] K[M, M]^-1 K[M, :] for the
        # selected subset M, so the residual trace must match that formula
        ds = rand_dataset(4, 10, 3)
        f = icf_factorize(ds, GAUSS, max_rank=4, epsilon=1e-300)
        assert f.s == 4
        K = full_gram(GAUSS, ds)
        M = f.pivots
        proj = K[:, M] @ np.linalg.solve(K[np.ix_(M, M)], K[M, :])
        expected = float(np.trace(K - proj))
        assert residual_trace(f) == pytest.approx(expected, rel=1e-10)

    def test_full_rank_reconstruction_matches_gram(self):
        ds = rand_dataset(0, 50, 4)
        spec = KernelSpec(sigma=0.7)
        f = icf_factorize(ds, spec, max_rank=50, epsilon=1e-300)
        assert f.s == 50
        K = full_gram(spec, ds)
        assert np.max(np.abs(reconstruct(f) - K)) <= 1e-8

    def test_pivot_rows_reproduced_exactly(self):
        # rows of the approximation at selected indices agree with the true
        # Gram rows even at low rank
        ds = rand_dataset(5, 50, 4)
        f = icf_factorize(ds, GAUSS, max_rank=10, epsilon=1e-300)
        K = full_gram(GAUSS, ds)
        R = reconstruct(f)
        assert np.max(np.abs(R[f.pivots] - K[f.pivots])) <= 1e-10

    def test_residual_trace_equals_dense_trace(self):
        ds = rand_dataset(6, 30, 3)
        f = icf_factorize(ds, GAUSS, max_rank=10, epsilon=1e-300)
        K = full_gram(GAUSS, ds)
        direct = float(np.trace(K - reconstruct(f)))
        assert residual_trace(f) == pytest.approx(direct, rel=1e-8)


class TestStoppingRules:
    def test_epsilon_threshold_stops_the_loop(self):
        ds = rand_dataset(0, 40, 3)
        full = icf_factorize(ds, GAUSS, max_rank=40, epsilon=1e-300)
        target = float(full.trace_history[6])
        f = icf_factorize(ds, GAUSS, max_rank=40, epsilon=target)
        assert f.s == 6
        assert residual_trace(f) <= target

    def test_epsilon_above_initial_trace_gives_empty_factor(self):
        ds = rand_dataset(1, 15, 2)
        f = icf_factorize(ds, GAUSS, max_rank=15, epsilon=1e9)
        assert f.s == 0
        assert f.P.shape == (15, 0)
        assert f.trace_history.tolist() == [15.0]
        assert f.kernel_evals == 15
        assert np.array_equal(reconstruct(f), np.zeros((15, 15)))

    def test_max_rank_stops_the_loop(self):
        ds = rand_dataset(2, 30, 3)
        f = icf_factorize(ds, GAUSS, max_rank=7, epsilon=1e-300)
        assert f.s == 7

    def test_exact_rank_matrix_stops_at_its_rank(self):
        ds = exact_rank_dataset(3, 5, 30)
        f = icf_factorize(ds, LINEAR, max_rank=30, epsilon=1e-300)
        assert f.s == 5
        assert f.kernel_evals == 30 * 6
        K = full_gram(LINEAR, ds)
        assert residual_trace(f) <= 1e-8 * np.trace(K)

    def test_rounding_far_from_unit_scale_is_not_a_breakdown(self):
        # a linear Gram matrix of rank 1 with entries about 1e7: the second
        # residual rounds to -9.3e-10, a relative error of 2e-16
        ds = Dataset(np.array([[-3552.353900271567], [-1985.1077161171047]]))
        f = icf_factorize(ds, LINEAR, max_rank=2, epsilon=1e-300)
        assert f.s == 1
        assert f.residual_diag.tolist() == [0.0, 0.0]

    def test_indefinite_update_raises_breakdown(self, monkeypatch):
        # K = [[1, 2], [2, 1]] is indefinite: the first step leaves 1 - 2^2 = -3
        # on the diagonal, far below the rounding clamp
        K = np.array([[1.0, 2.0], [2.0, 1.0]])
        monkeypatch.setattr(icf, "kernel_column", lambda spec, dataset, t: K[:, t].copy())
        with pytest.raises(BreakdownError) as info:
            icf_factorize(rand_dataset(0, 2, 1), GAUSS, max_rank=2, epsilon=1e-300)
        assert (info.value.iteration, info.value.value) == (0, -3.0)

    def test_full_rank_gaussian_runs_to_n(self):
        ds = rand_dataset(0, 50, 4)
        f = icf_factorize(ds, KernelSpec(sigma=0.7), max_rank=50, epsilon=1e-300)
        assert f.s == 50


class TestPrefix:
    """A column depends on the columns before it alone, never on max_rank."""

    @pytest.mark.parametrize("ds,spec", [case[:2] for case in FACTOR_CASES])
    def test_every_smaller_rank_is_a_prefix(self, ds, spec):
        # every rank up to the one where the loop stops, and one past it
        once = icf_factorize(ds, spec, max_rank=ds.n, epsilon=1e-300)
        assert_ranks_are_prefixes(ds, spec, once, range(1, min(once.s + 1, ds.n) + 1))

    def test_each_pivot_is_the_largest_residual_entry(self):
        ds = rand_dataset(7, 25, 3)
        once = icf_factorize(ds, GAUSS, max_rank=15, epsilon=1e-300)
        residuals = [kernel_diag(GAUSS, ds)]
        residuals += [icf_factorize(ds, GAUSS, max_rank=r, epsilon=1e-300).residual_diag for r in range(1, 15)]
        for r, before in enumerate(residuals):
            t = int(once.pivots[r])
            assert t == int(np.argmax(before))
            # the chosen entry of the residual diagonal is the squared pivot
            # root of the next column
            assert float(once.P[t, r]) ** 2 == pytest.approx(before[t], rel=1e-8)

    def test_kernel_evals_are_n_per_column_and_the_diagonal(self):
        ds = rand_dataset(8, 12, 2)
        for r in range(1, 13):
            f = icf_factorize(ds, GAUSS, max_rank=r, epsilon=1e-300)
            assert (f.s, f.kernel_evals) == (r, 12 * (r + 1))


def mixture_dataset(seed: int, n: int, d: int, classes: int) -> Dataset:
    """n points around `classes` random means, unit spread."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 10.0, (classes, d))
    return Dataset(means[rng.integers(0, classes, n)] + rng.normal(size=(n, d)))


def plain_loop(ds: Dataset, spec: KernelSpec, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(P, pivots, trace history, kernel evaluations) of the textbook loop: every
    step takes u P by one matrix-vector product over all of P."""
    diag = kernel_diag(spec, ds)
    e, P, pivots, history = diag.copy(), np.zeros((ds.n, rank)), [], [float(np.sum(diag))]
    for s in range(rank):
        t = int(np.argmax(e))
        u = P[t, :s]
        nu = float(np.sqrt(diag[t] - u @ u))
        p = (kernel_column(spec, ds, t) - P[:, :s] @ u) / nu
        p[pivots] = 0.0
        p[t] = nu
        P[:, s] = p
        pivots.append(t)
        e = np.clip(e - p * p, 0.0, None)
        e[t] = 0.0
        history.append(float(np.sum(e)))
    return P, np.array(pivots), np.array(history), ds.n * (rank + 1)


class _CountingNumpy:
    """numpy, recording the rows of P read by each step's np.matmul(u, rows)."""

    def __init__(self):
        self.rows = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        if a.ndim == 1:
            self.rows.append(b.shape[0])
        return np.matmul(a, b, **kwargs)


# (dataset, kernel, rank) inputs whose growth crosses at least five panel blocks
PANEL_CASES = [
    (rand_dataset(20, 273, 3), GAUSS, 90),
    (rand_dataset(21, 273, 2), KernelSpec(sigma=3.0), 81),
    (mixture_dataset(22, 200, 4, 6), KernelSpec(sigma=1.5), 100),
    (gen_synthetic("ring", 120, 0.05, 3), KernelSpec(sigma=20.0), 96),
    # full rank: the last panels have fewer unselected indices than candidates
    (rand_dataset(23, 90, 3), KernelSpec(sigma=2.0), 90),
]


class TestPanel:
    """Steps whose pivot was a panel candidate take u P from the panel; the
    column must still depend on P and t alone."""

    @pytest.mark.parametrize("ds,spec,rank", PANEL_CASES)
    def test_ranks_on_both_sides_of_every_block_edge_are_prefixes(self, ds, spec, rank):
        assert rank >= 5 * icf._BLOCK + 1
        once = icf_factorize(ds, spec, max_rank=rank, epsilon=1e-300)
        assert once.s == rank
        edges = range(icf._BLOCK, rank, icf._BLOCK)
        assert_ranks_are_prefixes(ds, spec, once, sorted({r + d for r in edges for d in (-1, 0, 1)}))

    def test_ranks_are_prefixes_up_to_rank_exhaustion(self):
        # a linear Gram matrix of rank 90: the loop stops there, past five blocks
        ds = exact_rank_dataset(24, 90, 273)
        once = icf_factorize(ds, LINEAR, max_rank=ds.n, epsilon=1e-300)
        assert once.s == 90
        edges = range(icf._BLOCK, once.s + icf._BLOCK, icf._BLOCK)
        ranks = {r + d for r in edges for d in (-1, 0, 1)} | {89, 90, 91, ds.n}
        assert_ranks_are_prefixes(ds, LINEAR, once, sorted(ranks))

    @pytest.mark.parametrize("rank", [64, 65, 70, 79])
    def test_a_rank_inside_a_block_is_a_prefix(self, rank):
        ds, spec, larger = PANEL_CASES[0]
        assert_ranks_are_prefixes(ds, spec, icf_factorize(ds, spec, max_rank=larger, epsilon=1e-300), [rank])

    @pytest.mark.parametrize("ds,spec,rank", PANEL_CASES)
    def test_matches_the_plain_loop(self, ds, spec, rank):
        f = icf_factorize(ds, spec, max_rank=rank, epsilon=1e-300)
        P, pivots, history, evals = plain_loop(ds, spec, rank)
        assert np.array_equal(f.pivots, pivots)
        assert f.kernel_evals == evals
        # the panel sums the same products in another order: rounding only
        scale = float(np.max(kernel_diag(spec, ds)))
        assert np.max(np.abs(f.P - P)) <= 1e-12 * np.sqrt(scale)
        assert np.max(np.abs(f.trace_history - history)) <= 1e-12 * history[0]

    def test_a_block_start_with_fewer_positive_residuals_than_candidates(self, monkeypatch):
        # 18 distinct points, each twice: at the block start at 16 only the
        # two unselected points' copies and rounding leftovers are positive,
        # so selected pivots, exactly 0, fill the rest of the panel
        rng = np.random.default_rng(27)
        ds = Dataset(rng.normal(size=(18, 3))[rng.permutation(np.arange(36) % 18)])
        spec = KernelSpec(sigma=1.0)
        at_edge = icf_factorize(ds, spec, max_rank=icf._BLOCK, epsilon=1e-300)
        assert np.count_nonzero(at_edge.residual_diag > 0.0) < icf._CANDIDATES
        counting = _CountingNumpy()
        monkeypatch.setattr(icf, "np", counting)
        f = icf_factorize(ds, spec, max_rank=24, epsilon=1e-300)
        monkeypatch.undo()
        assert f.s == 18
        P, pivots, history, evals = plain_loop(ds, spec, f.s)
        assert np.array_equal(f.pivots, pivots)
        assert f.kernel_evals == evals
        assert np.max(np.abs(f.P - P)) <= 1e-12
        assert np.max(np.abs(f.trace_history - history)) <= 1e-12 * history[0]
        assert_ranks_are_prefixes(ds, spec, f, [15, 16, 17, 18, 19])
        # every step after the block start takes its pivot's panel row
        assert [rows for s, rows in enumerate(counting.rows) if s >= icf._BLOCK] == [0, 1]

    def test_most_steps_read_only_their_blocks_rows(self, monkeypatch):
        # a silent fall back to the plain loop would read all of P at every step
        counting = _CountingNumpy()
        monkeypatch.setattr(icf, "np", counting)
        f = icf_factorize(mixture_dataset(25, 2000, 8, 10), KernelSpec(sigma=0.1), max_rank=200)
        assert f.s == 200
        assert len(counting.rows) == f.s
        full = sum(1 for s, rows in enumerate(counting.rows) if s and rows == s)
        assert full < f.s / 4
        assert all(rows < icf._BLOCK for s, rows in enumerate(counting.rows) if rows != s)


class TestBufferTrim:
    def test_a_factor_that_stopped_early_holds_no_spare_rows(self):
        # a linear kernel in 3-d has rank 3, far below max_rank
        ds = rand_dataset(26, 2000, 3)
        f = icf_factorize(ds, LINEAR, max_rank=500, epsilon=1e-300)
        assert f.s == 3
        assert f.P.base.nbytes == f.P.nbytes
        g = icf_factorize(ds, GAUSS, max_rank=500, epsilon=1e2)
        assert 0 < g.s < 500
        assert g.P.base.nbytes == g.P.nbytes


class TestInvariants:
    CASES = FACTOR_CASES

    @pytest.mark.parametrize("ds,spec,max_rank", CASES)
    def test_structural_invariants(self, ds, spec, max_rank):
        f = icf_factorize(ds, spec, max_rank=max_rank, epsilon=1e-300)
        hist = f.trace_history
        assert np.all(np.diff(hist) <= 0)
        assert hist[0] == pytest.approx(float(np.sum(full_gram(spec, ds, guard=100).diagonal())), rel=1e-12)
        assert np.all(f.residual_diag >= 0.0)
        assert np.all(f.residual_diag[f.pivots] == 0.0)
        assert len(np.unique(f.pivots)) == f.s
        assert f.kernel_evals == ds.n * (f.s + 1)
        assert float(np.sum(f.residual_diag)) == hist[-1]
        # rows at the selected indices, in selection order, form a lower
        # triangle with positive diagonal: later columns are exactly zero there
        sub = f.P[f.pivots]
        assert np.array_equal(np.triu(sub, k=1), np.zeros_like(sub))
        assert np.all(np.diag(sub) > 0)

    @pytest.mark.parametrize("ds,spec,max_rank", CASES)
    def test_pivot_rows_are_exact(self, ds, spec, max_rank):
        f = icf_factorize(ds, spec, max_rank=max_rank, epsilon=1e-300)
        K = full_gram(spec, ds, guard=100)
        err = np.max(np.abs(reconstruct(f, guard=100)[f.pivots] - K[f.pivots]), initial=0.0)
        assert err <= 1e-12 * np.max(np.abs(K))

    @pytest.mark.parametrize("ds,spec,max_rank", CASES)
    def test_nu_is_each_steps_fresh_pivot_height(self, ds, spec, max_rank):
        # step j with pivot t had u = P[t, :j] and nu = sqrt(K[t, t] - u.u);
        # both sides round the same s-term dot product against K[t, t]
        f = icf_factorize(ds, spec, max_rank=max_rank, epsilon=1e-300)
        K = full_gram(spec, ds, guard=100)
        expected_sq = np.array([K[t, t] - f.P[t, :j] @ f.P[t, :j] for j, t in enumerate(f.pivots)])
        assert f.nu.shape == (f.s,)
        assert np.all(f.nu > 0.0)
        slack = 4 * (f.s + 1) * np.finfo(float).eps * K.diagonal()[f.pivots]
        assert np.all(np.abs(f.nu ** 2 - expected_sq) <= slack)

    def test_duplicated_points_stop_at_unique_rank(self):
        ds, spec, max_rank = self.CASES[3]
        f = icf_factorize(ds, spec, max_rank=max_rank, epsilon=1e-300)
        assert f.s == 20


class TestGramAccessDiscipline:
    def test_factorize_never_materializes_the_gram_matrix(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("full Gram matrix requested")

        monkeypatch.setattr("icfcluster.kernel.full_gram", boom)
        ds = rand_dataset(0, 30, 3)
        f = icf_factorize(ds, GAUSS, max_rank=10, epsilon=1e-300)
        assert f.s == 10

    def test_factorize_evaluates_one_column_per_step(self, monkeypatch):
        import icfcluster.icf as icf_mod

        calls = {"column": 0, "diag": 0}
        real_column = icf_mod.kernel_column
        real_diag = icf_mod.kernel_diag

        def counting_column(*args, **kwargs):
            calls["column"] += 1
            return real_column(*args, **kwargs)

        def counting_diag(*args, **kwargs):
            calls["diag"] += 1
            return real_diag(*args, **kwargs)

        monkeypatch.setattr(icf_mod, "kernel_column", counting_column)
        monkeypatch.setattr(icf_mod, "kernel_diag", counting_diag)
        ds = rand_dataset(1, 25, 3)
        f = icf_factorize(ds, GAUSS, max_rank=8, epsilon=1e-300)
        assert calls["column"] == f.s == 8
        assert calls["diag"] == 1


class TestDumpAndParse:
    def test_round_trip_is_bit_exact(self):
        ds = rand_dataset(2, 18, 3)
        f = icf_factorize(ds, LINEAR, max_rank=3, epsilon=1e-300)
        pivots, P, history = parse_factor_dump(dump_factor(f))
        assert np.array_equal(pivots, f.pivots)
        assert np.array_equal(P, f.P)
        assert np.array_equal(history, f.trace_history)

    def test_header_line(self):
        ds = rand_dataset(2, 6, 2)
        f = icf_factorize(ds, GAUSS, max_rank=2, epsilon=1e-300)
        assert dump_factor(f).splitlines()[0] == "ICF 6 2"

    def test_empty_factor_round_trips(self):
        ds = rand_dataset(1, 5, 2)
        f = icf_factorize(ds, GAUSS, max_rank=5, epsilon=1e9)
        pivots, P, history = parse_factor_dump(dump_factor(f))
        assert pivots.shape == (0,)
        assert P.shape == (5, 0)
        assert history.tolist() == [5.0]

    def test_round_trip_is_bit_exact_on_edge_shapes_and_values(self):
        rng = np.random.default_rng(19)
        awkward = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 1.0, -42.0, 2.0 ** 53])
        for n, s in [(1, 0), (1, 1), (6, 0), (6, 1), (12, 5)]:
            for _ in range(6):
                P = rng.normal(size=(n, s)) * 10.0 ** rng.integers(-320, 300, size=(n, s))
                special = rng.random((n, s)) < 0.5
                P[special] = rng.choice(awkward, size=int(special.sum()))
                history = rng.choice(awkward, size=s + 1)
                f = IcfFactor(P, rng.permutation(n)[:s], np.zeros(n), history, n * (s + 1))
                pivots, P_back, history_back = parse_factor_dump(dump_factor(f))
                assert np.array_equal(pivots, f.pivots)
                assert P_back.shape == (n, s)
                assert np.array_equal(P_back.view(np.int64), f.P.view(np.int64))
                assert np.array_equal(history_back.view(np.int64), f.trace_history.view(np.int64))

    def test_text_is_pinned(self):
        # a formatter that still round-trips but writes other bytes fails here
        P = np.array([[1.0, -0.0], [0.1, 5e-324], [-3.0, 1e308]])
        f = IcfFactor(P, np.array([2, 0]), np.zeros(3), np.array([2.0, 1e-300, 0.0]), 9)
        assert dump_factor(f) == (
            "ICF 3 2\n"
            "2 0\n"
            "1.00000000000000000e+00 -0.00000000000000000e+00\n"
            "1.00000000000000006e-01 4.94065645841246544e-324\n"
            "-3.00000000000000000e+00 1.00000000000000001e+308\n"
            "2.00000000000000000e+00 1.00000000000000003e-300 0.00000000000000000e+00\n")
        empty = IcfFactor(np.zeros((2, 0)), np.zeros(0, dtype=np.int64), np.ones(2), np.array([2.0]), 2)
        assert dump_factor(empty) == "ICF 2 0\n\n\n\n2.00000000000000000e+00\n"

    def test_text_equals_percent_format_on_ties_and_next_to_powers_of_ten(self):
        # v = m 2^-(p+1) with m odd makes v 10^p = m 5^p / 2 a decimal tie; m is
        # drawn so that the tie falls on the 18th significant digit
        rng = np.random.default_rng(23)
        ties = []
        for p in range(2, 27):
            scale = Fraction(2) ** (p + 1)
            low = math.ceil(Fraction(10) ** (17 - p) * scale)
            high = min(math.ceil(Fraction(10) ** (18 - p) * scale), 2 ** 53)
            odd = range(low | 1, high, 2)
            picks = odd if len(odd) <= 100 else [odd[i] for i in rng.integers(len(odd), size=100)]
            for m in picks:
                v = math.ldexp(m, -(p + 1))
                assert (Fraction(v) * 10 ** p).denominator == 2
                assert int(("%.17e" % v).split("e")[1]) == 17 - p
                ties.append(v)
        assert len(ties) >= 2000
        powers = [float(f"1e{k}") for k in range(-27, 18)]
        edges = [0.0, 5e-324, 2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0),
                 1e308, 2.0 ** 53, 1e-14, 1e17, 1e-27]
        values = np.array(ties + powers + edges
                          + [math.nextafter(v, 0.0) for v in powers + edges]
                          + [math.nextafter(v, math.inf) for v in powers + edges])
        values = np.concatenate([values, -values])
        f = IcfFactor(values[:, None], [0], np.zeros(values.size), [1.0, 0.0], 0)
        rows = dump_factor(f).splitlines()[2:-1]
        assert rows == ["%.17e" % v for v in values.tolist()]
        assert rows[values.tolist().index(1e-14)] == "9.99999999999999999e-15"

    def test_text_equals_percent_format_across_block_edges(self):
        rng = np.random.default_rng(29)
        s = 3
        n = 2 * (icf._DUMP_BLOCK // s) + 7
        P = rng.normal(size=(n, s)) * 10.0 ** rng.uniform(-40.0, 30.0, (n, s))
        P[rng.random((n, s)) < 0.1] = 0.0
        history = np.array([2.0, 1.5e-30, 1e20, 0.0])
        f = IcfFactor(P, [5, 0, 9], np.zeros(n), history, 0)
        lines = [" ".join("%.17e" % v for v in row) for row in [*P.tolist(), history.tolist()]]
        assert dump_factor(f) == f"ICF {n} 3\n5 0 9\n" + "\n".join(lines) + "\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dump_refuses_a_non_finite_value_in_P(self, bad):
        P = np.ones((4, 2))
        P[1, 1] = P[3, 0] = bad
        f = IcfFactor(P, [0, 1], np.zeros(4), [2.0, 1.0, 0.0], 0)
        with pytest.raises(ValueError, match="cannot dump: row 1 of P holds a non-finite value"):
            dump_factor(f)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dump_refuses_a_non_finite_trace_history(self, bad):
        f = IcfFactor(np.ones((3, 1)), [0], np.zeros(3), [2.0, bad], 0)
        with pytest.raises(ValueError, match="cannot dump: the trace history holds a non-finite value"):
            dump_factor(f)

    def test_dump_holds_the_text_twice_and_little_more(self):
        # the blocks and their join hold the text twice; formatting one block
        # of values needs about a megabyte more, not space in proportion to P
        rng = np.random.default_rng(31)
        n, s = 20_000, 50
        P = rng.normal(size=(n, s)) * 10.0 ** rng.uniform(-8.0, 0.0, (n, s))
        f = IcfFactor(P, np.arange(s), np.zeros(n), np.linspace(1.0, 0.0, s + 1), 0)
        tracemalloc.start()
        try:
            text = dump_factor(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 24_000_000
        assert peak < 2 * len(text) + 4_000_000

    def test_parse_holds_the_lines_P_and_little_more(self):
        # the text is split into lines once; each block of rows is encoded
        # and decoded alone, so the exact reader needs no copy of the P section
        rng = np.random.default_rng(37)
        n, s = 20_000, 50
        P = rng.normal(size=(n, s)) * 10.0 ** rng.uniform(-8.0, 0.0, (n, s))
        f = IcfFactor(P, np.arange(s), np.zeros(n), np.linspace(1.0, 0.0, s + 1), 0)
        text = dump_factor(f)
        lines = text.splitlines()
        held = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines)) + P.nbytes
        del lines
        tracemalloc.start()
        try:
            _, back, _ = parse_factor_dump(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.tobytes() == P.tobytes()
        assert peak < held + 2_000_000

    def test_exact_rows_take_the_writers_blocks_and_nothing_else(self):
        rng = np.random.default_rng(41)
        P = rng.choice([-1.0, 1.0], (40, 3)) * rng.uniform(1.0, 10.0, (40, 3)) * 10.0 ** rng.integers(-27, 17, (40, 3))
        P[rng.random((40, 3)) < 0.2] = 0.0
        P[0, 0], P[1, 1] = -0.0, 1e-27
        rows = dump_factor(IcfFactor(P, [0, 1, 2], np.zeros(40), [1.0, 0.5, 0.2, 0.0], 0)).splitlines()[2:42]
        exact = icf._exact_rows(rows, 3)
        assert exact is not None and exact.tobytes() == P.tobytes()
        first = rows[0].split(" ")
        for bad in ("--" + first[1], "+" + first[1], first[1].replace("e", "E"), first[1][:-3] + "+5",
                    first[1][:-3] + "+100", first[1][:19] + "0" + first[1][19:], first[1][:18] + first[1][19:]):
            assert icf._exact_rows([" ".join([first[0], bad, first[2]])], 3) is None, bad
        for sep in ("\t", "  "):
            assert icf._exact_rows([sep.join(first)], 3) is None
        assert icf._exact_rows([rows[0] + " "], 3) is None
        assert icf._exact_rows([rows[0], rows[1] + " " + first[0]], 3) is None
        assert icf._exact_rows([rows[0] + " " + first[0], rows[1].split(" ", 1)[1]], 3) is None
        assert icf._exact_rows([rows[0].replace("e-", "e,")], 3) is None
        assert icf._exact_rows([" ".join(first[:2])], 3) is None

    def test_exact_rows_read_records_off_the_fast_range_by_float(self):
        # a zero significand, one below 10^17 and exponents outside [-27, 16]
        # keep the record layout; each such record is read alone
        tokens = ["0.00000000000000000e+05", "-0.82747480090037356e+01", "1.00000000000000000e+17",
                  "-9.99999999999999999e-28", "3.30000000000000001e-99", "1.79769313486231571e+99"]
        got = icf._exact_rows([" ".join(tokens)], len(tokens))
        assert got.tobytes() == np.array([list(map(float, tokens))]).tobytes()

    def test_exact_rows_read_a_token_a_product_rounds_twice_by_float(self):
        # within 1e-34 of its size of the point halfway between two doubles:
        # the double-double product of M and 10^-25 rounds it to the odd one
        token = "2.00242969969417196e-08"
        assert icf._quotients(np.array([200242969969417196]), np.array([25]))[0] != float(token)
        assert icf._exact_rows([token], 1)[0, 0] == float(token)
        assert parse_factor_dump(f"ICF 1 1\n0\n{token}\n1.0 0.5\n")[1][0, 0] == float(token)

    def test_parse_rejects_a_short_row(self):
        ds = rand_dataset(2, 6, 2)
        f = icf_factorize(ds, GAUSS, max_rank=2, epsilon=1e-300)
        lines = dump_factor(f).splitlines()
        lines[3] = lines[3].split()[0]
        with pytest.raises(ValueError):
            parse_factor_dump("\n".join(lines))

    def test_parse_rejects_a_header_larger_than_its_text(self):
        # the header must not make the parser allocate a huge P for a short text
        with pytest.raises(ValueError, match="cannot hold"):
            parse_factor_dump("ICF 3 1000000000000\n0\n\n\n\n1\n")

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ValueError):
            parse_factor_dump("")
        with pytest.raises(ValueError):
            parse_factor_dump("CSV 3 1\n0\n1\n1\n1\n3 0\n")

    def test_parse_rejects_truncated_dump(self):
        ds = rand_dataset(2, 6, 2)
        f = icf_factorize(ds, GAUSS, max_rank=2, epsilon=1e-300)
        lines = dump_factor(f).splitlines()[:-2]
        with pytest.raises(ValueError):
            parse_factor_dump("\n".join(lines))

    def test_parse_rejects_malformed_header(self):
        with pytest.raises(ValueError):
            parse_factor_dump("ICF six two\n")


    def test_parse_rejects_negative_header_sizes(self):
        for header in ("ICF -1 2", "ICF 2 -1"):
            with pytest.raises(ValueError, match="malformed header"):
                parse_factor_dump(header + "\n0 1\n1.0 2.0\n3.0 4.0\n1.0 2.0 3.0\n")

    def test_parse_names_a_pivot_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match="malformed pivots"):
            parse_factor_dump("ICF 2 1\n0.5\n1.0\n2.0\n3.0 1.0\n")

    def test_parse_rejects_pivots_outside_the_rows_or_repeated(self):
        for pivots in ("5 1", "-1 1", "1 1"):
            with pytest.raises(ValueError, match="malformed pivots"):
                parse_factor_dump(f"ICF 2 2\n{pivots}\n1.0 0.0\n2.0 0.0\n3.0 1.0 0.5\n")

    def test_parse_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="row 0 of P"):
            parse_factor_dump("ICF 2 1\n0\ninf\n2.0\n3.0 1.0\n")
        with pytest.raises(ValueError, match="trace history"):
            parse_factor_dump("ICF 2 1\n0\n1.0\n2.0\n3.0 nan\n")

    def test_parse_names_a_value_that_is_not_a_number(self):
        with pytest.raises(ValueError, match="row 0 of P: could not convert"):
            parse_factor_dump("ICF 2 1\n0\n1.0x\n2.0\n3.0 1.0\n")
        with pytest.raises(ValueError, match="trace history: could not convert"):
            parse_factor_dump("ICF 2 1\n0\n1.0\n2.0\n3.0 one\n")

    def test_parse_rejects_a_pivot_line_shorter_than_the_header(self):
        with pytest.raises(ValueError, match="dump sections do not match header sizes"):
            parse_factor_dump("ICF 2 2\n0\n1.0 0.0\n2.0 0.0\n3.0 1.0 0.5\n")

    def test_parse_rejects_data_after_the_history(self):
        text = dump_factor(icf_factorize(rand_dataset(2, 6, 2), GAUSS, max_rank=2, epsilon=1e-300))
        assert parse_factor_dump(text + "\n \n")[1].shape == (6, 2)
        with pytest.raises(ValueError, match="after the trace history"):
            parse_factor_dump(text + "1.0\n")

    @pytest.mark.parametrize("n,rows,bad", [(2, "1.0\n\n", 1), (3, "1.0\n\n2.0\n", 1), (2, "\n\n", 0)])
    def test_parse_names_a_blank_row_of_P(self, n, rows, bad):
        text = f"ICF {n} 1\n0\n{rows}3.0 1.0\n"
        # no reader path may warn, even on rows that are all blank
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"row {bad} of P has 0 values"):
                parse_factor_dump(text)

    def test_parse_rejects_rows_wider_than_the_header(self):
        with pytest.raises(ValueError, match="row 0 of P has 2 values"):
            parse_factor_dump("ICF 2 1\n0\n1.0 2.0\n3.0 4.0\n1.0 0.5\n")

    def test_parse_reads_any_float_syntax(self):
        # underscores and non-ASCII digits are float() syntax
        _, P, _ = parse_factor_dump("ICF 2 1\n0\n1_0.5\n\u0662.0\n3.0 1.0\n")
        assert P.tolist() == [[10.5], [2.0]]


class TestValidation:
    def test_max_rank_bounds(self):
        ds = rand_dataset(0, 10, 2)
        with pytest.raises(ValueError):
            icf_factorize(ds, GAUSS, max_rank=0)
        with pytest.raises(ValueError):
            icf_factorize(ds, GAUSS, max_rank=11)

    def test_a_factor_too_large_for_memory_is_refused_by_name(self):
        # 8 TB, so a factorization that allocates fails at once rather than
        # filling this machine's memory
        ds = gen_synthetic("ring", 500_000, 0.1, 0)
        with pytest.raises(ValueError) as info:
            icf_factorize(ds, GAUSS, max_rank=10 ** 6)
        assert str(info.value) == ("max_rank=1000000 needs a dense 1000000 x 1000000 factor, "
                                   "more than this machine's memory")

    def test_epsilon_must_be_positive(self):
        ds = rand_dataset(0, 10, 2)
        with pytest.raises(ValueError):
            icf_factorize(ds, GAUSS, max_rank=5, epsilon=0.0)
        with pytest.raises(ValueError):
            icf_factorize(ds, GAUSS, max_rank=5, epsilon=-1.0)

    def test_reconstruct_guard(self):
        ds = rand_dataset(0, 12, 2)
        f = icf_factorize(ds, GAUSS, max_rank=3, epsilon=1e-300)
        with pytest.raises(ValueError):
            reconstruct(f, guard=11)
        assert reconstruct(f, guard=12).shape == (12, 12)

    def test_a_reconstruction_too_large_for_memory_is_refused_by_name(self):
        # 8 TB, so a reconstruction that allocates fails at once rather than
        # filling this machine's memory
        f = IcfFactor(np.zeros((10 ** 6, 1)), [0], np.zeros(10 ** 6), [1.0, 0.0], 0)
        with pytest.raises(ValueError) as info:
            reconstruct(f, guard=10 ** 6)
        assert str(info.value) == ("reconstruction refused: n=1000000 with guard=1000000 needs a dense "
                                   "1000000 x 1000000 approximation, more than this machine's memory")

    def test_factor_fields_are_read_only(self):
        ds = rand_dataset(0, 8, 2)
        f = icf_factorize(ds, GAUSS, max_rank=3, epsilon=1e-300)
        with pytest.raises(ValueError):
            f.P[0, 0] = 5.0
        with pytest.raises(ValueError):
            f.residual_diag[0] = 5.0

    def test_factor_constructor_validates_shapes(self):
        P = np.ones((4, 2))
        diag = np.zeros(4)
        hist = np.array([4.0, 2.0, 0.0])
        with pytest.raises(ValueError):
            IcfFactor(P, np.array([0, 0]), diag, hist, 12)
        with pytest.raises(ValueError):
            IcfFactor(P, np.array([0, 1]), np.zeros(3), hist, 12)
        with pytest.raises(ValueError):
            IcfFactor(P, np.array([0, 1]), diag, hist[:2], 12)

    def test_factor_constructor_rejects_pivots_outside_the_rows(self):
        P, diag, hist = np.ones((10, 2)), np.zeros(10), np.array([10.0, 5.0, 0.0])
        for bad in (12, -1):
            with pytest.raises(ValueError, match=r"pivots must be indices in \[0, 10\)"):
                IcfFactor(P, np.array([0, bad]), diag, hist, 30)

    def test_factor_constructor_copies_its_inputs(self):
        P, pivots, diag, hist = np.ones((4, 2)), np.array([0, 1]), np.zeros(4), np.array([4.0, 2.0, 0.0])
        f = IcfFactor(P, pivots, diag, hist, 12)
        for given, kept in ((P, f.P), (pivots, f.pivots), (diag, f.residual_diag), (hist, f.trace_history)):
            assert given.flags.writeable
            assert not np.shares_memory(given, kept)

    @pytest.mark.parametrize("clone", [lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy, copy.copy])
    def test_pickle_and_deepcopy_keep_the_arrays_frozen(self, clone):
        ds = Dataset(np.random.default_rng(5).normal(size=(12, 2)))
        f = icf_factorize(ds, KernelSpec(sigma=0.5), max_rank=4)
        back = clone(f)
        assert back.kernel_evals == f.kernel_evals
        for name in ("P", "pivots", "residual_diag", "trace_history"):
            kept, got = getattr(f, name), getattr(back, name)
            assert np.array_equal(kept, got) and not got.flags.writeable, name
            with pytest.raises(ValueError):
                got[0] = 1

    def test_breakdown_error_carries_context(self):
        err = BreakdownError(7, -3.5e-9)
        assert err.iteration == 7
        assert err.value == -3.5e-9
        assert "7" in str(err)
