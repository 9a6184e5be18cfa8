"""Tests for k-means++/Lloyd, and for Lloyd on the factor and on the exact embedding."""

import copy
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest

from icfcluster import (
    ClusterModel,
    Dataset,
    KernelSpec,
    accuracy,
    gen_synthetic,
    icf_factorize,
    kmeans_pp_init,
    lloyd,
    oracle_embedding,
    psd_embedding,
)
from icfcluster import cluster
from icfcluster.cluster import _BLOCK_ENTRIES, _add_moves, _lowest_rows, _repair_empty, _sq_dists
from icfcluster.kernel import full_gram

GAUSS = KernelSpec(sigma=0.5)


def rand_points(seed: int, n: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, d))


def one_hot(assign: np.ndarray, k: int) -> np.ndarray:
    """k x n float indicator: row j is 1 where assign == j."""
    return (np.arange(k)[:, None] == assign).astype(np.float64)


class TestKmeansPlusPlus:
    def test_k_equals_n_returns_every_point(self):
        pts = rand_points(0, 6, 2)
        centers = kmeans_pp_init(pts, 6, seed=3)
        assert centers.shape == (6, 2)
        order = np.lexsort(pts.T)
        order_c = np.lexsort(centers.T)
        assert np.array_equal(centers[order_c], pts[order])

    def test_k_one_returns_one_of_the_points(self):
        pts = rand_points(1, 10, 3)
        centers = kmeans_pp_init(pts, 1, seed=0)
        assert centers.shape == (1, 3)
        assert any(np.array_equal(centers[0], p) for p in pts)

    def test_far_separated_pairs_split_across_groups(self):
        # squared-distance weighting should always put the second center in
        # the other pair, for every seed
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [100.0, 0.0], [100.0, 1.0]])
        for seed in range(200):
            centers = kmeans_pp_init(pts, 2, seed)
            assert (centers[:, 0] < 50.0).sum() == 1

    def test_duplicate_points_fall_back_to_uniform_choice(self):
        pts = np.zeros((5, 2))
        centers = kmeans_pp_init(pts, 3, seed=0)
        assert centers.shape == (3, 2)
        assert np.array_equal(centers, np.zeros((3, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_duplicates_of_chosen_centers_score_exactly_zero(self, seed):
        # with more centers than distinct points the draws after the last
        # distinct one fall back to uniform; rounding noise in the distances
        # of duplicates would make them weighted draws of other indices
        rng = np.random.default_rng(5)
        pts = np.repeat(rng.normal(size=(5, 20)) * 3.0 + 7.0, 4, axis=0)
        assert np.array_equal(kmeans_pp_init(pts, 8, seed), oracle_kmeans_pp(pts, 8, seed))

    def test_k_out_of_range(self):
        pts = rand_points(0, 4, 2)
        with pytest.raises(ValueError):
            kmeans_pp_init(pts, 0, seed=0)
        with pytest.raises(ValueError):
            kmeans_pp_init(pts, 5, seed=0)

    def test_deterministic_per_seed(self):
        pts = rand_points(2, 30, 3)
        a = kmeans_pp_init(pts, 4, seed=9)
        b = kmeans_pp_init(pts, 4, seed=9)
        assert np.array_equal(a, b)


class TestLloyd:
    def test_single_cluster_closed_form(self):
        pts = rand_points(3, 20, 3)
        model = lloyd(pts, 1, seed=0)
        mean = pts.mean(axis=0)
        np.testing.assert_allclose(model.centers[0], mean, atol=1e-12)
        expected = float(((pts - mean) ** 2).sum()) / 20
        assert model.objective == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(model.assignments, np.zeros(20, dtype=np.int64))

    @pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy, copy.copy])
    def test_pickle_and_deepcopy_keep_the_arrays_frozen(self, clone):
        model = lloyd(rand_points(6, 30, 3), 3, seed=2)
        back = clone(model)
        assert (back.objective, back.iterations, back.converged) == \
               (model.objective, model.iterations, model.converged)
        for name in ("assignments", "centers", "objective_history", "moved_history"):
            kept, got = getattr(model, name), getattr(back, name)
            assert np.array_equal(kept, got) and not got.flags.writeable, name
            with pytest.raises(ValueError):
                got[0] = 1

    def test_k_equals_n_zero_objective(self):
        pts = rand_points(4, 8, 2)
        model = lloyd(pts, 8, seed=1)
        assert model.objective == 0.0
        assert sorted(model.assignments.tolist()) == list(range(8))

    def test_two_tight_groups_match_exhaustive_optimum(self):
        rng = np.random.default_rng(11)
        pts = np.vstack([rng.normal(0, 0.1, (3, 2)), rng.normal(8, 0.1, (3, 2))])
        model = lloyd(pts, 2, seed=0)
        best = np.inf
        for labels in itertools.product([0, 1], repeat=6):
            labels = np.array(labels)
            if labels.min() == labels.max():
                continue
            total = 0.0
            for c in (0, 1):
                grp = pts[labels == c]
                total += float(((grp - grp.mean(axis=0)) ** 2).sum())
            best = min(best, total / 6.0)
        assert model.objective == pytest.approx(best, rel=1e-10)

    def test_translation_far_from_the_origin_changes_nothing(self):
        # the tol test's objective is taken about the mean of the points;
        # about the origin its rounding error would grow with the offset
        pts = rand_points(2, 2000, 2)
        base = lloyd(pts, 6, seed=0)
        moved = lloyd(pts + 1e5, 6, seed=0)
        assert base.iterations > 2
        assert np.array_equal(moved.assignments, base.assignments)
        assert moved.iterations == base.iterations
        assert moved.objective == pytest.approx(base.objective, rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_assignments_far_from_the_origin_match_the_unshifted_ones(self, seed):
        # the assignment scores are taken about the mean of the points; taken
        # about the origin they round like eps ||p||^2, which at an offset of
        # 1e8 swamps the distances between unit-spread clusters
        rng = np.random.default_rng(seed)
        means = rng.normal(scale=3.0, size=(8, 5))
        pts = means[rng.integers(0, 8, 2000)] + rng.normal(size=(2000, 5))
        base = lloyd(pts, 8, seed=seed)
        moved = lloyd(pts + 1e8, 8, seed=seed)
        assert np.array_equal(moved.assignments, base.assignments)
        assert moved.iterations == base.iterations

    def test_objective_consistent_with_returned_state(self):
        pts = rand_points(5, 60, 4)
        model = lloyd(pts, 5, seed=2)
        # centers are the means of their members and the objective is the
        # mean squared distance to the assigned center
        for c in range(5):
            members = pts[model.assignments == c]
            np.testing.assert_allclose(model.centers[c], members.mean(axis=0), atol=1e-12)
        diff = pts - model.centers[model.assignments]
        assert model.objective == pytest.approx(float((diff ** 2).sum()) / 60, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_no_empty_clusters(self, seed):
        # many duplicates and k close to the number of distinct points
        pts = np.repeat(rand_points(6, 5, 2), 4, axis=0)
        model = lloyd(pts, 5, seed=seed)
        assert np.bincount(model.assignments, minlength=5).min() >= 1

    def test_deterministic_per_seed(self):
        pts = rand_points(7, 50, 3)
        a = lloyd(pts, 4, seed=13)
        b = lloyd(pts, 4, seed=13)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.objective == b.objective
        assert a.iterations == b.iterations

    def test_validation(self):
        pts = rand_points(0, 5, 2)
        with pytest.raises(ValueError):
            lloyd(pts, 0, seed=0)
        with pytest.raises(ValueError):
            lloyd(pts, 6, seed=0)
        with pytest.raises(ValueError):
            lloyd(pts, 2, seed=0, max_iter=0)

    def test_peak_is_one_score_matrix(self):
        # the scores and the first iteration's one-hot matrix share one k x n
        # buffer, and the moved points' one-hot blocks stay within _BLOCK_ENTRIES
        pts, k = rand_points(1, 10_000, 2), 1000
        tracemalloc.start()
        try:
            lloyd(pts, k, 0, max_iter=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * k * pts.shape[0] * 8

    def test_a_score_matrix_too_large_for_memory_is_refused_by_name(self, monkeypatch):
        # 8 TB, so a run that allocates fails at once rather than filling this
        # machine's memory; the seeding is stubbed, so that a lloyd without the
        # refusal reaches the allocation without minutes of k-means++ draws
        monkeypatch.setattr(cluster, "kmeans_pp_init", lambda points, k, seed, prepared: points[:k])
        with pytest.raises(ValueError) as info:
            lloyd(np.arange(10.0 ** 6)[:, None], 10 ** 6, 0)
        assert str(info.value) == ("k=1000000 needs a dense 1000000 x 1000000 score matrix, "
                                   "more than this machine's memory")

    @pytest.mark.parametrize("fit", [lloyd, kmeans_pp_init])
    @pytest.mark.parametrize("points, k, cause", [
        ([[np.nan], [1.0]], 1, "NaN or inf"),
        ([[np.inf], [1.0], [2.0]], 2, "NaN or inf"),
        ([[1.0, -np.inf], [1.0, 2.0]], 1, "NaN or inf"),
        ([[1e308], [1e308]], 1, "mean overflows"),
        ([[1e200], [-1e200]], 2, "spread too far"),
        (np.array([1.0, 2.0, 3.0]), 2, "2-d n x s array, got 1-d"),
        (np.ones((2, 2, 1)), 1, "2-d n x s array, got 3-d"),
        (1e160 + 1e150 * np.random.default_rng(0).normal(size=(20, 2)), 3, "spread too far"),
        (np.empty((4, 0)), 2, r"at least one column, got 4 x 0 \(a rank-0 factor"),
    ])
    def test_bad_points_are_refused_by_name(self, fit, points, k, cause):
        # raised before numpy warns, so no RuntimeWarning precedes the error
        with pytest.raises(ValueError, match=cause):
            fit(points, k, seed=0)

    def test_history_defaults_to_empty_and_is_read_only(self):
        model = ClusterModel([0, 1], [[0.0], [1.0]], 0.0, 1, True)
        assert model.objective_history.shape == model.moved_history.shape == (0,)
        fitted = lloyd(rand_points(8, 30, 2), 3, seed=0)
        with pytest.raises(ValueError):
            fitted.objective_history[0] = 0.0
        with pytest.raises(ValueError):
            fitted.moved_history[0] = 0

    def test_model_fields(self):
        pts = rand_points(8, 30, 2)
        model = lloyd(pts, 3, seed=0)
        assert model.k == 3
        assert model.centers.shape == (3, 2)
        assert model.assignments.shape == (30,)
        assert isinstance(model.converged, bool) or model.converged in (True, False)
        assert model.converged
        with pytest.raises(ValueError):
            model.assignments[0] = 1


def _property_cases():
    """(points, k) pairs: seeded random inputs of mixed scale, then the edge
    cases n = 1, k = n, duplicate points (k at and beyond the number of
    distinct points), all points identical, and k = 1, then a tall input
    of 4,096 points."""
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(12):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 6))
        cases.append((rng.uniform(0.1, 10.0) * rng.normal(size=(n, d)), int(rng.integers(1, n + 1))))
    cases.append((rng.normal(size=(1, 3)), 1))
    cases.append((rng.normal(size=(9, 2)), 9))
    duplicates = np.repeat(rng.normal(size=(5, 3)), 4, axis=0)
    cases.append((duplicates, 5))
    cases.append((duplicates, 8))
    cases.append((np.zeros((6, 2)), 3))
    cases.append((rng.normal(size=(40, 4)), 1))
    means = 3.0 * rng.normal(size=(4, 3))
    cases.append((means[rng.integers(0, 4, 4096)] + rng.normal(size=(4096, 3)), 4))
    return cases


PROPERTY_CASES = _property_cases()
PROPERTY_SEEDS = range(3)


@pytest.mark.parametrize("case", range(len(PROPERTY_CASES)))
class TestLloydProperties:
    def test_objective_never_increases_with_max_iter(self, case):
        pts, k = PROPERTY_CASES[case]
        # rounding floor: squared distances carry errors of order eps ||p||^2,
        # so a true zero can come back as 1e-34 after points trade places
        # between coincident centers (duplicates with k above the distinct count)
        slack = 1e-12 * float(np.mean(np.sum(pts ** 2, axis=1)))
        for seed in PROPERTY_SEEDS:
            full = lloyd(pts, k, seed)
            objectives = [lloyd(pts, k, seed, max_iter=t).objective for t in range(1, full.iterations + 2)]
            assert objectives[-1] == full.objective
            for before, after in zip(objectives, objectives[1:]):
                assert after <= before + slack

    def test_every_cluster_id_is_used(self, case):
        pts, k = PROPERTY_CASES[case]
        for seed in PROPERTY_SEEDS:
            for max_iter in (1, 2, 1000):
                model = lloyd(pts, k, seed, max_iter=max_iter)
                assert np.array_equal(np.unique(model.assignments), np.arange(k))

    def test_centers_are_the_means_of_their_members(self, case):
        pts, k = PROPERTY_CASES[case]
        scale = max(1.0, float(np.abs(pts).max()))
        for seed in PROPERTY_SEEDS:
            for max_iter in (1, 1000):
                model = lloyd(pts, k, seed, max_iter=max_iter)
                for j in range(k):
                    members = pts[model.assignments == j]
                    np.testing.assert_allclose(model.centers[j], members.mean(axis=0), rtol=1e-12, atol=1e-14 * scale)

    def test_history_follows_the_capped_runs(self, case):
        # a run capped at t iterations is the first t iterations of the full
        # run, so its history is a prefix of the full one, its last moved
        # count is the number of points the last iteration moved, and its
        # last tol objective is the objective of the state it returns
        pts, k = PROPERTY_CASES[case]
        slack = 1e-12 * float(np.mean(np.sum(pts ** 2, axis=1)))
        for seed in PROPERTY_SEEDS:
            full = lloyd(pts, k, seed)
            assert full.objective_history.shape == full.moved_history.shape == (full.iterations,)
            assert full.moved_history[0] == len(pts)
            assert np.all(full.moved_history[1:] >= 1)
            before = None
            for t in range(1, full.iterations + 1):
                capped = lloyd(pts, k, seed, max_iter=t)
                assert np.array_equal(capped.objective_history, full.objective_history[:t])
                assert np.array_equal(capped.moved_history, full.moved_history[:t])
                assert capped.objective_history[-1] == pytest.approx(capped.objective, rel=1e-9, abs=slack)
                if before is not None:
                    moved = np.count_nonzero(capped.assignments != before.assignments)
                    assert capped.moved_history[-1] == moved
                before = capped

    def test_memory_layout_does_not_change_the_result(self, case):
        pts, k = PROPERTY_CASES[case]
        c_order, f_order = np.ascontiguousarray(pts), np.asfortranarray(pts)
        for seed in PROPERTY_SEEDS:
            assert np.array_equal(kmeans_pp_init(c_order, k, seed), kmeans_pp_init(f_order, k, seed))
            a, b = lloyd(c_order, k, seed), lloyd(f_order, k, seed)
            assert np.array_equal(a.assignments, b.assignments)
            assert np.array_equal(a.centers, b.centers)
            assert a.objective == b.objective
            assert a.iterations == b.iterations


def test_lloyd_reads_a_column_major_factor_in_place():
    # a factor's P is column-major; Lloyd and its seeding must each allocate
    # less than one more n x s array (a layout copy of P alone would be P.nbytes)
    P = np.asfortranarray(rand_points(9, 10_000, 100))
    for run in (lambda: lloyd(P, 10, seed=0, max_iter=5), lambda: kmeans_pp_init(P, 10, seed=0)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < P.nbytes


def test_lloyd_makes_one_full_pass_about_the_mean(monkeypatch):
    # the seeding takes lloyd's prepared input, so the pass that gives every
    # point's squared distance to the mean runs once per lloyd call
    P = np.asfortranarray(rand_points(12, 5_000, 20))
    passes = []

    def counted(points, centers, assign=None):
        passes.append(assign is None and points.shape[0] == P.shape[0])
        return _sq_dists(points, centers, assign)

    monkeypatch.setattr(cluster, "_sq_dists", counted)
    model = lloyd(P, 6, seed=0, max_iter=3)
    assert np.unique(model.assignments).size == 6
    assert sum(passes) == 1


def column_loop_sq_dists(points, centers, assign=None):
    """_sq_dists written plainly: one squared difference per column, added
    in column order."""
    ref = np.broadcast_to(centers, points.shape) if assign is None else centers[assign]
    d0 = points[:, 0] - ref[:, 0]
    out = d0 * d0
    for j in range(1, points.shape[1]):
        dj = points[:, j] - ref[:, j]
        out += dj * dj
    return out


@pytest.mark.parametrize("n", [1, 2, 600, 4095, 4096, 12293])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("s", [1, 7, 130])
def test_sq_dists_sums_in_column_order_in_both_forms(n, order, s):
    # the sum runs over blocks of as many whole columns as _BLOCK_ENTRIES holds;
    # both forms must give the plain loop's bits in either layout, a lone row
    # included
    rng = np.random.default_rng(n + s)
    points = np.asarray(rng.normal(size=(n, s)) * 10.0 ** rng.integers(-3, 4, size=s) + 5.0, order=order)
    mean = points.mean(axis=0)
    centers = rng.normal(size=(9, s))
    assign = rng.integers(0, 9, n)
    for got, want in ((_sq_dists(points, mean), column_loop_sq_dists(points, mean)),
                      (_sq_dists(points, centers, assign), column_loop_sq_dists(points, centers, assign))):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n, s", [(600, 600), (10_992, 500), (200_000, 3)])
def test_sq_dists_holds_one_block_of_differences(n, s):
    # both forms hold at most _BLOCK_ENTRIES differences plus a few n-vectors
    # (the running sums and the result) and numpy's ufunc buffer, whatever
    # the shape; at 200,000 x 3 a block is one column
    rng = np.random.default_rng(n)
    P = np.asfortranarray(rng.normal(size=(n, s)))
    mean, centers, assign = P.mean(axis=0), P[:10].copy(), rng.integers(0, 10, n)
    for args in ((P, mean), (P, centers, assign)):
        tracemalloc.start()
        try:
            _sq_dists(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (_BLOCK_ENTRIES + np.getbufsize() + 4 * n)


@pytest.mark.parametrize("k,n,s", [(10, 10_000, 100), (1000, 5_000, 2)])
def test_moving_every_point_gathers_one_block_at_a_time(k, n, s):
    # the center-sum update gathers the moved rows of P and their k x m
    # one-hot matrices; in the first iterations most points can move, so it
    # must not gather them all at once (8 MB of rows at s = 100, 80 MB of
    # one-hot matrices at k = 1,000)
    P = np.asfortranarray(rand_points(10, n, s))
    rng = np.random.default_rng(11)
    old, new = rng.integers(0, k, n), rng.integers(0, k, n)
    mean = P.mean(axis=0)
    shift = np.zeros((k, s))
    tracemalloc.start()
    try:
        _add_moves(shift, P, mean, np.arange(n), old, new)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * _BLOCK_ENTRIES
    expected = (one_hot(new, k) - one_hot(old, k)) @ (P - mean)
    np.testing.assert_allclose(shift, expected, rtol=1e-10, atol=1e-10 * float(np.abs(expected).max()))


def oracle_kmeans_pp(points, k, seed):
    """k-means++ by one difference pass per center, each distance summed directly."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(points, points[chosen[0]])
    for _ in range(1, k):
        d2[chosen] = 0.0
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.choice(np.setdiff1d(np.arange(n), chosen)))
        chosen.append(idx)
        np.minimum(d2, _sq_dists(points, points[idx]), out=d2)
    return points[chosen].copy()


def oracle_lloyd(points, k, seed, max_iter=1000, tol=1e-6):
    """Lloyd that rebuilds every center sum by a k x n one-hot product each
    iteration, seeded by oracle_kmeans_pp; returns (assignments, iterations,
    converged)."""
    points = np.asfortranarray(points, dtype=np.float64)
    n = points.shape[0]
    centers = oracle_kmeans_pp(points, k, seed)
    mean = points.mean(axis=0)
    spread = float(_sq_dists(points, mean).sum())
    assign, prev_obj, converged, iterations = None, np.inf, False, 0
    for _ in range(max_iter):
        offsets = centers - mean
        scores = (-2.0 * offsets) @ points.T
        scores += (np.einsum("ij,ij->i", offsets, offsets) + 2.0 * (offsets @ mean))[:, None]
        new_assign, _ = _repair_empty(points, centers, np.argmin(scores, axis=0), k)
        if assign is not None and np.array_equal(new_assign, assign):
            converged = True
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        centers = (one_hot(assign, k) @ points) / counts[:, None]
        iterations += 1
        obj = max(spread - float(counts @ _sq_dists(centers, mean)), 0.0) / n
        if np.isfinite(prev_obj) and prev_obj - obj <= tol * prev_obj:
            converged = True
            break
        prev_obj = obj
    return assign, iterations, converged


def _offset_cases():
    """(points, k, seed): the translation and 1e8-offset inputs of TestLloyd."""
    cases = [(rand_points(2, 2000, 2) + 1e5, 6, 0)]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        means = rng.normal(scale=3.0, size=(8, 5))
        pts = means[rng.integers(0, 8, 2000)] + rng.normal(size=(2000, 5))
        cases.append((pts + 1e8, 8, seed))
    return cases


ORACLE_CASES = [(pts, k, seed) for pts, k in PROPERTY_CASES for seed in PROPERTY_SEEDS] + _offset_cases()


class TestAgainstTheDirectLoop:
    """lloyd updates center sums from the moved points and seeds by one
    matrix-vector product per center; the plain loop above must agree.

    One named tie: with fewer distinct points than k some centers coincide,
    and which of them a duplicate joins is decided by the centers' last bits,
    which differ between the two loops' sums.  There both must fit every
    point exactly, and the draws must still agree."""

    def check(self, pts, k, seed):
        assert np.array_equal(kmeans_pp_init(pts, k, seed), oracle_kmeans_pp(pts, k, seed))
        model = lloyd(pts, k, seed)
        assign, iterations, converged = oracle_lloyd(pts, k, seed)
        if len(np.unique(pts, axis=0)) < k:
            for labels in (model.assignments, assign):
                members = [pts[labels == j] for j in range(k)]
                assert all(np.array_equal(m, np.broadcast_to(m[0], m.shape)) for m in members)
        else:
            assert np.array_equal(model.assignments, assign)
            assert model.iterations == iterations
            assert model.converged == converged
        scale = max(1.0, float(np.abs(pts).max()))
        for j in range(k):
            members = pts[model.assignments == j]
            np.testing.assert_allclose(model.centers[j], members.mean(axis=0), rtol=1e-12, atol=1e-14 * scale)
        return model

    @pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
    def test_small_and_offset_inputs(self, case):
        self.check(*ORACLE_CASES[case])

    def test_a_large_factor_run_uncapped(self):
        model = self.check(np.asfortranarray(rand_points(17, 10_000, 100)), 10, 3)
        assert model.iterations > 10


class TestLowestRows:
    """lloyd's replacement for np.argmin(scores, axis=0)."""

    @pytest.mark.parametrize("k", [1, 2, 10, 33])
    def test_random_scores(self, k):
        scores = np.random.default_rng(k).normal(size=(k, 5_000))
        assert np.array_equal(_lowest_rows(scores), np.argmin(scores, axis=0))

    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_exact_ties_go_to_the_lowest_row(self, k):
        # few distinct values, so most columns hold the minimum more than once
        rng = np.random.default_rng(k + 50)
        scores = rng.integers(-2, 2, size=(k, 5_000)).astype(np.float64)
        scores[:, :3] = 0.0
        scores[-1, 3] = -0.0
        got = _lowest_rows(scores)
        assert np.array_equal(got, np.argmin(scores, axis=0))
        assert got.dtype == np.argmin(scores, axis=0).dtype
        assert np.all(got[:4] == 0)

    def test_nan_columns_still_get_an_id(self):
        scores = np.array([[1.0, np.nan, np.nan], [0.0, 2.0, np.nan], [3.0, 1.0, np.nan]])
        got = _lowest_rows(scores)
        assert got[0] == 1
        assert np.all((got >= 0) & (got < 3))


class TestFactoredKernelKmeans:
    def test_concentric_rings_fully_separated(self):
        ds = gen_synthetic("ring", 500, 0.05, 0)
        model = lloyd(icf_factorize(ds, KernelSpec(sigma=2.0 ** 4), max_rank=50).P, 2, 0)
        assert accuracy(model.assignments, ds.labels) >= 0.99

    def test_identical_points_single_cluster(self):
        ds = Dataset(np.zeros((3, 2)))
        model = lloyd(icf_factorize(ds, GAUSS, max_rank=3).P, 1, 0)
        assert model.objective == 0.0
        assert model.assignments.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_full_rank_factor_matches_exact_oracle(self, seed):
        # at subset_size = n with a tiny epsilon the factor reproduces the
        # Gram matrix, so the factored path must agree with the dense oracle
        ds = Dataset(rand_points(12, 40, 3))
        a = lloyd(icf_factorize(ds, GAUSS, max_rank=40, epsilon=1e-300).P, 3, seed)
        b = lloyd(oracle_embedding(ds, GAUSS), 3, seed)
        assert a.objective == pytest.approx(b.objective, rel=1e-6)
        assert accuracy(a.assignments, b.assignments) == 1.0

    def test_achieved_rank_can_fall_short_of_subset_size(self):
        ds = Dataset(np.zeros((10, 2)))
        model = lloyd(icf_factorize(ds, GAUSS, max_rank=5).P, 1, 0)
        assert model.centers.shape == (1, 1)


class TestExactOracle:
    def test_identical_points_zero_objective(self):
        ds = Dataset(np.zeros((2, 3)))
        model = lloyd(oracle_embedding(ds, GAUSS), 1, 0)
        assert model.objective == pytest.approx(0.0, abs=1e-12)

    def test_objective_matches_direct_kernel_distances(self):
        # independent evaluation: ||phi(x_i) - mean of cluster||^2 expanded
        # through kernel entries only
        ds = Dataset(rand_points(13, 30, 4))
        model = lloyd(oracle_embedding(ds, GAUSS), 3, 1)
        K = full_gram(GAUSS, ds)
        total = 0.0
        for i in range(30):
            C = np.flatnonzero(model.assignments == model.assignments[i])
            total += K[i, i] - 2.0 * K[i, C].mean() + K[np.ix_(C, C)].mean()
        assert model.objective == pytest.approx(total / 30, rel=1e-8)

    def test_concentric_rings_exact(self):
        ds = gen_synthetic("ring", 100, 0.05, 0)
        model = lloyd(oracle_embedding(ds, KernelSpec(sigma=2.0 ** 4)), 2, 0)
        assert accuracy(model.assignments, ds.labels) == 1.0

    def test_guard_refuses_large_n(self):
        ds = Dataset(rand_points(0, 12, 2))
        with pytest.raises(ValueError):
            lloyd(oracle_embedding(ds, GAUSS, guard=11), 2, 0)

    def test_an_eigendecomposition_beyond_memory_is_refused_by_name(self, physical_memory):
        # one 200 x 200 K fits in this memory, eigh's 5.05 of them do not
        ds = Dataset(rand_points(0, 200, 2))
        physical_memory(4 * 200 * 200 * 8)
        assert full_gram(GAUSS, ds).shape == (200, 200)
        with pytest.raises(ValueError) as info:
            oracle_embedding(ds, GAUSS)
        assert str(info.value) == ("full Gram matrix refused: n=200 with guard=5000 needs 5.05 times a dense "
                                   "200 x 200 Gram matrix, more than this machine's memory")


class TestEmbeddings:
    def test_full_rank_factor_preserves_kernel_distances(self):
        ds = Dataset(rand_points(14, 25, 3))
        f = icf_factorize(ds, GAUSS, max_rank=25, epsilon=1e-300)
        K = full_gram(GAUSS, ds)
        G = f.P @ f.P.T
        feature = np.diag(K)[:, None] + np.diag(K)[None, :] - 2.0 * K
        embedded = np.diag(G)[:, None] + np.diag(G)[None, :] - 2.0 * G
        assert np.max(np.abs(feature - embedded)) <= 1e-8

    def test_psd_embedding_reproduces_the_matrix(self):
        rng = np.random.default_rng(15)
        A = rng.normal(size=(12, 12))
        K = A @ A.T
        E = psd_embedding(K)
        np.testing.assert_allclose(E @ E.T, K, atol=1e-8)

    def test_psd_embedding_tolerates_tiny_negative_eigenvalues(self):
        rng = np.random.default_rng(16)
        A = rng.normal(size=(10, 4))
        K = A @ A.T  # rank 4, so 6 eigenvalues are numerically zero-ish
        E = psd_embedding(K - 1e-14 * np.eye(10))
        assert E.shape == (10, 4)
        assert np.all(np.isfinite(E))
        np.testing.assert_allclose(E @ E.T, K, atol=1e-7)

    def test_psd_embedding_of_a_numerically_zero_matrix_names_the_cause(self):
        for K in (np.zeros((5, 5)), -1e-20 * np.eye(5)):
            with pytest.raises(ValueError, match="kernel matrix is numerically zero"):
                psd_embedding(K)
