"""Tests for the incomplete Cholesky factorization core."""

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
    icf_step,
    kernel_column,
    parse_factor_dump,
    reconstruct,
    residual_trace,
)
from icfcluster.kernel import full_gram

GAUSS = KernelSpec(sigma=0.5)
LINEAR = KernelSpec(family="linear")


def rand_dataset(seed: int, n: int, d: int, offset: float = 0.0) -> Dataset:
    return Dataset(np.random.default_rng(seed).normal(size=(n, d)) + offset)


def exact_rank_dataset(seed: int, r: int, n: int) -> Dataset:
    """n points spanning an r-dimensional subspace: linear Gram has rank r."""
    G = np.random.default_rng(seed).normal(size=(r, n))
    return Dataset(G.T)


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

    def test_step_beyond_rank_raises_breakdown(self):
        ds = exact_rank_dataset(3, 5, 30)
        f = icf_factorize(ds, LINEAR, max_rank=30, epsilon=1e-300)
        with pytest.raises(BreakdownError) as info:
            icf_step(f, ds, LINEAR)
        assert info.value.iteration == 5
        assert abs(info.value.value) < 1e-10

    def test_full_rank_gaussian_runs_to_n(self):
        ds = rand_dataset(0, 50, 4)
        f = icf_factorize(ds, KernelSpec(sigma=0.7), max_rank=50, epsilon=1e-300)
        assert f.s == 50


class TestIcfStep:
    @pytest.mark.parametrize("ds,spec", [case[:2] for case in FACTOR_CASES])
    def test_stepwise_equals_one_shot(self, ds, spec):
        # step until icf_step refuses: the one-shot loop stops at the same
        # rank, and the refusal names why it stopped
        f = icf_factorize(ds, spec, max_rank=1, epsilon=1e-300)
        for _ in range(ds.n):
            try:
                f = icf_step(f, ds, spec)
            except (ValueError, BreakdownError) as err:
                refusal = err
                break
        else:
            pytest.fail("icf_step never refused")
        once = icf_factorize(ds, spec, max_rank=ds.n, epsilon=1e-300)
        assert np.array_equal(f.P, once.P)
        assert np.array_equal(f.pivots, once.pivots)
        assert np.array_equal(f.trace_history, once.trace_history)
        assert f.kernel_evals == once.kernel_evals
        if once.s == ds.n or not np.max(once.residual_diag) > 0.0:
            assert type(refusal) is ValueError
        else:
            assert type(refusal) is BreakdownError
            assert refusal.iteration == once.s

    def test_each_step_takes_the_largest_residual_entry(self):
        ds = rand_dataset(7, 25, 3)
        f = icf_factorize(ds, GAUSS, max_rank=1, epsilon=1e-300)
        for _ in range(14):
            before = f.residual_diag.copy()
            predicted = int(np.argmax(before))
            f = icf_step(f, ds, GAUSS)
            t = int(f.pivots[-1])
            assert t == predicted
            # the chosen entry of the residual diagonal is the squared pivot
            # root of the appended column
            nu_sq = float(f.P[t, -1]) ** 2
            assert nu_sq == pytest.approx(before[predicted], rel=1e-8)

    def test_step_increments_kernel_evals_by_n(self):
        ds = rand_dataset(8, 12, 2)
        f = icf_factorize(ds, GAUSS, max_rank=1, epsilon=1e-300)
        g = icf_step(f, ds, GAUSS)
        assert g.kernel_evals == f.kernel_evals + 12

    def test_step_on_saturated_factor_rejected(self):
        pts = (np.arange(3, dtype=float) * 100.0).reshape(-1, 1)
        ds = Dataset(pts)
        f = icf_factorize(ds, KernelSpec(sigma=1.0), max_rank=3, epsilon=1e-300)
        assert f.s == 3
        with pytest.raises(ValueError):
            icf_step(f, ds, KernelSpec(sigma=1.0))

    def test_step_with_mismatched_dataset_rejected(self):
        ds = rand_dataset(9, 10, 2)
        f = icf_factorize(ds, GAUSS, max_rank=2, epsilon=1e-300)
        other = rand_dataset(9, 11, 2)
        with pytest.raises(ValueError):
            icf_step(f, other, GAUSS)


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


class TestValidation:
    def test_max_rank_bounds(self):
        ds = rand_dataset(0, 10, 2)
        with pytest.raises(ValueError):
            icf_factorize(ds, GAUSS, max_rank=0)
        with pytest.raises(ValueError):
            icf_factorize(ds, GAUSS, max_rank=11)

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

    def test_breakdown_error_carries_context(self):
        err = BreakdownError(7, -3.5e-9)
        assert err.iteration == 7
        assert err.value == -3.5e-9
        assert "7" in str(err)
