"""Dataset container, LIBSVM parsing/serialization, and synthetic generators."""

import io
import os

import numpy as np
import pytest

from icfcluster import Dataset, ParseError, gen_synthetic, parse_libsvm, standardize, to_libsvm


# signed zeros, the smallest subnormal, extremes and integral floats
AWKWARD = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 1.0, -42.0, 2.0 ** 53])


def bits(a: np.ndarray) -> np.ndarray:
    """Bit patterns, so that -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(a).view(np.int64)


class TestDataset:
    def test_basic_fields(self):
        ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]), name="toy")
        assert ds.n == 2
        assert ds.d == 2
        assert ds.name == "toy"
        assert np.array_equal(ds.labels, [0, 1])

    def test_labels_optional(self):
        ds = Dataset(np.ones((3, 2)))
        assert ds.labels is None

    def test_points_are_copied_and_frozen(self):
        src = np.array([[1.0, 2.0]])
        ds = Dataset(src)
        src[0, 0] = 99.0
        assert ds.points[0, 0] == 1.0
        with pytest.raises(ValueError):
            ds.points[0, 0] = 5.0

    def test_rejects_empty_and_wrong_rank(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 3)))
        with pytest.raises(ValueError):
            Dataset(np.empty((3, 0)))
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]))

    def test_rejects_bad_labels(self):
        pts = np.ones((2, 2))
        with pytest.raises(ValueError):
            Dataset(pts, np.array([0]))  # wrong length
        with pytest.raises(ValueError):
            Dataset(pts, np.array([0.5, 1.0]))  # not integers
        with pytest.raises(ValueError):
            Dataset(pts, np.array([-1, 0]))  # negative


class TestParseLibsvm:
    def test_two_line_document(self):
        ds = parse_libsvm("1 1:0.5 3:2.0\n2 2:1.0")
        assert np.array_equal(ds.points, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(ds.labels, [1, 2])

    def test_single_entry(self):
        ds = parse_libsvm("3 1:7")
        assert np.array_equal(ds.points, [[7.0]])
        assert np.array_equal(ds.labels, [3])

    def test_missing_indices_are_zero(self):
        ds = parse_libsvm("0 2:5.0 4:1.0")
        assert np.array_equal(ds.points, [[0.0, 5.0, 0.0, 1.0]])

    def test_num_features_pads_width(self):
        ds = parse_libsvm("1 1:2.0", num_features=4)
        assert ds.points.shape == (1, 4)
        assert np.array_equal(ds.points, [[2.0, 0.0, 0.0, 0.0]])

    def test_num_features_too_small_rejected(self):
        with pytest.raises(ValueError):
            parse_libsvm("1 1:1 5:2", num_features=3)

    def test_blank_lines_skipped(self):
        ds = parse_libsvm("1 1:1.0\n\n2 1:2.0\n")
        assert ds.n == 2

    def test_crlf_accepted(self):
        ds = parse_libsvm("1 1:1.0\r\n2 1:2.0\r\n")
        assert ds.n == 2
        assert np.array_equal(ds.labels, [1, 2])

    def test_bytes_file_object_and_path(self, tmp_path):
        text = "1 1:0.5\n0 1:1.5\n"
        from_str = parse_libsvm(text)
        from_bytes = parse_libsvm(text.encode("utf-8"))
        from_obj = parse_libsvm(io.StringIO(text))
        path = tmp_path / "toy.libsvm"
        path.write_text(text)
        from_path = parse_libsvm(os.fspath(path))
        for ds in (from_bytes, from_obj, from_path):
            assert np.array_equal(ds.points, from_str.points)
            assert np.array_equal(ds.labels, from_str.labels)

    def test_float_label_that_is_integral(self):
        assert np.array_equal(parse_libsvm("2.0 1:1").labels, [2])

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("1 1:1.0\n2 1:oops")
        assert exc.value.line_no == 2
        assert "line 2" in str(exc.value)

    def test_non_increasing_index_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("1 2:1.0 2:2.0")
        assert exc.value.line_no == 1
        with pytest.raises(ParseError):
            parse_libsvm("1 3:1.0 2:2.0")
        with pytest.raises(ParseError):
            parse_libsvm("1 0:1.0")  # indices are 1-based

    def test_malformed_tokens_rejected(self):
        for bad in ("1 nocolon", "1 a:1.0", "1 1:inf", "x 1:1.0", "1.5 1:1.0", "-1 1:1.0"):
            with pytest.raises(ParseError):
                parse_libsvm(bad)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("")
        with pytest.raises(ParseError):
            parse_libsvm("\n\n")

    def test_large_reference_file_when_present(self):
        path = os.environ.get("PENDIGITS_PATH", "")
        if not path or not os.path.isfile(path):
            pytest.skip("pendigits file not available")
        ds = parse_libsvm(path, name="pendigits")
        assert ds.n == 10992
        assert ds.d == 16
        assert len(np.unique(ds.labels)) == 10


class TestToLibsvm:
    def test_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(20, 4)), rng.integers(0, 3, 20), name="rt")
        again = parse_libsvm(to_libsvm(ds))
        assert np.array_equal(again.points, ds.points)
        assert np.array_equal(again.labels, ds.labels)

    def test_round_trip_survives_awkward_floats(self):
        pts = np.array([[0.1, 1e-300], [1e300, -7.25]])
        ds = Dataset(pts, np.array([0, 1]))
        again = parse_libsvm(to_libsvm(ds))
        assert np.array_equal(again.points, ds.points)

    def test_requires_labels(self):
        with pytest.raises(ValueError):
            to_libsvm(Dataset(np.ones((2, 2))))

    def test_round_trip_is_bit_exact_on_edge_shapes_and_values(self):
        rng = np.random.default_rng(17)
        for n, d in [(1, 1), (1, 6), (9, 1), (14, 5)]:
            for _ in range(6):
                pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-320, 300, size=(n, d))
                special = rng.random((n, d)) < 0.5
                pts[special] = rng.choice(AWKWARD, size=int(special.sum()))
                ds = Dataset(pts, rng.integers(0, 1000, n))
                again = parse_libsvm(to_libsvm(ds))
                assert np.array_equal(bits(again.points), bits(ds.points))
                assert np.array_equal(again.labels, ds.labels)

    def test_text_is_pinned(self):
        # a formatter that still round-trips but writes other bytes fails here
        ds = Dataset(np.array([[1.0, -0.0, 0.1], [5e-324, 1e308, -2.5], [3.0, 1e-300, 2.0 ** 53]]),
                     np.array([3, 0, 12]))
        assert to_libsvm(ds) == ("3 1:1.0 2:-0.0 3:0.1\n"
                                 "0 1:5e-324 2:1e+308 3:-2.5\n"
                                 "12 1:3.0 2:1e-300 3:9007199254740992.0\n")


class TestGenSynthetic:
    def test_sizes_and_labels(self):
        ds = gen_synthetic("ring", 500, 0.1, 42)
        assert ds.n == 1000
        assert ds.d == 2
        assert np.sum(ds.labels == 0) == 500
        assert np.sum(ds.labels == 1) == 500

    def test_minimal_size(self):
        ds = gen_synthetic("ring", 1, 0.0, 0)
        assert ds.n == 2
        assert sorted(ds.labels.tolist()) == [0, 1]

    def test_deterministic(self):
        a = gen_synthetic("zigzag", 40, 0.05, 7)
        b = gen_synthetic("zigzag", 40, 0.05, 7)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_distinct_seeds_differ(self):
        a = gen_synthetic("parabolic", 40, 0.05, 1)
        b = gen_synthetic("parabolic", 40, 0.05, 2)
        assert not np.array_equal(a.points, b.points)

    def test_ring_noise_free_points_on_circles(self):
        ds = gen_synthetic("ring", 100, 0.0, 3)
        radii = np.hypot(ds.points[:, 0], ds.points[:, 1])
        assert np.allclose(radii[ds.labels == 0], 0.1, atol=1e-12)
        assert np.allclose(radii[ds.labels == 1], 1.0, atol=1e-12)

    def test_parabolic_noise_free_points_on_arcs(self):
        ds = gen_synthetic("parabolic", 100, 0.0, 3)
        x, y = ds.points[:, 0], ds.points[:, 1]
        lo, hi = ds.labels == 0, ds.labels == 1
        assert np.allclose(y[lo], x[lo] ** 2, atol=1e-12)
        assert np.allclose(y[hi], 2.5 - x[hi] ** 2, atol=1e-12)

    def test_zigzag_noise_free_points_on_bands(self):
        ds = gen_synthetic("zigzag", 100, 0.0, 3)
        x, y = ds.points[:, 0], ds.points[:, 1]
        wave = 0.5 - np.abs(np.mod(x, 1.0) - 0.5)
        lo, hi = ds.labels == 0, ds.labels == 1
        assert np.allclose(y[lo], wave[lo], atol=1e-12)
        assert np.allclose(y[hi], wave[hi] + 1.2, atol=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gen_synthetic("spiral", 10, 0.1, 0)
        with pytest.raises(ValueError):
            gen_synthetic("ring", 0, 0.1, 0)
        with pytest.raises(ValueError):
            gen_synthetic("ring", 10, -0.1, 0)


class TestStandardize:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(3.0, 5.0, size=(200, 3)), rng.integers(0, 2, 200))
        out = standardize(ds)
        assert np.allclose(out.points.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.points.std(axis=0), 1.0, atol=1e-12)
        assert np.array_equal(out.labels, ds.labels)

    def test_constant_feature_left_unscaled(self):
        ds = Dataset(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        out = standardize(ds)
        assert np.allclose(out.points[:, 1], 0.0)
        assert np.all(np.isfinite(out.points))
