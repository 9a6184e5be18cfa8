"""Property tests for the k-means++ seeding and the Lloyd loop on drawn inputs.

Inputs are drawn with duplicated rows, offsets far from the origin and
scales from 1e-8 to 1e8; the runs are derandomized and keep no example
database, so every run checks the same examples.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from icfcluster import kmeans_pp_init, lloyd  # noqa: E402

# hypothesis's pytest plugin imports a module that warns of a deprecation
# while it reports a failing example; under filterwarnings = error that
# warning would abort the session instead of reporting the failure
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def clusterings(draw, offsets=(0.0, 1e6, -1e8), exponents=st.floats(-8.0, 8.0)):
    """(points, k, seed): n in 1-40 rows in 1-5 dimensions, drawn from
    fewer distinct rows when the draw says so, times a scale, plus an offset."""
    n = draw(st.integers(1, 40))
    s = draw(st.integers(1, 5))
    distinct = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(distinct, s))[rng.integers(distinct, size=n)]
    points = draw(st.sampled_from(offsets)) + 10.0 ** draw(exponents) * rows
    return points, draw(st.integers(1, n)), draw(st.integers(0, 1000))


@st.composite
def bad_clusterings(draw):
    """(points, k, seed, non_finite): points about 1e160, one entry NaN or
    inf when non_finite.  Scales of 1e140-1e155 bring the distance products
    about the mean near overflow, on either side of it."""
    points, k, seed = draw(clusterings(offsets=(1e160,), exponents=st.one_of(
        st.floats(-8.0, 8.0), st.floats(140.0, 155.0))))
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is not None:
        points[draw(st.integers(0, points.shape[0] - 1)), draw(st.integers(0, points.shape[1] - 1))] = bad
    return points, k, seed, bad is not None


def distinct_rows(points):
    return len(np.unique(points, axis=0))


@SETTINGS
@given(clusterings(), st.integers(1, 30))
def test_lloyd_uses_every_id_and_never_raises_its_objective(case, max_iter):
    points, k, seed = case
    model = lloyd(points, k, seed, max_iter=max_iter)
    assert np.array_equal(np.unique(model.assignments), np.arange(k))
    assert np.all(np.diff(model.objective_history) <= 0.0)
    assert model.objective >= 0.0
    assert model.iterations == len(model.objective_history) <= max_iter


@SETTINGS
@given(clusterings())
def test_seeds_are_input_rows_and_distinct_when_they_can_be(case):
    points, k, seed = case
    centers = kmeans_pp_init(points, k, seed)
    assert centers.shape == (k, points.shape[1])
    assert all((points == c).all(axis=1).any() for c in centers)
    if distinct_rows(points) >= k:
        assert distinct_rows(centers) == k


@SETTINGS
@given(clusterings())
def test_memory_layout_does_not_change_the_model(case):
    points, k, seed = case
    c_order, f_order = np.ascontiguousarray(points), np.asfortranarray(points)
    assert np.array_equal(kmeans_pp_init(c_order, k, seed), kmeans_pp_init(f_order, k, seed))
    a, b = lloyd(c_order, k, seed), lloyd(f_order, k, seed)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centers, b.centers)
    assert a.objective == b.objective
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    assert np.array_equal(a.objective_history, b.objective_history)
    assert np.array_equal(a.moved_history, b.moved_history)


@SETTINGS
@given(bad_clusterings())
def test_bad_points_raise_only_value_error_and_never_warn(case):
    points, k, seed, non_finite = case
    for fit in (lloyd, kmeans_pp_init):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fit(points, k, seed)
            except ValueError:
                continue
        assert not non_finite, f"{fit.__name__} accepted a NaN or inf"
