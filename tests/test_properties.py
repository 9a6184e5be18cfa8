"""Property tests for the k-means++ seeding, the Lloyd loop, the dense
LIBSVM fast path, the incomplete Cholesky factor and its text dump on drawn
inputs.

Cluster inputs are drawn with duplicated rows, offsets far from the origin
and scales from 1e-8 to 1e8; LIBSVM blocks are dense with near-miss tokens
mixed in; factor inputs span several panel blocks and reach rank exhaustion;
dumped values are any finite float64, from raw bit patterns and from every
decimal magnitude.  The runs are derandomized and keep no example database,
so every run checks the same examples.
"""

import math
import struct
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from icfcluster import (Dataset, IcfFactor, KernelSpec, data, dump_factor, icf_factorize,  # noqa: E402
                        kmeans_pp_init, lloyd, parse_factor_dump)

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


# tokens at the edge of what the fast path may take: ones that int or float
# read otherwise than np.loadtxt does, ones either refuses, odd spellings both
# read alike, and labels on either side of 2**53; an index near-miss is made
# for index j
LABEL_MISSES = ("1.0", "-0", "2.5", "9007199254740993", "9007199254740991", "1e1", "+7")
INDEX_MISSES = (lambda j: f"{j}.0", lambda j: f"{j}e0", lambda j: f"+{j}", lambda j: f"0{j}",
                lambda j: "_".join(f"0{j}"), lambda j: f"0x{j}")
VALUE_MISSES = ("1_0", "\u0661", "infinity", "1e400", "nan", ".5", "5.", "-0", "1e-400")
# a tab or a double space in place of a space, or a blank before or after a line
BLANKS = ("\t", "  ", "lead", "trail")
FAULTS = ([("label", m) for m in LABEL_MISSES] + [("index", m) for m in INDEX_MISSES]
          + [("value", m) for m in VALUE_MISSES] + [("blank", m) for m in BLANKS]
          + [("empty", m) for m in ("label", "index", "value")]
          + [("order", None), ("sparse", None), ("blank line", ""), ("blank line", " ")])


@st.composite
def dense_blocks(draw):
    """(lines, num_features, clean): a dense block of 1-30 lines and 1-20
    features with up to two faults, each a near-miss token, an empty token,
    a stray blank, two indices out of order, a missing index or a blank
    line; clean when there is none."""
    n_rows, w = draw(st.integers(1, 30)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n_rows, w)) * 10.0 ** rng.integers(-6, 7, size=(n_rows, w))
    values[rng.random((n_rows, w)) < 0.1] = rng.integers(-3, 4)
    rows = [[str(label)] + [f"{j}:{v!r}" for j, v in enumerate(row, 1)]
            for label, row in zip(rng.integers(0, 20, n_rows).tolist(), values.tolist())]
    seps = [[" "] * w for _ in rows]
    blank_lines = []
    faults = draw(st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, n_rows - 1), st.integers(1, w)),
                           max_size=2))
    for (kind, miss), i, j in faults:
        index, value = rows[i][j].split(":", 1)
        if kind == "label":
            rows[i][0] = miss
        elif kind == "index":
            rows[i][j] = f"{miss(j)}:{value}"
        elif kind == "value":
            rows[i][j] = f"{index}:{miss}"
        elif kind == "empty" and miss == "label":
            rows[i][0] = ""
        elif kind == "empty":
            rows[i][j] = f":{value}" if miss == "index" else f"{index}:"
        elif kind == "blank":
            seps[i][j - 1] = miss
        elif kind == "order" and w == 1:
            rows[i][j] = f"0:{value}"
        elif kind == "order":
            k = j - 1 if j == w else j + 1
            rows[i][j], rows[i][k] = rows[i][k], rows[i][j]
        elif kind == "sparse":
            rows[i][j] = f"{j + 1}:{value}"
        else:
            blank_lines.append((i, miss))
    lines = []
    for row, sep in zip(rows, seps):
        line = row[0] + "".join((" " if s in ("lead", "trail") else s) + token for s, token in zip(sep, row[1:]))
        lines.append(" " + line if "lead" in sep else line + " " if "trail" in sep else line)
    for i, blank in sorted(blank_lines, reverse=True):
        lines.insert(i + 1, blank)
    num_features = draw(st.sampled_from([None, w, w + 3, max(w - 1, 1)]))
    return lines, num_features, not faults


@settings(SETTINGS, max_examples=400)
@given(dense_blocks())
def test_dense_block_takes_what_convert_block_takes_with_the_same_bits(case):
    lines, num_features, clean = case
    fast = data._dense_block(lines, 0, 0, num_features)
    try:
        labels, rows = data._convert_block(lines, 0, 0, num_features)
    except ValueError:
        assert fast is None
        return
    if clean:
        assert fast is not None
    if fast is not None:
        assert fast[0].dtype == labels.dtype and np.array_equal(fast[0], labels)
        assert fast[1].shape == rows.shape
        assert np.array_equal(fast[1].view(np.int64), rows.view(np.int64))


@st.composite
def factor_inputs(draw):
    """(dataset, spec, r, s): 2-300 points in 1-5 dimensions, drawn from
    fewer distinct rows when the draw says so, times a scale; the linear
    kernel or a Gaussian one whose width is within 10^2 of the scale; and
    two ranks 1 <= r < s <= n."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 5))
    distinct = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))
    points = scale * rng.normal(size=(distinct, d))[rng.integers(distinct, size=n)]
    spec = draw(st.one_of(st.just(KernelSpec(family="linear")),
                          st.floats(-2.0, 2.0).map(lambda x: KernelSpec(sigma=scale * 10.0 ** x))))
    s = draw(st.integers(2, n))
    return Dataset(points), spec, draw(st.integers(1, s - 1)), s


@settings(SETTINGS, max_examples=100)
@given(factor_inputs())
def test_a_smaller_rank_is_a_prefix_of_a_larger_one(case):
    dataset, spec, r, s = case
    small, large = (icf_factorize(dataset, spec, max_rank=rank, epsilon=1e-300) for rank in (r, s))
    for f in (small, large):
        assert f.kernel_evals == dataset.n * (f.s + 1)
        assert np.all(np.diff(f.trace_history) <= 0.0)
        assert np.all(f.nu > 0.0)
    # the smaller factor stops at r or where the larger one stopped
    q = small.s
    assert q == min(r, large.s)
    assert small.P.tobytes() == large.P[:, :q].tobytes()
    assert small.pivots.tobytes() == large.pivots[:q].tobytes()
    assert small.trace_history.tobytes() == large.trace_history[:q + 1].tobytes()
    if q == large.s:
        assert small.residual_diag.tobytes() == large.residual_diag.tobytes()


# any finite float64: a raw bit pattern; +-m 10^u with m in [1, 10) and u
# from below the subnormals to above the largest double; or, where the
# writer computes the decimal exponent (1e-27 to 1e17), 10^u or a neighbour
finite_floats = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.builds(lambda sign, m, u: float(f"{sign}{m!r}e{u}"), st.sampled_from("+-"),
              st.floats(1.0, 10.0, exclude_max=True), st.integers(-330, 309)),
    st.builds(lambda u, toward: math.nextafter(float(f"1e{u}"), float(f"1e{u}") * toward),
              st.integers(-28, 17), st.sampled_from([0.0, 1.0, math.inf])),
).filter(math.isfinite)


@st.composite
def dumpable_factors(draw):
    """An IcfFactor of 1-12 rows and 0-6 columns holding drawn finite values."""
    n = draw(st.integers(1, 12))
    s = draw(st.integers(0, min(n, 6)))
    P = np.array(draw(st.lists(finite_floats, min_size=n * s, max_size=n * s))).reshape(n, s)
    history = draw(st.lists(finite_floats, min_size=s + 1, max_size=s + 1))
    pivots = draw(st.permutations(range(n)))[:s]
    return IcfFactor(P, pivots, np.zeros(n), history, n * (s + 1))


@settings(SETTINGS, max_examples=300)
@given(dumpable_factors())
def test_the_dump_writes_each_value_as_percent_format_and_reads_back_bit_for_bit(factor):
    text = dump_factor(factor)
    rows = [*factor.P.tolist(), factor.trace_history.tolist()]
    assert text == "".join([f"ICF {factor.n} {factor.s}\n", " ".join(map(str, factor.pivots.tolist())) + "\n",
                            *(" ".join("%.17e" % v for v in row) + "\n" for row in rows)])
    pivots, P, history = parse_factor_dump(text)
    assert pivots.tobytes() == factor.pivots.tobytes()
    assert P.shape == factor.P.shape and P.tobytes() == factor.P.tobytes()
    assert history.tobytes() == factor.trace_history.tobytes()
