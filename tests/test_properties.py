"""Property tests for the k-means++ seeding, the Lloyd loop, the dense
LIBSVM fast path, LIBSVM line numbers, the LIBSVM writer, the incomplete
Cholesky factor, its text dump and the reader's exact path, and the command
line, on drawn inputs.

Cluster inputs are drawn with duplicated rows, offsets far from the origin
and scales from 1e-8 to 1e8; LIBSVM blocks are dense with near-miss tokens
mixed in, and LIBSVM texts end their lines with every str.splitlines break
and hold at most one faulty line; datasets to write hold values of every
class the writer treats apart and labels up to 2**63 - 1; factor inputs
span several panel blocks and reach rank exhaustion; dumped values are any
finite float64, from raw bit patterns and from every decimal magnitude, and
dumps to read carry near-miss records; command lines carry NaN, infinite,
negative, zero and huge numbers.  The runs are derandomized and keep no
example database, so every run checks the same examples.
"""

import contextlib
import io
import math
import os
import struct
import tempfile
import warnings
from decimal import Decimal

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from icfcluster import (ALGORITHMS, Dataset, IcfFactor, KernelSpec, data, dump_factor, icf,  # noqa: E402
                        icf_factorize, kmeans_pp_init, lloyd, parse_factor_dump)
from icfcluster.cli import main  # noqa: E402

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


# every line break of str.splitlines, whose lines parse_libsvm numbers, and
# lines that each break one rule of the format wherever they stand
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
BAD_LINES = ("x 1:1", "1.5 1:1", "-1 1:1", "1 1:x", "1 1:nan", "1 0:1", "1 2:1 1:1", "1 1:", "1 :1", "1 1:1:1")
# built once: a strategy made anew on every draw costs more than the parse
BLANK_LINES = st.lists(st.tuples(st.integers(0, 30), st.sampled_from(["", " ", "\t"])), max_size=4)
BAD_LINE = st.none() | st.tuples(st.integers(0, 40), st.sampled_from(BAD_LINES))
BREAKS = st.lists(st.sampled_from(LINE_BREAKS), min_size=1, max_size=3, unique=True)


@st.composite
def libsvm_texts(draw):
    """(text, fault, block_chars): 1-25 dense or sparse data lines with blank
    lines among them and at most one faulty line, each line ended by one of
    a few drawn line breaks (the last maybe by none); fault is the faulty
    line's 1-based number in text.splitlines(), or None; block_chars is a
    small block size."""
    n_rows, w = draw(st.integers(1, 25)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = draw(st.sampled_from([0.0, 0.8, 1.0]))
    lines = []
    for label in rng.integers(0, 20, n_rows).tolist():
        columns = np.arange(1, w + 1)
        if rng.random() >= dense:
            columns = columns[rng.random(w) < 0.6] if w > 1 else columns
            columns = columns if columns.size else np.array([w])
        values = rng.normal(size=columns.size) * 10.0 ** rng.integers(-5, 6, size=columns.size)
        lines.append(" ".join([str(label), *(f"{j}:{v!r}" for j, v in zip(columns.tolist(), values.tolist()))]))
    for at, blank in draw(BLANK_LINES):
        lines.insert(at % (len(lines) + 1), blank)
    bad = draw(BAD_LINE)
    if bad is not None:
        bad = (bad[0] % (len(lines) + 1), bad[1])
        lines.insert(*bad)
    breaks = draw(BREAKS)
    ends = [breaks[i] for i in rng.integers(len(breaks), size=len(lines)).tolist()]
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    fault = None
    if bad is not None:
        # a break that ends a line before the faulty one may merge with the
        # next (a CR before a blank line's LF), so the number is counted
        fault = len("".join(line + end for line, end in zip(lines[:bad[0]], ends)).splitlines()) + 1
    return text, fault, draw(st.integers(1, 64))


@SETTINGS
@given(libsvm_texts())
def test_every_source_names_the_faulty_line_of_splitlines_or_gives_the_same_bits(case):
    text, fault, block_chars = case
    raw = text.encode("utf-8")
    sources = {"str": text, "bytes": raw, "binary file": io.BytesIO(raw),
               "UTF-8 text-mode file": io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")}
    parsed = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_BLOCK_CHARS", block_chars)
        for form, source in sources.items():
            if fault is not None:
                with pytest.raises(data.ParseError) as info:
                    data.parse_libsvm(source)
                assert info.value.line_no == fault, form
            else:
                ds = data.parse_libsvm(source)
                parsed.add((ds.labels.tobytes(), ds.points.shape, ds.points.tobytes()))
    assert len(parsed) == (fault is None)


def one_template_libsvm(dataset):
    """The writer to_libsvm replaced, one %r template per row: the oracle of its bytes."""
    template = "%d " + " ".join(f"{j}:%r" for j in range(1, dataset.d + 1)) + "\n"
    return "".join(template % (label, *row.tolist())
                   for label, row in zip(dataset.labels.tolist(), dataset.points))


def _finite(v):
    """v with each NaN or infinity replaced by the largest double of its sign."""
    return np.where(np.isfinite(v), v, np.copysign(np.finfo(np.float64).max, v))


def _around(rng, centres, size):
    """Values drawn from centres, each moved 0, 1 or 2 doubles up or down."""
    v = rng.choice(centres, size)
    for _ in range(2):
        v = np.where(rng.random(size) < 0.5, v, np.nextafter(v, v * rng.choice([0.0, np.inf], size)))
    return v


# the writer's value classes, each drawn as a whole array from a generator:
# any bit pattern; +-m 10^u for u from below the subnormals to the largest
# double; 10^k and its neighbours; signed zeros; powers of two; integers;
# values rounded to a few decimals; and the layout edges, where repr turns
# from positional to exponential text
LIBSVM_VALUES = {
    "bits": lambda rng, size: _finite(rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)),
    "m 10^u": lambda rng, size: _finite(rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 10.0, size)
                                        * 10.0 ** rng.integers(-330, 309, size)),
    "10^k": lambda rng, size: _around(rng, 10.0 ** np.arange(-30, 20), size) * rng.choice([-1.0, 1.0], size),
    "zeros": lambda rng, size: rng.choice([0.0, -0.0], size),
    "powers of two": lambda rng, size: np.ldexp(rng.choice([-1.0, 1.0], size), rng.integers(-1074, 1024, size)),
    "integers": lambda rng, size: (rng.integers(-2**53, 2**53, size).astype(np.float64)
                                   // 10.0 ** rng.integers(0, 16, size)),
    "rounded": lambda rng, size: np.round(rng.normal(size=size) * 10.0 ** rng.integers(-3, 7), rng.integers(0, 8)),
    "layout edges": lambda rng, size: _around(rng, np.array([1e-4, 1e-5, 1e16, 1e17]), size)
                                      * rng.choice([-1.0, 1.0, 0.999999, 1.000001], size),
}


@st.composite
def writable_datasets(draw):
    """A Dataset of 1-40 rows and 1-12 columns, its values drawn from one to
    three of LIBSVM_VALUES and its labels from 0 to 2**63 - 1, all from one
    seeded generator."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(LIBSVM_VALUES)), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore"):
        values = np.concatenate([LIBSVM_VALUES[kind](rng, n * d) for kind in kinds])
    labels = rng.integers(0, 2**63 - 1, n, endpoint=True) >> rng.integers(0, 64, n)
    return Dataset(rng.choice(values, (n, d)), labels)


@SETTINGS
@given(writable_datasets())
def test_to_libsvm_writes_the_bytes_of_the_one_template_writer(ds):
    assert data.to_libsvm(ds) == one_template_libsvm(ds)


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


def _scaled(exponents):
    """A drawer of +-m 10^u, m uniform in [1, 10) and u from exponents; a
    value past the largest double is that double."""
    return lambda rng, size: _finite(rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 10.0, size)
                                     * 10.0 ** rng.choice(exponents, size))


# what a dump may hold, each class drawn as a whole array from a generator:
# values the writer takes exactly, zero or 1e-27 to 1e17 in magnitude, where
# most of a factor's lie; values outside that range whose records keep its
# layout, a two-digit exponent, so the reader takes them one by one; values
# with three-digit exponents; and any finite float64 (FINITE): a raw bit
# pattern, +-m 10^u from below the subnormals to the largest double, or 10^k
# and its neighbours
FINITE = ("bits", "m 10^u", "10^k")
EXACT = ("zeros", "exact")
DUMP_VALUES = {
    "zeros": LIBSVM_VALUES["zeros"],
    "exact": _scaled(np.arange(-27, 17)),
    "off range": _scaled(np.r_[-99:-27, 17:100]),
    "three-digit exponents": _scaled(np.r_[-330:-99, 100:309]),
    **{kind: LIBSVM_VALUES[kind] for kind in FINITE},
}


def dump_values(rng, kinds, size):
    """size values, each of one of the DUMP_VALUES classes kinds, picked at random."""
    with np.errstate(over="ignore"):
        pools = np.stack([DUMP_VALUES[kind](rng, size) for kind in kinds])
    return pools[rng.integers(len(kinds), size=size), np.arange(size)]


@st.composite
def dumpable_factors(draw):
    """An IcfFactor of 1-12 rows and 0-6 columns holding finite values drawn
    from one seeded generator."""
    n = draw(st.integers(1, 12))
    s = draw(st.integers(0, min(n, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = dump_values(rng, FINITE, n * s).reshape(n, s)
    history = dump_values(rng, FINITE, s + 1)
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


# a token exactly halfway between a double and the next one up: from 2^51 to
# 1e17 the halfway point has at most 18 significant digits, so "%.17e" of it
# is exact, and a reader must round it to the even neighbour
@st.composite
def ties(draw):
    v = struct.unpack("<d", struct.pack("<Q", draw(st.integers(
        struct.unpack("<Q", struct.pack("<d", 2.0 ** 51))[0],
        struct.unpack("<Q", struct.pack("<d", math.nextafter(1e17, 0.0)))[0] - 1))))[0]
    half = Decimal(v) + Decimal(math.ulp(v)) / 2
    token = f"{half:.17e}"
    assert Decimal(token) == half
    return draw(st.sampled_from(["", "-"])) + token


# 18-digit tokens M 10^-25 within about 1e-33 of their size of a point
# halfway between two doubles h 2^(q-1), h odd: M 2^(1-q) - h 10^25 = j 2^25
# for a small j.  A product rounded twice reads them otherwise than float()
# does, and only an exact check of the result catches it.
def near_midpoints(k=25, js=range(-20, 21)):
    tokens = []
    for q in range(-80, -76):
        a, b = 2 ** (1 - q), 10 ** k
        g = math.gcd(a, b)
        inverse = pow(a // g, -1, b // g)
        for j in js:
            m0 = j * inverse % (b // g)
            for m in range(m0, 10 ** 18, b // g):
                h, rest = divmod(m * a - j * g, b)
                if j and m >= 10 ** 17 and not rest and h % 2 and 2 ** 53 <= h < 2 ** 54:
                    tokens.append(f"{str(m)[0]}.{str(m)[1:]}e{17 - k:+03d}")
    return tokens


NEAR_MIDPOINTS = near_midpoints()

# faults on one value of P: a sign, a letter, an exponent or a significand
# that the writer would not write, a separator other than one space, a row
# one value short or long, or a value halfway between two doubles or within
# about 1e-33 of its size of such a point
DUMP_FAULTS = ("+", "++", "--", "+-", "-+", "E", "exp1", "exp3", "0.", "digits16", "digits18",
               "\t", "  ", "trail", "\r", "\x0c", "\x85", "short", "long", "tie", "near tie")


@st.composite
def faulty_dumps(draw):
    """(text, block): a dump of an n x s factor, written and to be read in
    blocks of about block values, with up to two faults in the rows of P."""
    n = draw(st.integers(1, 12))
    s = draw(st.integers(0, min(n, 6)))
    block = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # most dumps hold only two-digit exponents, so that a fault often falls
    # in a block the exact reader would otherwise take
    kinds = draw(st.sampled_from([EXACT, EXACT, (*EXACT, "off range"), tuple(DUMP_VALUES)]))
    P = dump_values(rng, kinds, n * s).reshape(n, s)
    factor = IcfFactor(P, draw(st.permutations(range(n)))[:s], np.zeros(n),
                       dump_values(rng, tuple(DUMP_VALUES), s + 1), 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(icf, "_TEXT_BLOCK", block)
        lines = dump_factor(factor).split("\n")
    rows = [line.split(" ") if s else [] for line in lines[2:2 + n]]
    # seps[i][j] stands between values j and j + 1 of row i, ends[i] after the last
    seps, ends = [[" "] * (s - 1) for _ in rows], [""] * n
    for fault in draw(st.lists(st.sampled_from(DUMP_FAULTS), max_size=2 if s else 0)):
        i = draw(st.integers(0, n - 1))
        row = rows[i]
        j = draw(st.integers(0, max(len(row) - 1, 0)))
        if not row or "e" not in row[j]:  # a row emptied, or an "e" made "E", by the first fault
            continue
        mantissa, exponent = row[j].split("e")
        if fault in ("+", "++", "--", "+-", "-+"):
            row[j] = fault + row[j].lstrip("-")
        elif fault == "E":
            row[j] = row[j].replace("e", "E")
        elif fault in ("exp1", "exp3"):
            digits = exponent[-1] if fault == "exp1" else "0" + exponent[1:]
            row[j] = f"{mantissa}e{exponent[0]}{digits}"
        elif fault == "0.":
            digits = mantissa.lstrip("-").replace(".", "")
            row[j] = f"{mantissa[:-19]}0.{digits[:-1]}e{int(exponent) + 1:+03d}"
        elif fault == "digits16":
            row[j] = f"{mantissa[:-1]}e{exponent}"
        elif fault == "digits18":
            row[j] = f"{mantissa}{draw(st.integers(0, 9))}e{exponent}"
        elif fault == "trail":
            ends[i] += " "
        elif fault in ("\t", "  ", "\r", "\x0c", "\x85"):
            if j < len(seps[i]):
                seps[i][j] = fault
            else:
                ends[i] += fault
        elif fault == "short":
            del row[j]
            if seps[i]:
                del seps[i][min(j, len(seps[i]) - 1)]
        elif fault == "long":
            row.insert(j, row[j])
            seps[i].insert(j, " ")
        elif fault == "tie":
            row[j] = draw(ties())
        else:
            row[j] = draw(st.sampled_from(["", "-"])) + draw(st.sampled_from(NEAR_MIDPOINTS))
    lines[2:2 + n] = ["".join(a + b for a, b in zip(row, [*sep, end])) for row, sep, end in zip(rows, seps, ends)]
    return "\n".join(lines), block


def parent_reader(text):
    """parse_factor_dump with every row of P read by one _read_rows call, a
    row at a time by float(), as the reader read them before it took
    dump_factor's blocks exactly."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(icf, "_read_P", icf._read_rows)
        return parse_factor_dump(text)


def read_outcome(reader, text):
    try:
        pivots, P, history = reader(text)
    except ValueError as exc:
        return str(exc)
    return pivots.tobytes(), P.shape, P.tobytes(), history.tobytes()


def two_rows(first):
    """A 2 x 2 dump whose first value of P is written as first."""
    return ("ICF 2 2\n0 1\n" + first + " -1.00000000000000000e+00\n"
            "0.00000000000000000e+00 3.00000000000000000e-05\n"
            "1.00000000000000000e+00 5.00000000000000000e-01 0.00000000000000000e+00\n")


@settings(SETTINGS, max_examples=250)
@given(faulty_dumps())
# a near tie the corrected quotient rounds to the wrong side, and a doubled sign
@example((two_rows("2.00242969969417196e-08"), 4))
@example((two_rows("--2.00000000000000000e-08"), 4))
def test_the_reader_gives_the_bits_or_the_error_of_one_read_over_every_row(case):
    text, block = case
    expected = read_outcome(parent_reader, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(icf, "_TEXT_BLOCK", block)
        assert read_outcome(parse_factor_dump, text) == expected


# bad values for a float flag or field: NaN, +-inf, a negative, +-0, huge
# ones and a subnormal; for an integer one: a negative, 0, and ones past
# what numpy's sizes hold; for a --subset-size item, also one whose random
# features would need terabytes, and an empty or non-integer one
BAD_FLOATS = ["nan", "inf", "-inf", "-1.5", "0", "-0", "1e200", "1e308", "1e-320"]
BAD_INTEGERS = ["-1", "0", str(2 ** 63), str(10 ** 30)]
BAD_SIZES = [*BAD_INTEGERS, str(10 ** 12), "", "x", "1.5"]


@st.composite
def cli_runs(draw):
    """argv for synth, factorize, cluster or bench on a tiny synthetic set,
    with up to two of its numbers bad; "{out}" stands for an output file in
    an empty directory.

    Every float flag and synth field, and every integer flag but --seeds,
    may be drawn bad; --seeds only negative or 0, since a huge count is a
    long sweep, not an error.  Flags are given as --flag=value, so a value
    starting with "-" is not taken for a flag; synth's fields come after "--".
    """
    command = draw(st.sampled_from(["synth", "factorize", "cluster", "bench"]))
    good = {"per_cluster": "3", "noise": "0.1", "data_seed": "1", "sigma": "4", "epsilon": "1e-3",
            "clusters": "2", "max-iter": "5", "seed": "1", "seeds": "2"}
    bad = {"per_cluster": BAD_INTEGERS, "noise": BAD_FLOATS, "data_seed": BAD_INTEGERS, "sigma": BAD_FLOATS,
           "epsilon": BAD_FLOATS, "clusters": BAD_INTEGERS, "max-iter": BAD_INTEGERS, "seed": BAD_INTEGERS,
           "seeds": ["-1", "0"]}
    field = dict(good)
    for name in draw(st.lists(st.sampled_from(sorted(bad)), max_size=2, unique=True)):
        field[name] = draw(st.sampled_from(bad[name]))
    sizes = draw(st.lists(st.sampled_from(["1", "2", "3"]), min_size=1, max_size=3 if command == "bench" else 1,
                          unique=True))
    if draw(st.booleans()):
        sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.sampled_from(BAD_SIZES))
    spec = [draw(st.sampled_from(["ring", "parabolic", "zigzag"])), field["per_cluster"], field["noise"],
            field["data_seed"]]
    if command == "synth":
        return ["synth", "--", *spec, "{out}"]
    argv = [command, "synth:" + ":".join(spec), f"--sigma={field['sigma']}", f"--epsilon={field['epsilon']}",
            "--subset-size=" + ",".join(sizes)]
    if command != "factorize":
        argv += [f"--clusters={field['clusters']}", f"--max-iter={field['max-iter']}"]
    if command == "cluster":
        argv.append(f"--seed={field['seed']}")
    if command == "bench":
        argv += [f"--seeds={field['seeds']}",
                 "--algorithms=" + ",".join(draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3,
                                                          unique=True)))]
    if draw(st.booleans()):
        argv.append("--standardize")
    if draw(st.booleans()):
        argv.append("--out={out}")
    return argv


@settings(SETTINGS, max_examples=200)
@given(cli_runs())
# faults this test found, each a warning or a NaN before it was mended:
# squared distances past overflow, kept as is or scaled by --standardize, and
# Gram columns and random features at the largest sigma
@example(["factorize", "synth:ring:3:1e200:1", "--sigma=4", "--epsilon=1e-3", "--subset-size=2"])
@example(["cluster", "synth:ring:3:1e200:1", "--sigma=4", "--epsilon=1e-3", "--subset-size=2", "--clusters=2",
          "--max-iter=5", "--seed=1", "--standardize"])
@example(["cluster", "synth:ring:3:0.1:1", "--sigma=1e308", "--epsilon=1e-3", "--subset-size=6", "--clusters=2",
          "--max-iter=5", "--seed=1"])
@example(["bench", "synth:ring:3:0.1:1", "--sigma=1e308", "--epsilon=1e-3", "--subset-size=2", "--clusters=2",
          "--max-iter=5", "--seeds=2", "--algorithms=rff"])
# per_cluster values past any machine's memory, once numpy's bare "Maximum
# allowed dimension exceeded", in both spellings
@example(["synth", "--", "ring", str(10 ** 30), "0.1", "1", "{out}"])
@example(["synth", "--", "ring", str(2 ** 63), "0.1", "1", "{out}"])
@example(["factorize", f"synth:ring:{10 ** 30}:0.1:1", "--sigma=4", "--epsilon=1e-3", "--subset-size=2"])
@example(["factorize", f"synth:ring:{2 ** 63}:0.1:1", "--sigma=4", "--epsilon=1e-3", "--subset-size=2"])
# random features of terabytes, once a numpy allocation error
@example(["bench", "synth:ring:3:0.1:1", "--sigma=4", "--epsilon=1e-3", "--subset-size=1000000000000",
          "--clusters=2", "--max-iter=5", "--seeds=2", "--algorithms=rff"])
def test_every_command_exits_0_or_1_with_one_error_line_and_leaves_no_file_behind(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([a.replace("{out}", out) for a in argv])
        left = os.listdir(tmp)
    error = stderr.getvalue()
    if code == 0:
        assert error == ""
        assert left == (["out"] if "{out}" in " ".join(argv) else [])
    else:
        assert code == 1
        assert error.startswith("error: ") and error.count("\n") == 1 and error.endswith("\n")
        assert left == []
