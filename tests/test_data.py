"""Dataset container, LIBSVM parsing/serialization, and synthetic generators."""

import copy
import functools
import io
import os
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from icfcluster import Dataset, ParseError, data, gen_synthetic, parse_libsvm, standardize, to_libsvm


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

    def test_rejects_uint64_labels_beyond_int64(self):
        # cast to int64 they would wrap to negative labels, which the text
        # written from them could not be read back with
        with pytest.raises(ValueError, match="label 18446744073709551615 does not fit in int64"):
            Dataset(np.ones((2, 1)), np.array([2**63, 2**64 - 1], dtype=np.uint64))
        with pytest.raises(ValueError, match="label 9223372036854775808 "):
            Dataset(np.ones((1, 1)), np.array([2**63], dtype=np.uint64))

    @pytest.mark.parametrize("clone", [lambda ds: pickle.loads(pickle.dumps(ds)), copy.deepcopy, copy.copy])
    def test_pickle_and_deepcopy_keep_the_arrays_frozen(self, clone):
        ds = Dataset(np.random.default_rng(3).normal(size=(6, 2)), np.arange(6) % 3, name="toy")
        XT, sq = ds._centered
        back = clone(ds)
        assert "_centered" not in vars(back)
        for kept, got in ((ds.points, back.points), (ds.labels, back.labels)):
            assert np.array_equal(kept, got) and not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1
        assert back.name == "toy"
        assert np.array_equal(back._centered[0], XT) and np.array_equal(back._centered[1], sq)


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

    def test_colon_faults_that_balance_in_count_rejected(self):
        # as many colons as tokens, and twice as many pieces, yet one token
        # has two colons and another none
        for text, line_no in (("1 1:2:3 5", 1), ("0 1:1.0\n1 1:2:3 5 6:7\n", 2)):
            with pytest.raises(ParseError) as exc:
                parse_libsvm(text)
            assert exc.value.line_no == line_no

    def test_non_ascii_digits_keep_int_and_float_syntax(self):
        ds = parse_libsvm("\u0661 \u0661:2.5 2:\u0663.0\n0 2:1_0.0\n")
        assert np.array_equal(ds.points, [[2.5, 3.0], [0.0, 10.0]])
        assert np.array_equal(ds.labels, [1, 0])

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("")
        with pytest.raises(ParseError):
            parse_libsvm("\n\n")

    def test_label_only_lines_need_num_features(self):
        with pytest.raises(ParseError, match="no feature indices present"):
            parse_libsvm("1\n2\n")
        ds = parse_libsvm("1\n2\n", num_features=2)
        assert np.array_equal(bits(ds.points), bits(np.zeros((2, 2))))
        assert np.array_equal(ds.labels, [1, 2])

    @pytest.mark.parametrize("text,message", [
        ("1 1:1\nx 1:1", "line 2: invalid label 'x'"),
        ("1 1:1 2:", "line 1: expected index:value, got '2:'"),
        ("1 1:1 b:2 a:3", "line 1: invalid index 'b'"),
        ("1 1:1 2:x 3:y", "line 1: invalid value 'x'"),
        ("1 3:1 2:1", "line 1: indices must be 1-based and strictly increasing, got 2 after 3"),
        (f"1 -{10 ** 30}:1", f"line 1: indices must be 1-based and strictly increasing, got -{10 ** 30} after 0"),
        ("1 1:1 2:-inf", "line 1: non-finite value '-inf'"),
        (f"1 1:1\n1 {10 ** 30}:1", f"line 2: index {10 ** 30} needs a dense 2 x {10 ** 30} point matrix"),
    ])
    def test_each_rule_has_its_own_message(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(text)
        assert str(exc.value).startswith(message)

    def test_index_too_large_for_memory_names_its_line(self):
        # 10**30 does not fit in int64, 10**15 does, and 10**400 overflows a
        # float; each makes a dense matrix of petabytes, refused before
        # anything is allocated
        for idx in (10 ** 15, 10 ** 30, 10 ** 400):
            with pytest.raises(ParseError) as exc:
                parse_libsvm(f"1 1:1.0\n\n2 3:1.0 {idx}:2.0\n0 1:1.0\n")
            assert exc.value.line_no == 3
            assert f"index {idx}" in str(exc.value)
            assert f"2 x {idx}" in str(exc.value)

    @pytest.mark.parametrize("block_chars", [1, data._BLOCK_CHARS])
    def test_memory_rule_counts_the_widest_index_before(self, block_chars, monkeypatch, physical_memory):
        # a narrow line after a wide one adds a row as wide as the wide one,
        # whether the two lines share a block or not
        # a machine of 32 bytes: a matrix of 4 float64 values fits, 6 do not
        physical_memory(32)
        monkeypatch.setattr(data, "_BLOCK_CHARS", block_chars)
        with pytest.raises(ParseError) as exc:
            parse_libsvm("1 3:1\n1 1:1\n")
        assert str(exc.value).startswith("line 2: index 3 needs a dense 2 x 3 point matrix")

    def test_memory_rule_is_exact_for_numpy_sizes(self, physical_memory):
        # 2**31 x 2**31 x 8 bytes is 2**65, which wraps to 0 in int64
        physical_memory(32)
        size = np.int64(2 ** 31)
        assert not data._fits(size, size)
        with pytest.raises(ValueError, match="needs a dense 2147483648 x 2147483648 contingency table"):
            data._must_fit("ids", size, size, "contingency table")

    def test_label_beyond_int64_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("1 1:1.0\n99999999999999999999 1:2.0\n")
        assert exc.value.line_no == 2

    def test_peak_memory_on_a_10000_by_16_text(self):
        # the points are 1.28 MB; the reader converts the 3.5 MB text in
        # blocks, so only one block's tokens sit beside the rows read so far
        rng = np.random.default_rng(8)
        text = to_libsvm(Dataset(rng.normal(size=(10_000, 16)), rng.integers(0, 10, 10_000)))
        tracemalloc.start()
        try:
            parse_libsvm(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_peak_memory_of_an_open_file_stays_below_its_size(self, tmp_path):
        # a file is read one block at a time, so its whole text is never held
        rng = np.random.default_rng(8)
        path = tmp_path / "points.libsvm"
        path.write_text(to_libsvm(Dataset(rng.normal(size=(10_000, 16)), rng.integers(0, 10, 10_000))))
        with open(path, encoding="utf-8") as f:
            tracemalloc.start()
            try:
                parse_libsvm(f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < os.path.getsize(path)

    def test_peak_memory_of_a_bytes_source_stays_below_its_length(self):
        # bytes are decoded one block at a time, so their whole text is never held
        rng = np.random.default_rng(8)
        raw = to_libsvm(Dataset(rng.normal(size=(10_000, 16)), rng.integers(0, 10, 10_000))).encode()
        tracemalloc.start()
        try:
            parse_libsvm(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(raw)

    @pytest.mark.parametrize("form", ["str", "bytes", "text file object"])
    @pytest.mark.parametrize("end", ["\r", "\x1e", "\x85", "\u2028"], ids=["CR", "RS", "NEL", "LS"])
    def test_peak_memory_stays_below_the_length_whatever_break_ends_the_lines(self, end, form, tmp_path):
        # blocks are cut after any line break of str.splitlines, not only
        # after "\n", so such a text is not converted as one block; the file is
        # opened with newline="" so that its CRs reach the reader untranslated
        rng = np.random.default_rng(8)
        text = to_libsvm(Dataset(rng.normal(size=(10_000, 16)), rng.integers(0, 10, 10_000))).replace("\n", end)
        path = tmp_path / "points.libsvm"
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8", newline="") as f:
            source = {"str": text, "bytes": text.encode(), "text file object": f}[form]
            tracemalloc.start()
            try:
                parse_libsvm(source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < len(text)

    def test_large_reference_file_when_present(self):
        path = os.environ.get("PENDIGITS_PATH", "")
        if not path or not os.path.isfile(path):
            pytest.skip("pendigits file not available")
        ds = parse_libsvm(path, name="pendigits")
        assert ds.n == 10992
        assert ds.d == 16
        assert len(np.unique(ds.labels)) == 10


# every line ending str.splitlines knows except a bare "\r", which would merge
# with the "\n" of a following blank line
LINE_ENDS = ["\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SEPARATORS = [" ", "\t", "  ", " \t "]


@functools.lru_cache(maxsize=None)
def varied_libsvm(seed: int, sparse: bool) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """A valid LIBSVM text of more than four of the reader's 128 KB blocks.

    Its layout varies line by line: line endings, separators, blank lines,
    `+1`/`01` indices, `2.0`/`+2` labels and, when sparse, omitted zeros and
    label-only rows.  Returns its lines, their endings, and the points and
    labels it was written from.
    """
    rng = np.random.default_rng(seed)
    n, d = (2_500, 40) if sparse else (2_000, 16)
    points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-5, 6, size=(n, d))
    special = rng.random((n, d)) < 0.01
    points[special] = rng.choice(AWKWARD, size=int(special.sum()))
    if sparse:
        points[rng.random((n, d)) < 0.7] = 0.0
        points[rng.random(n) < 0.05] = 0.0
        points[0, -1] = 1.0
    labels = rng.integers(0, 20, n)
    index_form = rng.integers(0, 3, size=(n, d))
    lines = []
    for i, (label, row) in enumerate(zip(labels.tolist(), points.tolist())):
        if rng.random() < 0.05:
            lines.append(str(rng.choice(["", " ", "\t "])))
        tokens = [[str(label), f"{label}.0", f"+{label}"][rng.integers(3)]]
        for j, value in enumerate(row):
            if sparse and value == 0.0 and not np.signbit(value):
                continue
            index = [f"{j + 1}", f"+{j + 1}", f"0{j + 1}"][index_form[i, j]]
            tokens.append(f"{index}:{value!r}")
        seps = rng.choice(SEPARATORS, size=len(tokens) + 1)
        lines.append(seps[0] * int(rng.random() < 0.1)
                     + "".join(tok + sep for tok, sep in zip(tokens, seps[1:])))
    return lines, rng.choice(LINE_ENDS, size=len(lines)).tolist(), points, labels


FAULTS = ["no colon", "two colons", "index 0", "repeated index", "decreasing",
          "inf", "nan", "label x", "label -1", "label 1.5"]


def corrupt(tokens: list[str], kind: str) -> list[str]:
    """One line's tokens with one fault of the given kind."""
    label, feats = tokens[0], tokens[1:]
    index, value = feats[0].split(":")
    return {
        "no colon": lambda: [label, index + value, *feats[1:]],
        "two colons": lambda: [label, f"{index}:{value}:1", *feats[1:]],
        "index 0": lambda: [label, f"0:{value}", *feats[1:]],
        "repeated index": lambda: [label, feats[0], feats[0], *feats[1:]],
        "decreasing": lambda: [label, feats[1], feats[0], *feats[2:]],
        "inf": lambda: [label, f"{index}:inf", *feats[1:]],
        "nan": lambda: [label, f"{index}:nan", *feats[1:]],
        "label x": lambda: ["x", *feats],
        "label -1": lambda: ["-1", *feats],
        "label 1.5": lambda: ["1.5", *feats],
    }[kind]()


def faulty_libsvm(sparse: bool, kind: str) -> tuple[str, int]:
    """varied_libsvm(21)'s text with one fault of the given kind, and the
    0-based number of the faulty line: a line with two features in the
    text's second half, past the first block."""
    lines, ends, _, _ = varied_libsvm(21, sparse)
    rng = np.random.default_rng([22, sparse, FAULTS.index(kind)])
    half = len(lines) // 2
    at = half + int(rng.choice([i for i, line in enumerate(lines[half:]) if len(line.split()) >= 3]))
    bad = lines.copy()
    bad[at] = " ".join(corrupt(lines[at].split(), kind))
    return "".join(line + end for line, end in zip(bad, ends)), at


def as_file(text: str, form: str, tmp_path):
    """text as a file parse_libsvm reads by blocks: an io.StringIO, an
    io.BytesIO of its UTF-8, or the path of a file holding those bytes."""
    if form == "text file object":
        return io.StringIO(text)
    if form == "bytes file object":
        return io.BytesIO(text.encode("utf-8"))
    path = tmp_path / "varied.libsvm"
    path.write_bytes(text.encode("utf-8"))
    return os.fspath(path)


FILE_FORMS = ["text file object", "bytes file object", "path"]


class TestParseAcrossBlocks:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_parses_bit_identically(self, sparse):
        lines, ends, points, labels = varied_libsvm(21, sparse)
        text = "".join(line + end for line, end in zip(lines, ends))
        assert len(text) > 2 * 2 ** 18
        assert text.splitlines() == lines
        ds = parse_libsvm(text)
        assert np.array_equal(bits(ds.points), bits(points))
        assert np.array_equal(ds.labels, labels)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("kind", FAULTS)
    def test_fault_reports_its_absolute_line(self, sparse, kind):
        text, at = faulty_libsvm(sparse, kind)
        with pytest.raises(ParseError) as exc:
            parse_libsvm(text)
        assert exc.value.line_no == at + 1

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("kind", FAULTS)
    def test_fault_message_quotes_its_token(self, sparse, kind):
        text, at = faulty_libsvm(sparse, kind)
        label, first, second = text.splitlines()[at].split()[:3]
        index = [int(token.split(":")[0]) for token in (first, second) if ":" in token]
        quoted = {
            "no colon": repr(first),
            "two colons": repr(first),
            "index 0": "got 0 after 0",
            "repeated index": f"got {index[-1]} after {index[0]}",
            "decreasing": f"got {index[-1]} after {index[0]}",
            "inf": "'inf'",
            "nan": "'nan'",
        }.get(kind, repr(label))
        with pytest.raises(ParseError) as exc:
            parse_libsvm(text)
        assert quoted in str(exc.value)


class ConvertBlockCalled(Exception):
    pass


class TestDenseBlocks:
    """A dense block is read by _dense_block, anything else by _convert_block."""

    @pytest.fixture
    def no_convert_block(self, monkeypatch):
        def refuse(*args):
            raise ConvertBlockCalled
        monkeypatch.setattr(data, "_convert_block", refuse)

    def test_a_dense_text_never_reaches_convert_block(self, no_convert_block):
        rng = np.random.default_rng(23)
        points = rng.normal(size=(3_000, 16)) * 10.0 ** rng.integers(-5, 6, size=(3_000, 16))
        special = rng.random(points.shape) < 0.01
        points[special] = rng.choice(AWKWARD, size=int(special.sum()))
        ds = Dataset(points, rng.integers(0, 10, 3_000))
        text = to_libsvm(ds)
        assert len(text) > 4 * data._BLOCK_CHARS
        parsed = parse_libsvm(text)
        assert np.array_equal(bits(parsed.points), bits(ds.points))
        assert np.array_equal(parsed.labels, ds.labels)

    def test_a_sparse_line_reaches_convert_block(self, no_convert_block):
        with pytest.raises(ConvertBlockCalled):
            parse_libsvm("1 1:0.5 2:1.5\n0 2:2.5\n")

    @pytest.mark.parametrize("label", [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 63 - 1])
    def test_labels_at_and_past_2_to_the_53_keep_every_digit(self, label):
        # float64 holds every integer below 2**53; larger labels are read by int
        lines = [f"{label} 1:0.5", "0 1:1.5"]
        assert (data._dense_block(lines, 0, 0) is None) == (label >= 2 ** 53)
        assert parse_libsvm("\n".join(lines)).labels.tolist() == [label, 0]


class TestParseFilesByBlocks:
    """A path or file object is read one block at a time, not held whole."""

    @pytest.mark.parametrize("form", FILE_FORMS)
    @pytest.mark.parametrize("sparse", [False, True])
    def test_parses_bit_identically(self, sparse, form, tmp_path):
        lines, ends, points, labels = varied_libsvm(21, sparse)
        ds = parse_libsvm(as_file("".join(line + end for line, end in zip(lines, ends)), form, tmp_path))
        assert np.array_equal(bits(ds.points), bits(points))
        assert np.array_equal(ds.labels, labels)

    @pytest.mark.parametrize("form", FILE_FORMS)
    @pytest.mark.parametrize("sparse", [False, True])
    def test_blocks_are_cut_only_after_newlines(self, sparse, form, tmp_path, monkeypatch):
        # blocks of 1,000 characters end inside a line, and often inside a
        # "\r\n" pair or a multi-byte character; each must run to the newline
        lines, ends, points, labels = varied_libsvm(21, sparse)
        monkeypatch.setattr(data, "_BLOCK_CHARS", 1_000)
        ds = parse_libsvm(as_file("".join(line + end for line, end in zip(lines, ends)), form, tmp_path))
        assert np.array_equal(bits(ds.points), bits(points))
        assert np.array_equal(ds.labels, labels)

    @pytest.mark.parametrize("block_chars", range(1, 13))
    def test_blocks_end_at_line_breaks_and_keep_each_crlf_whole(self, block_chars, monkeypatch):
        # bare CRs and CRLFs fall on every block edge; bytes are cut after
        # \x85, U+2028 and U+2029 only at their whole UTF-8 sequences
        # (b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80\xa9"), never inside one
        monkeypatch.setattr(data, "_BLOCK_CHARS", block_chars)
        text = "1 1:1\r\n2 1:2\r3 1:3\r\r\n4 1:4\x1e5 1:5\x0b\r\n6 1:6\x857 1:7\u20288 1:8\u20299 1:9\r"
        raw = text.encode()
        sources = {"str": (text, text), "bytes file object": (io.BytesIO(raw), raw),
                   "text file object": (io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""), text)}
        for form, (source, whole) in sources.items():
            assert list(data._blocks(source)) == cut_after_breaks(whole, block_chars), form

    @pytest.mark.parametrize("form", FILE_FORMS)
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("kind", FAULTS)
    def test_fault_reports_its_absolute_line(self, sparse, kind, form, tmp_path):
        text, at = faulty_libsvm(sparse, kind)
        with pytest.raises(ParseError) as exc:
            parse_libsvm(as_file(text, form, tmp_path))
        assert exc.value.line_no == at + 1


def cut_after_breaks(text, block_chars: int) -> list:
    """text (str or bytes) in the blocks parse_libsvm reads: each ends just
    after the first line break that starts at least block_chars in, where a
    CRLF is one break and, in bytes, \\x85, U+2028 and U+2029 are their
    whole UTF-8 sequences."""
    breaks = ["\r\n", *"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]
    if isinstance(text, bytes):
        breaks = [end.encode() for end in breaks]
    blocks, start = [], 0
    while start < len(text):
        end = start + block_chars
        while end < len(text) and not any(text.startswith(b, end) for b in breaks):
            end += 1
        end += next((len(b) for b in breaks if text.startswith(b, end)), 0)
        blocks.append(text[start:end])
        start = end
    return blocks


def with_wide_line(sparse: bool) -> tuple[str, int]:
    """varied_libsvm(21)'s text with index d + 1 appended to one line in its
    second half, and the 0-based number of that line."""
    lines, ends, points, _ = varied_libsvm(21, sparse)
    rng = np.random.default_rng([23, sparse])
    half = len(lines) // 2
    at = half + int(rng.choice([i for i, line in enumerate(lines[half:]) if line.strip()]))
    wide = lines.copy()
    wide[at] += f" {points.shape[1] + 1}:1.5"
    return "".join(line + end for line, end in zip(wide, ends)), at


def with_bad_byte(sparse: bool, byte: bytes) -> tuple[bytes, int]:
    """varied_libsvm(21)'s UTF-8 with byte put inside one line in its second
    half, and the 0-based number of that line.  Its line endings include
    multi-byte ones (NEL, U+2028, U+2029)."""
    lines, ends, _, _ = varied_libsvm(21, sparse)
    rng = np.random.default_rng([24, sparse])
    half = len(lines) // 2
    at = half + int(rng.integers(len(lines) - half))
    cut = int(rng.integers(len(lines[at]) + 1))
    encoded = [line.encode("utf-8") for line in lines]
    encoded[at] = encoded[at][:cut] + byte + encoded[at][cut:]
    return b"".join(line + end.encode("utf-8") for line, end in zip(encoded, ends)), at


def as_binary(raw: bytes, form: str, tmp_path):
    """raw as bytes, as an io.BytesIO, as a text-mode UTF-8 file object over
    it, or as the path of a file holding it."""
    if form == "bytes":
        return raw
    if form == "bytes file object":
        return io.BytesIO(raw)
    if form == "text file object":
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    path = tmp_path / "raw.libsvm"
    path.write_bytes(raw)
    return os.fspath(path)


BINARY_FORMS = ["bytes", "bytes file object", "path"]


class TestWidthAndEncodingFaults:
    """An index above num_features and a byte that is not UTF-8 name their line."""

    def test_index_above_num_features(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("1 1:1\n1 3:1\n", num_features=2)
        assert str(exc.value) == "line 2: index 3 exceeds num_features=2"

    @pytest.mark.parametrize("block_chars", [1_000, data._BLOCK_CHARS])
    @pytest.mark.parametrize("form", ["str"] + FILE_FORMS)
    @pytest.mark.parametrize("sparse", [False, True])
    def test_index_above_num_features_deep_in_a_file(self, sparse, form, block_chars, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_CHARS", block_chars)
        text, at = with_wide_line(sparse)
        width = varied_libsvm(21, sparse)[2].shape[1]
        source = text if form == "str" else as_file(text, form, tmp_path)
        with pytest.raises(ParseError) as exc:
            parse_libsvm(source, num_features=width)
        assert exc.value.line_no == at + 1
        assert f"index {width + 1} exceeds num_features={width}" in str(exc.value)
        assert parse_libsvm(text).d == width + 1

    @pytest.mark.parametrize("num_features", [0, -3])
    def test_num_features_below_one(self, num_features):
        with pytest.raises(ValueError) as exc:
            parse_libsvm("1 1:1\n", num_features=num_features)
        assert not isinstance(exc.value, ParseError)
        assert str(exc.value) == f"num_features must be at least 1, got {num_features}"

    def test_num_features_too_large_for_memory(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("1 1:1\n1 1:2\n", num_features=10 ** 12)
        assert str(exc.value).startswith(
            f"line 1: num_features={10 ** 12} needs a dense 1 x {10 ** 12} point matrix")

    @pytest.mark.parametrize("form", BINARY_FORMS + ["text file object"])
    def test_bad_byte_names_its_line(self, form, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(as_binary(b"1 1:1\n\xff 1:1\n", form, tmp_path))
        assert str(exc.value) == "line 2: byte 0xff is not UTF-8 (invalid start byte)"

    @pytest.mark.parametrize("form", BINARY_FORMS + ["text file object"])
    def test_truncated_character_at_the_end(self, form, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(as_binary(b"1 1:1\r\n1 1:2\xe2\x80", form, tmp_path))
        assert str(exc.value) == "line 2: byte 0xe2 is not UTF-8 (unexpected end of data)"

    @pytest.mark.parametrize("block_chars", [1_000, data._BLOCK_CHARS])
    @pytest.mark.parametrize("form", BINARY_FORMS + ["text file object"])
    @pytest.mark.parametrize("byte", [b"\xff", b"\x80", b"\xc3("])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_bad_byte_deep_in_a_file(self, sparse, byte, form, block_chars, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_CHARS", block_chars)
        raw, at = with_bad_byte(sparse, byte)
        with pytest.raises(ParseError) as exc:
            parse_libsvm(as_binary(raw, form, tmp_path))
        assert exc.value.line_no == at + 1
        assert f"byte {byte[0]:#04x} is not UTF-8" in str(exc.value)


def with_unreadable_byte() -> tuple[str, bytes, int]:
    """Four blocks of ASCII LIBSVM text, the same text as bytes with 0xff put
    halfway into its third block, and the character offset of that byte."""
    text = "".join(f"{i % 3} 1:{i * 0.5!r} 2:0.25\n" for i in range(25_000))
    starts = block_starts(text)
    assert len(starts) >= 4
    bad = text.find(" ", starts[2] + data._BLOCK_CHARS // 2)
    return text, text[:bad].encode() + b"\xff" + text[bad:].encode(), bad


def block_starts(text: str) -> list[int]:
    """Where parse_libsvm's blocks of text start: each ends just after the
    first newline at least _BLOCK_CHARS characters past its start."""
    starts = [0]
    while end := text.find("\n", starts[-1] + data._BLOCK_CHARS) + 1:
        starts.append(end)
    return starts


def failed_block_line(text: str, bad: int) -> int:
    """The 1-based first line of the block of text that holds offset bad."""
    return text.count("\n", 0, max(s for s in block_starts(text) if s <= bad)) + 1


def unreadable_again(line: int, encoding: str, reason: str) -> str:
    return (f"line {line}: byte 0xff is not {encoding} ({reason}) on this line or a later one; "
            "a file opened in binary mode gets its line named")


class TestUnreadableTextFaults:
    """A text-mode file whose bytes cannot be read again names the first line
    of the block whose read failed, and says the byte is there or later."""

    def test_wrapper_that_is_not_utf8(self):
        text, raw, bad = with_unreadable_byte()
        with pytest.raises(ParseError) as exc:
            parse_libsvm(io.TextIOWrapper(io.BytesIO(raw), encoding="ascii"))
        assert str(exc.value) == unreadable_again(failed_block_line(text, bad), "ascii",
                                                  "ordinal not in range(128)")

    def test_file_iterated_by_lines(self, tmp_path):
        text, raw, bad = with_unreadable_byte()
        path = tmp_path / "raw.libsvm"
        path.write_bytes(raw)
        with open(path, encoding="utf-8") as f:
            head = len(next(f))
            with pytest.raises(ParseError) as exc:
                parse_libsvm(f)
        # the parse, and so its blocks and line numbers, start at the second line
        assert str(exc.value) == unreadable_again(failed_block_line(text[head:], bad - head), "utf-8",
                                                  "invalid start byte")

    def test_pipe(self):
        text, raw, bad = with_unreadable_byte()
        r, w = os.pipe()

        def write():
            view = memoryview(raw)
            try:
                while view:
                    view = view[os.write(w, view):]
            except BrokenPipeError:
                pass  # the reader stopped at the bad byte and closed its end
            finally:
                os.close(w)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            with open(r, encoding="utf-8") as f, pytest.raises(ParseError) as exc:
                parse_libsvm(f)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert str(exc.value) == unreadable_again(failed_block_line(text, bad), "utf-8", "invalid start byte")

    def test_source_of_no_known_type(self):
        with pytest.raises(TypeError, match="unsupported source type"):
            parse_libsvm(3.5)


class CountingBytesIO(io.BytesIO):
    """A BytesIO that counts the bytes its reads return."""

    returned = 0

    def _counted(self, data: bytes) -> bytes:
        self.returned += len(data)
        return data

    def read(self, size=-1):
        return self._counted(super().read(size))

    def read1(self, size=-1):
        return self._counted(super().read1(size))

    def readline(self, size=-1):
        return self._counted(super().readline(size))


class TestTextFileReadAsBytes:
    """A strict UTF-8 text-mode file that can tell() is read once, as bytes,
    from its position."""

    def test_bad_byte_is_read_once(self):
        text, raw, bad = with_unreadable_byte()
        buffer = CountingBytesIO(raw)
        with pytest.raises(ParseError) as exc:
            parse_libsvm(io.TextIOWrapper(buffer, encoding="utf-8"))
        assert exc.value.line_no == text.count("\n", 0, bad) + 1
        assert bad < buffer.returned <= len(raw)

    @pytest.mark.parametrize("lines_read", [0, 1])
    def test_parse_starts_at_the_position_and_leaves_nothing_to_read(self, lines_read):
        text = with_unreadable_byte()[0]
        f = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
        head = "".join(f.readline() for _ in range(lines_read))
        ds, expected = parse_libsvm(f), parse_libsvm(text[len(head):])
        assert np.array_equal(bits(ds.points), bits(expected.points))
        assert np.array_equal(ds.labels, expected.labels)
        assert f.read() == ""

    @pytest.mark.parametrize("options, message", [
        ({"encoding": "utf-8", "errors": "replace"}, "line 2: invalid label '�'"),
        ({"encoding": "utf-8", "errors": "ignore"}, "line 2: invalid label '1:1'"),
        ({"encoding": "latin-1"}, "line 2: invalid label 'ÿ'"),
        ({"encoding": "utf-8-sig"}, unreadable_again(1, "utf-8", "invalid start byte")),
    ])
    def test_wrapper_that_decodes_for_itself(self, options, message):
        # only a strict UTF-8 wrapper hands over its bytes; these keep their own decoding
        with pytest.raises(ParseError) as exc:
            parse_libsvm(io.TextIOWrapper(io.BytesIO(b"1 1:1\n\xff 1:1\n"), **options))
        assert str(exc.value) == message


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

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_the_largest_label_round_trips(self, dtype):
        ds = Dataset(np.ones((2, 1)), np.array([2**63 - 1, 0], dtype=dtype))
        text = to_libsvm(ds)
        assert text == "9223372036854775807 1:1.0\n0 1:1.0\n"
        assert parse_libsvm(text).labels.tolist() == [2**63 - 1, 0]

    def test_blocks_of_mixed_values_are_written_as_repr(self):
        # about 2**17 values over 16 blocks: every layout repr has, the exact
        # digits' ties and near-misses, and the values repr itself formats
        rng = np.random.default_rng(29)
        size = 2**14
        tens = 10.0 ** rng.integers(-30, 20, size)
        with np.errstate(over="ignore"):
            values = np.concatenate([
                rng.normal(size=2 * size),
                rng.normal(size=size) * 10.0 ** rng.integers(-330, 309, size),
                rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64),
                np.round(rng.normal(size=size) * 10.0 ** rng.integers(-3, 7, size), 3),
                rng.integers(-2**53, 2**53, size) / 10.0 ** rng.integers(0, 20, size),
                np.ldexp(1.0, rng.integers(-1074, 1024, size)),
                tens,
                np.nextafter(tens, rng.choice([0.0, np.inf], size)),
            ])
        values = values[np.isfinite(values)]
        values = rng.permutation(values)[:len(values) // 16 * 16]
        ds = Dataset(values.reshape(-1, 16), np.arange(len(values) // 16))
        text = to_libsvm(ds)
        assert [token.split(":")[1] for line in text.splitlines() for token in line.split()[1:]] == \
            [repr(v) for v in values.tolist()]
        assert text.splitlines()[1234].startswith("1234 1:")

    def test_peak_memory_is_no_higher_than_the_one_template_writer(self):
        # the writer's blocks are freed as it goes, so beside the text it holds
        # no more than a writer of one line at a time
        def one_template(dataset):
            template = "%d " + " ".join(f"{j}:%r" for j in range(1, dataset.d + 1)) + "\n"
            return "".join(template % (label, *row.tolist())
                           for label, row in zip(dataset.labels.tolist(), dataset.points))

        rng = np.random.default_rng(8)
        ds = Dataset(rng.normal(size=(10_000, 16)), rng.integers(0, 10, 10_000))
        peaks = []
        for write in (one_template, to_libsvm):
            tracemalloc.start()
            try:
                text = write(ds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del text
        assert peaks[1] <= peaks[0]

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

    # refused before anything is allocated: a size this machine could hold
    # would really be allocated, so only ones far past its memory are tried
    @pytest.mark.parametrize("per_cluster", [10 ** 30, 2 ** 63], ids=["10**30", "2**63"])
    def test_per_cluster_too_large_for_memory_is_refused_by_name(self, per_cluster):
        with pytest.raises(ValueError, match=rf"^per_cluster={per_cluster} needs a dense {2 * per_cluster} x 2 point "
                                             r"matrix, more than this machine's memory$"):
            gen_synthetic("ring", per_cluster, 0.1, 1)

    @pytest.mark.parametrize("noise", [np.nan, np.inf, -np.inf, -0.1])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match=r"noise must be finite and >= 0"):
            gen_synthetic("ring", 3, noise, 0)


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
