"""Dataset container, LIBSVM text format I/O, and synthetic 2-d generators.

The LIBSVM format is line oriented: ``<label> <index>:<value> ...`` with
1-based, strictly increasing indices per line.  Absent indices are zeros.
Rows are materialized densely; sparse storage is out of scope here because
every downstream consumer works on dense feature rows.

The exact decimal significands that the LIBSVM writer and the factor dump
(icf.dump_factor) format from are computed here too.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import os
import re
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

_SYNTH_KINDS = ("ring", "parabolic", "zigzag")

# LIBSVM text is converted one block of about this many characters at a time,
# so a block's token lists, not the whole text's, sit beside the rows read
_BLOCK_CHARS = 1 << 17

# a block is cut just after one of str.splitlines' line breaks, never between
# the CR and LF of a CRLF.  Bytes are cut after \x85, \u2028 and \u2029 only
# at their whole UTF-8 sequences, which begin with a lead byte, so a cut never
# splits a character.  A file's cut is looked for in pieces of at most
# _LINE_CHARS, and never more than _BLOCK_CHARS, so what is read past it fits
# in the next block
_BREAKS = re.compile("\r\n?|[\n\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")
_BYTE_BREAKS = re.compile(rb"\r\n?|[\n\x0b\x0c\x1c-\x1e]|\xc2\x85|\xe2\x80[\xa8\xa9]")
_LINE_CHARS = 1 << 12

# every byte but the space and the colon, deleted to leave the order in which
# those two occur
_NOT_SPACE_OR_COLON = bytes(sorted(set(range(256)) - set(b" :")))

# bytes.translate's table for the characters of a plain decimal number left
# when its digits and signs are deleted: "e" and "E" become "."
_DOTS = bytes.maketrans(b"eE", b"..")

_INT64_MAX = int(np.iinfo(np.int64).max)


class ParseError(ValueError):
    """Raised for malformed LIBSVM input, with a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _ValueType:
    """Base of the read-only dataclasses: pickle and copy rebuild through the
    constructor from every field, so the arrays are validated and frozen again
    and cached properties are recomputed."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _read_only(value, dtype, copy: bool = True) -> np.ndarray:
    """value as a read-only dtype array; copy=False freezes an array of that dtype in place."""
    arr = np.array(value, dtype=dtype) if copy else np.asarray(value, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(eq=False)
class Dataset(_ValueType):
    """Dense point matrix with optional integer labels.

    Arrays are frozen after construction so a Dataset can be shared freely.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a non-empty 2-d array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite values")
        object.__setattr__(self, "points", _read_only(np.ascontiguousarray(pts), np.float64))
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (pts.shape[0],):
                raise ValueError(f"labels shape {lab.shape} does not match n={pts.shape[0]}")
            if not np.issubdtype(lab.dtype, np.integer):
                raise ValueError("labels must be integers")
            if lab.min() < 0:
                raise ValueError("labels must be non-negative")
            if lab.max() > _INT64_MAX:
                raise ValueError(f"label {int(lab.max())} does not fit in int64")
            object.__setattr__(self, "labels", _read_only(lab, np.int64))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @cached_property
    def _centered(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only points minus their mean, feature-major (d x n), and their squared norms.

        A Gaussian Gram entry sums terms of at most 4 max(sq) in size; points
        for which that overflows, or whose mean does, raise ValueError.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            XT = np.ascontiguousarray((self.points - self.points.mean(axis=0)).T)
            sq = np.einsum("ji,ji->i", XT, XT)
            if not np.isfinite(4.0 * sq.max(initial=0.0)):
                raise ValueError("points spread too far: their squared distances overflow")
        return _read_only(XT, np.float64, copy=False), _read_only(sq, np.float64, copy=False)


def parse_libsvm(source, num_features: int | None = None, name: str = "") -> Dataset:
    """Parse LIBSVM text into a Dataset.

    The text is read in blocks of about 128 KB, each cut just after a line
    break (LF, CRLF, a bare CR, \\x0b, \\x0c, \\x1c-\\x1e, \\x85, \\u2028 or
    \\u2029): a str is sliced in place, and any other source is read a
    block at a time.
    A block of dense lines, ``<label> 1:<value> ... w:<value>`` in plain
    decimal numbers split by single spaces, is read by one np.loadtxt call
    (_dense_block).  Any other block is converted by a few whole-block string
    and numpy operations (_convert_block), the one statement of the rules, in
    which indices and values keep Python's int and float syntax; the two give
    the same bits on every block the first takes.  When that conversion
    fails, it runs on the block's lines one at a time, and the first line
    that fails alone is reported.

    Args:
        source: str, bytes, file-like object, or path to a file.  Bytes, and
            the bytes of a path, a binary file or a strict UTF-8 text-mode
            file that can tell() its position, are decoded as UTF-8 one block
            at a time, from that position.  Any other text-mode file (a pipe,
            a file already iterated by lines, another encoding or errors
            handler) decodes inside its own read, and a byte it cannot decode
            is reported at the first line of the block whose read failed.
            Lines, and so line numbers, are those of str.splitlines, whose
            breaks are listed above.
        num_features: optional fixed width, at least 1; defaults to the
            largest index seen.
        name: dataset name to attach.

    Raises:
        ParseError: on any malformed line, reporting its 1-based number and
            the rule it breaks; also for a byte that is not UTF-8, for an
            index above num_features, and for the line that makes the dense
            point matrix larger than the machine's memory.
        ValueError: for num_features below 1.
    """
    if num_features is not None and num_features < 1:
        raise ValueError(f"num_features must be at least 1, got {num_features}")
    label_blocks, row_blocks = [], []
    n = max_index = lines_before = 0
    with _opened(source) as text:
        try:
            for block in _blocks(text):
                if isinstance(block, bytes):
                    block = _decoded(block, lines_before)
                pending = [block.splitlines()]
                while pending:
                    lines = pending.pop()
                    try:
                        labels, rows = (_dense_block(lines, n, max_index, num_features)
                                        or _convert_block(lines, n, max_index, num_features))
                    except ValueError as exc:
                        if len(lines) == 1:
                            raise ParseError(lines_before + 1, str(exc)) from None
                        # every rule holds line by line, so some line fails alone
                        pending.extend([line] for line in reversed(lines))
                        continue
                    label_blocks.append(labels)
                    row_blocks.append(rows)
                    n += rows.shape[0]
                    max_index = max(max_index, rows.shape[1])
                    lines_before += len(lines)
        except UnicodeDecodeError as exc:
            # a text-mode file's own read failed, lines_before lines in
            raise ParseError(lines_before + 1, f"byte {exc.object[exc.start]:#04x} is not {exc.encoding} "
                             f"({exc.reason}) on this line or a later one; a file opened in "
                             "binary mode gets its line named") from None
    if not n:
        raise ParseError(0, "no data lines")
    width = num_features or max_index
    if width < 1:
        raise ParseError(0, "no feature indices present and num_features not given")
    points = np.zeros((n, width))
    start = 0
    for rows in row_blocks:
        points[start:start + rows.shape[0], :rows.shape[1]] = rows
        start += rows.shape[0]
    del row_blocks, rows  # free them before Dataset copies the points
    return Dataset(points, np.concatenate(label_blocks), name=name)


def to_libsvm(dataset: Dataset) -> str:
    """Serialize a Dataset to LIBSVM text (dense: every index written).

    Each value is written as repr writes it: the fewest significant digits
    that read back to the same float64, nearest the value among those, so
    parse_libsvm(to_libsvm(ds)) reproduces the points bit for bit.  The rows
    are formatted a block of about _WRITE_BLOCK values at a time, the digits
    from exact significands (_shortest); a value whose digits they leave
    undecided is formatted by repr itself.
    """
    if dataset.labels is None:
        raise ValueError("serialization requires labels")
    d = dataset.d
    # a line is d + 1 records, its label's and then " j:" and value j's field
    # at an even offset, filled a block of lines at a time; "\n" ends the last
    head = len(f" {d}:")
    head += head % 2
    width = head + _FIELD + 2
    records = "".join([f" {j}:".ljust(width, "\0") for j in range(d + 1)])[:-1] + "\n"
    pattern = np.frombuffer(records.encode(), np.uint8).reshape(d + 1, width)
    rows, parts = max(1, _WRITE_BLOCK // d), []
    for i in range(0, dataset.n, rows):
        labels, points = dataset.labels[i:i + rows], dataset.points[i:i + rows]
        rec = np.empty((len(labels), d + 1, width), np.uint8)
        rec[:] = pattern
        text = "".join([str(label).ljust(width, "\0") for label in labels.tolist()])
        rec[:, 0] = np.frombuffer(text.encode(), np.uint8).reshape(-1, width)
        _write_shortest(points, rec[:, 1:, head:head + _FIELD])
        parts.append(rec.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def _rng(seed: int) -> np.random.Generator:
    """np.random.default_rng(seed), for every seed that reaches numpy: one
    below 0 raises ValueError naming it."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def gen_synthetic(kind: str, per_cluster: int, noise: float, seed: int) -> Dataset:
    """Generate one of the 2-d two-cluster testbeds: ring, parabolic, zigzag.

    Each cluster has per_cluster points with labels {0, 1}.  Gaussian noise of
    the given standard deviation is added per coordinate; with noise=0 points
    lie exactly on the base curves.  Deterministic for fixed arguments.
    """
    if kind not in _SYNTH_KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {_SYNTH_KINDS}")
    if per_cluster < 1:
        raise ValueError("per_cluster must be >= 1")
    _must_fit(f"per_cluster={per_cluster}", 2 * per_cluster, 2)
    if not 0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    rng = _rng(seed)
    if kind == "ring":
        # a small circle enclosed by a concentric ring.  The inner cluster is
        # compact while the outer one surrounds it, so no straight line and no
        # centroid split separates them, yet a Gaussian kernel does.
        theta0 = rng.uniform(0.0, 2.0 * np.pi, per_cluster)
        theta1 = rng.uniform(0.0, 2.0 * np.pi, per_cluster)
        c0 = 0.1 * np.column_stack([np.cos(theta0), np.sin(theta0)])
        c1 = np.column_stack([np.cos(theta1), np.sin(theta1)])
    elif kind == "parabolic":
        # a short upward arc sitting in the mouth of a wide downward parabola
        # whose arms reach past it on both sides — opposing interleaved arcs
        x0 = rng.uniform(-0.4, 0.4, per_cluster)
        x1 = rng.uniform(-2.2, 2.2, per_cluster)
        c0 = np.column_stack([x0, x0 ** 2])
        c1 = np.column_stack([x1, 2.5 - x1 ** 2])
    else:
        # two triangle-wave bands: a short segment of the wave below a full
        # four-tooth band running the whole span, offset vertically
        x0 = rng.uniform(1.75, 2.25, per_cluster)
        x1 = rng.uniform(0.0, 4.0, per_cluster)
        c0 = np.column_stack([x0, _triangle_wave(x0)])
        c1 = np.column_stack([x1, _triangle_wave(x1) + 1.2])
    points = np.vstack([c0, c1])
    if noise > 0:
        points = points + rng.normal(0.0, noise, points.shape)
    labels = np.repeat(np.array([0, 1]), per_cluster)
    return Dataset(points, labels, name=kind)


def standardize(dataset: Dataset) -> Dataset:
    """Return a copy with each feature shifted to mean 0 and scaled to std 1.

    Constant features are left centred but unscaled.  A feature whose mean
    or spread overflows raises ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = dataset.points.mean(axis=0)
        std = dataset.points.std(axis=0)
    if not np.isfinite(std).all():
        raise ValueError("cannot standardize: a feature's mean or spread overflows")
    std[std == 0.0] = 1.0
    return Dataset((dataset.points - mean) / std, dataset.labels, name=dataset.name)


def _triangle_wave(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear wave with period 1, range [0, 0.5], slopes ±1."""
    return 0.5 - np.abs(np.mod(x, 1.0) - 0.5)


def _blocks(text):
    """Yield a str or a file's contents in pieces of about _BLOCK_CHARS
    characters or bytes, each cut just after the first line break (_BREAKS)
    at least _BLOCK_CHARS in.  A file object is read one piece at a time; a
    binary file's pieces are bytes, which a cut after a whole break
    (_BYTE_BREAKS) leaves whole UTF-8, and a text-mode file's are str,
    decoded inside its own read."""
    if isinstance(text, str):
        start = 0
        while start < len(text):
            cut = _BREAKS.search(text, start + _BLOCK_CHARS)
            end = cut.end() if cut else len(text)
            yield text[start:end]
            start = end
        return
    block, piece = text.read(_BLOCK_CHARS), min(_LINE_CHARS, _BLOCK_CHARS)
    while block:
        breaks, cr, lf = (_BREAKS, "\r", "\n") if isinstance(block, str) else (_BYTE_BREAKS, b"\r", b"\n")
        parts, cut, tail = [block], None, block[:0]
        while cut is None and (line := text.readline(piece)):
            # a multi-byte break may begin in the last two bytes of the pieces before
            cut = breaks.search(tail + line)
            end = cut.end() - len(tail) if cut else len(line)
            parts.append(line[:end])
            tail = (tail + line)[-2:]
        rest = line[end:] if cut else line
        if not rest and parts[-1][-1:] == cr:
            # the LF of a CRLF may not be read yet; it stays with its CR
            rest = text.read(1)
            if rest == lf:
                parts.append(rest)
                rest = rest[:0]
        yield block[:0].join(parts)
        block = rest + text.read(_BLOCK_CHARS - len(rest))


def _decoded(block: bytes, lines_before: int) -> str:
    """block decoded as UTF-8; a byte that is not UTF-8 raises a ParseError
    naming its line, counting lines_before lines ahead of the block."""
    try:
        return block.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; with a character that is not a
        # line break put in its place, their last line is the bad byte's
        head = block[:exc.start].decode("utf-8") + "?"
        raise ParseError(lines_before + len(head.splitlines()),
                         f"byte {block[exc.start]:#04x} is not UTF-8 ({exc.reason})") from None


def _dense_block(lines: list[str], rows_before: int, max_index: int,
                 num_features: int | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """_convert_block's labels and rows of lines, read by one np.loadtxt call,
    when each line is ``<label> 1:<value> ... w:<value>`` in plain decimal
    numbers split by single spaces; None for any other block, which
    _convert_block then converts or refuses.

    A block is taken only where _convert_block takes it, with the same bits:
    its tokens hold only digits, signs, ".", "e" and "E", which int, float
    and loadtxt read alike (no underscore, letter of inf or nan, or non-ASCII
    digit); its index tokens hold no ".", "e" or "E", which int refuses; and
    every index reads exactly 1..w.  A label read as a float64 is exact only
    below 2**53, so a larger one is left to _convert_block.
    """
    w, n_rows = lines[0].count(":"), len(lines)
    if not 1 <= w <= (num_features or w):
        return None
    text = "\n".join(lines)
    # with the digits and signs deleted, a dense line reads " :" w times
    # between its dots; any other character (a non-ASCII one as "?") stays,
    # and a dot after a space is in an index token
    marks = text.encode("ascii", "replace").translate(_DOTS, b"0123456789+-")
    if b" ." in marks or marks.translate(None, b".") != b"\n".join([b" :" * w] * n_rows):
        return None
    if not _fits(rows_before + n_rows, num_features or max(max_index, w)):
        return None  # for _convert_block to name the cause after its other rules
    try:
        table = np.loadtxt(text.replace(":", " ").splitlines(), comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (n_rows, 2 * w + 1) or not np.isfinite(table).all():
        return None
    labels = table[:, 0]
    if not (((0.0 <= labels) & (labels < 2.0 ** 53) & (labels == np.floor(labels))).all()
            and (table[:, 1::2] == np.arange(1, w + 1)).all()):
        return None
    return labels.astype(np.int64), np.ascontiguousarray(table[:, 2::2])


def _convert_block(lines: list[str], rows_before: int, max_index: int,
                   num_features: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Labels and dense rows of lines, by whole-block string and numpy operations.

    This is the one statement of the LIBSVM rules.  A line breaking one
    raises a ValueError that names the rule and quotes the offending token,
    or the two indices out of order, but not the line: parse_libsvm finds
    that by converting lines one at a time.  rows_before and max_index are
    the data lines and the largest index before lines[0]; num_features, when
    given, is the width every index must stay within and the width of the
    dense matrix.
    """
    parts = [p for p in map(str.split, lines) if p]
    # labels repeat from line to line, so _label runs once per distinct one
    firsts = [p[0] for p in parts]
    label_of = {token: _label(token) for token in set(firsts)}
    labels = np.fromiter(map(label_of.__getitem__, firsts), np.int64, len(firsts))
    n_rows = len(parts)
    counts = np.fromiter(map(len, parts), np.int64, n_rows) - 1
    n_tokens = int(counts.sum())
    feats = " ".join([t for p in parts for t in p[1:]])
    del parts  # the token strings go before the pieces are made
    pieces = feats.replace(":", " ").split()
    # spaces and colons alternate, colon first, when each token has one colon
    # (non-ASCII characters become "?" and are deleted with the rest); twice
    # as many pieces as tokens then means each colon has text on both sides
    colons = feats.encode("ascii", "replace").translate(None, _NOT_SPACE_OR_COLON)
    if colons != (b": " * n_tokens)[:-1] or len(pieces) != 2 * n_tokens:
        token = next(t for t in feats.split() if t.count(":") != 1 or t.strip(":") != t)
        raise ValueError(f"expected index:value, got {token!r}")
    index_tokens, value_tokens = pieces[0::2], pieces[1::2]
    # an index below 1 breaks the order rule whatever its value, so it is read
    # as 0; the largest is checked against memory before int64 must hold it
    try:
        index_of = {token: max(int(token), 0) for token in set(index_tokens)}
    except ValueError:
        raise ValueError(f"invalid index {_first_rejected(int, index_tokens)!r}") from None
    try:
        vals = np.fromiter(map(float, value_tokens), np.float64, n_tokens)
    except ValueError:
        raise ValueError(f"invalid value {_first_rejected(float, value_tokens)!r}") from None
    width = max(index_of.values(), default=0)
    if num_features and width > num_features:
        raise ValueError(f"index {width} exceeds num_features={num_features}")
    widest = num_features or max(max_index, width)
    _must_fit(f"num_features={widest}" if num_features else f"index {widest}", rows_before + n_rows, widest)
    idx = np.fromiter(map(index_of.__getitem__, index_tokens), np.int64, n_tokens)
    # each index must exceed the one before it in its row, the first one 0
    prev = np.zeros_like(idx)
    prev[1:] = idx[:-1]
    prev[(np.cumsum(counts) - counts)[counts > 0]] = 0
    if not np.all(idx > prev):
        at = np.flatnonzero(idx <= prev)[0]
        raise ValueError("indices must be 1-based and strictly increasing, "
                         f"got {int(index_tokens[at])} after {prev[at]}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"non-finite value {value_tokens[np.flatnonzero(~np.isfinite(vals))[0]]!r}")
    rows = np.zeros((n_rows, width))
    rows[np.repeat(np.arange(n_rows), counts), idx - 1] = vals
    return labels, rows


def _first_rejected(convert, tokens: list[str]) -> str:
    """The first of tokens for which convert raises ValueError."""
    for token in tokens:
        try:
            convert(token)
        except ValueError:
            return token


def _label(token: str) -> int:
    """A label token's value: a non-negative integer, written as an int or an integral float."""
    try:
        label = int(token)
    except ValueError:
        try:
            as_float = float(token)
        except ValueError:
            raise ValueError(f"invalid label {token!r}") from None
        if not as_float.is_integer():
            raise ValueError(f"label {token!r} is not an integer") from None
        label = int(as_float)
    if label < 0:
        raise ValueError(f"label {token!r} is negative")
    if label > _INT64_MAX:
        raise ValueError(f"label {token!r} does not fit in 64 bits")
    return label


def _fits(rows: int, width: int, times: float = 1) -> bool:
    """Whether times a dense rows x width 8-byte matrix fits in physical memory, exact at any size."""
    return int(rows) * int(width) * 8 <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / times


def _must_fit(cause: str, rows: int, width: int, what: str = "point matrix", times: float = 1) -> None:
    """Raise a ValueError naming cause and the size unless times a dense rows x
    width what _fits; the size named is one such matrix when even that does not."""
    if not _fits(rows, width, times):
        many = f"{times:g} times " if _fits(rows, width) else ""
        raise ValueError(f"{cause} needs {many}a dense {rows} x {width} {what}, more than this machine's memory")


def _opened(source):
    """A context giving a str source as it is and any other source as a file
    object (bytes in a BytesIO); a path's file is closed on exit, and a strict
    UTF-8 text-mode file that can tell() a plain byte offset gives its binary
    buffer from there."""
    if isinstance(source, bytes):
        return contextlib.nullcontext(io.BytesIO(source))
    if isinstance(source, str) and (_BREAKS.search(source) or not os.path.isfile(source)):
        # a string is raw content unless it points at an existing file; one
        # with a line break is content, so a long text is never encoded as a path
        return contextlib.nullcontext(source)
    if isinstance(source, (str, os.PathLike)):
        return open(source, "rb")
    if (isinstance(source, io.TextIOWrapper) and source.errors == "strict"
            and codecs.lookup(source.encoding).name == "utf-8"):
        with contextlib.suppress(OSError):
            # a cookie of 2**64 or more also carries decoder state; one that
            # cannot be told (a pipe, a file iterated by lines) raises OSError
            if (at := source.tell()) < 1 << 64:
                source.seek(at)  # drops the read-ahead the wrapper decoded
                return contextlib.nullcontext(source.buffer)
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        return contextlib.nullcontext(source)
    raise TypeError(f"unsupported source type {type(source)!r}")


# LIBSVM text is written in blocks of about this many values, so the writer's
# temporaries stay at about two megabytes whatever the size of the dataset
_WRITE_BLOCK = 2 ** 13

# a value's field of bytes: 0 the sign, 1-5 "0." and the zeros in front of the
# digits of a positional value below 1, 6-39 17 slots of a digit and the byte
# after it ("." or filler), and 40-43 "e", the exponent's sign and two digits.
# Filler bytes (\0) are deleted from the text.  repr's text, at most 24
# characters, fills a field from its start
_FIELD = 44

# the slots as little-endian uint16, digit low: row 18 k + j + 1 of _KEEP
# keeps the first k digits, and of _POINT puts "." after digit j (none at -1)
_KEEP = np.where(np.arange(17) < np.arange(18 * 18)[:, None] // 18, 0xFF, 0).astype("<u2")
_POINT = np.where(np.arange(17) == np.arange(18 * 18)[:, None] % 18 - 1, ord(".") << 8, 0).astype("<u2")
_LEAD = np.frombuffer(b"".join(b"0.000"[:k].ljust(5, b"\0") for k in range(6)), np.uint8).reshape(6, 5)
_EXPONENT = np.frombuffer(b"".join(b"e%+03d" % k for k in range(-27, 18)), np.uint8).reshape(45, 4)

# 10 ** k exactly as int64, for k <= 18
_INT10 = 10 ** np.arange(19, dtype=np.int64)

# 18-digit groups are written from these tables of ASCII digit pairs and quads
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=-1).view(np.uint32).ravel()

# the exact path covers 1e-27 <= |v| < 1e17, where the decimal exponent E is
# in [-27, 16] and the significand round(|v| 10^(17 - E)) needs 10^k for k up
# to 44: 10^k rounded, and what rounding left off, exact in a double as a
# multiple of 2^k below 2^(k + 51) (0 for k <= 22, where 10^k is exact)
_POW10 = 10.0 ** np.arange(45)
_POW10_LO = np.array([float(10 ** k - int(p)) for k, p in enumerate(_POW10.tolist())])
_SPLITTER = 2.0 ** 27 + 1


def _write_shortest(v: np.ndarray, fields: np.ndarray) -> None:
    """Write each value of v, as repr writes it, into its field of filler
    (_FIELD bytes on the last axis of fields).

    repr lays the digits out positionally when the decimal point's position
    P (the value is 0.ddd x 10^P) lies in (-4, 16], and as d.ddde+XX
    otherwise.
    """
    mag = np.abs(v).ravel()
    digits, nd, e, fast = _shortest(mag)
    point = e + 1
    positional = (point > -4) & (point <= 16)
    shown = np.where(positional, np.maximum(nd, point + 1), nd)
    dot = np.where(positional, np.maximum(point - 1, -1), np.where(nd > 1, 0, -1))
    ascii_digits = np.empty((mag.size, 20), np.uint8)
    _digits(digits, ascii_digits, 0)
    row = 18 * shown + dot + 1
    slots = ascii_digits[:, :17].astype("<u2")
    slots &= np.take(_KEEP, row, axis=0)
    slots |= np.take(_POINT, row, axis=0)
    fields[..., 6:40].view("<u2")[...] = slots.reshape(*v.shape, 17)
    lead = np.where(positional & (point <= 0), 2 - point, 0)
    fields[..., 1:6] = np.take(_LEAD, lead, axis=0).reshape(*v.shape, 5)
    fields[..., 0][np.signbit(v)] = ord("-")
    exponential = ~positional.reshape(v.shape)
    fields[exponential, 40:] = _EXPONENT[e.reshape(v.shape)[exponential] + 27]
    slow = ~fast.reshape(v.shape)
    text = "".join([repr(x).ljust(_FIELD, "\0") for x in v[slow].tolist()])
    fields[slow] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _FIELD)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(D, nd, E, fast): for each x >= 0 in fast, repr's nd <= 17 digits are
    the first nd of the 18 of D, and its first digit stands for 10^E.

    From the exact 18-digit significand M of x (_decimal), x 10^(17 - E)
    lies within 1/2 of M, and the points halfway to the neighbouring doubles
    lie W = spacing(x) / 2 10^(17 - E) away in those units, and W/2 below a
    power of two.  M rounded to p digits is c; c reads back as x when
    |c - M| + 1/2 < W on both sides, and never when |c - M| - 1/2 > W on
    both.  Both tests keep a margin for the rounding of W.  Reading back is
    monotone in p, so nd is the last p, from 17 down, that reads back; 17
    digits always do, and are rounded from x itself where M's last digit is
    5.  A value with a step neither test decides, or with a dropped-digit
    tie that could read back, is not in fast; nor is a nonzero value outside
    [1e-27, 1e17).  A zero is D = 0 with nd = 1.
    """
    m = np.zeros(x.size, np.int64)
    e = np.zeros(x.size, np.int64)
    exact = (x >= 1e-27) & (x < 1e17)
    at = np.flatnonzero(exact)
    m[at], e[at] = _decimal(x[at])
    w = np.spacing(x[at]) * _POW10[17 - e[at]]
    below = np.where(x[at].view(np.int64) & ((1 << 52) - 1), 0.5, 0.25)
    lo, hi = below * (1.0 - 2.0 ** -40) * w, 0.5 * (1.0 + 2.0 ** -40) * w
    nd = np.ones(x.size, np.int64)
    nd[at] = 17
    undecided = np.zeros(x.size, bool)
    m_at = m[at]
    for k in range(2, 18):
        # the step p = 18 - k drops the last k digits of M
        r = m_at % _INT10[k]
        dist = np.minimum(r, _INT10[k] - r)
        reads = (dist + 0.5 < lo) & (r != _INT10[k] // 2)
        undecided[at[~reads & (dist - 0.5 <= hi)]] = True
        at, m_at, lo, hi = at[reads], m_at[reads], lo[reads], hi[reads]
        if not at.size:
            break
        nd[at] = 18 - k
    unit = _INT10[18 - nd]
    q, r = np.divmod(m, unit)
    c = q + (r > unit // 2)
    five = np.flatnonzero(exact & (nd == 17) & (r == 5))
    c[five] = _significands(x[five], 16 - e[five])
    digits = c * unit
    # rounded up to 10^p: one digit, one place up
    carry = digits == 10 ** 18
    digits[carry], nd[carry] = 10 ** 17, 1
    e[carry] += 1
    return digits, nd, e, (exact & ~undecided) | (x == 0.0)


def _digits(m: np.ndarray, rec: np.ndarray, at: int) -> None:
    """Write each m < 10^18 as 18 ASCII digits into its row of rec, at
    columns at to at + 17; at and rec's width are multiples of 4."""
    # mode="clip" lets np.take write straight into a strided column instead
    # of through a buffer
    quads, pairs = rec.view(np.uint32), rec.view(np.uint16)
    q = m // 100
    np.take(_PAIRS, m - 100 * q, out=pairs[:, at // 2 + 8], mode="clip")
    for col, part in ((at // 4, q // 10 ** 8), (at // 4 + 2, q % 10 ** 8)):
        high = part // 10 ** 4
        np.take(_QUADS, high, out=quads[:, col], mode="clip")
        np.take(_QUADS, part - 10 ** 4 * high, out=quads[:, col + 1], mode="clip")


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, E) with x ~ M 10^(E - 17) as "%.17e" rounds it, for 1e-27 <= x < 1e17.

    E starts from np.log10, which can miss by one next to a power of ten,
    and the exact significand shows the miss: M >= 10^18 means E is one too
    low, M < 10^17 one too high.  M = 10^17 can also be x 10^(17 - E) rounded
    up from below 10^17, as for 1e-14, which lies below 10^-14 and prints as
    9.99999999999999999e-15; so E is tried one lower there too, and kept
    where the significand stays below 10^18.
    """
    e = np.clip(np.floor(np.log10(x)), -27, 16).astype(np.int64)
    m = _significands(x, 17 - e)
    for shift, moved in ((1, m >= 10 ** 18), (-1, m <= 10 ** 17)):
        i = np.flatnonzero(moved)
        if i.size:
            m_i = _significands(x[i], 17 - e[i] - shift)
            keep = m_i < 10 ** 18
            m[i[keep]], e[i[keep]] = m_i[keep], e[i[keep]] + shift
    return m, e


def _significands(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round_half_even(x 10^k) for 0 <= k <= 44 where that is in [1e16, 2^63), exactly.

    10^k is _POW10[k] + _POW10_LO[k], and for the Dekker product (h, l) =
    x _POW10[k], h is at least 2^53, so an even integer.  For k <= 22, where
    10^k is exact, the result is h + rint(l), as np.rint rounds half to even.
    For k > 22 the tail l + x _POW10_LO[k] is summed exactly into the
    nonoverlapping expansion g0 + g1 + g2 (Knuth's two-sum grown as in
    Shewchuk 1997).  The tail is below 2^11, so g0 + g1 lies below both
    2^-40 and the lowest bit of g2, and rint(g2) rounds the tail too, except
    where g2 lies halfway, at the even r = rint(g2) +- 1/2: the sign of
    g0 + g1 then decides.
    """
    h, l = _two_product(x, k, _POW10_PARTS)
    m = h.astype(np.int64)
    m += np.rint(l).astype(np.int64)
    far = np.flatnonzero(k > 22)
    if far.size:
        h3, l3 = _two_product(x[far], k[far], _POW10_LO_PARTS)
        q, g0 = _two_sum(h3, l[far])
        q2, g0 = _two_sum(l3, g0)
        g2, g1 = _two_sum(q2, q)
        r = np.rint(g2)
        lower = g1 + g0
        m[far] = (h[far].astype(np.int64) + r.astype(np.int64)
                  + ((g2 - r == 0.5) & (lower > 0.0)) - ((g2 - r == -0.5) & (lower < 0.0)))
    return m


def _two_product(a: np.ndarray, k: np.ndarray, table: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(h, l) with h = fl(a b) and h + l = a b exactly (Dekker 1971), for b =
    table[0][k], split in advance into table[1][k] + table[2][k]."""
    b, b_hi, b_lo = table
    h = a * b[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = b_hi[k], b_lo[k]
    # ((a_hi b_hi - h) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, in place
    l = a_hi * b_hi
    l -= h
    a_hi *= b_lo
    l += a_hi
    b_hi *= a_lo
    l += b_hi
    b_lo *= a_lo
    l += b_lo
    return h, l


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into two halves of at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


_POW10_PARTS = (_POW10, *_split(_POW10))
_POW10_LO_PARTS = (_POW10_LO, *_split(_POW10_LO))
