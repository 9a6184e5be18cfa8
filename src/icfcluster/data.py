"""Dataset container, LIBSVM text format I/O, and synthetic 2-d generators.

The LIBSVM format is line oriented: ``<label> <index>:<value> ...`` with
1-based, strictly increasing indices per line.  Absent indices are zeros.
Rows are materialized densely; sparse storage is out of scope here because
every downstream consumer works on dense feature rows.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import os
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

_SYNTH_KINDS = ("ring", "parabolic", "zigzag")

# LIBSVM text is converted one block of about this many characters at a time,
# so a block's token lists, not the whole text's, sit beside the rows read
_BLOCK_CHARS = 1 << 17

# every byte but the space and the colon, deleted to leave the order in which
# those two occur
_NOT_SPACE_OR_COLON = bytes(sorted(set(range(256)) - set(b" :")))

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
            object.__setattr__(self, "labels", _read_only(lab, np.int64))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @cached_property
    def _centered(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only points minus their mean, feature-major (d x n), and their squared norms."""
        XT = np.ascontiguousarray((self.points - self.points.mean(axis=0)).T)
        sq = np.einsum("ji,ji->i", XT, XT)
        return _read_only(XT, np.float64, copy=False), _read_only(sq, np.float64, copy=False)


def parse_libsvm(source, num_features: int | None = None, name: str = "") -> Dataset:
    """Parse LIBSVM text into a Dataset.

    The text is read in blocks of about 128 KB, each cut just after a newline:
    a str is sliced in place, and any other source is read a block at a time.
    A block is converted by a few whole-block string and numpy operations.
    When that conversion fails, the same conversion runs on the block's
    lines one at a time, and the first line that fails alone is reported.
    Dense and sparse rows take the same path, and indices and values keep
    Python's int and float syntax.

    Args:
        source: str, bytes, file-like object, or path to a file.  Bytes, and
            the bytes of a path or a binary file, are decoded as UTF-8 one
            block at a time.  A text-mode UTF-8 file decodes inside its own
            read; on a byte that is not UTF-8 the parse starts again on its
            bytes, from where it first began, to name the line.  Where they
            cannot be read again (a pipe, a file already iterated by lines,
            or a wrapper of another encoding) the error names the first line
            of the block whose read failed.  Lines, and so line numbers, are
            those of str.splitlines: a line ends at LF, CRLF, a bare CR, \\x0b,
            \\x0c, \\x1c-\\x1e, \\x85, \\u2028 or \\u2029.
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
        at = _byte_position(text)
        try:
            for block in _blocks(text):
                if isinstance(block, bytes):
                    block = _decoded(block, lines_before)
                pending = [block.splitlines()]
                while pending:
                    lines = pending.pop()
                    try:
                        labels, rows = _convert_block(lines, n, max_index, num_features)
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
            if at is None:
                raise ParseError(lines_before + 1, f"byte {exc.object[exc.start]:#04x} is not {exc.encoding} "
                                 f"({exc.reason}) on this line or a later one; a file opened in "
                                 "binary mode gets its line named") from None
            # parse the same bytes again undecoded, so _decoded names the line
            del label_blocks, row_blocks
            text.buffer.seek(at)
            return parse_libsvm(text.buffer, num_features, name)
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

    Values use repr, which round-trips float64 exactly, so
    parse_libsvm(to_libsvm(ds)) reproduces the points bit for bit.  Each row
    is formatted by one precomputed template, one row at a time.
    """
    if dataset.labels is None:
        raise ValueError("serialization requires labels")
    template = "%d " + " ".join(f"{j}:%r" for j in range(1, dataset.d + 1)) + "\n"
    return "".join(template % (label, *row.tolist())
                   for label, row in zip(dataset.labels.tolist(), dataset.points))


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
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
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

    Constant features are left centred but unscaled.
    """
    mean = dataset.points.mean(axis=0)
    std = dataset.points.std(axis=0)
    std[std == 0.0] = 1.0
    return Dataset((dataset.points - mean) / std, dataset.labels, name=dataset.name)


def _triangle_wave(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear wave with period 1, range [0, 0.5], slopes ±1."""
    return 0.5 - np.abs(np.mod(x, 1.0) - 0.5)


def _blocks(text):
    """Yield a str or a file's contents in pieces of about _BLOCK_CHARS
    characters or bytes, each cut just after a newline.  A file object is read
    one piece at a time; a binary file's pieces are bytes, which a cut at a
    newline leaves whole UTF-8, and a text-mode file's are str, decoded
    inside its own read."""
    if isinstance(text, str):
        start = 0
        while start < len(text):
            end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
            yield text[start:end]
            start = end
        return
    while block := text.read(_BLOCK_CHARS):
        yield block + text.readline()


def _byte_position(text) -> int | None:
    """The byte offset of the next character of a UTF-8 text-mode file, or
    None where its bytes cannot be read again from there: a str, any other
    file object, one that cannot seek (a pipe), or one iterated by lines."""
    if not isinstance(text, io.TextIOWrapper) or codecs.lookup(text.encoding).name != "utf-8":
        return None
    try:
        at = text.tell()
    except OSError:
        return None
    # a larger cookie also carries decoder state and is no plain offset
    return at if at < 1 << 64 else None


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
    total_rows, widest = rows_before + n_rows, num_features or max(max_index, width)
    if not _fits_in_memory(total_rows, widest):
        cause = f"num_features={widest}" if num_features else f"index {widest}"
        raise ValueError(f"{cause} needs a dense {total_rows} x {widest} point matrix "
                         f"of {total_rows * widest * 8 / 1e9:.3g} GB, more than this machine's memory")
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


def _fits_in_memory(rows: int, width: int) -> bool:
    """Whether a dense rows x width float64 matrix fits in the machine's physical memory."""
    return rows * width * 8 <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _opened(source):
    """A context giving a str source as it is and any other source as a file
    object (bytes in a BytesIO); a path's file is closed on exit."""
    if isinstance(source, bytes):
        return contextlib.nullcontext(io.BytesIO(source))
    if isinstance(source, str) and ("\n" in source or not os.path.isfile(source)):
        # a string is raw content unless it points at an existing file
        return contextlib.nullcontext(source)
    if isinstance(source, (str, os.PathLike)):
        return open(source, "rb")
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        return contextlib.nullcontext(source)
    raise TypeError(f"unsupported source type {type(source)!r}")
