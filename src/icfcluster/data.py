"""Dataset container, LIBSVM text format I/O, and synthetic 2-d generators.

The LIBSVM format is line oriented: ``<label> <index>:<value> ...`` with
1-based, strictly increasing indices per line.  Absent indices are zeros.
Rows are materialized densely; sparse storage is out of scope here because
every downstream consumer works on dense feature rows.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_SYNTH_KINDS = ("ring", "parabolic", "zigzag")


class ParseError(ValueError):
    """Raised for malformed LIBSVM input, with a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(eq=False)
class Dataset:
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
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (pts.shape[0],):
                raise ValueError(f"labels shape {lab.shape} does not match n={pts.shape[0]}")
            if not np.issubdtype(lab.dtype, np.integer):
                raise ValueError("labels must be integers")
            if lab.min() < 0:
                raise ValueError("labels must be non-negative")
            lab = lab.astype(np.int64)
            lab.flags.writeable = False
            object.__setattr__(self, "labels", lab)

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
        XT.flags.writeable = sq.flags.writeable = False
        return XT, sq


def parse_libsvm(source, num_features: int | None = None, name: str = "") -> Dataset:
    """Parse LIBSVM text into a Dataset.

    Args:
        source: str, bytes, file-like object, or path to a file.  Bytes are
            decoded as UTF-8; both LF and CRLF line endings are accepted.
        num_features: optional fixed width; defaults to the largest index seen.
        name: dataset name to attach.

    Raises:
        ParseError: on any malformed line, reporting its 1-based number.
    """
    text = _read_text(source)
    rows: list[dict[int, float]] = []
    labels: list[int] = []
    max_index = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        labels.append(_parse_label(parts[0], line_no))
        feats: dict[int, float] = {}
        prev = 0
        for tok in parts[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(line_no, f"expected index:value, got {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(line_no, f"invalid index:value pair {tok!r}") from None
            if idx <= prev:
                raise ParseError(line_no, f"indices must be 1-based and strictly increasing, got {idx} after {prev}")
            if not np.isfinite(val):
                raise ParseError(line_no, f"non-finite value {val_s!r}")
            feats[idx] = val
            prev = idx
        max_index = max(max_index, prev)
        rows.append(feats)
    if not rows:
        raise ParseError(0, "no data lines")
    width = num_features if num_features is not None else max_index
    if width < 1:
        raise ParseError(0, "no feature indices present and num_features not given")
    if max_index > width:
        raise ValueError(f"index {max_index} exceeds num_features={width}")
    points = np.zeros((len(rows), width))
    for i, feats in enumerate(rows):
        for idx, val in feats.items():
            points[i, idx - 1] = val
    return Dataset(points, np.array(labels, dtype=np.int64), name=name)


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


def _parse_label(token: str, line_no: int) -> int:
    try:
        label = int(token)
    except ValueError:
        try:
            as_float = float(token)
        except ValueError:
            raise ParseError(line_no, f"invalid label {token!r}") from None
        if not as_float.is_integer():
            raise ParseError(line_no, f"label {token!r} is not an integer") from None
        label = int(as_float)
    if label < 0:
        raise ParseError(line_no, f"label {label} is negative")
    return label


def _read_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        # a string is raw content unless it points at an existing file
        if "\n" not in source and os.path.isfile(source):
            with open(source, "r", encoding="utf-8") as f:
                return f.read()
        return source
    if isinstance(source, os.PathLike):
        with open(source, "r", encoding="utf-8") as f:
            return f.read()
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    raise TypeError(f"unsupported source type {type(source)!r}")
