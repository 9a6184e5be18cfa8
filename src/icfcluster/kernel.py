"""Kernel evaluation: single entries, Gram columns one at a time or in blocks.

The Gaussian family k(x, y) = exp(-sigma * ||x - y||^2) is the workhorse; a
linear family k(x, y) = x.y is included so that matrices with a prescribed
spectrum (K = X X^T) can be pushed through the same interface.  One code
path evaluates a block of columns; a single column is the block of one, so a
column has the same bits however it is asked for.  full_gram is guarded
because an n x n matrix defeats the point of the factored pipeline.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import _BLOCK_ENTRIES, Dataset, _must_fit

DEFAULT_GUARD = 5000


@dataclass(frozen=True)
class KernelSpec:
    """Tagged kernel family; sigma is required for the Gaussian family."""

    family: str = "gaussian"
    sigma: float | None = None

    def __post_init__(self):
        if self.family == "gaussian":
            if self.sigma is None or not np.isfinite(self.sigma) or self.sigma <= 0:
                raise ValueError(f"gaussian kernel needs sigma > 0, got {self.sigma}")
        elif self.family != "linear":
            raise ValueError(f"unknown kernel family {self.family!r}")


def kernel_eval(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate k(x, y) for two single points."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if spec.family == "gaussian":
        diff = x - y
        return float(np.exp(-spec.sigma * np.dot(diff, diff)))
    return float(np.dot(x, y))


def kernel_column(spec: KernelSpec, dataset: Dataset, t: int) -> np.ndarray:
    """Column t of the Gram matrix: k(x_i, x_t) for every i.

    The one-column block of kernel_columns, so the two agree bit for bit.
    """
    return kernel_columns(spec, dataset, [t])[:, 0]


def kernel_columns(spec: KernelSpec, dataset: Dataset, cols: Sequence[int] | np.ndarray) -> np.ndarray:
    """Gram columns cols, in order, as an n x len(cols) array.

    Gaussian: ||x_i||^2 + ||x_t||^2 - 2 x_i.x_t about the points' mean (cached
    per dataset) so it does not cancel far from the origin, clamped at 0 and
    pinned to 0 at (cols[j], j), so the entry there is exactly 1.0.  Linear:
    x_i.x_t on the raw points; that kernel is not translation-invariant.
    einsum sums both in a fixed order, whatever the block: entry (i, t) has
    the bits of entry (t, i).  Indices may repeat and come in any order; one
    outside [0, n) raises ValueError rather than wrapping.
    """
    n = dataset.n
    cols = np.asarray(cols)
    outside = cols[(cols < 0) | (cols >= n)]
    if outside.size:
        raise ValueError(f"index {outside[0]} out of range for n={n}")
    if spec.family != "gaussian":
        X = dataset.points
        return np.einsum("ij,bj->ib", X, X[cols])
    XT, sq = dataset._centered
    d2 = sq[:, None] + sq[cols]
    d2 += np.einsum("ji,jb->ib", XT, -2.0 * XT[:, cols])
    np.maximum(d2, 0.0, out=d2)
    d2[cols, np.arange(cols.size)] = 0.0
    with np.errstate(over="ignore"):  # -inf is the limit, and exp gives 0
        d2 *= -spec.sigma
    return np.exp(d2, out=d2)


def kernel_diag(spec: KernelSpec, dataset: Dataset) -> np.ndarray:
    """Diagonal of the Gram matrix; all ones for the Gaussian family."""
    if spec.family == "gaussian":
        return np.ones(dataset.n)
    X = dataset.points
    return np.einsum("ij,ij->i", X, X)


def full_gram(spec: KernelSpec, dataset: Dataset, guard: int = DEFAULT_GUARD) -> np.ndarray:
    """Materialize the full n x n Gram matrix.

    Refuses when n exceeds the guard; pass a larger guard explicitly to
    acknowledge the O(n^2) memory cost.  Filled by kernel_columns in blocks
    of at most _BLOCK_ENTRIES entries, so for both families the result is
    exactly symmetric and each column has the bits of the single-column query.
    """
    n = dataset.n
    _must_fit_square(n, guard)
    K = np.empty((n, n))
    step = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        K[:, lo:lo + step] = kernel_columns(spec, dataset, range(lo, min(lo + step, n)))
    return K


def _must_fit_square(n: int, guard: int, times: float = 1, name: str = "full Gram matrix",
                     what: str = "Gram matrix") -> None:
    """Raise the ValueError refusing times a dense n x n what: n above the guard, or beyond memory."""
    if n > guard:
        raise ValueError(f"{name} refused: n={n} exceeds guard={guard}")
    _must_fit(f"{name} refused: n={n} with guard={guard}", n, n, what, times)
