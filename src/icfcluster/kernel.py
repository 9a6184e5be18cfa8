"""Kernel evaluation without ever forming more than one Gram column at a time.

The Gaussian family k(x, y) = exp(-sigma * ||x - y||^2) is the workhorse; a
linear family k(x, y) = x.y is included so that matrices with a prescribed
spectrum (K = X X^T) can be pushed through the same interface.  full_gram is
guarded because an n x n matrix defeats the point of the factored pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

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

    Gaussian: ||x_i||^2 + ||x_t||^2 - 2 x_i.x_t about the points' mean (cached
    per dataset) so it does not cancel far from the origin, clamped at 0 and
    pinned to 0 at t, so the entry there is exactly 1.0.  Linear: x_i.x_t on
    the raw points; that kernel is not translation-invariant.  einsum sums
    both in a fixed order: entry (i, t) has the bits of entry (t, i).
    """
    n = dataset.n
    if not 0 <= t < n:
        raise ValueError(f"index {t} out of range for n={n}")
    if spec.family != "gaussian":
        X = dataset.points
        return np.einsum("ij,j->i", X, X[t])
    XT, sq = dataset._centered
    d2 = sq + sq[t]
    d2 += np.einsum("ji,j->i", XT, -2.0 * XT[:, t])
    np.maximum(d2, 0.0, out=d2)
    d2[t] = 0.0
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
    acknowledge the O(n^2) memory cost.  Built column by column from
    kernel_column, so for both families the result is exactly symmetric and
    each column has the bits of the single-column query.
    """
    n = dataset.n
    if n > guard:
        raise ValueError(f"full Gram matrix refused: n={n} exceeds guard={guard}")
    K = np.empty((n, n))
    for t in range(n):
        K[:, t] = kernel_column(spec, dataset, t)
    return K
