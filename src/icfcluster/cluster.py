"""Lloyd k-means over embedding rows and the kernel k-means entry points.

Kernel k-means on K is run as ordinary k-means on rows of a factor whose
Gram matrix is (approximately) K: rows of the incomplete Cholesky factor P
for the cheap path, or rows of U sqrt(D) from a full eigendecomposition for
the exact oracle.  Both paths share the same seeded k-means++ / Lloyd code so
results are comparable across embeddings that agree on pairwise distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .icf import icf_factorize
from .kernel import DEFAULT_GUARD, KernelSpec, full_gram

# relative spectral cutoff: eigenvalues below this times the largest are
# treated as zero when embedding a PSD matrix
EIG_CLAMP = 1e-12

# entries per block of the difference passes in _sq_dists (512 KB)
_BLOCK_SIZE = 1 << 16


@dataclass(eq=False)
class ClusterModel:
    """A clustering: per-point assignments plus the centers that induced them.

    objective is the mean squared distance of points to their centers, which
    for an embedding with Gram matrix K equals the kernel k-means objective.
    """

    assignments: np.ndarray
    centers: np.ndarray
    objective: float
    iterations: int
    converged: bool

    def __post_init__(self):
        a = np.array(self.assignments, dtype=np.int64)
        a.flags.writeable = False
        object.__setattr__(self, "assignments", a)
        c = np.array(self.centers, dtype=np.float64)
        c.flags.writeable = False
        object.__setattr__(self, "centers", c)

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def kmeans_pp_init(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Choose k distinct rows as initial centers by D^2 weighting.

    The first center is uniform; each later one is drawn with probability
    proportional to squared distance from the nearest chosen center.  When
    every remaining point coincides with a chosen center the draw falls back
    to uniform over the unchosen indices.  Points are read in place, in any
    memory layout (a factor's P is column-major); the draws do not depend on
    the layout.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(points, points[chosen[0]])
    for _ in range(1, k):
        d2[chosen] = 0.0
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(n), chosen)
            idx = int(rng.choice(remaining))
        chosen.append(idx)
        np.minimum(d2, _sq_dists(points, points[idx]), out=d2)
    return points[chosen].copy()


def lloyd(points: np.ndarray, k: int, seed: int, max_iter: int = 1000, tol: float = 1e-6) -> ClusterModel:
    """Standard Lloyd iteration with k-means++ start and empty-cluster repair.

    Converges on an assignment fixpoint or when the relative objective change
    drops below tol; the per-iteration objective never increases.  An emptied
    cluster is reseeded to the point farthest from its previous center (drawn
    from clusters that can spare a member), so returned assignments always
    cover all k ids.

    Points are used in column-major order: a factor's P is read in place,
    other layouts are copied once, so results do not depend on the layout
    (BLAS sums in a layout-dependent order).  An iteration is two n s k
    matrix products: the assignment and the center sums as a k x n one-hot
    matrix times the points.  Both the assignment and the tol test work about
    the mean m of the points, so their rounding error scales with the points'
    spread, not with their distance from the origin: a point goes to
    argmin_j ||c_j - m||^2 - 2 (c_j - m).p + 2 (c_j - m).m, which is
    ||p - c_j||^2 - ||p - m||^2, and the tol test uses the objective
    (sum ||p - m||^2 - sum_j n_j ||c_j - m||^2) / n.  The returned objective
    is the direct mean squared distance, so an exact fit gives exactly 0.
    """
    points = np.asfortranarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    centers = kmeans_pp_init(points, k, seed)
    mean = points.mean(axis=0)
    spread = float(_sq_dists(points, mean).sum())
    assign = None
    prev_obj = np.inf
    converged = False
    iterations = 0
    for _ in range(max_iter):
        offsets = centers - mean
        scores = (-2.0 * offsets) @ points.T
        scores += (np.einsum("ij,ij->i", offsets, offsets) + 2.0 * (offsets @ mean))[:, None]
        new_assign = _repair_empty(points, centers, np.argmin(scores, axis=0), k)
        if assign is not None and np.array_equal(new_assign, assign):
            converged = True
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        centers = (_one_hot(assign, k) @ points) / counts[:, None]
        iterations += 1
        obj = max(spread - float(counts @ _sq_dists(centers, mean)), 0.0) / n
        if np.isfinite(prev_obj) and prev_obj - obj <= tol * prev_obj:
            converged = True
            break
        prev_obj = obj
    objective = float(_sq_dists(points, centers, assign).sum()) / n
    return ClusterModel(assign, centers, objective, iterations, converged)


def icf_kkmeans(dataset: Dataset, spec: KernelSpec, subset_size: int, k: int, seed: int,
                epsilon: float = 1e-3, max_iter: int = 1000, tol: float = 1e-6) -> ClusterModel:
    """Kernel k-means via incomplete Cholesky: factorize, then cluster rows of P.

    subset_size caps the factor rank; the achieved rank (centers.shape[1]) can
    be smaller when the residual trace hits epsilon first.
    """
    factor = icf_factorize(dataset, spec, max_rank=subset_size, epsilon=epsilon)
    return lloyd(factor.P, k, seed, max_iter=max_iter, tol=tol)


def kernel_kmeans_oracle(dataset: Dataset, spec: KernelSpec, k: int, seed: int,
                         max_iter: int = 1000, tol: float = 1e-6,
                         guard: int = DEFAULT_GUARD) -> ClusterModel:
    """Exact kernel k-means on the full Gram matrix (guarded; for reference).

    Embeds points as rows of U sqrt(D) from the eigendecomposition of K, with
    eigenvalues below EIG_CLAMP times the largest clamped to zero, then runs
    the same Lloyd code as the factored path.
    """
    embed = oracle_embedding(dataset, spec, guard=guard)
    return lloyd(embed, k, seed, max_iter=max_iter, tol=tol)


def oracle_embedding(dataset: Dataset, spec: KernelSpec, guard: int = DEFAULT_GUARD) -> np.ndarray:
    """Exact n x n embedding of the full Gram matrix (guarded)."""
    return psd_embedding(full_gram(spec, dataset, guard=guard))


def psd_embedding(K: np.ndarray) -> np.ndarray:
    """Rows of U sqrt(D) for a symmetric PSD matrix, small eigenvalues zeroed."""
    w, U = _clamped_eigh(K)
    return U * np.sqrt(w)


def _clamped_eigh(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a symmetric matrix, eigenvalues <= EIG_CLAMP times the largest set to 0."""
    w, U = np.linalg.eigh(K)
    w[w <= EIG_CLAMP * max(float(w[-1]), 0.0)] = 0.0
    return w, U


def _one_hot(assign: np.ndarray, k: int) -> np.ndarray:
    """k x n float indicator: row j is 1 where assign == j.  Multiplying a
    matrix by it sums the matrix's rows per cluster."""
    return (np.arange(k)[:, None] == assign).astype(np.float64)


def _sq_dists(points: np.ndarray, centers: np.ndarray, assign: np.ndarray | None = None) -> np.ndarray:
    """Squared distance of each row to one center, or of row i to centers[assign[i]].

    Differences are formed in s x b blocks of _BLOCK_SIZE entries and summed
    over s in column order: no n x s temporary, a column-major P is read as
    it lies, and the result has the same bits for any memory layout.
    """
    n, s = points.shape
    rows = max(1, _BLOCK_SIZE // max(s, 1))
    out = np.empty(n)
    buf = np.empty((s, min(n, rows)))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        diff = buf[:, : hi - lo]
        ref = centers[:, None] if assign is None else np.take(centers.T, assign[lo:hi], axis=1, out=diff)
        np.subtract(points[lo:hi].T, ref, out=diff)
        np.einsum("ij,ij->j", diff, diff, out=out[lo:hi])
    return out


def _repair_empty(points: np.ndarray, centers: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Give every empty cluster the farthest point it can steal.

    Donor points must come from clusters of size >= 2 so repairs never empty
    another cluster; with k <= n such a donor always exists.
    """
    counts = np.bincount(assign, minlength=k)
    if np.all(counts > 0):
        return assign
    assign = assign.copy()
    for j in np.flatnonzero(counts == 0):
        donors = np.flatnonzero(counts[assign] >= 2)
        far = donors[int(np.argmax(_sq_dists(points, centers[j])[donors]))]
        counts[assign[far]] -= 1
        assign[far] = j
        counts[j] = 1
    return assign
