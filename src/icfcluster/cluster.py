"""Lloyd k-means over embedding rows and the kernel k-means entry points.

Kernel k-means on K is run as ordinary k-means on rows of a factor whose
Gram matrix is (approximately) K: rows of the incomplete Cholesky factor P
for the cheap path, or rows of U sqrt(D) from a full eigendecomposition for
the exact oracle.  Both paths share the same seeded k-means++ / Lloyd code so
results are comparable across embeddings that agree on pairwise distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _read_only, _ValueType
from .icf import icf_factorize
from .kernel import DEFAULT_GUARD, KernelSpec, full_gram

# relative spectral cutoff: eigenvalues below this times the largest are
# treated as zero when embedding a PSD matrix
EIG_CLAMP = 1e-12

# Lloyd stops after an iteration that lowers its objective by at most this
# fraction of it
TOL = 1e-6

# entries per block of the difference passes in _sq_dists and of the moved
# points gathered by _add_moves (512 KB)
_BLOCK_SIZE = 1 << 16


@dataclass(eq=False)
class ClusterModel(_ValueType):
    """A clustering: per-point assignments plus the centers that induced them.

    objective is the mean squared distance of points to their centers, which
    for an embedding with Gram matrix K equals the kernel k-means objective.
    lloyd also records, per iteration, the objective its TOL test used
    (objective_history) and how many points changed cluster before that
    iteration's center update (moved_history; the first entry is n, as
    every point is placed).  Both have length iterations and default to
    empty; all arrays are read-only.
    """

    assignments: np.ndarray
    centers: np.ndarray
    objective: float
    iterations: int
    converged: bool
    objective_history: np.ndarray = field(default_factory=lambda: np.empty(0))
    moved_history: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        for name, dtype in (("assignments", np.int64), ("centers", np.float64),
                            ("objective_history", np.float64), ("moved_history", np.int64)):
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def kmeans_pp_init(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Choose k distinct rows as initial centers by D^2 weighting.

    The first center is uniform; each later one is drawn with probability
    proportional to squared distance from the nearest chosen center.  When
    every remaining point coincides with a chosen center the draw falls back
    to uniform over the unchosen indices.  Each chosen center c costs one
    n x s matrix-vector product about the points' mean m,
    ||p - m||^2 + ||c - m||^2 - 2 (c - m).(p - m); values within its rounding
    bound of 0 are recomputed by differences, so each is >= 0 and a duplicate
    of a chosen center gets exactly 0.  The input is read as lloyd reads it.
    """
    points, mean, spread, near = _prepared(points, k)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    for _ in range(1, k):
        i = chosen[-1]
        offset = points[i] - mean
        dists = points @ (-2.0 * offset)
        dists += spread + (spread[i] + 2.0 * float(offset @ mean))
        redo = np.flatnonzero(dists <= near)
        dists[redo] = _sq_dists(points[redo], points[i])
        np.minimum(d2, dists, out=d2)
        d2[chosen] = 0.0
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.choice(np.setdiff1d(np.arange(n), chosen)))
        chosen.append(idx)
    return points[chosen].copy()


def lloyd(points: np.ndarray, k: int, seed: int, max_iter: int = 1000) -> ClusterModel:
    """Standard Lloyd iteration with k-means++ start and empty-cluster repair.

    Converges on an assignment fixpoint, or after an iteration that lowers
    the objective by at most TOL of it; the per-iteration objective never
    increases (a rise by rounding is recorded as no change).  An emptied
    cluster is reseeded to the point farthest from its previous center
    (drawn from clusters that can spare a member), so returned assignments
    always cover all k ids.

    Points are used in column-major order: a factor's P is read in place,
    other layouts are copied once, so results do not depend on the layout
    (BLAS sums in a layout-dependent order).  An iteration is one n s k
    matrix product for the assignment plus an O(moved s k) update of the
    center sums from the points whose cluster changed: arrivals added,
    departures subtracted, both about the mean, so the update's rounding
    does not grow with the points' offset.  The first iteration's sums are
    a k x n one-hot matrix times the points and are kept apart from the
    updates, so a cluster no point has entered or left keeps them exactly;
    the centers are always the sums over the counts.  Both the assignment
    and the TOL test work about the mean m of the points, so their rounding
    error scales with the points' spread, not with their distance from the
    origin: a point goes to
    argmin_j ||c_j - m||^2 - 2 (c_j - m).p + 2 (c_j - m).m, which is
    ||p - c_j||^2 - ||p - m||^2, and the TOL test uses the objective
    (sum ||p - m||^2 - sum_j n_j ||c_j - m||^2) / n.  The returned objective
    is the direct mean squared distance, so an exact fit gives exactly 0.
    """
    points, mean, spread, _ = _prepared(points, k)
    n = points.shape[0]
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    centers = kmeans_pp_init(points, k, seed)
    spread = float(spread.sum())
    offsets = centers - mean
    norms = np.einsum("ij,ij->i", offsets, offsets)
    assign = None
    objectives, moves = [], []
    converged = False
    for _ in range(max_iter):
        scores = (-2.0 * offsets) @ points.T
        scores += (norms + 2.0 * (offsets @ mean))[:, None]
        new_assign = _repair_empty(points, centers, _lowest_rows(scores), k)
        counts = np.bincount(new_assign, minlength=k)
        if assign is None:
            moved = n
            first, first_counts = _one_hot(new_assign, k) @ points, counts
            shift = np.zeros_like(first)
        else:
            changed = np.flatnonzero(new_assign != assign)
            moved = changed.size
            if not moved:
                converged = True
                break
            _add_moves(shift, points, mean, changed, assign, new_assign)
        assign = new_assign
        centers = (first + (shift + (counts - first_counts)[:, None] * mean)) / counts[:, None]
        offsets = centers - mean
        norms = np.einsum("ij,ij->i", offsets, offsets)
        # exact Lloyd, repair included, never raises the objective: a rise is rounding
        obj = min([max(spread - float(counts @ norms), 0.0) / n, *objectives[-1:]])
        objectives.append(obj)
        moves.append(moved)
        if len(objectives) > 1 and objectives[-2] - obj <= TOL * objectives[-2]:
            converged = True
            break
    objective = float(_sq_dists(points, centers, assign).sum()) / n
    return ClusterModel(assign, centers, objective, len(objectives), converged,
                        np.array(objectives), np.array(moves, dtype=np.int64))


def icf_kkmeans(dataset: Dataset, spec: KernelSpec, subset_size: int, k: int, seed: int,
                epsilon: float = 1e-3, max_iter: int = 1000) -> ClusterModel:
    """Kernel k-means via incomplete Cholesky: factorize, then cluster rows of P.

    subset_size caps the factor rank; the achieved rank (centers.shape[1]) can
    be smaller when the residual trace hits epsilon first.
    """
    factor = icf_factorize(dataset, spec, max_rank=subset_size, epsilon=epsilon)
    return lloyd(factor.P, k, seed, max_iter=max_iter)


def kernel_kmeans_oracle(dataset: Dataset, spec: KernelSpec, k: int, seed: int,
                         max_iter: int = 1000, guard: int = DEFAULT_GUARD) -> ClusterModel:
    """Exact kernel k-means on the full Gram matrix (guarded; for reference).

    Embeds points as rows of U sqrt(D) from the eigendecomposition of K, with
    eigenvalues below EIG_CLAMP times the largest clamped to zero, then runs
    the same Lloyd code as the factored path.
    """
    embed = oracle_embedding(dataset, spec, guard=guard)
    return lloyd(embed, k, seed, max_iter=max_iter)


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


def _lowest_rows(scores: np.ndarray) -> np.ndarray:
    """np.argmin(scores, axis=0) for a C-order k x n array, by one min over
    the rows and k row-wise equality passes, which run faster.

    The passes go from the last row to the first, so the lowest row wins a
    tie, as in argmin.  A column no row equals the minimum of (one holding a
    NaN) keeps 0, so every id lies in [0, k).
    """
    lowest = scores.min(axis=0)
    out = np.zeros(scores.shape[1], dtype=np.intp)
    for j in range(scores.shape[0] - 1, -1, -1):
        np.putmask(out, scores[j] == lowest, j)
    return out


def _one_hot(assign: np.ndarray, k: int) -> np.ndarray:
    """k x n float indicator: row j is 1 where assign == j.  Multiplying a
    matrix by it sums the matrix's rows per cluster."""
    return (np.arange(k)[:, None] == assign).astype(np.float64)


def _add_moves(shift: np.ndarray, points: np.ndarray, mean: np.ndarray, changed: np.ndarray,
               old: np.ndarray, new: np.ndarray) -> None:
    """Add the points changed (indices) to shift[new] and subtract them from
    shift[old], about the mean, gathering at most _BLOCK_SIZE entries at a time."""
    k, s = shift.shape
    rows = max(1, _BLOCK_SIZE // max(s, 1))
    for lo in range(0, changed.size, rows):
        idx = changed[lo:lo + rows]
        block = points[idx]
        block -= mean
        shift += (_one_hot(new[idx], k) - _one_hot(old[idx], k)) @ block


def _prepared(points, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(points as a column-major float64 n x s array, their mean m,
    spread[i] = ||p_i - m||^2, near: the rounding bound of kmeans_pp_init's
    form) for k in [1, n], or a ValueError naming the cause before numpy warns.

    Every center lies within sqrt(r2) of m, r2 = max(spread), so an entry of
    either function's products is at most 4 (r2 + sqrt(r2) ||m||) in size
    and a sum over the points at most 4 n r2: input for which
    4 (n r2 + sqrt(r2) ||m||) overflows is refused.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        points = np.asfortranarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be a 2-d n x s array, got {points.ndim}-d")
        n, s = points.shape
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        mean = points.mean(axis=0)
        if not np.isfinite(mean).all():
            raise ValueError("points hold NaN or inf, or their mean overflows")
        spread = _sq_dists(points, mean)
        r2 = float(spread.max())
        norm = math.hypot(*mean)
        if not math.isfinite(4.0 * (n * r2 + math.sqrt(r2) * norm)):
            raise ValueError(f"points spread too far: squared distance {r2} to a mean of norm {norm}")
        near = 8.0 * s * np.finfo(np.float64).eps * (2.0 * r2 + np.sqrt(r2) * float(np.linalg.norm(mean)))
    return points, mean, spread, near


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
