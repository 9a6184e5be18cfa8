"""Lloyd k-means over embedding rows, and the exact oracle embedding.

Kernel k-means on K is lloyd on the rows of an embedding whose Gram matrix
is (approximately) K: the incomplete Cholesky factor P for the cheap path,
or rows of U sqrt(D) from a full eigendecomposition for the exact oracle.
Every embedding goes through the same seeded k-means++ / Lloyd code, so
results are comparable across embeddings that agree on pairwise distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import _BLOCK_ENTRIES, Dataset, _must_fit, _read_only, _rng, _ValueType
from .icf import RANK_TOL
from .kernel import DEFAULT_GUARD, KernelSpec, _must_fit_square, full_gram

# Lloyd stops after an iteration that lowers its objective by at most this
# fraction of it, and by default after MAX_ITER iterations
TOL = 1e-6
MAX_ITER = 1000


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


def kmeans_pp_init(points: np.ndarray, k: int, seed: int, *, prepared: tuple | None = None) -> np.ndarray:
    """Choose k distinct rows as initial centers by D^2 weighting.

    The first center is uniform; each later one is drawn with probability
    proportional to squared distance from the nearest chosen center.  When
    every remaining point coincides with a chosen center the draw falls back
    to uniform over the unchosen indices.  Each chosen center c costs one
    n x s matrix-vector product about the points' mean m,
    ||p - m||^2 + ||c - m||^2 - 2 (c - m).(p - m); values within its rounding
    bound of 0 are recomputed by differences, so each is >= 0 and a duplicate
    of a chosen center gets exactly 0.  The input is read as lloyd reads it;
    lloyd passes its own _prepared(points, k) as prepared, so a Lloyd call
    makes that pass over the points once.
    """
    points, mean, spread, near = _prepared(points, k) if prepared is None else prepared
    n = points.shape[0]
    rng = _rng(seed)
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
            unchosen = np.bincount(chosen, minlength=n) == 0
            idx = int(rng.choice(np.flatnonzero(unchosen)))
        chosen.append(idx)
    return points[chosen].copy()


def lloyd(points: np.ndarray, k: int, seed: int, max_iter: int = MAX_ITER) -> ClusterModel:
    """Standard Lloyd iteration with k-means++ start and empty-cluster repair.

    Converges on an assignment fixpoint, or after an iteration that lowers
    the objective by at most TOL of it; the per-iteration objective never
    increases (a rise by rounding is recorded as no change).  An emptied
    cluster is reseeded to the point farthest from its previous center
    (drawn from clusters that can spare a member), so returned assignments
    always cover all k ids.  One k x n buffer holds the scores and the first
    one-hot matrix; a k for which it would not fit is refused before seeding.

    Points are used in column-major order: a factor's P is read in place,
    other layouts are copied once, so results do not depend on the layout
    (BLAS sums in a layout-dependent order).  An iteration is one n s k
    matrix product for the assignment plus an O(moved s k) update of the
    center sums from the points whose cluster changed: arrivals added,
    departures subtracted, both about the mean, so the update's rounding
    does not grow with the points' offset.  The first iteration's sums are
    the k x n one-hot matrix times the points and are kept apart from the
    updates, so a cluster no point has entered or left keeps them exactly;
    the centers are always the sums over the counts.  Both the assignment
    and the TOL test work about the mean m of the points: a point goes to
    argmin_j ||c_j - m||^2 - 2 (c_j - m).p + 2 (c_j - m).m, which is
    ||p - c_j||^2 - ||p - m||^2, and the TOL test uses the objective
    (sum ||p - m||^2 - sum_j n_j ||c_j - m||^2) / n.  Their rounding error
    is of order eps ||m|| times the points' spread, where about the origin
    it would be eps ||m||^2, so it still grows with the offset: the scores
    multiply center offsets by the points as given, and the centers carry an
    absolute rounding of about eps ||m||, as the first iteration's sums are
    raw sums of the points.  (An exact fit of 6 points near 1e6 has read a
    TOL objective of 2.46e-11.)  The returned objective is the direct mean
    squared distance, so an exact fit gives exactly 0.
    """
    prepared = _prepared(points, k)
    points, mean, spread, _ = prepared
    n = points.shape[0]
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    _must_fit(f"k={k}", k, n, "score matrix")
    centers = kmeans_pp_init(points, k, seed, prepared=prepared)
    spread = float(spread.sum())
    offsets = centers - mean
    norms = np.einsum("ij,ij->i", offsets, offsets)
    assign = None
    objectives, moves = [], []
    converged = False
    scores = np.empty((k, n))
    for _ in range(max_iter):
        np.matmul(-2.0 * offsets, points.T, out=scores)
        scores += (norms + 2.0 * (offsets @ mean))[:, None]
        new_assign, counts = _repair_empty(points, centers, _lowest_rows(scores), k)
        if assign is None:
            moved = n
            np.equal(np.arange(k)[:, None], new_assign, out=scores)  # the one-hot matrix
            first, first_counts = scores @ points, counts
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


def oracle_embedding(dataset: Dataset, spec: KernelSpec, guard: int = DEFAULT_GUARD) -> np.ndarray:
    """Exact embedding psd_embedding(K) of the full Gram matrix K, refused past the guard or memory."""
    _must_fit_square(dataset.n, guard, 5.05)  # K and eigh's working set, measured at n = 3,000
    return psd_embedding(full_gram(spec, dataset, guard=guard))


def psd_embedding(K: np.ndarray) -> np.ndarray:
    """Rows of U sqrt(D) for a symmetric PSD matrix, over the eigenpairs that
    _clamped_eigh keeps; ValueError when K is numerically zero."""
    w, U = _clamped_eigh(K, "kernel matrix")
    return U * np.sqrt(w)


def _clamped_eigh(K: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a symmetric matrix without the eigenpairs at or below RANK_TOL
    times the largest eigenvalue, in ascending order.

    Raises ValueError, naming the matrix, when no pair is left.
    """
    w, U = np.linalg.eigh(K)
    first = int(np.searchsorted(w, RANK_TOL * max(float(w[-1]), 0.0), side="right"))
    if first == len(w):
        raise ValueError(f"{name} is numerically zero")
    return w[first:], U[:, first:]


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


def _add_moves(shift: np.ndarray, points: np.ndarray, mean: np.ndarray, changed: np.ndarray,
               old: np.ndarray, new: np.ndarray) -> None:
    """Add the points changed (indices) to shift[new] and subtract them from shift[old],
    about the mean, in blocks whose m x s points and k x m indicators fit _BLOCK_ENTRIES entries."""
    k, s = shift.shape
    rows, ids = max(1, _BLOCK_ENTRIES // max(s, k)), np.arange(k)[:, None]
    for lo in range(0, changed.size, rows):
        idx = changed[lo:lo + rows]
        block = points[idx]
        block -= mean
        shift += ((ids == new[idx]) * 1.0 - (ids == old[idx])) @ block


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
        if s < 1:
            raise ValueError(f"points must have at least one column, got {n} x 0 (a rank-0 factor has none)")
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

    Each row's squared differences are summed over s in column order, so the
    result has the same bits for any memory layout.  The differences are
    formed n x b columns at a time, b = max(1, _BLOCK_ENTRIES // n), in a
    column-major buffer whose column 0 holds the running sums: reducing its
    columns adds one column after another.  The buffer has at least two rows,
    since numpy sums a lone row pairwise.  No n x s temporary is made.
    """
    n, s = points.shape
    cols = max(1, _BLOCK_ENTRIES // max(n, 1))
    out = np.zeros(max(n, 2))
    buf = np.zeros((out.size, min(s, cols) + 1), order="F")
    for j0 in range(0, s, cols):
        j1 = min(j0 + cols, s)
        # the sums are reduced into out, not into column 0, which numpy would copy first
        buf[:, 0] = out
        diff = buf[:n, 1:j1 - j0 + 1]
        if assign is None:
            np.subtract(points[:, j0:j1], centers[j0:j1], out=diff)
        else:
            # the ids lie in [0, k), so mode="clip" changes none and spares take a buffered copy
            np.take(centers[:, j0:j1].T, assign, axis=1, out=diff.T, mode="clip")
            np.subtract(points[:, j0:j1], diff, out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(buf[:, :j1 - j0 + 1], axis=1, out=out)
    return out[:n]


def _repair_empty(points: np.ndarray, centers: np.ndarray, assign: np.ndarray,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """Give every empty cluster the farthest point it can steal; return the
    assignments and the cluster sizes.

    Donor points must come from clusters of size >= 2 so repairs never empty
    another cluster; with k <= n such a donor always exists.
    """
    counts = np.bincount(assign, minlength=k)
    if np.all(counts > 0):
        return assign, counts
    assign = assign.copy()
    for j in np.flatnonzero(counts == 0):
        donors = np.flatnonzero(counts[assign] >= 2)
        far = donors[int(np.argmax(_sq_dists(points, centers[j])[donors]))]
        counts[assign[far]] -= 1
        assign[far] = j
        counts[j] = 1
    return assign, counts
