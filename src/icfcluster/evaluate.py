"""Scoring, diagnostics, and the benchmark harness.

accuracy matches predicted to true labels with an optimal one-to-one
assignment, so it is invariant to label permutations; the assignment is solved
exactly in-package by the Hungarian method, without scipy.  trace_objective scores
a partition as (1/n) tr(V^T K V) with V the normalized indicator matrix; on a
factor P it is computed as ||V^T P||_F^2 / n without forming P P^T.
bound_gap compares the objective degradation caused by factoring against its
a-priori limit 2 sqrt(k) tr(K - P P^T) / n.  fit_decay checks how close a
residual-trace history is to exponential.

run_benchmark sweeps one dataset: it times every (algorithm, subset_size,
seed) cell with separate factorization and clustering stages and renders rows
as CSV.  One build fills every row it serves, and each row's numbers are taken
once: an embedding that ignores the seed (icf, kernel, chol) serves every seed
of its (algorithm, subset_size), a Nystrom sample serves the nystrom and
approx rows of its seed, and rff's features serve their own row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .baselines import _approx_blocks, _approx_solve, chol_embedding, rff_embedding
from .cluster import MAX_ITER, ClusterModel, lloyd, oracle_embedding, psd_embedding
from .data import Dataset, _must_fit, _read_only
from .icf import EPSILON, IcfFactor, icf_factorize, residual_trace
from .kernel import DEFAULT_GUARD, KernelSpec, _must_fit_square, full_gram

ALGORITHMS = ("icf", "kernel", "chol", "nystrom", "rff", "approx")

# these need the full n x n Gram matrix and are skipped beyond the guard
_FULL_MATRIX = frozenset({"kernel", "chol"})

# (dataset, spec, subset_size, config) -> the rows Lloyd clusters, for the
# embeddings that ignore the seed, so one build serves every seed's Lloyd run
_SEED_FREE = {
    "icf": lambda ds, spec, size, cfg: icf_factorize(ds, spec, max_rank=size, epsilon=cfg.epsilon).P,
    "kernel": lambda ds, spec, size, cfg: oracle_embedding(ds, spec, guard=cfg.guard),
    "chol": lambda ds, spec, size, cfg: chol_embedding(ds, spec, guard=cfg.guard),
}

CSV_HEADER = "dataset,algorithm,subset_size,seed,accuracy,objective,achieved_rank,factorize_ms,cluster_ms,total_ms"


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of points whose cluster id maps to their true label under the
    best one-to-one relabeling (assignment problem on the contingency table)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("empty label arrays")
    # dense ids, every NaN its own; return_inverse, unlike plain np.unique, loads no numpy.ma
    pi, ti = (np.unique(a, return_inverse=True, equal_nan=False)[1] for a in (pred, truth))
    size = max(pi.max(), ti.max()) + 1
    _must_fit(f"accuracy of {size} cluster or label ids", size, size, "contingency table", 2)
    table = np.bincount(pi * size + ti, minlength=size * size).reshape(size, size)
    cols = _max_weight_matching(table)
    return float(table[np.arange(size), cols].sum()) / pred.size


def _max_weight_matching(table: np.ndarray) -> np.ndarray:
    """Column matched to each row in a maximum-weight perfect matching of a
    square integer table.

    The Hungarian method (Kuhn 1955; Munkres 1957) as shortest augmenting
    paths with row and column potentials, O(k^3), on the cost -table: each
    row is added by growing a Dijkstra tree over the columns until it reaches
    a free one, then flipping the path.  Column 0 of the potentials is a
    sentinel standing for the row being added.  Integer costs keep every
    potential exact, and every optimal matching has the same total, so the
    score does not depend on which optimum is found.
    """
    k = table.shape[0]
    cost = np.zeros((k + 1, k + 1), dtype=np.int64)
    np.negative(table, out=cost[1:, 1:])
    u = np.zeros(k + 1, dtype=np.int64)
    v = np.zeros(k + 1, dtype=np.int64)
    row_of = np.zeros(k + 1, dtype=np.int64)  # row (1-based) matched to column j; 0 is free
    way = np.zeros(k + 1, dtype=np.int64)
    big = np.iinfo(np.int64).max
    for i in range(1, k + 1):
        row_of[0] = i
        j0 = 0
        minv = np.full(k + 1, big, dtype=np.int64)
        used = np.zeros(k + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_of[j0]
            cur = cost[i0] - u[i0] - v
            better = ~used & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            j1 = int(np.argmin(np.where(used, big, minv)))
            delta = minv[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if row_of[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    cols = np.empty(k, dtype=np.int64)
    cols[row_of[1:] - 1] = np.arange(k)
    return cols


def trace_objective(gram_or_factor, assignments: np.ndarray, k: int) -> float:
    """(1/n) tr(V^T K V) for the normalized cluster indicator V.

    Accepts either a dense Gram matrix or an IcfFactor; the factor path never
    materializes the approximation.  Larger is better; tr(K)/n minus this is
    the k-means objective of the partition.
    """
    assignments = np.asarray(assignments)
    V = _indicator(assignments, k)
    if isinstance(gram_or_factor, IcfFactor):
        P = gram_or_factor.P
        if P.shape[0] != assignments.size:
            raise ValueError(f"factor shape {P.shape} does not match n={assignments.size}")
        M = V.T @ P
        return float(np.einsum("ij,ij->", M, M)) / assignments.size
    K = np.asarray(gram_or_factor, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] != assignments.size:
        raise ValueError(f"gram matrix shape {K.shape} does not match n={assignments.size}")
    return float(np.einsum("ij,ij->", K @ V, V)) / assignments.size


def bound_gap(dataset: Dataset, spec: KernelSpec, k: int, subset_size: int, seed: int,
              epsilon: float = EPSILON, max_iter: int = MAX_ITER,
              guard: int = DEFAULT_GUARD) -> tuple[float, float]:
    """Observed vs guaranteed objective degradation from factoring.

    Clusters both the exact embedding and the incomplete Cholesky factor with
    the same seed, then returns

        gap   = (1/n) tr((V - V')^T K (V - V'))
        bound = 2 sqrt(k) tr(K - P P^T) / n

    for the two indicator matrices.  Both clusterings are Lloyd local optima,
    so the gap can slightly exceed what globally optimal partitions would
    give, but it should still fall under the bound almost always.
    """
    n = dataset.n
    _must_fit_square(n, guard, 5.05)  # as oracle_embedding: K and eigh's working set
    K = full_gram(spec, dataset, guard=guard)
    exact = lloyd(psd_embedding(K), k, seed, max_iter=max_iter)
    factor = icf_factorize(dataset, spec, max_rank=subset_size, epsilon=epsilon)
    approx = lloyd(factor.P, k, seed, max_iter=max_iter)
    D = _indicator(exact.assignments, k) - _indicator(approx.assignments, k)
    gap = float(np.einsum("ij,ij->", K @ D, D)) / n
    bound = 2.0 * math.sqrt(k) * residual_trace(factor) / n
    return gap, bound


def fit_decay(trace_history: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit of trace_history[i] ~= C exp(-b i) in log space.

    Trailing entries below 1e-12 times the initial trace are dropped before
    taking logs.  Returns (C, b, r_squared); b > 0 means decay.
    """
    hist = np.asarray(trace_history, dtype=np.float64)
    if hist.ndim != 1:
        raise ValueError("trace_history must be 1-d")
    floor = 1e-12 * hist[0] if hist.size else 0.0
    above = hist > floor
    keep = hist.size if above.all() else int(np.argmax(~above))
    hist = hist[:keep]
    if hist.size < 3 or np.any(hist <= 0):
        raise ValueError("need at least 3 positive history entries to fit")
    x = np.arange(hist.size, dtype=np.float64)
    y = np.log(hist)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(np.exp(intercept)), float(-slope), min(max(r_sq, 0.0), 1.0)


@dataclass(frozen=True)
class BenchmarkConfig:
    """What to run: one dataset per sweep, over every algorithm, size and seed."""

    dataset: Dataset
    algorithms: Sequence[str]
    subset_sizes: Sequence[int]
    sigma: float
    clusters: int
    num_seeds: int = 10
    epsilon: float = EPSILON
    max_iter: int = MAX_ITER
    guard: int = DEFAULT_GUARD


@dataclass
class BenchmarkRow:
    dataset: str
    algorithm: str
    subset_size: int
    seed: int
    accuracy: float | None = None
    objective: float | None = None
    achieved_rank: int | None = None
    factorize_ms: float | None = None
    cluster_ms: float | None = None
    total_ms: float | None = None
    skipped: bool = False


@dataclass
class BenchmarkReport:
    rows: list[BenchmarkRow] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                r.dataset,
                r.algorithm,
                str(r.subset_size),
                str(r.seed),
                _fmt(r.accuracy),
                _fmt(r.objective),
                "" if r.achieved_rank is None else str(r.achieved_rank),
                _fmt_ms(r.factorize_ms),
                _fmt_ms(r.cluster_ms),
                _fmt_ms(r.total_ms),
            ]))
        return "\n".join(lines) + "\n"


def run_benchmark(config: BenchmarkConfig) -> BenchmarkReport:
    """Run every cell of the configured one-dataset sweep and collect timed rows.

    Full-matrix algorithms on a dataset beyond the guard produce rows marked
    skipped (empty metrics) instead of failing the sweep.  All randomness is
    derived from the per-row seed, so metric columns are reproducible; only
    the timing columns vary between runs.  An approx sweep with k outside
    [1, subset_size] is refused before any cell runs, as approx_kkmeans would,
    and so is a sweep with no seeds or an empty or repeating list.

    Each row takes its numbers from the first build that serves it
    (_build_rows), once.  Only finished numbers are kept between cells, so an
    embedding lives only inside its build.
    """
    # the seeds are range(num_seeds), which never repeats; a set of them
    # would hold every seed of a huge count at once
    if config.num_seeds < 1:
        raise ValueError(f"num_seeds must give one or more rows, each once, got {config.num_seeds!r}")
    for name, rows in (("algorithms", config.algorithms), ("subset_sizes", config.subset_sizes)):
        if not rows or len(set(rows)) < len(rows):
            raise ValueError(f"{name} must give one or more rows, each once, got {rows!r}")
    for algorithm in config.algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    for subset_size in config.subset_sizes:
        if "approx" in config.algorithms and not 1 <= config.clusters <= subset_size:
            raise ValueError(f"approx needs k in [1, subset_size={subset_size}], got k={config.clusters}")
    dataset, spec = config.dataset, KernelSpec("gaussian", config.sigma)
    _warmup(dataset, spec)
    report, done = BenchmarkReport(), {}
    for algorithm in config.algorithms:
        for subset_size in config.subset_sizes:
            for seed in range(config.num_seeds):
                row = BenchmarkRow(dataset.name, algorithm, subset_size, seed)
                if algorithm in _FULL_MATRIX and dataset.n > config.guard:
                    row.skipped = True
                else:
                    _run_cell(row, spec, config, done)
                report.rows.append(row)
    return report


def _run_cell(row: BenchmarkRow, spec: KernelSpec, config: BenchmarkConfig, done: dict) -> None:
    """Fill row with one seed's clustering of its cell.

    done maps (algorithm, subset_size, seed) to a row's finished numbers,
    left there by an earlier cell's build.
    """
    key = (row.algorithm, row.subset_size, row.seed)
    if key not in done:
        for served, numbers in _build_rows(spec, *key, config).items():
            if served[0] in config.algorithms:
                done[served] = numbers
    numbers = done.pop(key)
    row.objective, row.accuracy, row.achieved_rank, row.factorize_ms, row.cluster_ms = numbers
    row.total_ms = row.factorize_ms + (row.cluster_ms or 0.0)


def _build_rows(spec: KernelSpec, algorithm: str, subset_size: int, seed: int,
                config: BenchmarkConfig) -> dict:
    """(algorithm, subset_size, seed) -> finished numbers (objective,
    accuracy, rank, factorize_ms, cluster_ms) of every row one build serves.

    A seed-free embedding, column-major and read-only (the layout lloyd reads
    in place), is clustered from every seed; each row reports the build's
    time as factorize_ms.  rff's features (subset size rounded up to even)
    serve their own row.  A Nystrom sample serves the nystrom and approx rows
    of its seed through one Lloyd run on its rows Z = K_MB W.  Both rows'
    factorize_ms covers the sample's Z and W; nystrom's cluster_ms covers
    Lloyd, approx's Lloyd and the residual.  An embedding with no columns
    is not clustered: its rows report rank 0 and factorize_ms, and leave the
    objective, accuracy and cluster_ms empty.
    """
    dataset, k = config.dataset, config.clusters
    t0 = time.perf_counter()
    if algorithm in ("nystrom", "approx"):
        Z, W = _approx_blocks(dataset, spec, subset_size, seed)
        t1 = time.perf_counter()
        model = lloyd(Z, k, seed, max_iter=config.max_iter)
        t2 = time.perf_counter()
        restricted = _approx_solve(dataset, spec, Z, W, model)
        t3 = time.perf_counter()
        score = _accuracy_of(model, dataset)
        return {("nystrom", subset_size, seed): (model.objective, score, W.shape[1],
                                                 (t1 - t0) * 1e3, (t2 - t1) * 1e3),
                ("approx", subset_size, seed): (restricted.objective, score, W.shape[1],
                                                (t1 - t0) * 1e3, (t3 - t1) * 1e3)}
    if algorithm == "rff":
        embed, seeds = rff_embedding(dataset, spec, subset_size + subset_size % 2, seed), [seed]
    else:
        embed = _read_only(np.asfortranarray(_SEED_FREE[algorithm](dataset, spec, subset_size, config)),
                           np.float64, copy=False)
        seeds = range(config.num_seeds)
    factorize_ms = (time.perf_counter() - t0) * 1e3
    rows = {}
    for cluster_seed in seeds:
        if not embed.shape[1]:
            rows[algorithm, subset_size, cluster_seed] = (None, None, 0, factorize_ms, None)
            continue
        t1 = time.perf_counter()
        model = lloyd(embed, k, cluster_seed, max_iter=config.max_iter)
        cluster_ms = (time.perf_counter() - t1) * 1e3
        rows[algorithm, subset_size, cluster_seed] = (model.objective, _accuracy_of(model, dataset),
                                                      embed.shape[1], factorize_ms, cluster_ms)
    return rows


def _accuracy_of(model: ClusterModel, dataset: Dataset) -> float | None:
    return None if dataset.labels is None else accuracy(model.assignments, dataset.labels)


def _warmup(dataset: Dataset, spec: KernelSpec) -> None:
    """One small untimed factorization so first-use costs stay out of rows."""
    head = Dataset(dataset.points[: min(dataset.n, 64)], name="warmup")
    icf_factorize(head, spec, max_rank=min(2, head.n), epsilon=1e-30)


def _indicator(assignments: np.ndarray, k: int) -> np.ndarray:
    assignments = np.asarray(assignments)
    if assignments.min() < 0 or assignments.max() >= k:
        raise ValueError(f"assignments must lie in [0, {k})")
    counts = np.bincount(assignments, minlength=k)
    if np.any(counts == 0):
        raise ValueError("every cluster id in [0, k) must be used")
    V = np.zeros((assignments.size, k))
    V[np.arange(assignments.size), assignments] = 1.0 / np.sqrt(counts[assignments])
    return V


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _fmt_ms(value: float | None) -> str:
    return "" if value is None else f"{value:.3f}"
