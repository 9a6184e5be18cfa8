"""Reference competitors for the factored kernel k-means pipeline.

Four alternatives spanning the exact-to-approximate range:

* kernel_chol_kmeans: dense Cholesky of the full Gram matrix (jittered on
  failure), then Lloyd on the triangular factor rows.  Exact but O(n^2).
* nystrom_kmeans: uniform column sampling, embedding K_MB K_BB^{-1/2}.
* rff_kmeans: random Fourier features for the Gaussian kernel, paired
  cosine/sine so every embedded point has unit norm.
* approx_kkmeans: Lloyd-style iteration with centers restricted to the span
  of a sampled subset, solved through K_MB and K_BB only.

Sampled index sets are drawn without replacement and kept sorted, so at
subset_size = n every sampling-based method sees the points in their original
order and reproduces the exact oracle given the same seed.
"""

from __future__ import annotations

import numpy as np

from .cluster import EIG_CLAMP, ClusterModel, _one_hot, lloyd
from .data import Dataset
from .kernel import DEFAULT_GUARD, KernelSpec, full_gram, kernel_column, kernel_diag


def kernel_chol_kmeans(dataset: Dataset, spec: KernelSpec, k: int, seed: int,
                       max_iter: int = 1000, tol: float = 1e-6,
                       guard: int = DEFAULT_GUARD) -> ClusterModel:
    """Exact kernel k-means through a dense Cholesky factor of K."""
    L = chol_embedding(dataset, spec, guard=guard)
    return lloyd(L, k, seed, max_iter=max_iter, tol=tol)


def nystrom_kmeans(dataset: Dataset, spec: KernelSpec, subset_size: int, k: int, seed: int,
                   max_iter: int = 1000, tol: float = 1e-6) -> ClusterModel:
    """Kernel k-means on the Nystrom embedding from a uniform sample."""
    embed = nystrom_embedding(dataset, spec, subset_size, seed)
    return lloyd(embed, k, seed, max_iter=max_iter, tol=tol)


def rff_kmeans(dataset: Dataset, spec: KernelSpec, num_features: int, k: int, seed: int,
               max_iter: int = 1000, tol: float = 1e-6) -> ClusterModel:
    """Kernel k-means on a random Fourier feature embedding (Gaussian only)."""
    embed = rff_embedding(dataset, spec, num_features, seed)
    return lloyd(embed, k, seed, max_iter=max_iter, tol=tol)


def chol_embedding(dataset: Dataset, spec: KernelSpec, guard: int = DEFAULT_GUARD) -> np.ndarray:
    """Lower-triangular L with L L^T = K, adding escalating diagonal jitter.

    Jitter starts at 1e-12 tr(K)/n and grows tenfold per failed attempt up to
    1e-6 tr(K)/n, past which the failure is raised.
    """
    K = full_gram(spec, dataset, guard=guard)
    scale = float(np.trace(K)) / dataset.n
    jitter = 0.0
    while True:
        try:
            return np.linalg.cholesky(K + jitter * np.eye(dataset.n))
        except np.linalg.LinAlgError:
            jitter = 1e-12 * scale if jitter == 0.0 else jitter * 10.0
            if jitter > 1e-6 * scale:
                raise np.linalg.LinAlgError(
                    f"Cholesky failed at maximum jitter {jitter:.3e}") from None


def nystrom_embedding(dataset: Dataset, spec: KernelSpec, subset_size: int, seed: int) -> np.ndarray:
    """n x r embedding K_MB K_BB^{-1/2} from a sorted uniform sample.

    The inverse square root uses the eigendecomposition of K_BB with small
    eigenvalues clamped away, so a singular sampled block just yields an
    embedding of lower rank r <= subset_size.
    """
    B = _sample_indices(dataset.n, subset_size, seed)
    K_MB = np.column_stack([kernel_column(spec, dataset, int(t)) for t in B])
    K_BB = K_MB[B]
    w, U = np.linalg.eigh(K_BB)
    keep = w > EIG_CLAMP * max(float(w[-1]), 0.0)
    if not np.any(keep):
        raise ValueError("sampled kernel block is numerically zero")
    return K_MB @ (U[:, keep] / np.sqrt(w[keep]))


def rff_embedding(dataset: Dataset, spec: KernelSpec, num_features: int, seed: int) -> np.ndarray:
    """Paired cosine/sine random Fourier features for the Gaussian kernel.

    Frequencies are drawn from the Gaussian spectral density (per-coordinate
    variance 2 sigma); num_features must be even so cos/sin pairs line up, and
    rows are normalized to unit norm exactly, matching k(x, x) = 1.
    """
    if spec.family != "gaussian":
        raise ValueError("random Fourier features require the gaussian family")
    if num_features < 2 or num_features % 2 != 0:
        raise ValueError(f"num_features must be even and >= 2, got {num_features}")
    rng = np.random.default_rng(seed)
    freqs = rng.normal(0.0, np.sqrt(2.0 * spec.sigma), size=(dataset.d, num_features // 2))
    proj = dataset.points @ freqs
    Z = np.sqrt(2.0 / num_features) * np.hstack([np.cos(proj), np.sin(proj)])
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    return Z


def approx_kkmeans(dataset: Dataset, spec: KernelSpec, subset_size: int, k: int, seed: int,
                   max_iter: int = 1000, tol: float = 1e-6) -> ClusterModel:
    """Kernel k-means with centers confined to the span of a sampled subset.

    Returns a ClusterModel whose centers are the k x subset_size combination
    weights over the sampled points; the objective is the mean squared
    feature-space distance to those restricted centers.
    """
    if k > subset_size:
        raise ValueError(f"k={k} exceeds subset_size={subset_size}")
    B, K_MB, K_BB = _approx_blocks(dataset, spec, subset_size, seed)
    return _approx_solve(dataset, spec, K_MB, K_BB, k, seed, max_iter, tol)


def _approx_blocks(dataset: Dataset, spec: KernelSpec, subset_size: int, seed: int):
    B = _sample_indices(dataset.n, subset_size, seed)
    K_MB = np.column_stack([kernel_column(spec, dataset, int(t)) for t in B])
    return B, K_MB, K_MB[B]


def _approx_solve(dataset: Dataset, spec: KernelSpec, K_MB: np.ndarray, K_BB: np.ndarray,
                  k: int, seed: int, max_iter: int, tol: float) -> ClusterModel:
    diag = kernel_diag(spec, dataset)
    pinv = _psd_pinv(K_BB)
    alphas = _init_restricted(diag, K_MB, K_BB, k, seed)
    assign = None
    prev_obj = np.inf
    converged = False
    iterations = 0
    for _ in range(max_iter):
        d2 = _restricted_sq_dists(diag, K_MB, K_BB, alphas)
        new_assign = np.argmin(d2, axis=1)
        new_assign = _repair_empty_restricted(d2, new_assign, k)
        if assign is not None and np.array_equal(new_assign, assign):
            converged = True
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        alphas = ((_one_hot(assign, k) @ K_MB) / counts[:, None]) @ pinv
        iterations += 1
        obj = _restricted_objective(diag, K_MB, K_BB, alphas, assign)
        if np.isfinite(prev_obj) and prev_obj - obj <= tol * prev_obj:
            converged = True
            break
        prev_obj = obj
    objective = _restricted_objective(diag, K_MB, K_BB, alphas, assign)
    return ClusterModel(assign, alphas, objective, iterations, converged)


def _init_restricted(diag: np.ndarray, K_MB: np.ndarray, K_BB: np.ndarray, k: int, seed: int) -> np.ndarray:
    """D^2-weighted start over the sampled candidates, as indicator weights."""
    B_diag = np.diag(K_BB)
    m = K_BB.shape[0]
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(m))]
    d2 = np.maximum(B_diag - 2.0 * K_BB[:, chosen[0]] + B_diag[chosen[0]], 0.0)
    for _ in range(1, k):
        d2[chosen] = 0.0
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(m, p=d2 / total))
        else:
            idx = int(rng.choice(np.setdiff1d(np.arange(m), chosen)))
        chosen.append(idx)
        np.minimum(d2, np.maximum(B_diag - 2.0 * K_BB[:, idx] + B_diag[idx], 0.0), out=d2)
    alphas = np.zeros((k, m))
    alphas[np.arange(k), chosen] = 1.0
    return alphas


def _restricted_sq_dists(diag, K_MB, K_BB, alphas) -> np.ndarray:
    cross = K_MB @ alphas.T
    cc = np.einsum("ij,ij->i", alphas @ K_BB, alphas)
    return np.maximum(diag[:, None] - 2.0 * cross + cc[None, :], 0.0)


def _restricted_objective(diag, K_MB, K_BB, alphas, assign) -> float:
    d2 = _restricted_sq_dists(diag, K_MB, K_BB, alphas)
    return float(d2[np.arange(len(assign)), assign].mean())


def _repair_empty_restricted(d2: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Same farthest-point repair as Lloyd, using restricted distances."""
    counts = np.bincount(assign, minlength=k)
    if np.all(counts > 0):
        return assign
    assign = assign.copy()
    for j in np.flatnonzero(counts == 0):
        donors = np.flatnonzero(counts[assign] >= 2)
        far = donors[int(np.argmax(d2[donors, j]))]
        counts[assign[far]] -= 1
        assign[far] = j
        counts[j] = 1
    return assign


def _sample_indices(n: int, subset_size: int, seed: int) -> np.ndarray:
    if not 1 <= subset_size <= n:
        raise ValueError(f"subset_size must be in [1, {n}], got {subset_size}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=subset_size, replace=False))


def _psd_pinv(K: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(K)
    keep = w > EIG_CLAMP * max(float(w[-1]), 0.0)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return (U * inv) @ U.T
