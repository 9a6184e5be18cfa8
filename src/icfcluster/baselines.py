"""Reference competitors for the factored kernel k-means pipeline.

Three embeddings whose rows lloyd clusters, as it clusters the rows of the
incomplete Cholesky factor P, and one solver with restricted centers:

* chol_embedding: dense Cholesky of the full Gram matrix (jittered on
  failure).  Exact but O(n^2).
* nystrom_embedding: uniform column sampling, K_MB K_BB^{-1/2}.
* rff_embedding: random Fourier features for the Gaussian kernel, paired
  cosine/sine so every embedded point has unit norm.
* approx_kkmeans: centers restricted to the span of a sampled subset, solved
  as lloyd on the Nystrom embedding of the same sample.

Sampled index sets are drawn without replacement and kept sorted, so at
subset_size = n every sampling-based method sees the points in their original
order and reproduces the exact oracle given the same seed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .cluster import MAX_ITER, ClusterModel, _clamped_eigh, lloyd
from .data import Dataset, _must_fit, _rng
from .kernel import DEFAULT_GUARD, KernelSpec, _must_fit_square, full_gram, kernel_columns, kernel_diag


def chol_embedding(dataset: Dataset, spec: KernelSpec, guard: int = DEFAULT_GUARD) -> np.ndarray:
    """Lower-triangular L with L L^T = K, adding escalating diagonal jitter.

    Jitter starts at 1e-12 tr(K)/n and grows tenfold per failed attempt up to
    1e-6 tr(K)/n, past which the failure is raised, naming the last jitter
    tried.  The jitter is written onto K's diagonal, so K, L and cholesky's
    copy of K are the only n x n arrays held, 3.15 of them at the measured peak.
    """
    _must_fit_square(dataset.n, guard, 3.15)
    K = full_gram(spec, dataset, guard=guard)
    diag = K.diagonal().copy()
    scale = float(np.trace(K)) / dataset.n
    jitter = 0.0
    while True:
        try:
            return np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            step = jitter * 10.0 or 1e-12 * scale
            if not 0.0 < step <= 1e-6 * scale:
                raise np.linalg.LinAlgError(f"Cholesky failed at maximum jitter {jitter:.3e}") from None
            jitter = step
            np.fill_diagonal(K, diag + jitter)  # K + jitter I, in place


def nystrom_embedding(dataset: Dataset, spec: KernelSpec, subset_size: int, seed: int) -> np.ndarray:
    """n x r embedding K_MB K_BB^{-1/2} from a sorted uniform sample.

    The inverse square root uses the eigendecomposition of K_BB with small
    eigenvalues clamped away, so a singular sampled block just yields an
    embedding of lower rank r <= subset_size.
    """
    return _approx_blocks(dataset, spec, subset_size, seed)[0]


def rff_embedding(dataset: Dataset, spec: KernelSpec, num_features: int, seed: int) -> np.ndarray:
    """Paired cosine/sine random Fourier features for the Gaussian kernel.

    Frequencies are drawn from the Gaussian spectral density (per-coordinate
    variance 2 sigma); num_features must be even so cos/sin pairs line up, and
    rows are normalized to unit norm exactly, matching k(x, x) = 1.  The
    features and the norm's squares are the two n x num_features arrays held
    at the peak.
    """
    if spec.family != "gaussian":
        raise ValueError("random Fourier features require the gaussian family")
    if num_features < 2 or num_features % 2 != 0:
        raise ValueError(f"num_features must be even and >= 2, got {num_features}")
    _must_fit(f"num_features={num_features}", dataset.n, num_features, "feature matrix", 2)
    rng = _rng(seed)
    half = num_features // 2
    with np.errstate(over="ignore", invalid="ignore"):
        freqs = rng.normal(0.0, np.sqrt(2.0 * spec.sigma), size=(dataset.d, half))
        proj = dataset.points @ freqs
    if not np.isfinite(proj).all():
        raise ValueError(f"random Fourier features overflow: sigma={spec.sigma} is too large for these points")
    Z = np.empty((dataset.n, num_features))
    np.cos(proj, out=Z[:, :half])
    np.sin(proj, out=Z[:, half:])
    del proj
    Z *= np.sqrt(2.0 / num_features)
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    return Z


def approx_kkmeans(dataset: Dataset, spec: KernelSpec, subset_size: int, k: int, seed: int,
                   max_iter: int = MAX_ITER) -> ClusterModel:
    """Kernel k-means with centers confined to the span of a sampled subset.

    Returns a ClusterModel whose centers are the k x subset_size combination
    weights over the sampled points; the objective is the mean squared
    feature-space distance to those restricted centers.  The assignments are
    lloyd's on nystrom_embedding with the same subset_size and seed.
    """
    if not 1 <= k <= subset_size:
        raise ValueError(f"k must be in [1, subset_size={subset_size}], got {k}")
    Z, W = _approx_blocks(dataset, spec, subset_size, seed)
    return _approx_solve(dataset, spec, Z, W, lloyd(Z, k, seed, max_iter=max_iter))


def _approx_blocks(dataset: Dataset, spec: KernelSpec, subset_size: int, seed: int):
    """Nystrom rows Z = K_MB W of a sorted uniform sample, and W = U_r D_r^{-1/2}.

    K_MB are the sample's Gram columns and U D U^T is K_BB over the
    eigenpairs _clamped_eigh keeps, so W W^T is its pseudo-inverse.
    K_MB is freed on return; only Z and W outlive the call.  The peak is
    below 2.01 n x m for K_MB with kernel_columns' temporary or with Z, plus
    5.05 m x m for eigh of K_BB (as for K in oracle_embedding).
    """
    if not 1 <= subset_size <= dataset.n:
        raise ValueError(f"subset_size must be in [1, {dataset.n}], got {subset_size}")
    _must_fit(f"subset_size={subset_size}", dataset.n, subset_size, "block of Gram columns",
              2.01 + 5.05 * subset_size / dataset.n)
    B = np.sort(_rng(seed).choice(dataset.n, size=subset_size, replace=False))
    K_MB = kernel_columns(spec, dataset, B)
    w, U = _clamped_eigh(K_MB[B], "sampled kernel block")
    W = U / np.sqrt(w)
    return K_MB @ W, W


def _approx_solve(dataset: Dataset, spec: KernelSpec, Z: np.ndarray, W: np.ndarray,
                  model: ClusterModel) -> ClusterModel:
    """Lloyd's model of the Nystrom rows Z = K_MB W, returned as restricted centers.

    A center in the sample's span is the projection of its cluster's mean, so
    ||phi(x_i) - c_j||^2 = (K_ii - ||z_i||^2) + ||z_i - zhat_j||^2: the first
    term moves no assignment and is added to the objective; zhat W^T are the weights.
    """
    residual = np.maximum(kernel_diag(spec, dataset) - np.einsum("ij,ij->i", Z, Z), 0.0)
    residual_mean = float(residual.mean())
    return replace(model, centers=model.centers @ W.T, objective=model.objective + residual_mean,
                   objective_history=model.objective_history + residual_mean)
