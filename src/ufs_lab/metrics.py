"""Generative-model evaluation at desk scale.

Fréchet distance between Gaussian fits, k-NN manifold metrics
(precision / recall / density / coverage), mixture-mode coverage for 2-d
tasks, and the fixed random-feature embedder used wherever images need a
feature space (no pretrained networks here, so the numbers are only
comparable within this laboratory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, NumericError
from .numerics import Array, SeededRng, as_f64, conv2d_forward, global_sum_pool


@dataclass
class GaussianFit:
    mean: Array
    covariance: Array


@dataclass
class ManifoldMetrics:
    precision: float
    recall: float
    density: float
    coverage: float


def fit_gaussian(samples: Array) -> GaussianFit:
    """Sample mean and unbiased covariance, symmetrized."""
    x = as_f64(samples)
    if x.ndim != 2:
        raise DimensionError(f"fit_gaussian expects (m, d), got {x.shape}")
    m = len(x)
    if m < 2:
        raise ContractError(f"fit_gaussian needs at least 2 samples, got {m}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (m - 1)
    return GaussianFit(mean, (cov + cov.T) / 2.0)


def _psd_eigvals(mat: Array, tol: float = 1e-10) -> Array:
    """Eigenvalues of a symmetric matrix, tiny negatives clipped, larger rejected."""
    vals = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    floor = -tol * max(1.0, float(np.abs(vals).max()))
    if float(vals.min()) < floor:
        raise NumericError(f"matrix not PSD within tolerance: eigenvalue {vals.min():.3e}")
    return np.clip(vals, 0.0, None)


def frechet_distance(a: GaussianFit, b: GaussianFit) -> float:
    """Squared 2-Wasserstein distance between two Gaussian fits.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^{1/2}), with the matrix
    square root taken through eigendecompositions of symmetrized products.
    """
    if a.mean.shape != b.mean.shape or a.covariance.shape != b.covariance.shape:
        raise ContractError(
            f"dimension mismatch: {a.mean.shape}/{a.covariance.shape} vs "
            f"{b.mean.shape}/{b.covariance.shape}")
    cov_a = (a.covariance + a.covariance.T) / 2.0
    cov_b = (b.covariance + b.covariance.T) / 2.0
    vals_a, vecs_a = np.linalg.eigh(cov_a)
    floor = -1e-10 * max(1.0, float(np.abs(vals_a).max()))
    if float(vals_a.min()) < floor:
        raise NumericError(f"covariance not PSD: eigenvalue {vals_a.min():.3e}")
    _psd_eigvals(cov_b)
    root_a = (vecs_a * np.sqrt(np.clip(vals_a, 0.0, None))) @ vecs_a.T
    inner = root_a @ cov_b @ root_a
    trace_sqrt = float(np.sqrt(_psd_eigvals(inner)).sum())
    diff = a.mean - b.mean
    dist = float(diff @ diff) + float(np.trace(cov_a) + np.trace(cov_b)) - 2.0 * trace_sqrt
    return max(dist, 0.0)


def _distance_block(a_block: Array, b: Array) -> Array:
    diff = a_block[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _block_rows(m: int, n: int, d: int) -> int:
    return max(1, int(2 ** 22 / max(1, n * d)))


def pairwise_distances(a: Array, b: Array) -> Array:
    """Euclidean distance matrix, row blocks kept small to bound memory."""
    a = as_f64(a)
    b = as_f64(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"pairwise_distances: incompatible shapes {a.shape} and {b.shape}")
    m, d = a.shape
    n = b.shape[0]
    out = np.empty((m, n))
    block = _block_rows(m, n, d)
    for lo in range(0, m, block):
        out[lo:lo + block] = _distance_block(a[lo:lo + block], b)
    return out


def _knn_radii(points: Array, k: int) -> Array:
    """Distance to the k-th nearest neighbour within the set, self excluded."""
    n, d = points.shape
    radii = np.empty(n)
    block = _block_rows(n, n, d)
    for lo in range(0, n, block):
        dist = _distance_block(points[lo:lo + block], points)
        dist[np.arange(dist.shape[0]), np.arange(lo, lo + dist.shape[0])] = np.inf
        radii[lo:lo + dist.shape[0]] = np.partition(dist, k - 1, axis=1)[:, k - 1]
    return radii


def manifold_metrics(real: Array, fake: Array, k: int = 3) -> ManifoldMetrics:
    """k-NN overlap metrics between two point sets (brute-force distances).

    Each point's ball radius is the distance to its k-th nearest neighbour
    within its own set, itself excluded; membership is inclusive (<=).
    Distances stream through row blocks so no full matrix is materialized.
    """
    real = as_f64(real)
    fake = as_f64(fake)
    m, n = len(real), len(fake)
    if k < 1 or m <= k or n <= k:
        raise ContractError(f"need sample counts above k: M={m}, N={n}, k={k}")
    if m > 10_000 or n > 10_000:
        raise ContractError(f"brute-force metrics cap at 10000 samples per set, got {m}/{n}")
    radius_real = _knn_radii(real, k)
    radius_fake = _knn_radii(fake, k)
    fake_inside_some_real = np.zeros(n, dtype=bool)
    real_ball_hits = 0
    real_covered = 0
    real_recalled = 0
    block = _block_rows(m, n, real.shape[1])
    for lo in range(0, m, block):
        dist = _distance_block(real[lo:lo + block], fake)
        inside_real = dist <= radius_real[lo:lo + dist.shape[0], None]
        fake_inside_some_real |= inside_real.any(axis=0)
        real_ball_hits += int(inside_real.sum())
        real_covered += int(inside_real.any(axis=1).sum())
        real_recalled += int((dist <= radius_fake[None, :]).any(axis=1).sum())
    return ManifoldMetrics(
        precision=float(fake_inside_some_real.mean()),
        recall=real_recalled / m,
        density=real_ball_hits / (k * n),
        coverage=real_covered / m,
    )


def mode_coverage(samples: Array, centers: Array, sigma: float,
                  thresh_sigmas: float = 3.0):
    """(covered modes, high-quality fraction) for a mixture of round modes.

    A sample is high quality when it lies within thresh_sigmas * sigma of its
    nearest center; a mode is covered when at least one high-quality sample
    maps to it.
    """
    samples = as_f64(samples)
    centers = as_f64(centers)
    if len(centers) < 1:
        raise ContractError("need at least one mode center")
    if sigma <= 0:
        raise ContractError(f"sigma must be positive, got {sigma}")
    dists = pairwise_distances(samples, centers)
    nearest = dists.argmin(axis=1)
    d_min = dists[np.arange(len(samples)), nearest]
    high_quality = d_min <= thresh_sigmas * sigma
    covered = int(np.unique(nearest[high_quality]).size)
    return covered, float(high_quality.mean())


EMBED_DIM = 64
_EMBED_MID = 32


def random_feature_embed(images: Array, seed: int) -> Array:
    """Fixed seeded two-layer random conv features, pooled to 64 dimensions.

    Deterministic per seed; weights are He-scaled normals, biases zero,
    stride 2, leaky slope 0.2.
    """
    x = as_f64(images)
    if x.ndim != 4:
        raise DimensionError(f"random_feature_embed expects (n, c, h, w), got {x.shape}")
    rng = SeededRng(int(seed))
    cin = x.shape[1]
    k1 = rng.normal((_EMBED_MID, cin, 3, 3), 0.0, math.sqrt(2.0 / (cin * 9)))
    k2 = rng.normal((EMBED_DIM, _EMBED_MID, 3, 3), 0.0, math.sqrt(2.0 / (_EMBED_MID * 9)))
    h = conv2d_forward(x, k1, 2)
    np.multiply(h, 0.2, out=h, where=h <= 0.0)
    h = conv2d_forward(h, k2, 2)
    np.multiply(h, 0.2, out=h, where=h <= 0.0)
    return global_sum_pool(h)
