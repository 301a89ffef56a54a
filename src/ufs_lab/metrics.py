"""Generative-model evaluation at desk scale.

Fréchet distance between Gaussian fits, k-NN manifold metrics
(precision / recall / density / coverage), mixture-mode coverage for 2-d
tasks, and the fixed random-feature embedder used wherever images need a
feature space (no pretrained networks here, so the numbers are only
comparable within this laboratory). `measure` picks the space a batch is
measured in; the experiment loop and `ufs-lab eval` both go through it.

The k-NN metrics never hold a full distance matrix: squared distances
stream through row blocks in two buffers allocated once at import and
reused by every call, one broadcast subtract, square and add per
coordinate, and they are compared with squared ball bounds. The subtracts
and the ball tests run inside `numerics.unbuffered_ufuncs`, as the conv
forward's loop does; the reductions over the test results run at numpy's
default buffer, where they are faster.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError, DimensionError, NumericError
from .numerics import (Array, SeededRng, as_f64, conv2d_forward, global_sum_pool,
                       unbuffered_ufuncs)

MANIFOLD_K = 3  # the k of every k-NN manifold measurement, in runs and in `ufs-lab eval`
MAX_SAMPLES = 10_000  # brute-force k-NN cap on each point set
PSD_TOL = 1e-10  # negative eigenvalues down to -PSD_TOL * max(1, |largest|) count as zero
HQ_SIGMAS = 3.0  # a high-quality sample lies within this many sigmas of its mode


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


def _clip_psd(vals: Array, what: str) -> Array:
    """Eigenvalues with tiny negatives clipped to zero; larger negatives rejected."""
    floor = -PSD_TOL * max(1.0, float(np.abs(vals).max()))
    if float(vals.min()) < floor:
        raise NumericError(f"{what} not PSD within tolerance: eigenvalue {vals.min():.3e}")
    return np.clip(vals, 0.0, None)


def _psd_eigvals(mat: Array) -> Array:
    """Eigenvalues of a symmetric matrix, tiny negatives clipped, larger rejected."""
    return _clip_psd(np.linalg.eigvalsh((mat + mat.T) / 2.0), "matrix")


def covariance_root(fit: GaussianFit) -> Array:
    """Square root of a fit's symmetrized covariance, through its
    eigendecomposition (tiny negative eigenvalues clipped, larger rejected)."""
    vals, vecs = np.linalg.eigh((fit.covariance + fit.covariance.T) / 2.0)
    return (vecs * np.sqrt(_clip_psd(vals, "covariance"))) @ vecs.T


def frechet_distance(a: GaussianFit, b: GaussianFit, root_a: Array | None = None) -> float:
    """Squared 2-Wasserstein distance between two Gaussian fits.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^{1/2}), with the matrix
    square root taken through eigendecompositions of symmetrized products.
    A caller that scores many fits against one fit a passes
    `root_a = covariance_root(a)`, computed once (the experiment loop does so
    once per run, as it does the real set's ball bounds), so a's
    eigendecomposition is not repeated.
    """
    if a.mean.shape != b.mean.shape or a.covariance.shape != b.covariance.shape:
        raise ContractError(
            f"dimension mismatch: {a.mean.shape}/{a.covariance.shape} vs "
            f"{b.mean.shape}/{b.covariance.shape}")
    cov_a = (a.covariance + a.covariance.T) / 2.0
    cov_b = (b.covariance + b.covariance.T) / 2.0
    if root_a is None:
        root_a = covariance_root(a)
    elif root_a.shape != cov_a.shape:
        raise ContractError(f"root_a must have shape {cov_a.shape}, got {root_a.shape}")
    _psd_eigvals(cov_b)
    inner = root_a @ cov_b @ root_a
    trace_sqrt = float(np.sqrt(_psd_eigvals(inner)).sum())
    diff = a.mean - b.mean
    dist = float(diff @ diff) + float(np.trace(cov_a) + np.trace(cov_b)) - 2.0 * trace_sqrt
    return max(dist, 0.0)


# Row blocks hold at most this many point pairs (512 KiB of float64 per
# buffer), which keeps each block's passes in cache. Of 2^13 to 2^16, 2^16
# ran fastest at 500 and 8000 2-d points and at 64 points in 64-d.
_BLOCK_PAIRS = 2 ** 16
# The two block buffers, allocated once at import and lent to one block
# stream at a time. Allocated per call, they landed among whatever else the
# process had freed, and now and then the heap grew to fit them, faulting in
# fresh pages well after warm-up.
_block_scratch = np.empty(2 * _BLOCK_PAIRS)
_block_scratch_lent = False


@contextmanager
def _block_buffers(rows: int, n: int):
    """Two (rows, n) float64 buffers: views of the kept scratch, or fresh
    arrays when the blocks are larger or the scratch is lent to another
    live block stream."""
    global _block_scratch_lent
    size = rows * n
    if _block_scratch_lent or 2 * size > len(_block_scratch):
        yield np.empty((rows, n)), np.empty((rows, n))
        return
    _block_scratch_lent = True
    try:
        yield (_block_scratch[:size].reshape(rows, n),
               _block_scratch[size:2 * size].reshape(rows, n))
    finally:
        _block_scratch_lent = False


def _check_point_sets(a: Array, b: Array, what: str) -> None:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1] or a.shape[1] < 1:
        raise DimensionError(f"{what}: incompatible shapes {a.shape} and {b.shape}")


def _sq_distance_blocks(a: Array, b: Array):
    """Yield (lo, squared distances from a[lo:lo + rows] to every point of b),
    one row block at a time.

    The squares of the coordinate differences are summed one coordinate at a
    time, in coordinate order: the enumeration oracle's order. Each
    coordinate's differences are one broadcast subtract into the block, run
    inside unbuffered_ufuncs, which is left before each yield. Each block is
    written into the same two buffers, from _block_buffers, so a yielded block
    is only valid until the next one is requested or the stream ends; callers
    may overwrite it.
    """
    n, d = b.shape
    b_cols = np.ascontiguousarray(b.T)
    rows = max(1, min(len(a), _BLOCK_PAIRS // max(1, n)))
    with _block_buffers(rows, n) as (out_buf, term_buf):
        for lo in range(0, len(a), rows):
            a_block = a[lo:lo + rows]
            out = out_buf[:len(a_block)]
            with unbuffered_ufuncs():
                np.subtract(a_block[:, :1], b_cols[0], out=out)
                out *= out
                for j in range(1, d):
                    term = term_buf[:len(a_block)]
                    np.subtract(a_block[:, j:j + 1], b_cols[j], out=term)
                    term *= term
                    out += term
            yield lo, out


def pairwise_distances(a: Array, b: Array) -> Array:
    """Euclidean distance matrix, row blocks kept small to bound memory."""
    a = as_f64(a)
    b = as_f64(b)
    _check_point_sets(a, b, "pairwise_distances")
    out = np.empty((len(a), len(b)))
    for lo, sq in _sq_distance_blocks(a, b):
        np.sqrt(sq, out=out[lo:lo + len(sq)])
    return out


def ball_bounds(points: Array, k: int) -> Array:
    """Squared k-NN ball bounds that decide membership exactly as sqrt would.

    For each point, r2 is the squared distance to its k-th nearest neighbour
    within the set, itself excluded. The bound is the largest double s with
    sqrt(s) <= sqrt(r2): r2 raised by a few ulps where sqrt rounds larger
    squares onto the same radius. sqrt is monotone, so `sq <= bound` holds
    exactly when `sqrt(sq) <= sqrt(r2)`, with no sqrt taken per pair.
    """
    points = as_f64(points)
    _check_point_sets(points, points, "ball_bounds")
    n = len(points)
    if not 1 <= k < n:
        raise ContractError(f"ball_bounds needs 1 <= k < {n} points, got k={k}")
    bound = np.empty(n)
    for lo, sq in _sq_distance_blocks(points, points):
        rows = np.arange(len(sq))
        sq[rows, lo + rows] = np.inf
        sq.partition(k - 1, axis=1)
        bound[lo:lo + len(sq)] = sq[:, k - 1]
    radius = np.sqrt(bound)
    while True:
        up = np.nextafter(bound, np.inf)
        grow = (np.sqrt(up) <= radius) & (up > bound)
        if not grow.any():
            return bound
        bound[grow] = up[grow]


def manifold_metrics(real: Array, fake: Array, k: int,
                     real_bounds: Array | None = None) -> ManifoldMetrics:
    """k-NN overlap metrics between two point sets (brute-force distances).

    Each point's ball radius is the distance to its k-th nearest neighbour
    within its own set, itself excluded; membership is inclusive (<=).
    Pairs are compared by squared distance against `ball_bounds`, squared
    radii raised to the largest value whose sqrt is still the radius, so every
    decision, ties included, is exactly the one sqrt distances would give; no
    sqrt is taken per pair. Distances stream through row blocks so no full
    matrix is materialized. A caller that scores many fake sets against one
    real set passes `real_bounds = ball_bounds(real, k)`, computed once (the
    experiment loop does so once per run), so the real set's own k-NN pass is
    not repeated.
    """
    real = as_f64(real)
    fake = as_f64(fake)
    _check_point_sets(real, fake, "manifold_metrics")
    m, n = len(real), len(fake)
    if k < 1:
        raise ContractError(f"k must be >= 1, got k={k}")
    if m <= k or n <= k:
        raise ContractError(f"need sample counts above k: M={m}, N={n}, k={k}")
    if m > MAX_SAMPLES or n > MAX_SAMPLES:
        raise ContractError(f"brute-force metrics cap at {MAX_SAMPLES} samples per set, got {m}/{n}")
    if real_bounds is None:
        real_bounds = ball_bounds(real, k)
    else:
        real_bounds = as_f64(real_bounds)
        if real_bounds.shape != (m,):
            raise ContractError(f"real_bounds must have shape ({m},), got {real_bounds.shape}")
    fake_bounds = ball_bounds(fake, k)
    fake_inside_some_real = np.zeros(n, dtype=bool)
    real_ball_hits = 0
    real_covered = 0
    real_recalled = 0
    for lo, sq in _sq_distance_blocks(real, fake):
        with unbuffered_ufuncs():  # the ball tests; the reductions run faster buffered
            inside_real = sq <= real_bounds[lo:lo + len(sq), None]
            inside_fake = sq <= fake_bounds
        fake_inside_some_real |= inside_real.any(axis=0)
        real_ball_hits += int(np.count_nonzero(inside_real))
        real_covered += int(np.count_nonzero(inside_real.any(axis=1)))
        real_recalled += int(np.count_nonzero(inside_fake.any(axis=1)))
    return ManifoldMetrics(
        precision=float(fake_inside_some_real.mean()),
        recall=real_recalled / m,
        density=real_ball_hits / (k * n),
        coverage=real_covered / m,
    )


def mode_coverage(samples: Array, centers: Array, sigma: float):
    """(covered modes, high-quality fraction) for a mixture of round modes.

    A sample is high quality when it lies within HQ_SIGMAS * sigma of its
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
    high_quality = d_min <= HQ_SIGMAS * sigma
    covered = int(np.unique(nearest[high_quality]).size)
    return covered, float(high_quality.mean())


EMBED_DIM = 64
EMBED_SEED = 0  # the one embedding every image measurement uses
_EMBED_MID = 32


@lru_cache(maxsize=None)
def _embed_kernels(seed: int, in_channels: int) -> tuple[Array, Array]:
    """The embedder's two kernels at (seed, in_channels), drawn once per
    process and read-only: He-scaled normals from SeededRng(seed)."""
    rng = SeededRng(seed)
    k1 = rng.normal((_EMBED_MID, in_channels, 3, 3), 0.0, math.sqrt(2.0 / (in_channels * 9)))
    k2 = rng.normal((EMBED_DIM, _EMBED_MID, 3, 3), 0.0, math.sqrt(2.0 / (_EMBED_MID * 9)))
    k1.setflags(write=False)
    k2.setflags(write=False)
    return k1, k2


def random_feature_embed(images: Array, seed: int) -> Array:
    """Fixed seeded two-layer random conv features, pooled to 64 dimensions.

    Deterministic per seed; weights are He-scaled normals (_embed_kernels),
    biases zero, stride 2, leaky slope 0.2.
    """
    x = as_f64(images)
    if x.ndim != 4:
        raise DimensionError(f"random_feature_embed expects (n, c, h, w), got {x.shape}")
    k1, k2 = _embed_kernels(int(seed), x.shape[1])
    h = conv2d_forward(x, k1, 2)
    np.multiply(h, 0.2, out=h, where=h <= 0.0)
    h = conv2d_forward(h, k2, 2)
    np.multiply(h, 0.2, out=h, where=h <= 0.0)
    return global_sum_pool(h)


def measure(samples: Array) -> tuple[Array, str]:
    """(points, space) a sample batch is measured in. (n, d) points pass
    through as they are, in space "data"; (n, c, h, w) images go through
    random_feature_embed at EMBED_SEED, in space "random_features". Like FID,
    a Fréchet distance compares only within one fixed space."""
    x = as_f64(samples)
    if x.ndim == 2:
        return x, "data"
    return random_feature_embed(x, EMBED_SEED), "random_features"
