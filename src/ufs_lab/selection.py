"""Sample-level gradient selection and Gaussian instance pruning."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError
from .metrics import fit_gaussian, random_feature_embed
from .numerics import Array, SeededRng, as_f64, linear_anneal, write_atomic

SELECTION_MODES = ("top", "bottom", "random")
COVARIANCE_MODES = ("full_shrinkage", "diagonal")


@dataclass(frozen=True)
class SelectionConfig:
    mode: str = "top"
    k_start: int = 64
    k_end: int = 32
    anneal_fraction: float = 0.5

    def __post_init__(self):
        if self.mode not in SELECTION_MODES:
            raise ContractError(f"unknown selection mode {self.mode!r}")
        if not 1 <= self.k_end <= self.k_start:
            raise ContractError(f"need 1 <= k_end <= k_start, got {self.k_end} > {self.k_start}")
        if not 0.0 < self.anneal_fraction <= 1.0:
            raise ContractError(f"anneal_fraction must be in (0, 1], got {self.anneal_fraction}")


@dataclass(frozen=True)
class InstanceSelectionConfig:
    retention_ratio: float = 0.5
    embedder_seed: int = 0
    covariance_mode: str = "full_shrinkage"

    def __post_init__(self):
        if not 0.0 < self.retention_ratio <= 1.0:
            raise ContractError(f"retention_ratio must be in (0, 1], got {self.retention_ratio}")
        if self.covariance_mode not in COVARIANCE_MODES:
            raise ContractError(f"unknown covariance mode {self.covariance_mode!r}")


def select_indices(scores: Array, k: int, mode: str, rng: SeededRng) -> Array:
    """Indices of the k largest / smallest / random scores, ties to lowest index."""
    s = as_f64(scores).ravel()
    n = s.size
    if not 1 <= k <= n:
        raise ContractError(f"k={k} out of range for a batch of {n}")
    if mode == "top":
        return _top_k(s, k)
    if mode == "bottom":
        return _top_k(-s, k)
    if mode == "random":
        return np.sort(rng.choice_no_replace(n, k))
    raise ContractError(f"unknown selection mode {mode!r}")


def _top_k(scores: Array, k: int) -> Array:
    """Sorted indices of the k largest scores, ties to lowest index."""
    return np.sort(np.argsort(-scores, kind="stable")[:k])


def anneal_k(cfg: SelectionConfig, t: int, total: int) -> int:
    """Linear k schedule over the first anneal_fraction of training, then flat."""
    return int(np.rint(linear_anneal(cfg.k_start, cfg.k_end, cfg.anneal_fraction, t, total)))


def gaussian_log_scores(embedded: Array, covariance_mode: str) -> Array:
    """Log-density of each row under a single Gaussian fit to all rows."""
    x = as_f64(embedded)
    n, d = x.shape
    fit = fit_gaussian(x)
    centered = x - fit.mean
    if covariance_mode == "full_shrinkage":
        shrink = 1e-6 * np.trace(fit.covariance) / d
        cov = fit.covariance + shrink * np.eye(d)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"covariance singular after shrinkage {shrink:.3e} (dim {d}, n {n})") from exc
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        solved = np.linalg.solve(cov, centered.T)
        quad = (centered.T * solved).sum(axis=0)
    elif covariance_mode == "diagonal":  # the fit's diagonal differs in the last bits
        var = centered.var(axis=0, ddof=1)
        if np.any(var <= 0):
            raise NumericError(f"zero variance along {int((var <= 0).sum())} dimensions")
        logdet = np.log(var).sum()
        quad = (centered * centered / var[None, :]).sum(axis=1)
    else:
        raise ContractError(f"unknown covariance mode {covariance_mode!r}")
    return -0.5 * (quad + logdet + d * math.log(2.0 * math.pi))


def instance_select(dataset: Array, cfg: InstanceSelectionConfig) -> Array:
    """Keep the densest retention_ratio fraction of a dataset under a Gaussian fit.

    2-d inputs are scored directly; image stacks (n, c, h, w) go through the
    fixed random-feature embedder first.
    """
    data = as_f64(dataset)
    if data.ndim == 2:
        embedded = data
    elif data.ndim == 4:
        embedded = random_feature_embed(data, cfg.embedder_seed)
    else:
        raise ContractError(f"instance_select expects points (n, d) or images (n, c, h, w), got {data.shape}")
    n = len(embedded)
    if n < 4:
        raise ContractError(f"instance selection needs at least 4 samples, got {n}")
    if cfg.retention_ratio * n < 2:
        raise ContractError(
            f"retention {cfg.retention_ratio} of {n} samples keeps fewer than 2")
    scores = gaussian_log_scores(embedded, cfg.covariance_mode)
    return _top_k(scores, int(math.ceil(cfg.retention_ratio * n - 1e-12)))


def write_index_file(indices, path) -> None:
    """Newline-delimited integer indices, one per line, written atomically."""
    write_atomic(path, "".join(f"{int(i)}\n" for i in indices).encode())
