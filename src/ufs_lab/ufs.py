"""Per-sample, per-channel suppression of unrealistic critic features.

A weighted feature vector is a sample's pooled critic features times the
head weights, channel by channel (`weighted_features`). During critic
training we track the means of the weighted features of real and fake
batches. During generator training each fake sample's weighted feature
vector is compared channel by channel against those means: the
distance from the real mean, expressed as a fraction of the real-fake
margin, is turned into a piecewise-linear weight that scales the channel's
contribution to the critic score. Channels that look real keep their full
weight; channels that sit at or beyond the fake mean are attenuated (or
zeroed, depending on the hyperparameters).

The weight for a channel with distance ratio r is

    epsilon - clip(r, alpha, beta)

so all weights live in [epsilon - beta, epsilon - alpha]. A configuration
with epsilon - beta = 0 zeroes the worst channels ("dismission"); one with
epsilon - beta > 0 merely scales them down ("suppression"). An optional
schedule moves beta linearly from its configured value to `beta_end`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DimensionError, StateError
from .numerics import Array, as_f64, linear_anneal

DENOM_FLOOR = 1e-8  # smallest margin magnitude compute_ratio divides by
NEAR_REAL_RATIO = 1.0  # ratio of a channel within gamma of the real mean


@dataclass
class FeatureStats:
    """Means of the latest critic batch's weighted real/fake features, one
    entry per channel; each update replaces them."""

    mu_real: Array
    mu_fake: Array
    initialized: bool = False

    @classmethod
    def empty(cls, channels: int) -> "FeatureStats":
        return cls(np.zeros(channels), np.zeros(channels), False)

    @property
    def channels(self) -> int:
        return len(self.mu_real)


@dataclass(frozen=True)
class BetaAnneal:
    beta_end: float
    anneal_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.anneal_fraction <= 1.0:
            raise ContractError(f"anneal_fraction must be in (0, 1], got {self.anneal_fraction}")


@dataclass(frozen=True)
class UfsConfig:
    """Suppression hyperparameters.

    alpha / beta clamp the distance ratio, epsilon shifts it into the final
    weight; gamma is the near-real guard on the distance itself (a channel
    closer than gamma to the real mean gets NEAR_REAL_RATIO). beta_anneal,
    when set, moves beta linearly from `beta` to `beta_anneal.beta_end`.
    """

    alpha: float
    beta: float
    epsilon: float
    gamma: float = 1e-4
    beta_anneal: BetaAnneal | None = None

    def __post_init__(self):
        if self.gamma < 0:
            raise ContractError(f"gamma must be >= 0, got {self.gamma}")
        betas = [self.beta]
        if self.beta_anneal is not None:
            betas.append(self.beta_anneal.beta_end)
        for b in betas:
            if self.alpha > b:
                raise ContractError(f"alpha ({self.alpha}) must not exceed beta ({b})")
            if self.epsilon - b < 0:
                raise ContractError(
                    f"epsilon - beta must be >= 0 (got epsilon={self.epsilon}, beta={b})")


def update_stats(stats: FeatureStats, w: Array, y_real: Array, y_fake: Array) -> None:
    """Set the real/fake means to those of one critic batch's weighted features."""
    real, fake = weighted_features(w, y_real), weighted_features(w, y_fake)
    if len(real) < 1 or len(fake) < 1:
        raise ContractError("update_stats needs at least one sample per batch")
    stats.mu_real = real.mean(axis=0)
    stats.mu_fake = fake.mean(axis=0)
    stats.initialized = True


def weighted_features(w: Array, y: Array) -> Array:
    """Per-sample elementwise product with the head weights, not a weighted
    sum, so each channel keeps its own value; no batch averaging."""
    w = as_f64(w)
    y = as_f64(y)
    if w.ndim != 1 or y.ndim != 2 or y.shape[1] != w.size:
        raise DimensionError(f"weighted_features: w {w.shape} does not match features {y.shape}")
    return w[None, :] * y


def compute_ratio(stats: FeatureStats, y_hat: Array, cfg: UfsConfig) -> Array:
    """Distance of each weighted feature from the real mean as a margin fraction.

    Channels whose distance is under gamma get NEAR_REAL_RATIO instead of the
    quotient; the margin magnitude is floored at DENOM_FLOOR (sign preserved,
    +0 counts as positive) so the division never blows up.
    """
    if not stats.initialized:
        raise StateError("compute_ratio called before feature statistics were populated")
    y_hat = as_f64(y_hat)
    if y_hat.ndim != 2 or y_hat.shape[1] != stats.channels:
        raise DimensionError(f"y_hat shape {y_hat.shape} does not match {stats.channels} channels")
    margin = stats.mu_real - stats.mu_fake
    sign = np.where(margin >= 0.0, 1.0, -1.0)
    floored = sign * np.maximum(np.abs(margin), DENOM_FLOOR)
    dist = stats.mu_real[None, :] - y_hat
    return np.where(np.abs(dist) >= cfg.gamma, dist / floored[None, :], NEAR_REAL_RATIO)


def compute_suppression(ratios: Array, cfg: UfsConfig) -> Array:
    """Piecewise-linear suppression weights: epsilon - clip(ratio, alpha, beta),
    an (n, C) array in [epsilon - beta, epsilon - alpha]."""
    return cfg.epsilon - np.clip(as_f64(ratios), cfg.alpha, cfg.beta)


def suppression_mask(stats: FeatureStats, w: Array, features: Array,
                     cfg: UfsConfig) -> Array:
    """The mask for a batch of pooled critic features: weight them by the head,
    measure each channel against the real mean, and clip into weights."""
    return compute_suppression(compute_ratio(stats, weighted_features(w, features), cfg), cfg)


def apply_suppression(y_fake: Array, s: Array, w: Array, b: Array) -> Array:
    """Scores of masked features: <w, y * s> + b per sample."""
    y_fake = as_f64(y_fake)
    w = as_f64(w)
    if y_fake.shape != s.shape:
        raise DimensionError(f"suppression shape {s.shape} does not match features {y_fake.shape}")
    if y_fake.ndim != 2 or y_fake.shape[1] != w.size:
        raise DimensionError(f"features {y_fake.shape} do not match head width {w.size}")
    return ((y_fake * s) @ w.reshape(-1, 1) + np.asarray(b).reshape(1, 1))[:, 0]


def classify_mode(cfg: UfsConfig) -> str:
    """Label a configuration "dismission" (worst channels zeroed) or "suppression".

    epsilon - beta is the weight given to the worst channels: exactly zero
    means they are dropped outright; anything positive keeps them, scaled.
    A gap of 1 or more never attenuates anything, which is worth a warning.
    """
    gap = cfg.epsilon - cfg.beta
    if gap == 0.0:
        return "dismission"
    if gap >= 1.0:
        warnings.warn(
            f"epsilon - beta = {gap}: no-suppression regime, every channel keeps "
            "at least its full weight", stacklevel=2)
    return "suppression"


def anneal_beta(cfg: UfsConfig, t: int, total: int) -> float:
    """Linear beta schedule from beta to beta_end over the first
    anneal_fraction of training."""
    if cfg.beta_anneal is None:
        return cfg.beta
    sched = cfg.beta_anneal
    return linear_anneal(cfg.beta, sched.beta_end, sched.anneal_fraction, t, total)


def effective_config(cfg: UfsConfig, t: int, total: int) -> UfsConfig:
    """Config with the annealed beta substituted for iteration t."""
    if cfg.beta_anneal is None:
        return cfg
    return replace(cfg, beta=anneal_beta(cfg, t, total), beta_anneal=None)
