"""Per-sample, per-channel suppression of unrealistic critic features.

A weighted feature vector is a sample's pooled critic features times the
head weights, channel by channel (`weighted_features`). During critic
training we track the means of the weighted features of real and fake
batches. During generator training each fake sample's weighted feature
vector is compared channel by channel against those means: the
distance from the real mean, expressed as a fraction of the real-fake
margin, is turned into a piecewise-linear weight that scales the channel's
contribution to the critic score. Channels at a ratio of alpha or below
(with alpha = 0, at or past the real mean, seen from the fake one) keep the
largest weight, epsilon - alpha; channels that sit at or beyond the fake
mean are attenuated (or zeroed, depending on the hyperparameters).
The entries that look most real, within gamma of the real mean, are the
exception: they get NEAR_REAL_RATIO, the ratio at the fake mean, so the
presets (alpha = 0, beta = epsilon = 1) give them weight 0.

The weight for a channel with distance ratio r is

    epsilon - clip(r, alpha, beta)

so all weights live in [epsilon - beta, epsilon - alpha]. A configuration
with epsilon - beta = 0 zeroes the worst channels ("dismission"); one with
epsilon - beta > 0 merely scales them down ("suppression"), and one with
epsilon - beta >= 1 attenuates nothing, since every channel keeps at least
its full weight. An optional schedule moves beta linearly from its
configured value to `beta_end`; the mask is computed at the beta
`anneal_beta` gives for the iteration, passed in the way selection's
annealed k is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .numerics import Array, as_f64, linear_anneal

DENOM_FLOOR = 1e-8  # smallest margin magnitude compute_ratio divides by
NEAR_REAL_RATIO = 1.0  # ratio of a channel within gamma of the real mean


@dataclass
class FeatureStats:
    """Per-channel means of one critic batch's weighted real/fake features."""

    mu_real: Array
    mu_fake: Array


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


def update_stats(w: Array, y_real: Array, y_fake: Array) -> FeatureStats:
    """The real/fake means of one critic batch's weighted features."""
    real, fake = weighted_features(w, y_real), weighted_features(w, y_fake)
    if len(real) < 1 or len(fake) < 1:
        raise ContractError("update_stats needs at least one sample per batch")
    # the sum and division np.mean makes, without its wrapper
    return FeatureStats(np.add.reduce(real, axis=0) / len(real),
                        np.add.reduce(fake, axis=0) / len(fake))


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
    y_hat = as_f64(y_hat)
    if y_hat.ndim != 2 or y_hat.shape[1:] != stats.mu_real.shape:
        raise DimensionError(f"y_hat shape {y_hat.shape} does not match {len(stats.mu_real)} channels")
    margin = stats.mu_real - stats.mu_fake
    sign = np.where(margin >= 0.0, 1.0, -1.0)
    floored = sign * np.maximum(np.abs(margin), DENOM_FLOOR)
    dist = stats.mu_real[None, :] - y_hat
    return np.where(np.abs(dist) >= cfg.gamma, dist / floored[None, :], NEAR_REAL_RATIO)


def compute_suppression(ratios: Array, cfg: UfsConfig, beta: float) -> Array:
    """Piecewise-linear suppression weights at the iteration's beta:
    epsilon - clip(ratio, alpha, beta), an (n, C) array in
    [epsilon - beta, epsilon - alpha]."""
    return cfg.epsilon - np.clip(as_f64(ratios), cfg.alpha, beta)


def suppression_mask(stats: FeatureStats, w: Array, features: Array,
                     cfg: UfsConfig, beta: float) -> Array:
    """The mask for a batch of pooled critic features: weight them by the head,
    measure each channel against the real mean, and clip into weights."""
    return compute_suppression(compute_ratio(stats, weighted_features(w, features), cfg), cfg, beta)


def apply_suppression(y_fake: Array, s: Array) -> Array:
    """The masked features y * s, which the critic head then scores."""
    y_fake = as_f64(y_fake)
    if y_fake.shape != s.shape:
        raise DimensionError(f"suppression shape {s.shape} does not match features {y_fake.shape}")
    return y_fake * s


def anneal_beta(cfg: UfsConfig, t: int, total: int) -> float:
    """Linear beta schedule from beta to beta_end over the first
    anneal_fraction of training."""
    if cfg.beta_anneal is None:
        return cfg.beta
    sched = cfg.beta_anneal
    return linear_anneal(cfg.beta, sched.beta_end, sched.anneal_fraction, t, total)

