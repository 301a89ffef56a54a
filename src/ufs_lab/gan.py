"""Generator/critic pair with a split feature body and linear scoring head.

The critic is split into (body, w, b), views of its one parameter vector:
the body maps inputs to a per-sample feature vector, and the head is a
single linear map from features to the scalar score. Keeping the split
explicit is what lets generator training reweight individual feature
channels before the score is formed, and lets attribution read the pre-pool
feature map.

A critic step runs the body forward once over the stacked [real; fake; x_hat]
rows and backward once per group: one weight-gradient GEMM over all the rows
would sum in a different order. A conv body's row slices are bitwise each
group's own forward; dense BLAS rows can differ at some row counts (8, 16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import selection as selection_mod
from . import ufs as ufs_mod
from .errors import ConfigError, ContractError, DimensionError, NumericError
from .numerics import (
    AdamState,
    Array,
    Network,
    SeededRng,
    adam_step,
    as_f64,
    backward_pass,
    conv2d,
    dense,
    forward_pass,
    input_grad_param_grads,
    leaky_relu,
    param_grads,
    sum_pool,
    tanh,
)

LOSS_KINDS = ("wgan_gp", "hinge")


@dataclass
class LossKind:
    kind: str = "wgan_gp"
    gp_lambda: float | None = None  # read by wgan_gp only, where null stands for 10

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}; the kinds are "
                              f"{', '.join(LOSS_KINDS)}")
        if self.gp_lambda is None:
            self.gp_lambda = 10.0 if self.kind == "wgan_gp" else None
        elif self.kind != "wgan_gp":
            raise ConfigError(f"gp_lambda is not read by loss kind {self.kind!r}")
        elif self.gp_lambda < 0:
            raise ContractError(f"gp_lambda must be >= 0, got {self.gp_lambda}")


@dataclass
class TrainConfig:
    batch_size: int = 64
    n_critic: int | None = None  # resolved per loss kind below
    iterations: int = 1000
    seed: int = 0
    loss: LossKind = field(default_factory=LossKind)
    ufs: ufs_mod.UfsConfig | None = None
    selection: selection_mod.SelectionConfig | None = None

    def __post_init__(self):
        if self.batch_size < 2:
            raise ContractError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.iterations < 1:
            raise ContractError(f"iterations must be >= 1, got {self.iterations}")
        if self.n_critic is None:
            self.n_critic = 5 if self.loss.kind == "wgan_gp" else 1
        if self.n_critic < 1:
            raise ContractError(f"n_critic must be >= 1, got {self.n_critic}")
        if self.selection is not None and self.selection.k_start > self.batch_size:
            raise ContractError(
                f"k_start ({self.selection.k_start}) exceeds batch size ({self.batch_size})")


@dataclass
class GeneratorNet:
    net: Network
    data_shape: tuple

    @property
    def latent_dim(self) -> int:
        return self.net.specs[0].in_features

    def sample(self, z: Array, want_cache: bool = False):
        y, cache = forward_pass(self.net.specs, self.net.params, z)
        y = y.reshape((len(y),) + tuple(self.data_shape))
        return (y, cache) if want_cache else y

    def backward(self, cache, upstream: Array) -> Array:
        upstream = upstream.reshape(len(upstream), -1)
        _, tape = backward_pass(self.net.specs, self.net.params, cache, upstream, input_grad=False)
        return param_grads(self.net.specs, cache, tape)


class DiscriminatorNet:
    """The critic (body, w, b) as one parameter vector theta = [body | w | b]:
    body.theta, w (C,) and b (1,) are views of it, so one Adam step moves
    them all. The constructor copies the parts it is given into theta."""

    def __init__(self, body: Network, w: Array, b: Array):
        self.theta = np.concatenate([body.theta, w, b])
        n = body.theta.size
        self.body = Network(body.specs, self.theta[:n])
        self.w, self.b = self.theta[n:-1], self.theta[-1:]

    @property
    def feature_dim(self) -> int:
        return len(self.w)


def score_from_features(d: DiscriminatorNet, features: Array) -> Array:
    """Linear head applied per sample, to plain or masked features; bitwise
    equal to a dense layer stacked on the body."""
    scores = features @ d.w.reshape(-1, 1)
    scores += d.b
    return scores[:, 0]


def head_feature_grad(w: Array, s: Array | None, dscores: Array) -> Array:
    """The (n, C) gradient at the features of a loss with per-sample score
    gradients dscores: w_c per channel, times the mask s when one is applied."""
    if s is None:
        return dscores[:, None] * w[None, :]
    return dscores[:, None] * (w[None, :] * s)


# --- losses ----------------------------------------------------------------- #


def _mean(x: Array):
    """x.mean(): the sum and division np.mean makes, without its wrapper."""
    return np.add.reduce(x, axis=None) / x.size


def critic_loss(kind: str, real_scores: Array, fake_scores: Array):
    """The critic's loss on one real/fake score batch and its derivatives with
    respect to each score: (value, d_real, d_fake). wgan_gp's is the Wasserstein
    score gap mean(fake) - mean(real); its penalty is added by the caller."""
    r, f = as_f64(real_scores), as_f64(fake_scores)
    if r.size == 0 or f.size == 0:
        raise ContractError("critic_loss: empty score batch")
    if kind == "wgan_gp":
        return (float(_mean(f) - _mean(r)), np.full(r.shape, -1.0 / r.size),
                np.full(f.shape, 1.0 / f.size))
    if kind == "hinge":
        margin_r, margin_f = 1.0 - r, 1.0 + f
        return (float(_mean(np.maximum(0.0, margin_r)) + _mean(np.maximum(0.0, margin_f))),
                -(margin_r > 0.0).astype(float) / r.size, (margin_f > 0.0).astype(float) / f.size)
    raise ContractError(f"unknown loss kind {kind!r}")


# --- gradient penalty -------------------------------------------------------- #


def interpolate_batches(real: Array, fake: Array, rng: SeededRng) -> Array:
    real, fake = as_f64(real), as_f64(fake)
    if real.shape != fake.shape:
        raise DimensionError(f"batch shapes differ: {real.shape} vs {fake.shape}")
    u = rng.uniform((len(real),) + (1,) * (real.ndim - 1))
    x_hat = u * real
    x_hat += (1.0 - u) * fake
    return x_hat


def penalty_with_grads(d: DiscriminatorNet, cache, gp_lambda: float):
    """Two-sided gradient-norm penalty and its gradients: (value, flat body
    grads, dw).

    `cache` is the body's forward cache at the interpolated points x_hat. The
    gradients differentiate through the input-gradient computation
    (second-order backward, from the first pass's tape; that pass computes no
    parameter gradients); biases receive none, since the input gradient of
    a piecewise-linear critic does not depend on them. The head is linear, so
    the score's gradient at the pooled features is w in every row, and dw is
    ones @ q, where q is the second-order term carried up to the features.
    """
    specs, params = d.body.specs, d.body.params
    n = len(cache[0])
    ones = np.ones(n)
    gx, tape = backward_pass(specs, params, cache, head_feature_grad(d.w, None, ones))
    axes = tuple(range(1, gx.ndim))
    norms = np.sqrt((gx * gx).sum(axis=axes))
    value = gp_lambda * float(_mean((norms - 1.0) ** 2))
    coef = gp_lambda * 2.0 * (norms - 1.0) / (n * np.maximum(norms, 1e-12))
    v = gx * coef.reshape((-1,) + (1,) * (gx.ndim - 1))
    pgrads, q = input_grad_param_grads(specs, params, cache, tape, v)
    return value, pgrads, ones @ q


# --- objective gradients ------------------------------------------------------ #


def _split_groups(y: Array, cache, lengths):
    """(features, cache) per group of one forward pass over row-stacked groups."""
    bounds = list(accumulate(lengths, initial=0))
    return [(y[lo:hi], [c[lo:hi] for c in cache])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def discriminator_objective_grads(d: DiscriminatorNet, real_batch: Array, fake_batch: Array,
                                  loss: LossKind, x_hat: Array | None = None):
    """(loss, grads, diag) for one real/fake batch pair: grads is laid out as
    d.theta, the real, fake and penalty terms summed in that order.

    x_hat must be supplied when the loss carries a gradient penalty so the
    interpolation points are fixed by the caller (and by tests).
    """
    batches = [as_f64(real_batch), as_f64(fake_batch)]
    if loss.kind == "wgan_gp":
        if x_hat is None:
            raise ContractError("wgan_gp needs interpolated points")
        batches.append(as_f64(x_hat))
    if len({b.shape[1:] for b in batches}) > 1:
        raise DimensionError(f"critic batches differ in sample shape: {[b.shape for b in batches]}")
    specs, params = d.body.specs, d.body.params
    y, cache = forward_pass(specs, params, np.concatenate(batches))
    (y_r, cache_r), (y_f, cache_f), *x_hat_group = _split_groups(y, cache, [len(b) for b in batches])
    s_r = score_from_features(d, y_r)
    s_f = score_from_features(d, y_f)
    value, dr, df = critic_loss(loss.kind, s_r, s_f)
    grads = np.empty_like(d.theta)  # [body | w | b]
    body_grads, dw = grads[:d.body.theta.size], grads[d.body.theta.size:-1]
    np.matmul(dr, y_r, out=dw)
    dw += df @ y_f
    grads[-1] = dr.sum() + df.sum()
    _, tape_r = backward_pass(specs, params, cache_r, head_feature_grad(d.w, None, dr),
                              input_grad=False)
    _, tape_f = backward_pass(specs, params, cache_f, head_feature_grad(d.w, None, df),
                              input_grad=False)
    param_grads(specs, cache_r, tape_r, out=body_grads)
    body_grads += param_grads(specs, cache_f, tape_f)
    penalty = 0.0
    if x_hat_group:
        penalty, pgrads, pw = penalty_with_grads(d, x_hat_group[0][1], loss.gp_lambda)
        body_grads += pgrads
        dw += pw
    diag = {"real_scores": s_r, "fake_scores": s_f, "penalty": penalty,
            "y_real": y_r, "y_fake": y_f}
    return value + penalty, grads, diag


# --- training state and steps -------------------------------------------------- #

ADAM_LR = 5e-4
LR_TAPER_START = 0.7  # fraction of the run after which the rate ramps down
LR_TAPER_FLOOR = 0.05


@dataclass
class TrainerState:
    cfg: TrainConfig
    gen: GeneratorNet
    disc: DiscriminatorNet
    adam_g: AdamState
    adam_d: AdamState
    stats: ufs_mod.FeatureStats | None = None  # None until the first critic step

    @property
    def t(self) -> int:
        """The iteration: the number of generator steps taken."""
        return self.adam_g.step


def init_trainer(cfg: TrainConfig, gen: GeneratorNet, disc: DiscriminatorNet) -> TrainerState:
    """Adam on both networks, before any step."""
    return TrainerState(cfg, gen, disc, AdamState.for_params(gen.net.theta),
                        AdamState.for_params(disc.theta))


def _current_lr(state: TrainerState) -> float:
    """Constant rate for most of the run, then a linear taper to a small floor.

    The endgame taper is what shrinks the generator's equilibrium jitter
    around the data modes; tapering earlier starves the adversarial game.
    """
    progress = min(1.0, state.t / state.cfg.iterations)
    if progress <= LR_TAPER_START:
        return ADAM_LR
    ramp = (progress - LR_TAPER_START) / (1.0 - LR_TAPER_START)
    return ADAM_LR * max(LR_TAPER_FLOOR, 1.0 - (1.0 - LR_TAPER_FLOOR) * ramp)


def train_discriminator_step(state: TrainerState, real_batch: Array, rng: SeededRng) -> float:
    """One critic update. The suppression mask is never applied here; the
    step only refreshes the feature statistics the mask will later use.
    Raises NumericError on a non-finite loss, before anything is updated."""
    cfg = state.cfg
    d = state.disc
    z = rng.normal((cfg.batch_size, state.gen.latent_dim))
    fake = state.gen.sample(z)
    x_hat = None
    if cfg.loss.kind == "wgan_gp":
        x_hat = interpolate_batches(real_batch, fake, rng)
    loss, grads, diag = discriminator_objective_grads(
        d, real_batch, fake, cfg.loss, x_hat)
    if not math.isfinite(loss):
        raise NumericError(f"critic loss diverged: {loss}")
    # statistics use the head weights as they were during this forward pass
    state.stats = ufs_mod.update_stats(d.w, diag["y_real"], diag["y_fake"])
    adam_step(state.adam_d, d.theta, grads, _current_lr(state))
    return loss


def generator_mask(state: TrainerState, features: Array) -> Array | None:
    """The (n, C) suppression mask the generator objective applies to these
    pooled critic features at the state's iteration (beta annealed), or None
    when UFS is off or no critic step has made feature statistics yet."""
    cfg = state.cfg
    if cfg.ufs is None or state.stats is None:
        return None
    return ufs_mod.suppression_mask(state.stats, state.disc.w, features, cfg.ufs,
                                    ufs_mod.anneal_beta(cfg.ufs, state.t, cfg.iterations))


def generator_objective_grads(state: TrainerState, z: Array, rng: SeededRng):
    """The generator loss -sum(weights * scores) on z and its gradients.

    With a UFS config and feature statistics, the scores are the
    masked ones; the mask is held constant, so it selects gradients and is
    not differentiated through. With a selection config, the weights are 1/k
    on the k samples the (annealed) selection picks from those scores, else
    uniform. The critic backward computes no parameter gradients. Returns
    (loss, flat generator grads, scores, mask or None, weights).
    """
    cfg = state.cfg
    d = state.disc
    fake, gcache = state.gen.sample(z, want_cache=True)
    y_f, dcache = forward_pass(d.body.specs, d.body.params, fake)
    s = generator_mask(state, y_f)
    scores = score_from_features(d, y_f if s is None else ufs_mod.apply_suppression(y_f, s))
    n = len(scores)
    if cfg.selection is not None:
        k = selection_mod.anneal_k(cfg.selection, state.t, cfg.iterations)
        weights = np.zeros(n)
        weights[selection_mod.select_indices(scores, k, cfg.selection.mode, rng)] = 1.0 / k
    else:
        weights = np.full(n, 1.0 / n)
    loss = -float(scores @ weights)
    d_y = head_feature_grad(d.w, s, -weights)
    dx, _ = backward_pass(d.body.specs, d.body.params, dcache, d_y)
    return loss, state.gen.backward(gcache, dx), scores, s, weights


def train_generator_step(state: TrainerState, rng: SeededRng) -> float:
    """One generator update: draw z, take the objective's gradients, step Adam.
    Raises NumericError on a non-finite loss, before Adam runs."""
    z = rng.normal((state.cfg.batch_size, state.gen.latent_dim))
    loss, ggrads, _, _, _ = generator_objective_grads(state, z, rng)
    if not math.isfinite(loss):
        raise NumericError(f"generator loss diverged: {loss}")
    adam_step(state.adam_g, state.gen.net.theta, ggrads, _current_lr(state))
    return loss


# --- default architectures ------------------------------------------------------ #


POINT_LATENT_DIM = 8
IMAGE_LATENT_DIM = 64


def default_models(data_shape, rng: SeededRng):
    """Small CPU-friendly generator/critic pair for 2-d points or 1-channel images.

    Point tasks use leaky MLPs on both sides. Image critics downsample with
    three 3x3 stride-2 convolutions into 128 channels, so images need at
    least 15x15 pixels; the image generator is a dense stack with a tanh
    output reshaped to the image (the layer set has no upsampling primitive).
    """
    data_shape = tuple(data_shape)
    if data_shape == (2,):
        gen = GeneratorNet(
            Network.init([dense(POINT_LATENT_DIM, 64), leaky_relu(0.2),
                          dense(64, 64), leaky_relu(0.2), dense(64, 2)], rng),
            data_shape)
        body = Network.init([dense(2, 64), leaky_relu(0.2),
                             dense(64, 64), leaky_relu(0.2),
                             dense(64, 64), leaky_relu(0.2)], rng)
        channels = 64
    elif len(data_shape) == 3 and data_shape[0] == 1:
        h, w = data_shape[1], data_shape[2]
        if min(h, w) < 15:
            raise ContractError(f"the default image critic needs at least 15x15 pixels, got {h}x{w}")
        gen = GeneratorNet(
            Network.init([dense(IMAGE_LATENT_DIM, 256), leaky_relu(0.2),
                          dense(256, 256), leaky_relu(0.2),
                          dense(256, h * w), tanh()], rng),
            data_shape)
        body = Network.init([conv2d(1, 32, 3, 2), leaky_relu(0.2),
                             conv2d(32, 64, 3, 2), leaky_relu(0.2),
                             conv2d(64, 128, 3, 2), leaky_relu(0.2),
                             sum_pool()], rng)
        channels = 128
    else:
        raise ContractError(f"no default architecture for data shape {data_shape}")
    head = Network.init([dense(channels, 1)], rng).theta  # [w | b]
    return gen, DiscriminatorNet(body, head[:-1], head[-1:])
