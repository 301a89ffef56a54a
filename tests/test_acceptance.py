"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

The end-to-end smoke runs the four ring8 presets in full (several minutes on
one CPU); everything else is fast.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    cam_state,
    denman_beavers_sqrt,
    fd_param_grads,
    frozen_generator_loss,
    grad_close,
    init_network,
    objective_state,
    param_arrays,
    penalty_at,
    penalty_stacked,
    prdc_loop,
    small_conv_disc,
    small_gen,
    small_mlp_disc,
    split_scores,
    worst_channel_weights,
)
from ufs_lab import attribution, gan, harness, metrics as mx, selection as sel, ufs
from ufs_lab import numerics as nm
from ufs_lab.datasets import DatasetConfig, make_dataset
from ufs_lab.ufs import UfsConfig

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
PRESETS = ("ring8_baseline", "ring8_ufs", "ring8_topk", "ring8_topk_ufs")


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- criterion 1: gradient suite -------------------------------------------------- #


def test_acceptance_gradient_suite():
    """Layers, both losses, the gradient penalty, and the live generator
    objective (mask from feature stats, top-k and random-k weights) all match
    central finite differences, rel err < 1e-5, 20 seeds."""
    started = time.perf_counter()
    worst = 0.0

    def check(got_list, want_list):
        nonlocal worst
        for got, want in zip(got_list, want_list):
            gap = float(np.abs(got - want).max())
            denom = max(float(np.abs(got).max()), float(np.abs(want).max()))
            if denom > 1e-6:
                worst = max(worst, gap / denom)
            else:
                # zero-gradient block (e.g. saturated hinge): absolute check only
                assert gap < 1e-9, gap
            assert grad_close(got, want), (gap, denom)

    for seed in range(20):
        rng = nm.SeededRng(1000 + seed)

        # every layer kind in one stack
        net = init_network(
            [nm.conv2d(1, 3, 3, 2), nm.leaky_relu(0.2), nm.conv2d(3, 4, 2, 1),
             nm.leaky_relu(0.1), nm.sum_pool(), nm.dense(4, 5), nm.tanh(), nm.dense(5, 1)],
            rng, 0.5)
        x = rng.normal((2, 1, 8, 8))

        def net_loss():
            y, _ = nm.forward_pass(net.specs, net.params, x)
            return float(y.sum())

        y, cache = nm.forward_pass(net.specs, net.params, x)
        _, tape = nm.backward_pass(net.specs, net.params, cache, np.ones_like(y))
        check(param_arrays(net.specs, nm.param_grads(net.specs, cache, tape)),
              fd_param_grads(net_loss, param_arrays(net.specs, net.theta)))

        # both adversarial losses through a full critic
        d = small_mlp_disc(rng)
        real, fake = rng.normal((5, 2)), rng.normal((5, 2))
        x_hat = gan.interpolate_batches(real, fake, rng)
        # (the score losses alone, and with the penalty the step adds)
        for kind, gp_lambda in (("wgan_gp", 0.0), ("wgan_gp", 10.0), ("hinge", None)):
            loss_cfg = gan.LossKind(kind, gp_lambda)
            _, grads, _ = gan.discriminator_objective_grads(d, real, fake, loss_cfg, x_hat)

            def d_loss(kind=kind, gp_lambda=gp_lambda):
                y_r, _ = nm.forward_pass(d.body.specs, d.body.params, real)
                y_f, _ = nm.forward_pass(d.body.specs, d.body.params, fake)
                s_r, s_f = gan.score_from_features(d, y_r), gan.score_from_features(d, y_f)
                value = gan.critic_loss(kind, s_r, s_f)[0]
                return value + penalty_stacked(d, x_hat, gp_lambda) if gp_lambda else value

            check(param_arrays(d.specs, grads),
                  fd_param_grads(d_loss, param_arrays(d.specs, d.theta)))

        # gradient penalty parameter gradients (biases, the head's too, get none)
        x_hat = rng.normal((4, 2))
        _, pgrads = penalty_at(d, x_hat, 10.0)
        check(param_arrays(d.specs, pgrads),
              fd_param_grads(lambda: penalty_stacked(d, x_hat, 10.0),
                             param_arrays(d.specs, d.theta)))

        # the generator objective training runs: mask from seeded feature
        # stats, weights from top-k and random-k selection, both held fixed
        for mode in ("top", "random"):
            state = objective_state(rng, small_gen(rng), d, mode, UfsConfig(0.5, 1.0, 1.5))
            z = rng.normal((5, 4))
            _, ggrads, _, s, weights = gan.generator_objective_grads(state, z, rng)
            net = state.gen.net
            check(param_arrays(net.specs, ggrads),
                  fd_param_grads(lambda: frozen_generator_loss(state, z, s, weights),
                                 param_arrays(net.specs, net.theta)))

    elapsed = time.perf_counter() - started
    report("gradient suite (20 seeds)", worst < 1e-5 and elapsed < 60.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# --- criterion 2: suppression exactness ---------------------------------------------- #


def test_acceptance_suppression_exactness():
    """Closed-form piecewise values on a 1000-point grid for both published
    weight curves; bounds and monotonicity over 10^4 random cases."""
    configs = [UfsConfig(0.5, 1.0, 1.5), UfsConfig(0.0, 1.0, 1.0)]
    worst = 0.0
    for cfg in configs:
        grid = np.linspace(cfg.alpha - 1.0, cfg.beta + 1.0, 1000)
        got = ufs.compute_suppression(grid[None, :], cfg, cfg.beta)[0]
        closed = np.where(grid < cfg.alpha, cfg.epsilon - cfg.alpha,
                          np.where(grid > cfg.beta, cfg.epsilon - cfg.beta,
                                   cfg.epsilon - grid))
        worst = max(worst, float(np.abs(got - closed).max()))
    report("suppression closed form (1000-pt grid, both configs)", worst <= 1e-12,
           f"max abs err {worst:.1e}")

    rng = nm.SeededRng(2024)
    cases = 0
    for _ in range(100):
        alpha = float(rng.uniform((), -2.0, 2.0))
        beta = alpha + float(rng.uniform((), 0.0, 3.0))
        eps = beta + float(rng.uniform((), 0.0, 2.0))
        cfg = UfsConfig(alpha, beta, eps)
        ratios = rng.normal((10, 16), 0.0, 5.0)
        s = ufs.compute_suppression(ratios, cfg, cfg.beta)
        assert np.all(s >= eps - beta) and np.all(s <= eps - alpha)
        order = np.argsort(ratios, axis=1)
        s_sorted = np.take_along_axis(s, order, axis=1)
        assert np.all(np.diff(s_sorted, axis=1) <= 0.0)
        cases += ratios.size
    report("suppression bounds + monotonicity", cases >= 10_000, f"{cases} random cases")


# --- criterion 3: regime classification ------------------------------------------------ #


PUBLISHED_REGIME_TABLE = [
    (0.0, 1.0, 1.0, "dismission"),
    (1.0, 2.0, 2.5, "suppression"),
    (1.0, 2.0, 3.0, "suppression"),
    (1.0, 3.0, 3.0, "dismission"),
    (1.0, 1.2, 2.0, "suppression"),
    (1.0, 1.3, 2.0, "suppression"),
    (1.0, 1.4, 2.0, "suppression"),
    (1.0, 1.5, 2.0, "suppression"),
]


def test_acceptance_regime_classification():
    """On the live mask: dismission rows zero the worst channels (ratio beta and
    beyond) exactly; suppression rows keep them above zero."""
    mismatches = []
    for alpha, beta, eps, expected in PUBLISHED_REGIME_TABLE:
        worst = worst_channel_weights(UfsConfig(alpha, beta, eps))
        got = "dismission" if np.all(worst == 0.0) else (
            "suppression" if np.all(worst > 0.0) else f"mixed {worst.tolist()}")
        if got != expected:
            mismatches.append((alpha, beta, eps, got, expected))
    report("regime classification (8 published rows)", not mismatches, str(mismatches))


# --- criterion 4: masking identities ------------------------------------------------------ #


def test_acceptance_masking_identities(monkeypatch):
    rng = nm.SeededRng(55)
    d = small_mlp_disc(rng)
    s = rng.uniform((6, 6))
    upstream = gan.head_feature_grad(d.w, s, np.ones(6))
    exact = np.array_equal(upstream, d.w[None, :] * s)

    dc = small_conv_disc(rng)
    x = rng.normal((3, 1, 9, 9))
    s_img = rng.uniform((3, dc.feature_dim))
    monkeypatch.setattr(attribution, "generator_mask", lambda state, features: s_img)
    maps = attribution.compute_cam(cam_state(dc), x)
    cam, kept, dropped = maps["cam"], maps["cam_ufs"], maps["cam_sup"]
    decomp_err = float(np.abs(kept + dropped - cam).max())

    _, scores = split_scores(dc, x)
    score_err = float(np.abs(cam.sum(axis=(1, 2)) + dc.b[0] - scores).max())

    report("masked-score channel gradient = w * S exactly", exact)
    report("CAM decomposition (kept + suppressed = full)", decomp_err < 1e-10,
           f"max err {decomp_err:.1e}")
    report("CAM spatial sum + bias = critic score", score_err < 1e-9,
           f"max err {score_err:.1e}")


# --- criterion 5: oracle equivalences ---------------------------------------------------- #


def test_acceptance_selection_vs_sort_oracle():
    rng = nm.SeededRng(77)
    checked = 0
    for n in range(1, 65):
        scores = rng.normal((n,))
        for k in sorted({1, max(1, n // 3), n}):
            top = sel.select_indices(scores, k, "top", rng)
            bottom = sel.select_indices(scores, k, "bottom", rng)
            order = sorted(range(n), key=lambda i: (-scores[i], i))
            assert set(top) == set(order[:k])
            order_b = sorted(range(n), key=lambda i: (scores[i], i))
            assert set(bottom) == set(order_b[:k])
            checked += 1
    report("select_indices vs sort oracle (n <= 64)", True, f"{checked} cases")


def test_acceptance_manifold_vs_enumeration():
    rng = nm.SeededRng(88)
    worst = 0.0
    for case in range(100):
        m = 4 + int(rng.integers(9))
        n = 4 + int(rng.integers(9))
        k = 1 + int(rng.integers(3))
        real = rng.normal((m, 2))
        fake = rng.normal((n, 2), 0.2, 0.9)
        mm = mx.manifold_metrics(real, fake, k)
        p, r, d, c = prdc_loop(real.tolist(), fake.tolist(), k)
        worst = max(worst, abs(mm.precision - p), abs(mm.recall - r),
                    abs(mm.density - d), abs(mm.coverage - c))
    report("manifold metrics vs exhaustive enumeration (100 cases, M,N <= 12)",
           worst < 1e-12, f"worst gap {worst:.1e}")


def test_acceptance_frechet_oracles():
    gap_1d = max(
        abs(mx.frechet_distance(mx.GaussianFit(np.zeros(1), np.eye(1)),
                                mx.GaussianFit(np.ones(1), np.eye(1))) - 1.0),
        abs(mx.frechet_distance(mx.GaussianFit(np.zeros(1), np.eye(1)),
                                mx.GaussianFit(np.zeros(1), 4.0 * np.eye(1))) - 1.0),
    )
    rng = nm.SeededRng(99)
    gap_3d = 0.0
    for _ in range(25):
        a = mx.fit_gaussian(rng.normal((30, 3)))
        b = mx.fit_gaussian(rng.normal((30, 3), 0.4, 1.6))
        oracle = float((a.mean - b.mean) @ (a.mean - b.mean)
                       + np.trace(a.covariance + b.covariance
                                  - 2.0 * denman_beavers_sqrt(a.covariance @ b.covariance)))
        gap_3d = max(gap_3d, abs(mx.frechet_distance(a, b) - oracle))
    report("frechet vs 1-d closed form", gap_1d < 1e-9, f"gap {gap_1d:.1e}")
    report("frechet vs iterative square-root oracle (3-d)", gap_3d < 1e-6,
           f"gap {gap_3d:.1e}")


# --- criterion 6: end-to-end smoke ---------------------------------------------------------- #


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    results = {}
    started = time.perf_counter()
    for name in PRESETS:
        obj = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        harness.apply_overrides(obj, [f"out_dir={json.dumps(str(root / name))}"])
        results[name] = harness.run_experiment(harness.config_from_dict(obj))
    # determinism rerun of one preset
    obj = json.loads((CONFIG_DIR / "ring8_baseline.json").read_text())
    harness.apply_overrides(obj, [f"out_dir={json.dumps(str(root / 'baseline_again'))}"])
    results["baseline_again"] = harness.run_experiment(harness.config_from_dict(obj))
    results["elapsed"] = time.perf_counter() - started
    return results


def test_acceptance_smoke_presets(smoke_runs):
    elapsed = smoke_runs["elapsed"]
    for name in PRESETS:
        result = smoke_runs[name]
        first, last = result.records[0], result.records[-1]
        finite = all(math.isfinite(r.L_D) and math.isfinite(r.L_G)
                     for r in result.records[1:])
        ok = (result.status == "ok" and finite
              and last.frechet < 0.5 * first.frechet
              and last.covered_modes >= 6)
        report(f"smoke {name}", ok,
               f"frechet {first.frechet:.2f} -> {last.frechet:.4f}, "
               f"modes {int(last.covered_modes)}/8")
    report("smoke wall time", elapsed < 15 * 60, f"{elapsed:.0f}s for 5 runs")


def test_acceptance_smoke_determinism(smoke_runs):
    a = harness.read_csv_without_wall_seconds(smoke_runs["ring8_baseline"].metrics_path)
    b = harness.read_csv_without_wall_seconds(smoke_runs["baseline_again"].metrics_path)
    report("smoke determinism (metrics CSV, wall_seconds excluded)", a == b)


# --- criterion 7: baseline equivalence ------------------------------------------------------- #


def reference_plain_loop(iterations: int, batch: int, seed: int):
    """Plain WGAN-GP loop written without any suppression machinery: no feature
    statistics, no masks, no selection. Mirrors the trainer's draw order."""
    cfg = gan.TrainConfig(batch_size=batch, n_critic=5, iterations=iterations, seed=seed,
                          loss=gan.LossKind("wgan_gp"))
    root = nm.SeededRng(seed)
    dataset = make_dataset(DatasetConfig("ring8"), root.derive(1))
    gen, disc = gan.default_models((2,), root.derive(2))
    state = gan.init_trainer(cfg, gen, disc)
    rng = root.derive(3)
    for _ in range(iterations):
        for _ in range(cfg.n_critic):
            real = dataset.sample(batch, rng)
            z = rng.normal((batch, gen.latent_dim))
            fake = gen.sample(z)
            x_hat = gan.interpolate_batches(real, fake, rng)
            _, grads, _ = gan.discriminator_objective_grads(disc, real, fake, cfg.loss, x_hat)
            nm.adam_step(state.adam_d, disc.theta, grads, gan._current_lr(state))
        z = rng.normal((batch, gen.latent_dim))
        fake, gcache = gen.sample(z, want_cache=True)
        y_f, dcache = nm.forward_pass(disc.body.specs, disc.body.params, fake)
        scores = gan.score_from_features(disc, y_f)
        weights = np.full(batch, 1.0 / batch)
        d_y = gan.head_feature_grad(disc.w, None, -weights)
        dx, _ = nm.backward_pass(disc.body.specs, disc.body.params, dcache, d_y)
        ggrads = gen.backward(gcache, dx)
        nm.adam_step(state.adam_g, gen.net.theta, ggrads, gan._current_lr(state))
    return gen, disc


def test_acceptance_baseline_equivalence():
    """200 iterations with suppression and selection disabled are bit-identical
    to the plain reference loop."""
    iterations, batch, seed = 200, 16, 11
    cfg = gan.TrainConfig(batch_size=batch, n_critic=5, iterations=iterations, seed=seed,
                          loss=gan.LossKind("wgan_gp"), ufs=None, selection=None)
    root = nm.SeededRng(seed)
    dataset = make_dataset(DatasetConfig("ring8"), root.derive(1))
    gen, disc = gan.default_models((2,), root.derive(2))
    state = gan.init_trainer(cfg, gen, disc)
    rng = root.derive(3)
    for _ in range(iterations):
        for _ in range(cfg.n_critic):
            gan.train_discriminator_step(state, dataset.sample(batch, rng), rng)
        gan.train_generator_step(state, rng)

    ref_gen, ref_disc = reference_plain_loop(iterations, batch, seed)
    identical = (np.array_equal(gen.net.theta, ref_gen.net.theta)
                 and np.array_equal(disc.theta, ref_disc.theta))
    report("baseline equivalence (200 iterations, bit-identical)", identical)


# --- criterion 8: instance selection ------------------------------------------------------------ #


def test_acceptance_instance_selection():
    rng = nm.SeededRng(7)
    count_cases = [(10, 0.5, 5), (30, 0.1, 3), (7, 0.5, 4), (12, 1.0, 12)]
    counts_ok = all(
        len(sel.instance_select(rng.normal((n, 2)),
                                sel.InstanceSelectionConfig(retention_ratio=r))) == want
        for n, r, want in count_cases)
    report("instance selection retention counts exact", counts_ok)

    pruned = 0
    for seed in range(50):
        srng = nm.SeededRng(3000 + seed)
        data = srng.normal((40, 2), 0.0, 0.1)
        outlier_at = int(srng.integers(40))
        data[outlier_at] = [1e6, -1e6]
        kept = sel.instance_select(data, sel.InstanceSelectionConfig(retention_ratio=0.9))
        if outlier_at not in kept:
            pruned += 1
    report("outlier pruned at retention 0.9 across 50 seeds", pruned == 50, f"{pruned}/50")
