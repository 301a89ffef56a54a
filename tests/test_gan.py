import numpy as np
import pytest

from helpers import (AdamOracle, adam_step_oracle, critic_objective_per_group, fd_param_grads,
                     finite_diff_grad, frozen_generator_loss, grad_close, init_network,
                     objective_state, penalty_at, penalty_stacked, small_conv_disc, small_gen,
                     small_mlp_disc, split_scores, stacked_critic)
from ufs_lab import gan, ufs
from ufs_lab import numerics as nm
from ufs_lab.errors import ContractError, DimensionError, NumericError


# --- forward split ------------------------------------------------------------ #


def test_forward_split_ones_head_sums_features():
    rng = nm.SeededRng(1)
    d = small_mlp_disc(rng)
    d.w[:] = 1.0
    d.b[:] = 0.0
    x = rng.normal((5, 2))
    features, scores = split_scores(d, x)
    assert np.allclose(scores, features.sum(axis=1))


def test_forward_split_zero_input_linear_body():
    rng = nm.SeededRng(2)
    body = init_network([nm.dense(2, 4), nm.dense(4, 3)], rng, 0.5)
    d = gan.DiscriminatorNet(body, rng.normal((3,)), np.array([1.25]))
    features, scores = split_scores(d, np.zeros((4, 2)))
    assert np.array_equal(features, np.zeros((4, 3)))
    assert np.allclose(scores, 1.25)


def test_forward_split_matches_stacked_network_exactly():
    rng = nm.SeededRng(3)
    d = small_mlp_disc(rng)
    x = rng.normal((6, 2))
    _, scores = split_scores(d, x)
    stacked, _ = nm.forward_pass(*stacked_critic(d), x)
    assert np.array_equal(scores, stacked[:, 0])


# --- losses --------------------------------------------------------------------- #


def critic_value(kind, r, f):
    return gan.critic_loss(kind, r, f)[0]


def test_wgan_d_loss_hand():
    assert critic_value("wgan", [1.0, 3.0], [0.0, 2.0]) == -1.0


def test_wgan_d_loss_equal_batches():
    assert critic_value("wgan", [0.5, -0.5], [0.5, -0.5]) == 0.0


def test_wgan_d_loss_loop_oracle():
    rng = nm.SeededRng(4)
    r, f = rng.normal((9,)), rng.normal((11,))
    expect = sum(f) / 11 - sum(r) / 9
    assert abs(critic_value("wgan", r, f) - expect) < 1e-12
    assert critic_value("wgan_gp", r, f) == critic_value("wgan", r, f)


def test_wgan_d_loss_empty_batch():
    for kind in gan.LOSS_KINDS:
        with pytest.raises(ContractError, match="empty"):
            gan.critic_loss(kind, [], [1.0])
        with pytest.raises(ContractError, match="empty"):
            gan.critic_loss(kind, [1.0], [])


def test_hinge_d_loss_hand():
    assert critic_value("hinge", [2.0, 0.0], [-2.0, 0.0]) == 1.0


def test_hinge_d_loss_saturated_is_zero():
    assert critic_value("hinge", [1.0, 2.5], [-1.0, -3.0]) == 0.0


def test_hinge_d_loss_loop_oracle():
    rng = nm.SeededRng(5)
    r, f = rng.normal((7,)), rng.normal((7,))
    expect = sum(max(0.0, 1.0 - v) for v in r) / 7 + sum(max(0.0, 1.0 + v) for v in f) / 7
    assert abs(critic_value("hinge", r, f) - expect) < 1e-12


@pytest.mark.parametrize("kind", ["wgan", "hinge"])
def test_loss_score_grads_match_finite_differences(kind):
    rng = nm.SeededRng(6)
    r, f = rng.normal((5,)), rng.normal((5,))
    _, dr, df = gan.critic_loss(kind, r, f)

    fd_r = finite_diff_grad(lambda v: critic_value(kind, v, f), r)
    fd_f = finite_diff_grad(lambda v: critic_value(kind, r, v), f)
    assert grad_close(dr, fd_r, 1e-6)
    assert grad_close(df, fd_f, 1e-6)


def test_critic_loss_rejects_unknown_kind():
    with pytest.raises(ContractError, match="unknown loss kind"):
        gan.critic_loss("lsgan", [1.0], [1.0])


# --- gradient penalty -------------------------------------------------------------- #


def test_penalty_linear_discriminator_closed_form():
    rng = nm.SeededRng(7)
    body = init_network([nm.dense(2, 4)], rng, 0.5)
    d = gan.DiscriminatorNet(body, rng.normal((4,), 0.0, 0.5), np.zeros(1))
    a = body.params[0]["W"].T @ d.w
    expected = 10.0 * (np.linalg.norm(a) - 1.0) ** 2
    x_hat = gan.interpolate_batches(rng.normal((8, 2)), rng.normal((8, 2)), rng)
    got, _, _ = penalty_at(d, x_hat, 10.0)
    assert abs(got - expected) < 1e-12


def test_penalty_unit_gradient_is_zero():
    rng = nm.SeededRng(8)
    body = init_network([nm.dense(2, 4)], rng, 0.5)
    d = gan.DiscriminatorNet(body, rng.normal((4,), 0.0, 0.5), np.zeros(1))
    a = body.params[0]["W"].T @ d.w
    d.w /= np.linalg.norm(a)  # rescale so the input gradient has unit norm
    x_hat = gan.interpolate_batches(rng.normal((8, 2)), rng.normal((8, 2)), rng)
    got, pgrads, pw = penalty_at(d, x_hat, 10.0)
    assert got < 1e-20
    w_grad = nm.split_like(pgrads, body.param_list())[0]
    assert np.abs(pw).max() < 1e-9 and np.abs(w_grad).max() < 1e-9


def test_penalty_input_gradient_matches_finite_differences():
    rng = nm.SeededRng(9)
    d = small_mlp_disc(rng)
    x = rng.normal((4, 2))
    specs, params = stacked_critic(d)
    y, cache = nm.forward_pass(specs, params, x)
    gx, _ = nm.backward_pass(specs, params, cache, np.ones_like(y))

    def score_sum(xv):
        out, _ = nm.forward_pass(specs, params, xv)
        return float(out.sum())

    assert grad_close(gx, finite_diff_grad(score_sum, x))


@pytest.mark.parametrize("make_disc", [small_mlp_disc, small_conv_disc])
def test_penalty_param_grads_match_finite_differences(make_disc):
    rng = nm.SeededRng(10)
    d = make_disc(rng)
    shape = (4, 2) if make_disc is small_mlp_disc else (3, 1, 9, 9)
    x_hat = rng.normal(shape)
    _, pgrads, pw = penalty_at(d, x_hat, 10.0)
    # biases get no penalty gradient, the head's included
    got = nm.split_like(np.concatenate([pgrads, pw, np.zeros(1)]), d.param_list())
    fd = fd_param_grads(lambda: penalty_stacked(d, x_hat, 10.0)[0], d.param_list())
    for g, want in zip(got, fd):
        assert grad_close(g, want)


@pytest.mark.parametrize("make_disc", [small_mlp_disc, small_conv_disc])
def test_penalty_split_head_matches_stacked_oracle_bitwise(make_disc):
    rng = nm.SeededRng(16)
    d = make_disc(rng)
    x_hat = rng.normal((4, 2) if make_disc is small_mlp_disc else (3, 1, 9, 9))
    value, pgrads, pw = penalty_at(d, x_hat, 10.0)
    want_value, want = penalty_stacked(d, x_hat, 10.0)
    assert value == want_value
    # the stacked flat gradient ends with the head's bias, which gets none
    assert np.concatenate([pgrads, pw]).tobytes() == want[:-1].tobytes()


# --- full critic objective ------------------------------------------------------------ #


@pytest.mark.parametrize("kind", ["wgan", "wgan_gp", "hinge"])
def test_discriminator_objective_grads_match_finite_differences(kind):
    rng = nm.SeededRng(11)
    d = small_mlp_disc(rng)
    real = rng.normal((5, 2))
    fake = rng.normal((5, 2))
    loss_cfg = gan.LossKind(kind)
    x_hat = gan.interpolate_batches(real, fake, rng) if kind == "wgan_gp" else None
    value, grads, _ = gan.discriminator_objective_grads(d, real, fake, loss_cfg, x_hat)

    def loss_value():
        y_r, _ = nm.forward_pass(d.body.specs, d.body.params, real)
        y_f, _ = nm.forward_pass(d.body.specs, d.body.params, fake)
        s_r = gan.score_from_features(d, y_r)
        s_f = gan.score_from_features(d, y_f)
        base = critic_value(kind, s_r, s_f)
        if kind == "wgan_gp":
            base += penalty_stacked(d, x_hat, loss_cfg.gp_lambda)[0]
        return base

    assert abs(loss_value() - value) < 1e-12
    fd = fd_param_grads(loss_value, d.body.param_list() + [d.w, d.b])
    for got, want in zip(nm.split_like(grads, d.param_list()), fd, strict=True):
        assert grad_close(got, want)


def assert_objective_matches_per_group(d, real, fake, loss_cfg, x_hat):
    got = gan.discriminator_objective_grads(d, real, fake, loss_cfg, x_hat)
    want = critic_objective_per_group(d, real, fake, loss_cfg, x_hat)
    assert got[0] == want[0]
    got_arrays, want_arrays = [got[1]], [want[1]]
    assert got[2].keys() == want[2].keys() and got[2]["penalty"] == want[2]["penalty"]
    for key in ("real_scores", "fake_scores", "y_real", "y_fake"):
        got_arrays.append(got[2][key])
        want_arrays.append(want[2][key])
    for g, w in zip(got_arrays, want_arrays, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("kind", ["wgan", "wgan_gp", "hinge"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
def test_stacked_forward_matches_per_group_oracle_bitwise_conv(n, kind):
    rng = nm.SeededRng(100 + n)
    d = small_conv_disc(rng)
    real, fake = rng.normal((n, 1, 9, 9)), rng.normal((n, 1, 9, 9))
    x_hat = gan.interpolate_batches(real, fake, rng) if kind == "wgan_gp" else None
    assert_objective_matches_per_group(d, real, fake, gan.LossKind(kind), x_hat)


@pytest.mark.parametrize("kind", ["wgan", "wgan_gp", "hinge"])
def test_stacked_forward_matches_per_group_oracle_bitwise_ring8_body(kind):
    # the ring8 critic at the presets' batch size; BLAS row results of the
    # dense layers depend on the row count at some other sizes
    rng = nm.SeededRng(17)
    _, d = gan.default_models((2,), rng)
    real, fake = rng.normal((64, 2)), rng.normal((64, 2), 0.5, 1.5)
    x_hat = gan.interpolate_batches(real, fake, rng) if kind == "wgan_gp" else None
    assert_objective_matches_per_group(d, real, fake, gan.LossKind(kind), x_hat)


def test_stacked_forward_slices_each_group_by_its_own_length():
    rng = nm.SeededRng(18)
    d = small_conv_disc(rng)
    real, fake = rng.normal((3, 1, 9, 9)), rng.normal((5, 1, 9, 9))
    x_hat = rng.normal((2, 1, 9, 9))
    got = gan.discriminator_objective_grads(d, real, fake, gan.LossKind("wgan_gp"), x_hat)
    assert got[2]["y_real"].shape == (3, 4) and got[2]["y_fake"].shape == (5, 4)
    assert_objective_matches_per_group(d, real, fake, gan.LossKind("wgan_gp"), x_hat)


def test_split_groups_gives_each_group_its_own_forward_cache():
    rng = nm.SeededRng(21)
    d = small_conv_disc(rng)
    specs, params = d.body.specs, d.body.params
    batches = [rng.normal((n, 1, 9, 9)) for n in (3, 5, 2)]
    y, cache = nm.forward_pass(specs, params, np.concatenate(batches))
    for (y_g, cache_g), batch in zip(gan._split_groups(y, cache, [3, 5, 2]), batches, strict=True):
        want_y, want_cache = nm.forward_pass(specs, params, batch)
        assert y_g.tobytes() == want_y.tobytes()
        for got, want in zip(cache_g, want_cache, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_critic_objective_skips_the_real_and_fake_input_grads(monkeypatch):
    # only the penalty needs the gradient at the critic's input; the real and
    # fake backward passes stop at the first conv layer's tape entry
    calls = []
    input_grad = nm.conv2d_input_grad

    def counted(*args):
        calls.append(args[2])
        return input_grad(*args)

    monkeypatch.setattr(nm, "conv2d_input_grad", counted)
    rng = nm.SeededRng(22)
    d = small_conv_disc(rng)
    real, fake = rng.normal((2, 1, 9, 9)), rng.normal((2, 1, 9, 9))
    x_hat = gan.interpolate_batches(real, fake, rng)
    gan.discriminator_objective_grads(d, real, fake, gan.LossKind("wgan_gp"), x_hat)
    assert sorted(shape[1] for shape in calls) == [1, 3, 3, 3]  # penalty: both layers


def forbid_forward(monkeypatch):
    def forward(*args, **kwargs):
        raise AssertionError("forward pass ran before the batches were checked")
    monkeypatch.setattr(gan, "forward_pass", forward)


def test_objective_rejects_mismatched_sample_shapes_before_forward(monkeypatch):
    rng = nm.SeededRng(19)
    d = small_conv_disc(rng)
    forbid_forward(monkeypatch)
    real, fake = rng.normal((2, 1, 9, 9)), rng.normal((2, 1, 9, 9))
    with pytest.raises(DimensionError) as info:
        gan.discriminator_objective_grads(d, real, fake, gan.LossKind("wgan_gp"),
                                          rng.normal((2, 1, 8, 8)))
    assert str(info.value) == ("critic batches differ in sample shape: "
                               "[(2, 1, 9, 9), (2, 1, 9, 9), (2, 1, 8, 8)]")


def test_objective_requires_interpolated_points_before_forward(monkeypatch):
    rng = nm.SeededRng(20)
    d = small_mlp_disc(rng)
    forbid_forward(monkeypatch)
    with pytest.raises(ContractError, match="wgan_gp needs interpolated points"):
        gan.discriminator_objective_grads(d, rng.normal((4, 2)), rng.normal((4, 2)),
                                          gan.LossKind("wgan_gp"))


# --- generator objective ----------------------------------------------------------------- #


def test_generator_feature_grad_is_w_times_mask_exactly():
    rng = nm.SeededRng(12)
    w = rng.normal((6,))
    s = rng.uniform((4, 6))
    got = gan.generator_feature_grad(w, s, np.ones(4))
    assert np.array_equal(got, w[None, :] * s)
    plain = gan.generator_feature_grad(w, None, np.ones(4))
    assert np.array_equal(plain, np.broadcast_to(w, (4, 6)))


def test_generator_grads_match_finite_differences_masked():
    rng = nm.SeededRng(13)
    for mode in ("top", "random"):
        state = objective_state(rng, small_gen(rng), small_mlp_disc(rng), mode,
                                ufs.UfsConfig(0.5, 1.0, 1.5))
        z = rng.normal((5, 4))
        _, ggrads, _, s, weights = gan.generator_objective_grads(state, z, rng)
        assert s is not None and np.ptp(s) > 0.0  # a mask that varies

        fd = fd_param_grads(lambda: frozen_generator_loss(state, z, s, weights),
                            state.gen.net.param_list())
        for got, want in zip(nm.split_like(ggrads, state.gen.net.param_list()), fd, strict=True):
            assert grad_close(got, want)


def test_generator_grads_respect_sample_weights():
    rng = nm.SeededRng(14)
    for mode in ("top", "random"):
        state = objective_state(rng, small_gen(rng), small_mlp_disc(rng), mode,
                                ufs.UfsConfig(0.0, 1.0, 1.0), batch=6)
        z = rng.normal((6, 4))
        loss, ggrads, scores, s, weights = gan.generator_objective_grads(state, z, rng)
        kept = np.flatnonzero(weights)
        assert len(kept) == 3 and np.all(weights[kept] == 1.0 / 3)
        if mode == "top":
            assert set(kept) == set(np.argsort(-scores)[:3])
        assert abs(loss + scores[kept].sum() / 3) < 1e-12

        fd = fd_param_grads(lambda: frozen_generator_loss(state, z, s, weights),
                            state.gen.net.param_list())
        for got, want in zip(nm.split_like(ggrads, state.gen.net.param_list()), fd, strict=True):
            assert grad_close(got, want)


# --- training steps -------------------------------------------------------------------------- #


def make_trainer(seed=0, **cfg_kwargs):
    cfg = gan.TrainConfig(batch_size=8, iterations=10, seed=seed, **cfg_kwargs)
    rng = nm.SeededRng(seed)
    gen, disc = gan.default_models((2,), rng)
    return gan.init_trainer(cfg, gen, disc), nm.SeededRng(seed).derive(99)


@pytest.mark.parametrize("data_shape", [(2,), (1, 16, 16)])
def test_flat_adam_matches_per_array_oracle_bitwise(data_shape):
    gen, disc = gan.default_models(data_shape, nm.SeededRng(22))
    state = gan.init_trainer(gan.TrainConfig(iterations=24), gen, disc)
    rng = nm.SeededRng(23)
    for params, adam in ((gen.net.param_list(), state.adam_g), (disc.param_list(), state.adam_d)):
        ref_params = [p.copy() for p in params]
        oracle = AdamOracle.for_params(ref_params, gan.ADAM_LR, gan.ADAM_B1, gan.ADAM_B2)
        rates = []
        for t in range(24):
            state.t = t
            adam.lr = oracle.lr = gan._current_lr(state)
            rates.append(adam.lr)
            grads = [rng.normal(p.shape, 0.0, 10.0 ** -(t % 4)) for p in params]
            nm.adam_step(adam, params, np.concatenate([g.ravel() for g in grads]))
            adam_step_oracle(oracle, ref_params, grads)
        assert rates[0] == gan.ADAM_LR and rates[-1] < rates[-2] < gan.ADAM_LR  # the taper ran
        assert adam.step == oracle.step == 24
        for got, want in zip(params, ref_params, strict=True):
            assert got.tobytes() == want.tobytes()
        for flat, want in ((adam.m, oracle.m), (adam.v, oracle.v)):
            assert flat.tobytes() == b"".join(arr.tobytes() for arr in want)


def test_discriminator_step_initializes_stats():
    state, rng = make_trainer(loss=gan.LossKind("wgan"))
    assert not state.stats.initialized
    gan.train_discriminator_step(state, rng.normal((8, 2)), rng)
    assert state.stats.initialized


def test_discriminator_step_identical_with_and_without_ufs():
    ucfg = ufs.UfsConfig(0.0, 1.0, 1.0)
    state_a, rng_a = make_trainer(loss=gan.LossKind("wgan_gp"), ufs=None)
    state_b, rng_b = make_trainer(loss=gan.LossKind("wgan_gp"), ufs=ucfg)
    real = nm.SeededRng(5).normal((8, 2))
    gan.train_discriminator_step(state_a, real, rng_a)
    gan.train_discriminator_step(state_b, real, rng_b)
    for pa, pb in zip(state_a.disc.param_list(), state_b.disc.param_list()):
        assert np.array_equal(pa, pb)


def test_discriminator_step_loss_recomputes_from_logged_scores():
    state, rng = make_trainer(loss=gan.LossKind("wgan_gp"))
    replay = nm.SeededRng(0).derive(99)  # the step's stream, replayed
    real = rng.normal((8, 2))
    assert replay.normal((8, 2)).tobytes() == real.tobytes()
    fake = state.gen.sample(replay.normal((8, state.gen.latent_dim)))
    x_hat = gan.interpolate_batches(real, fake, replay)
    value, _, diag = gan.discriminator_objective_grads(state.disc, real, fake, state.cfg.loss,
                                                       x_hat)
    recomputed = critic_value("wgan_gp", diag["real_scores"], diag["fake_scores"]) + diag["penalty"]
    assert value == recomputed and diag["penalty"] > 0.0
    assert gan.train_discriminator_step(state, real, rng) == value


def test_generator_step_raises_on_nan_loss_before_adam():
    state, rng = make_trainer(loss=gan.LossKind("wgan"))
    gan.train_discriminator_step(state, rng.normal((8, 2)), rng)
    gan.train_generator_step(state, rng)  # the Adam moments are no longer zero
    params = state.gen.net.param_list()
    params[0][:] = np.nan
    adam = state.adam_g
    before = ([p.tobytes() for p in params], adam.m.tobytes(), adam.v.tobytes(), adam.step,
              state.t)
    with pytest.raises(NumericError, match="generator loss diverged: nan"):
        gan.train_generator_step(state, rng)
    after = ([p.tobytes() for p in params], adam.m.tobytes(), adam.v.tobytes(), adam.step,
             state.t)
    assert after == before and adam.step == state.t == 1


def test_generator_step_with_inert_mask_matches_baseline():
    # before any critic step the stats are empty, so the masked path is skipped
    state_a, rng_a = make_trainer(loss=gan.LossKind("wgan"), ufs=None)
    state_b, rng_b = make_trainer(loss=gan.LossKind("wgan"),
                                  ufs=ufs.UfsConfig(0.0, 1.0, 1.0))
    la = gan.train_generator_step(state_a, rng_a)
    lb = gan.train_generator_step(state_b, rng_b)
    assert la == lb
    for pa, pb in zip(state_a.gen.net.param_list(), state_b.gen.net.param_list()):
        assert np.array_equal(pa, pb)


def test_generator_mask_clips_at_the_annealed_beta():
    rng = nm.SeededRng(12)
    d = small_mlp_disc(rng)
    cfg = ufs.UfsConfig(0.0, 0.25, 1.0, beta_anneal=ufs.BetaAnneal(1.0, 1.0))
    state = objective_state(rng, small_gen(rng), d, None, cfg)
    state.t = 5  # halfway through the 10-iteration window: beta = 0.625
    features, _ = nm.forward_pass(d.body.specs, d.body.params, rng.normal((6, 2), 0.5, 1.5))
    s = gan.generator_mask(state, features)
    at_beta = ufs.suppression_mask(state.stats, d.w, features, ufs.UfsConfig(0.0, 0.625, 1.0))
    assert s.tobytes() == at_beta.tobytes()
    assert s.min() == 1.0 - 0.625
    state.stats.initialized = False
    assert gan.generator_mask(state, features) is None


def test_generator_step_score_linearity_identity():
    # scores decompose as sum_c w_c S_c y_c + b for every sample
    state, rng = make_trainer(loss=gan.LossKind("wgan"), ufs=ufs.UfsConfig(0.5, 1.0, 1.5))
    gan.train_discriminator_step(state, rng.normal((8, 2)), rng)
    z = nm.SeededRng(77).normal((8, state.gen.latent_dim))
    fake = state.gen.sample(z)
    y_f, _ = nm.forward_pass(state.disc.body.specs, state.disc.body.params, fake)
    s = ufs.suppression_mask(state.stats, state.disc.w, y_f, state.cfg.ufs)
    scores = ufs.apply_suppression(y_f, s, state.disc.w, state.disc.b)
    manual = (state.disc.w[None, :] * s * y_f).sum(axis=1) + state.disc.b[0]
    assert np.abs(scores - manual).max() < 1e-10


def test_n_critic_default_depends_on_loss():
    assert gan.TrainConfig(loss=gan.LossKind("wgan_gp")).n_critic == 5
    assert gan.TrainConfig(loss=gan.LossKind("hinge")).n_critic == 1


def test_selection_k_start_bounded_by_batch():
    from ufs_lab.selection import SelectionConfig
    with pytest.raises(ContractError):
        gan.TrainConfig(batch_size=8, selection=SelectionConfig("top", 64, 32))


def test_image_generator_shape_and_tanh_range():
    rng = nm.SeededRng(15)
    gen, disc = gan.default_models((1, 16, 16), rng)
    z = rng.normal((3, gen.latent_dim))
    x = gen.sample(z)
    assert x.shape == (3, 1, 16, 16)
    assert np.abs(x).max() <= 1.0
    features, scores = split_scores(disc, x)
    assert features.shape == (3, 128)
    assert scores.shape == (3,)
