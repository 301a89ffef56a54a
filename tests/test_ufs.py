import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rel_err
from ufs_lab import ufs
from ufs_lab.errors import ContractError, DimensionError, StateError
from ufs_lab.numerics import SeededRng


def make_stats(mu_real, mu_fake):
    return ufs.FeatureStats(np.asarray(mu_real, float), np.asarray(mu_fake, float),
                            initialized=True)


# --- update_stats ------------------------------------------------------------ #


def test_update_stats_hand_example():
    stats = ufs.FeatureStats.empty(2)
    w = np.array([1.0, 2.0])
    y_real = np.array([[1.0, 1.0], [3.0, 1.0]])
    y_fake = np.zeros((2, 2))
    ufs.update_stats(stats, w, y_real, y_fake)
    assert np.array_equal(stats.mu_real, [2.0, 2.0])
    assert np.array_equal(stats.mu_fake, [0.0, 0.0])
    assert stats.initialized


def test_update_stats_replaces():
    stats = ufs.FeatureStats(np.full(2, 9.0), np.full(2, 9.0), initialized=True)
    ufs.update_stats(stats, np.ones(2), np.full((2, 2), 3.0), np.full((2, 2), 1.0))
    assert np.array_equal(stats.mu_real, [3.0, 3.0])
    assert np.array_equal(stats.mu_fake, [1.0, 1.0])


def test_update_stats_loop_oracle():
    rng = SeededRng(1)
    w = rng.normal((5,))
    y_r = rng.normal((7, 5))
    y_f = rng.normal((7, 5))
    stats = ufs.FeatureStats.empty(5)
    ufs.update_stats(stats, w, y_r, y_f)
    expect_r = np.zeros(5)
    for c in range(5):
        acc = 0.0
        for i in range(7):
            acc += w[c] * y_r[i, c]
        expect_r[c] = acc / 7
    assert rel_err(stats.mu_real, expect_r) < 1e-12


def test_update_stats_width_mismatch():
    with pytest.raises(DimensionError):
        ufs.update_stats(ufs.FeatureStats.empty(3), np.ones(3), np.ones((2, 4)), np.ones((2, 3)))


# --- weighted_features --------------------------------------------------------- #


def test_weighted_features_identity():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ufs.weighted_features(np.ones(2), y), y)


def test_weighted_features_hand():
    assert np.array_equal(ufs.weighted_features(np.array([2.0, 0.0]), np.array([[3.0, 5.0]])),
                          [[6.0, 0.0]])


def test_weighted_features_loop_oracle():
    rng = SeededRng(2)
    w = rng.normal((4,))
    y = rng.normal((6, 4))
    got = ufs.weighted_features(w, y)
    for i in range(6):
        for c in range(4):
            assert got[i, c] == w[c] * y[i, c]


# --- compute_ratio ----------------------------------------------------------------- #


def test_ratio_hand_example():
    stats = make_stats([2.0], [1.0])
    cfg = ufs.UfsConfig(alpha=0.0, beta=10.0, epsilon=10.0)
    r = ufs.compute_ratio(stats, np.array([[0.5]]), cfg)
    assert np.allclose(r, [[1.5]])


def test_ratio_near_real_guard():
    stats = make_stats([2.0], [1.0])
    cfg = ufs.UfsConfig(alpha=0.0, beta=1.0, epsilon=1.0, gamma=1e-4)
    r = ufs.compute_ratio(stats, np.array([[2.0]]), cfg)
    assert r[0, 0] == 1.0  # distance 0 falls under the guard


def test_ratio_denominator_floor():
    stats = make_stats([1.0], [1.0])
    cfg = ufs.UfsConfig(alpha=0.0, beta=1.0, epsilon=1.0)
    r = ufs.compute_ratio(stats, np.array([[0.0]]), cfg)
    assert r[0, 0] == pytest.approx(1e8)


def test_ratio_requires_initialized_stats():
    stats = ufs.FeatureStats.empty(2)
    with pytest.raises(StateError):
        ufs.compute_ratio(stats, np.zeros((1, 2)), ufs.UfsConfig(0.0, 1.0, 1.0))


def test_ratio_negative_margin_keeps_sign():
    stats = make_stats([0.0], [1.0])  # margin -1
    cfg = ufs.UfsConfig(alpha=0.0, beta=5.0, epsilon=5.0)
    r = ufs.compute_ratio(stats, np.array([[1.0]]), cfg)
    assert r[0, 0] == pytest.approx(1.0)  # (-1) / (-1)


# --- compute_suppression -------------------------------------------------------------- #


@pytest.mark.parametrize("ratio,expected", [(0.3, 1.0), (1.2, 0.5), (0.75, 0.75)])
def test_suppression_midrange_config(ratio, expected):
    cfg = ufs.UfsConfig(alpha=0.5, beta=1.0, epsilon=1.5)
    s = ufs.compute_suppression(np.array([[ratio]]), cfg)
    assert s[0, 0] == pytest.approx(expected)


def test_suppression_dismission_config_zeroes_far_features():
    cfg = ufs.UfsConfig(alpha=0.0, beta=1.0, epsilon=1.0)
    s = ufs.compute_suppression(np.array([[2.0]]), cfg)
    assert s[0, 0] == 0.0


def test_suppression_mask_is_the_three_step_recipe():
    rng = SeededRng(12)
    stats = make_stats(rng.normal((5,)), rng.normal((5,)))
    w, features = rng.normal((5,)), rng.normal((4, 5))
    cfg = ufs.UfsConfig(alpha=0.5, beta=1.0, epsilon=1.5)
    want = ufs.compute_suppression(
        ufs.compute_ratio(stats, ufs.weighted_features(w, features), cfg), cfg)
    assert ufs.suppression_mask(stats, w, features, cfg).tobytes() == want.tobytes()


# --- apply_suppression ------------------------------------------------------------------ #


def test_apply_identity_mask_matches_plain_scores():
    rng = SeededRng(3)
    y = rng.normal((5, 4))
    w = rng.normal((4,))
    b = np.array([0.3])
    s = np.ones((5, 4))
    got = ufs.apply_suppression(y, s, w, b)
    plain = (y @ w.reshape(-1, 1) + b)[:, 0]
    assert np.array_equal(got, plain)


def test_apply_zero_mask_gives_bias():
    rng = SeededRng(4)
    y = rng.normal((3, 4))
    s = np.zeros((3, 4))
    got = ufs.apply_suppression(y, s, rng.normal((4,)), np.array([2.5]))
    assert np.allclose(got, 2.5)


def test_apply_suppression_loop_oracle():
    rng = SeededRng(5)
    y = rng.normal((4, 3))
    w = rng.normal((3,))
    b = np.array([-0.7])
    s = rng.uniform((4, 3))
    got = ufs.apply_suppression(y, s, w, b)
    for i in range(4):
        acc = 0.0
        for c in range(3):
            acc += w[c] * y[i, c] * s[i, c]
        assert abs(got[i] - (acc + b[0])) < 1e-12


def test_apply_suppression_shape_mismatch():
    with pytest.raises(DimensionError):
        ufs.apply_suppression(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(3), np.zeros(1))


# --- classify_mode ------------------------------------------------------------------------ #


@pytest.mark.parametrize("cfg,expected", [
    ((0.0, 1.0, 1.0), "dismission"),
    ((1.0, 1.5, 2.0), "suppression"),
    ((1.0, 3.0, 3.0), "dismission"),
])
def test_classify_mode_examples(cfg, expected):
    assert ufs.classify_mode(ufs.UfsConfig(*cfg)) == expected


def test_classify_mode_warns_when_nothing_is_attenuated():
    with pytest.warns(UserWarning, match="no-suppression"):
        label = ufs.classify_mode(ufs.UfsConfig(1.0, 2.0, 3.0))
    assert label == "suppression"


# --- anneal_beta ---------------------------------------------------------------------------- #


def anneal_cfg():
    return ufs.UfsConfig(alpha=1.0, beta=1.0, epsilon=2.0,
                         beta_anneal=ufs.BetaAnneal(1.5, 0.5))


def test_anneal_beta_start():
    assert ufs.anneal_beta(anneal_cfg(), 0, 1000) == 1.0


def test_anneal_beta_end():
    cfg = anneal_cfg()
    assert ufs.anneal_beta(cfg, 500, 1000) == 1.5
    assert ufs.anneal_beta(cfg, 1000, 1000) == 1.5


def test_anneal_beta_midpoint():
    assert ufs.anneal_beta(anneal_cfg(), 250, 1000) == pytest.approx(1.25)


def test_anneal_beta_without_schedule_is_constant():
    cfg = ufs.UfsConfig(1.0, 1.5, 2.0)
    assert ufs.anneal_beta(cfg, 123, 1000) == 1.5


# --- config invariants ------------------------------------------------------------------------ #


def test_config_rejects_alpha_above_beta():
    with pytest.raises(ContractError):
        ufs.UfsConfig(alpha=2.0, beta=1.0, epsilon=2.0)


def test_config_rejects_negative_floor_gap():
    with pytest.raises(ContractError):
        ufs.UfsConfig(alpha=0.0, beta=2.0, epsilon=1.0)


# --- properties -------------------------------------------------------------------------------- #


@st.composite
def valid_configs(draw):
    alpha = draw(st.floats(-2.0, 2.0, allow_nan=False))
    width = draw(st.floats(0.0, 3.0, allow_nan=False))
    gap = draw(st.floats(0.0, 2.0, allow_nan=False))
    beta = alpha + width
    return ufs.UfsConfig(alpha=alpha, beta=beta, epsilon=beta + gap)


@given(valid_configs(), st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=32))
@settings(max_examples=300, deadline=None)
def test_suppression_bounds_property(cfg, ratios):
    s = ufs.compute_suppression(np.array([ratios]), cfg)
    assert np.all(s >= cfg.epsilon - cfg.beta)
    assert np.all(s <= cfg.epsilon - cfg.alpha)
    assert np.isfinite(s).all()


@given(valid_configs(),
       st.floats(-50.0, 50.0, allow_nan=False),
       st.floats(0.0, 100.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_suppression_monotone_property(cfg, r_low, bump):
    s = ufs.compute_suppression(np.array([[r_low, r_low + bump]]), cfg)
    assert s[0, 0] >= s[0, 1]


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_identity_regime_property(seed):
    # alpha and epsilon chosen so epsilon - alpha is exactly 1.0 in floats
    rng = SeededRng(seed)
    alpha = 0.5
    cfg = ufs.UfsConfig(alpha=alpha, beta=alpha + 1.0, epsilon=alpha + 1.0)
    ratios = rng.uniform((3, 6), -5.0, alpha)  # every ratio at or below alpha
    s = ufs.compute_suppression(ratios, cfg)
    assert np.all(s == 1.0)
    y = rng.normal((3, 6))
    w = rng.normal((6,))
    b = np.array([0.2])
    assert np.array_equal(ufs.apply_suppression(y, s, w, b),
                          (y @ w.reshape(-1, 1) + b)[:, 0])


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_masked_plus_complement_is_full_weighted_sum(seed):
    rng = SeededRng(seed)
    y = rng.normal((4, 5))
    w = rng.normal((5,))
    s = rng.uniform((4, 5))
    comp = 1.0 - s
    zero_b = np.zeros(1)
    lhs = (ufs.apply_suppression(y, s, w, zero_b)
           + ufs.apply_suppression(y, comp, w, zero_b))
    rhs = (y @ w.reshape(-1, 1))[:, 0]
    assert np.abs(lhs - rhs).max() < 1e-10


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_ratio_and_suppression_are_per_sample(seed):
    rng = SeededRng(seed)
    stats = make_stats(rng.normal((4,)), rng.normal((4,)))
    cfg = ufs.UfsConfig(0.0, 1.0, 1.5)
    y_hat = rng.normal((6, 4))
    perm = np.argsort(rng.uniform((6,)))
    r_full = ufs.compute_ratio(stats, y_hat, cfg)
    r_perm = ufs.compute_ratio(stats, y_hat[perm], cfg)
    assert np.array_equal(r_full[perm], r_perm)
    s_full = ufs.compute_suppression(r_full, cfg)
    s_perm = ufs.compute_suppression(r_perm, cfg)
    assert np.array_equal(s_full[perm], s_perm)


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_ratio_scale_covariance(lam):
    rng = SeededRng(12)
    mu_real = rng.normal((6,), 0.0, 2.0)
    mu_fake = mu_real + np.sign(rng.normal((6,))) * rng.uniform((6,), 0.5, 2.0)
    y_hat = mu_real[None, :] + np.sign(rng.normal((5, 6))) * rng.uniform((5, 6), 0.1, 3.0)
    cfg = ufs.UfsConfig(0.0, 1.0, 1.5, gamma=1e-4)
    base = ufs.compute_ratio(make_stats(mu_real, mu_fake), y_hat, cfg)
    scaled = ufs.compute_ratio(make_stats(lam * mu_real, lam * mu_fake), lam * y_hat, cfg)
    assert rel_err(base, scaled) < 1e-12
