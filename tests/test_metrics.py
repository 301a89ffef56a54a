import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (ball_bounds_copyto, conv2d_forward_channels_last, conv2d_loop,
                     covariance_root_symmetrizing, distance_block_sqrt,
                     frechet_distance_symmetrizing, frechet_oracle, knn_radii_sqrt,
                     manifold_metrics_copyto, manifold_metrics_sqrt, mode_coverage_rows,
                     pairwise_distances_copyto, prdc_loop, rel_err, sum_pool_loop)
from ufs_lab import metrics as mx
from ufs_lab.datasets import DatasetConfig, PointMixture, make_dataset, synthetic_shapes
from ufs_lab.errors import ContractError, DimensionError, NumericError
from ufs_lab.numerics import SeededRng


# --- fit_gaussian -------------------------------------------------------------- #


def test_fit_two_points():
    fit = mx.fit_gaussian(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.array_equal(fit.mean, [1.0, 0.0])
    assert np.array_equal(fit.covariance, [[2.0, 0.0], [0.0, 0.0]])


def test_fit_identical_points_zero_covariance():
    fit = mx.fit_gaussian(np.full((5, 3), 1.5))
    assert np.array_equal(fit.covariance, np.zeros((3, 3)))


def test_fit_matches_loop_oracle():
    rng = SeededRng(1)
    x = rng.normal((20, 3))
    fit = mx.fit_gaussian(x)
    m = x.shape[0]
    mean = [sum(x[i, d] for i in range(m)) / m for d in range(3)]
    cov = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            cov[a, b] = sum((x[i, a] - mean[a]) * (x[i, b] - mean[b]) for i in range(m)) / (m - 1)
    assert rel_err(fit.mean, mean) < 1e-10
    assert rel_err(fit.covariance, cov) < 1e-10


def test_fit_needs_two_samples():
    with pytest.raises(ContractError):
        mx.fit_gaussian(np.ones((1, 2)))


# --- frechet_distance ------------------------------------------------------------ #


def unit_fit(mean, var):
    return mx.GaussianFit(np.array([float(mean)]), np.array([[float(var)]]))


def test_frechet_identical_fits_zero():
    rng = SeededRng(2)
    fit = mx.fit_gaussian(rng.normal((30, 3)))
    assert mx.frechet_distance(fit, fit) < 1e-12


def test_frechet_1d_mean_shift():
    assert abs(mx.frechet_distance(unit_fit(0, 1), unit_fit(1, 1)) - 1.0) < 1e-9


def test_frechet_1d_variance_gap():
    # sigma 1 vs 2: (1 - 2)^2 = 1
    assert abs(mx.frechet_distance(unit_fit(0, 1), unit_fit(0, 4)) - 1.0) < 1e-9


def test_frechet_matches_denman_beavers_oracle():
    rng = SeededRng(3)
    for _ in range(10):
        a = mx.fit_gaussian(rng.normal((40, 3)))
        b = mx.fit_gaussian(rng.normal((40, 3), 0.5, 1.5))
        assert abs(mx.frechet_distance(a, b) - frechet_oracle(a, b)) < 1e-6


def test_frechet_symmetric():
    rng = SeededRng(4)
    a = mx.fit_gaussian(rng.normal((25, 4)))
    b = mx.fit_gaussian(rng.normal((25, 4), 1.0, 2.0))
    assert abs(mx.frechet_distance(a, b) - mx.frechet_distance(b, a)) < 1e-10


def test_frechet_dimension_mismatch():
    with pytest.raises(ContractError):
        mx.frechet_distance(unit_fit(0, 1),
                            mx.GaussianFit(np.zeros(2), np.eye(2)))


def test_frechet_rejects_indefinite_covariance():
    bad = mx.GaussianFit(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NumericError):
        mx.frechet_distance(bad, mx.GaussianFit(np.zeros(2), np.eye(2)))


@pytest.mark.parametrize("dim,m,n", [(2, 500, 500), (64, 256, 64)])  # ring8 and image windows
def test_frechet_precomputed_root_gives_the_same_bits(dim, m, n):
    rng = SeededRng(dim)
    real = mx.fit_gaussian(rng.normal((m, dim)))
    root = mx.covariance_root(real)
    for scale in (0.5, 1.0, 3.0):
        fake = mx.fit_gaussian(rng.normal((n, dim), 0.1, scale))
        assert mx.frechet_distance(real, fake, root).hex() == mx.frechet_distance(real, fake).hex()


@pytest.mark.parametrize("dim", [2, 5])
def test_gaussian_fit_symmetrizes_once_and_readers_take_it_as_is(dim):
    rng = SeededRng(40 + dim)
    pairs = []
    for _ in range(2):
        x = rng.normal((dim, dim))
        cov = x @ x.T + np.eye(dim) + 0.05 * rng.normal((dim, dim))  # PSD part, asymmetric noise
        assert not np.array_equal(cov, cov.T)
        pairs.append((rng.normal((dim,)), cov))
    (mean_a, cov_a), (mean_b, cov_b) = pairs
    a, b = mx.GaussianFit(mean_a, cov_a), mx.GaussianFit(mean_b, cov_b)
    assert a.covariance.tobytes() == ((cov_a + cov_a.T) / 2.0).tobytes()
    assert np.array_equal(a.covariance, a.covariance.T)
    root = mx.covariance_root(a)
    assert root.tobytes() == covariance_root_symmetrizing(cov_a).tobytes()
    want = frechet_distance_symmetrizing(mean_a, cov_a, mean_b, cov_b)
    assert mx.frechet_distance(a, b).hex() == want.hex()
    assert mx.frechet_distance(a, b, root).hex() == want.hex()


def test_frechet_root_shape_checked():
    a = mx.GaussianFit(np.zeros(2), np.eye(2))
    for bad in (np.eye(3), np.ones(2), mx.covariance_root(unit_fit(0, 1))):
        with pytest.raises(ContractError, match="root_a"):
            mx.frechet_distance(a, a, bad)


# --- manifold metrics --------------------------------------------------------------- #


def test_manifold_identical_sets():
    rng = SeededRng(5)
    pts = rng.normal((8, 2))
    mm = mx.manifold_metrics(pts, pts, k=1)
    assert mm.precision == 1.0
    assert mm.recall == 1.0
    assert mm.coverage == 1.0


def test_manifold_distant_clusters_all_zero():
    rng = SeededRng(6)
    real = rng.normal((8, 2))
    fake = rng.normal((8, 2)) + 1e6
    mm = mx.manifold_metrics(real, fake, k=2)
    assert (mm.precision, mm.recall, mm.density, mm.coverage) == (0.0, 0.0, 0.0, 0.0)


def test_manifold_small_instance_matches_enumeration():
    rng = SeededRng(7)
    real = rng.normal((6, 1))
    fake = rng.normal((6, 1), 0.4)
    mm = mx.manifold_metrics(real, fake, k=2)
    p, r, d, c = prdc_loop(real.tolist(), fake.tolist(), 2)
    assert mm.precision == pytest.approx(p, abs=1e-12)
    assert mm.recall == pytest.approx(r, abs=1e-12)
    assert mm.density == pytest.approx(d, abs=1e-12)
    assert mm.coverage == pytest.approx(c, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_manifold_matches_enumeration_property(seed):
    rng = SeededRng(seed)
    m = 4 + int(rng.integers(9))
    n = 4 + int(rng.integers(9))
    k = 1 + int(rng.integers(3))
    real = rng.normal((m, 2))
    fake = rng.normal((n, 2), 0.3, 0.8)
    assert astuple(mx.manifold_metrics(real, fake, k)) == prdc_loop(real.tolist(), fake.tolist(), k)


@st.composite
def grid_point_sets(draw):
    """Integer-grid points scaled by 1, 0.5 or 0.1: many equal distances,
    duplicate points, and squares that sqrt rounds onto the same radius."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 0.5, 0.1]))
    point = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    real = draw(st.lists(point, min_size=k + 1, max_size=10))
    fake = draw(st.lists(point, min_size=k + 1, max_size=10))
    if draw(st.booleans()):
        fake += real[:2]
    return np.array(real, float) * scale, np.array(fake, float) * scale, k


# sqrt rounds some real-fake squares onto a real ball's radius from above
TIE_CASE = (np.array([[-3, 0], [-2, 1], [-1, 2], [3, 0], [-1, 3], [-2, 1]]) * 0.1,
            np.array([[-3, 0], [0, -2], [-3, 2]]) * 0.1, 2)


@given(grid_point_sets())
@example(TIE_CASE)
@settings(max_examples=200, deadline=None)
def test_manifold_ties_match_enumeration_and_sqrt_oracle(sets):
    real, fake, k = sets
    got = astuple(mx.manifold_metrics(real, fake, k))
    assert got == prdc_loop(real.tolist(), fake.tolist(), k)
    assert got == manifold_metrics_sqrt(real, fake, k)


def test_manifold_64d_matches_sqrt_oracle():
    rng = SeededRng(13)
    for _ in range(10):
        m = 20 + int(rng.integers(61))
        n = 20 + int(rng.integers(61))
        k = 1 + int(rng.integers(5))
        real = rng.normal((m, 64))
        fake = rng.normal((n, 64), 0.1, 1.1)
        assert astuple(mx.manifold_metrics(real, fake, k)) == manifold_metrics_sqrt(real, fake, k)


@given(st.one_of(st.floats(0.0, 1e150), st.integers(0, 2 ** 20).map(lambda i: i * 0.1)))
@settings(max_examples=300, deadline=None)
def test_ball_bounds_decide_like_sqrt_near_the_bound(x):
    # two points x apart: each one's nearest neighbour is at squared distance x*x
    bound = mx.ball_bounds(np.array([[0.0], [x]]), 1)
    radius = math.sqrt(x * x)
    assert bound[0] == bound[1] >= x * x
    s = bound[0]
    for _ in range(3):
        s = np.nextafter(s, -np.inf)
    for _ in range(7):
        if s >= 0.0:  # squared distances are never negative
            assert (s <= bound[0]) == (math.sqrt(s) <= radius)
        s = np.nextafter(s, np.inf)


@given(grid_point_sets())
@settings(max_examples=100, deadline=None)
def test_ball_bounds_decide_like_sqrt_radii(sets):
    points, _, k = sets
    bounds = mx.ball_bounds(points, k)
    radii = knn_radii_sqrt(points, k)
    for bound, radius in zip(bounds, radii):
        for step in range(-3, 4):
            s = bound
            for _ in range(abs(step)):
                s = np.nextafter(s, math.copysign(np.inf, step))
            if s >= 0.0:
                assert (s <= bound) == (math.sqrt(s) <= radius)


def test_ball_bounds_contract():
    with pytest.raises(ContractError):
        mx.ball_bounds(np.zeros((3, 2)), 3)
    with pytest.raises(ContractError):
        mx.ball_bounds(np.zeros((3, 2)), 0)
    with pytest.raises(DimensionError):
        mx.ball_bounds(np.zeros(3), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_metrics_refuse_non_finite_points(bad):
    rng = SeededRng(34)
    real, fake = rng.normal((20, 2)), rng.normal((20, 2))
    fake[3, 1] = fake[7] = bad
    with pytest.raises(NumericError, match="^points holds 3 non-finite values$"):
        mx.ball_bounds(fake, 3)
    with pytest.raises(NumericError, match="^fake holds 3 non-finite values$"):
        mx.manifold_metrics(real, fake, 3, mx.ball_bounds(real, 3))
    with pytest.raises(NumericError, match="^real holds 3 non-finite values$"):
        mx.manifold_metrics(fake, real, 3)


@given(st.integers(1, 7), st.integers(1, 9), st.integers(1, 9), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_pairwise_distances_bitwise_equal_sqrt_oracle(d, m, n, seed):
    rng = SeededRng(seed)
    # coordinates of very different magnitudes make the summation order visible
    a = rng.normal((m, d)) * 10.0 ** rng.integers(13, (m, d)) * 1e-6
    b = rng.normal((n, d)) * 10.0 ** rng.integers(13, (n, d)) * 1e-6
    assert mx.pairwise_distances(a, b).tobytes() == distance_block_sqrt(a, b).tobytes()


def test_pairwise_distances_across_row_blocks():
    rng = SeededRng(14)
    a = rng.normal((300, 3))
    b = rng.normal((400, 3))
    assert 300 * 400 > mx._BLOCK_PAIRS
    assert mx.pairwise_distances(a, b).tobytes() == distance_block_sqrt(a, b).tobytes()
    assert astuple(mx.manifold_metrics(a, b, 3)) == manifold_metrics_sqrt(a, b, 3)


# A block against 300 points holds ROWS_300 rows; a set of SIDE points fills
# one block against itself.
ROWS_300 = mx._BLOCK_PAIRS // 300
SIDE = math.isqrt(mx._BLOCK_PAIRS)
# (rows of a, points of b, dimension, coordinates rounded to one decimal for ties)
COPYTO_CASES = [(500, 500, 2, False), (500, 500, 2, True), (64, 64, 64, False),
                (ROWS_300, 300, 3, True), (ROWS_300 + 1, 300, 3, True)]


def copyto_case_sets(m, n, d, rounded):
    rng = SeededRng(m * 1000 + n + d)
    a, b = rng.normal((m, d)), rng.normal((n, d))
    return (np.round(a, 1), np.round(b, 1)) if rounded else (a, b)


@pytest.mark.parametrize("m,n,d,rounded", COPYTO_CASES)
def test_pairwise_distances_bitwise_equal_copyto_blocks(m, n, d, rounded):
    a, b = copyto_case_sets(m, n, d, rounded)
    assert mx.pairwise_distances(a, b).tobytes() == pairwise_distances_copyto(a, b).tobytes()


@pytest.mark.parametrize("n,d,rounded", [(500, 2, False), (500, 2, True), (64, 64, False),
                                         (SIDE - 1, 2, True), (SIDE, 2, True), (SIDE + 1, 2, True)])
def test_ball_bounds_bitwise_equal_copyto_blocks(n, d, rounded):
    points, _ = copyto_case_sets(n, 1, d, rounded)
    for k in (1, 3):
        assert mx.ball_bounds(points, k).tobytes() == ball_bounds_copyto(points, k).tobytes()


@pytest.mark.parametrize("rounded", [False, True])
def test_ball_bounds_bitwise_equal_copyto_blocks_at_every_k(rounded):
    points, _ = copyto_case_sets(12, 1, 2, rounded)
    for k in range(1, 12):
        assert mx.ball_bounds(points, k).tobytes() == ball_bounds_copyto(points, k).tobytes()


@pytest.mark.parametrize("copies", [2, 4])
def test_ball_bounds_bitwise_equal_copyto_blocks_with_repeated_points(copies):
    rng = SeededRng(31)
    points = np.concatenate([rng.normal((10, 2)), np.repeat(rng.normal((1, 2)), copies, axis=0)])
    for k in (1, 2, 3, 5):
        assert mx.ball_bounds(points, k).tobytes() == ball_bounds_copyto(points, k).tobytes()
    # each copy's other copies sit at distance 0: 3 of them make the third-nearest 0
    assert (mx.ball_bounds(points, 3)[10:] == 0.0).all() == (copies == 4)


def test_ball_bounds_bitwise_equal_copyto_blocks_on_ring8():
    points = make_dataset(DatasetConfig(kind="ring8"), SeededRng(0)).sample(2000, SeededRng(32))
    for k in (1, 3, 5):
        assert mx.ball_bounds(points, k).tobytes() == ball_bounds_copyto(points, k).tobytes()


@pytest.mark.parametrize("m,n,d,rounded", COPYTO_CASES)
def test_manifold_metrics_bitwise_equal_copyto_blocks(m, n, d, rounded):
    real, fake = copyto_case_sets(m, n, d, rounded)
    got = np.array(astuple(mx.manifold_metrics(real, fake, 3)))
    assert got.tobytes() == np.array(manifold_metrics_copyto(real, fake, 3)).tobytes()


def test_distance_blocks_yield_at_the_callers_ufunc_buffer_size(monkeypatch):
    rng = SeededRng(17)
    a, b = rng.normal((3 * ROWS_300, 3)), rng.normal((300, 3))
    old = np.setbufsize(4096)
    try:
        blocks = mx._sq_distance_blocks(a, b)
        seen = []
        for lo, _ in blocks:
            seen.append(np.getbufsize())
            if lo:  # the consumer stops after the second of three blocks
                break
        blocks.close()
        assert seen == [4096, 4096] and np.getbufsize() == 4096
        mx.pairwise_distances(a, b)
        mx.ball_bounds(b, 3)
        mx.manifold_metrics(a, b, 3)
        assert np.getbufsize() == 4096

        def fail(*args, **kwargs):
            raise RuntimeError("subtract failed")

        monkeypatch.setattr(np, "subtract", fail)  # raises inside the first block
        with pytest.raises(RuntimeError, match="subtract failed"):
            next(mx._sq_distance_blocks(a, b))
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


def test_overlapping_distance_streams_do_not_share_buffers():
    # The kept scratch goes to one stream at a time; a second live stream
    # gets fresh buffers, and the scratch is lent again once the first ends.
    rng = SeededRng(18)
    a, b = rng.normal((3 * ROWS_300, 3)), rng.normal((300, 3))
    want = distance_block_sqrt(a, b)
    first = mx._sq_distance_blocks(a, b)
    lo, block = next(first)
    got = np.vstack([np.sqrt(sq) for _, sq in mx._sq_distance_blocks(a, b)])
    assert np.array_equal(np.sqrt(block), want[lo:lo + len(block)])
    assert np.array_equal(got, want)
    assert mx._block_scratch_lent
    first.close()
    assert not mx._block_scratch_lent
    assert np.array_equal(mx.pairwise_distances(a, b), distance_block_sqrt(a, b))


def test_manifold_cached_real_bounds_same_result():
    rng = SeededRng(15)
    real = rng.normal((30, 2))
    fake = rng.normal((25, 2), 0.3)
    cached = mx.manifold_metrics(real, fake, 3, mx.ball_bounds(real, 3))
    assert cached == mx.manifold_metrics(real, fake, 3)


def test_manifold_real_bounds_shape_checked():
    rng = SeededRng(16)
    real = rng.normal((10, 2))
    fake = rng.normal((12, 2))
    bounds = mx.ball_bounds(real, 2)
    for bad in (bounds[:-1], bounds[:, None], mx.ball_bounds(fake, 2)):
        with pytest.raises(ContractError, match="real_bounds"):
            mx.manifold_metrics(real, fake, 2, bad)


def test_manifold_dimension_mismatch():
    with pytest.raises(DimensionError):
        mx.manifold_metrics(np.zeros((5, 2)), np.zeros((5, 3)), 1)


def test_precision_recall_swap_exactly():
    rng = SeededRng(8)
    a = rng.normal((9, 3))
    b = rng.normal((11, 3), 0.2)
    ab = mx.manifold_metrics(a, b, k=3)
    ba = mx.manifold_metrics(b, a, k=3)
    assert ab.precision == ba.recall
    assert ab.recall == ba.precision


def test_metrics_invariant_under_common_rotation():
    rng = SeededRng(9)
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    real = rng.normal((10, 2))
    fake = rng.normal((12, 2), 0.1)
    base = mx.manifold_metrics(real, fake, k=2)
    turned = mx.manifold_metrics(real @ rot.T, fake @ rot.T, k=2)
    for field in ("precision", "recall", "density", "coverage"):
        assert abs(getattr(base, field) - getattr(turned, field)) < 1e-9
    fr_base = mx.frechet_distance(mx.fit_gaussian(real), mx.fit_gaussian(fake))
    fr_turned = mx.frechet_distance(mx.fit_gaussian(real @ rot.T), mx.fit_gaussian(fake @ rot.T))
    assert abs(fr_base - fr_turned) < 1e-9


def test_manifold_k_bounds():
    pts = np.zeros((3, 2))
    with pytest.raises(ContractError):
        mx.manifold_metrics(pts, pts, k=3)
    with pytest.raises(ContractError):
        mx.manifold_metrics(pts, pts, k=0)


ORDERING_POINTS = 2000


def degraded_point_sets(kind, rng):
    """A real set of the dataset kind and fake sets that should score worse and
    worse: held-out draws, draws from fewer and fewer of its modes, then (ring8
    only) a uniform circle through the modes, and last an isotropic Gaussian
    blob with the real set's second moment."""
    data = make_dataset(DatasetConfig(kind), rng)
    real = data.sample(ORDERING_POINTS, rng)

    def from_modes(chosen):
        return PointMixture(data.centers[chosen], data.sigma).sample(ORDERING_POINTS, rng)

    fakes = [data.sample(ORDERING_POINTS, rng)]
    if kind == "ring8":
        fakes += [from_modes([0, 2, 4, 6]), from_modes([0, 4])]
        angles = rng.uniform((ORDERING_POINTS,), 0.0, 2.0 * np.pi)
        fakes.append(2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1))
    else:  # every other center, then every fifth
        fakes += [from_modes(np.arange(0, 25, 2)), from_modes(np.arange(0, 25, 5))]
    fakes.append(rng.normal((ORDERING_POINTS, 2), 0.0, float(np.sqrt(np.mean(real ** 2)))))
    return real, fakes


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["ring8", "grid25"])
def test_coverage_orders_degraded_point_sets(kind, seed):
    real, fakes = degraded_point_sets(kind, SeededRng(seed))
    real_bounds = mx.ball_bounds(real, mx.MANIFOLD_K)
    coverage = [mx.manifold_metrics(real, fake, mx.MANIFOLD_K, real_bounds).coverage
                for fake in fakes]
    assert all(a > b for a, b in zip(coverage, coverage[1:])), coverage


# --- mode coverage --------------------------------------------------------------------- #


def ring_centers_8():
    angles = np.arange(8) * np.pi / 4
    return np.stack([2 * np.cos(angles), 2 * np.sin(angles)], axis=1)


def test_mode_coverage_single_center_cluster():
    centers = ring_centers_8()
    samples = np.repeat(centers[:1], 50, axis=0)
    covered, hq = mx.mode_coverage(samples, centers, sigma=0.02)
    assert covered == 1
    assert hq == 1.0


def test_mode_coverage_one_sample_per_mode():
    centers = ring_centers_8()
    covered, hq = mx.mode_coverage(centers.copy(), centers, sigma=0.02)
    assert covered == 8
    assert hq == 1.0


def test_mode_coverage_four_sigma_sample_not_high_quality():
    centers = np.array([[0.0, 0.0]])
    samples = np.array([[4 * 0.02, 0.0]])
    covered, hq = mx.mode_coverage(samples, centers, sigma=0.02)
    assert covered == 0
    assert hq == 0.0


def mode_coverage_cases():
    """(samples, centers, sigma): ring8 and grid25 draws, grid25 midpoints
    (exact ties between two or four centres) and samples at exactly
    HQ_SIGMAS * sigma from the origin's centre, or one ulp further."""
    rng = SeededRng(33)
    cases = []
    for kind in ("ring8", "grid25"):
        mix = make_dataset(DatasetConfig(kind=kind), rng)
        wide = mix.centers[rng.integers(len(mix.centers), size=300)] + rng.normal((300, 2), 0.0, 0.5)
        cases += [(mix.sample(500, rng), mix.centers, mix.sigma), (wide, mix.centers, mix.sigma),
                  (wide, mix.centers, 0.5)]
    grid = make_dataset(DatasetConfig(kind="grid25"), rng)
    mids = np.concatenate([(grid.centers[:-1] + grid.centers[1:]) / 2,
                           (grid.centers[:-6] + grid.centers[6:]) / 2])
    r = mx.HQ_SIGMAS * grid.sigma
    edge = np.array([[r, 0.0], [0.0, -r], [np.nextafter(r, 1.0), 0.0]])
    cases += [(mids, grid.centers, sigma) for sigma in (grid.sigma, 0.5, 1.0 / mx.HQ_SIGMAS)]
    # mode 0 is covered only through a midpoint tie it wins as the first centre
    cases.append((np.concatenate([mids, grid.centers[1:]]), grid.centers, 0.5))
    cases.append((edge, grid.centers, grid.sigma))
    return cases


def test_mode_coverage_equals_samples_by_centres_oracle():
    for samples, centers, sigma in mode_coverage_cases():
        got = mx.mode_coverage(samples, centers, sigma)
        assert got == mode_coverage_rows(samples, centers, sigma, mx.HQ_SIGMAS)


def test_mode_coverage_ties_go_to_the_first_centre_and_the_radius_is_inclusive():
    grid = make_dataset(DatasetConfig(kind="grid25"), SeededRng(0))
    # (1, 0) is 1 from the centres (0, 0) and (2, 0) and maps to the first of them, so
    # with (2, 0) it covers two modes
    samples = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert mx.HQ_SIGMAS * (1.0 / mx.HQ_SIGMAS) == 1.0
    assert mx.mode_coverage(samples, grid.centers, 1.0 / mx.HQ_SIGMAS) == (2, 1.0)
    r = mx.HQ_SIGMAS * grid.sigma
    assert mx.mode_coverage(np.array([[r, 0.0]]), grid.centers, grid.sigma) == (1, 1.0)
    beyond = np.array([[np.nextafter(r, 1.0), 0.0]])
    assert mx.mode_coverage(beyond, grid.centers, grid.sigma) == (0, 0.0)


def test_mode_coverage_contract_errors():
    with pytest.raises(ContractError):
        mx.mode_coverage(np.zeros((2, 2)), np.zeros((0, 2)), 0.1)
    with pytest.raises(ContractError):
        mx.mode_coverage(np.zeros((2, 2)), np.zeros((1, 2)), 0.0)


# --- random feature embedder ----------------------------------------------------------- #


def test_embed_deterministic_per_seed():
    rng = SeededRng(10)
    images = rng.normal((5, 1, 16, 16))
    a = mx.random_feature_embed(images, seed=4)
    b = mx.random_feature_embed(images, seed=4)
    c = mx.random_feature_embed(images, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (5, 64)


def test_embed_bitwise_equals_loop_oracles():
    rng = SeededRng(12)
    images = rng.normal((3, 1, 8, 8))
    images[0] = 0.0  # every conv output is +0.0 and must stay +0.0 through the slope
    images[1, 0, ::2] = -0.0
    k_rng = SeededRng(7)
    k1 = k_rng.normal((mx._EMBED_MID, 1, 3, 3), 0.0, math.sqrt(2.0 / 9))
    k2 = k_rng.normal((mx.EMBED_DIM, mx._EMBED_MID, 3, 3), 0.0,
                      math.sqrt(2.0 / (mx._EMBED_MID * 9)))
    h = conv2d_loop(images, k1, 2)
    h = np.where(h > 0.0, h, 0.2 * h)
    h = conv2d_loop(h, k2, 2)
    h = np.where(h > 0.0, h, 0.2 * h)
    want = sum_pool_loop(h)
    assert mx.random_feature_embed(images, 7).tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [64, 512])  # an evaluation window; instance selection
def test_embed_at_bench_shapes_equals_channels_last_forward(monkeypatch, rows):
    images = synthetic_shapes(rows, 16, SeededRng(rows))
    got = mx.random_feature_embed(images, mx.EMBED_SEED)
    monkeypatch.setattr(mx, "conv2d_forward", conv2d_forward_channels_last)
    assert got.tobytes() == mx.random_feature_embed(images, mx.EMBED_SEED).tobytes()


@pytest.mark.parametrize("seed, cin", [(mx.EMBED_SEED, 1), (7, 3)])
def test_embed_kernels_are_a_fresh_draw_held_read_only(seed, cin):
    rng = SeededRng(seed)
    want = (rng.normal((mx._EMBED_MID, cin, 3, 3), 0.0, math.sqrt(2.0 / (cin * 9))),
            rng.normal((mx.EMBED_DIM, mx._EMBED_MID, 3, 3), 0.0,
                       math.sqrt(2.0 / (mx._EMBED_MID * 9))))
    got = mx._embed_kernels(seed, cin)
    assert mx._embed_kernels(seed, cin) is got  # drawn once per (seed, in_channels)
    for k, w in zip(got, want, strict=True):
        assert k.shape == w.shape and k.tobytes() == w.tobytes()
        with pytest.raises(ValueError):
            k[0, 0, 0, 0] = 0.0


def test_embed_zero_images_zero_embeddings():
    assert np.array_equal(mx.random_feature_embed(np.zeros((3, 1, 16, 16)), 0),
                          np.zeros((3, 64)))


def test_embed_duplicate_image_distance_zero():
    rng = SeededRng(11)
    img = rng.normal((1, 1, 16, 16))
    pair = np.concatenate([img, img])
    emb = mx.random_feature_embed(pair, 1)
    assert np.linalg.norm(emb[0] - emb[1]) == 0.0


# --- measurement space ------------------------------------------------------------------ #


def test_measure_passes_points_through_and_embeds_images_at_one_seed():
    rng = SeededRng(13)
    for columns in (2, 3):
        points = rng.normal((6, columns))
        got, space = mx.measure(points)
        assert space == "data" and got.tobytes() == points.tobytes()
    images = rng.normal((4, 1, 16, 16))
    got, space = mx.measure(images)
    assert space == "random_features"
    assert got.tobytes() == mx.random_feature_embed(images, mx.EMBED_SEED).tobytes()
    with pytest.raises(DimensionError):
        mx.measure(rng.normal((2, 16, 16)))
