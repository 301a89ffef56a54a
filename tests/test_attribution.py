import numpy as np
import pytest

from helpers import init_network, small_conv_disc, small_mlp_disc, split_scores
from ufs_lab import attribution as attr
from ufs_lab import gan
from ufs_lab import numerics as nm
from ufs_lab.errors import ContractError, ParseError, UnsupportedArchitectureError


def single_channel_disc():
    """Identity conv body: features equal the input map."""
    body = nm.Network([nm.conv2d(1, 1, 1, 1), nm.sum_pool()],
                      [{"W": np.ones((1, 1, 1, 1)), "b": np.zeros(1)}, {}])
    return gan.DiscriminatorNet(body, np.array([1.0]), np.array([0.5]))


def test_cam_single_channel_identity():
    d = single_channel_disc()
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    cam = attr.compute_cam(d, x)
    assert np.array_equal(cam.values[0], [[1.0, 2.0], [3.0, 4.0]])


def test_cam_zero_mask_identities():
    rng = nm.SeededRng(1)
    d = small_conv_disc(rng)
    x = rng.normal((2, 1, 9, 9))
    s = np.zeros((2, d.feature_dim))
    cam = attr.compute_cam(d, x)
    cam_kept = attr.compute_cam(d, x, s, "cam_ufs")
    cam_dropped = attr.compute_cam(d, x, s, "cam_sup")
    assert np.array_equal(cam_kept.values, np.zeros_like(cam.values))
    assert np.allclose(cam_dropped.values, cam.values)


def test_cam_decomposition_for_any_mask():
    rng = nm.SeededRng(2)
    d = small_conv_disc(rng)
    x = rng.normal((3, 1, 9, 9))
    s = rng.uniform((3, d.feature_dim))
    cam = attr.compute_cam(d, x).values
    kept = attr.compute_cam(d, x, s, "cam_ufs").values
    dropped = attr.compute_cam(d, x, s, "cam_sup").values
    assert np.abs(kept + dropped - cam).max() < 1e-10


def test_cam_sums_to_score_minus_bias():
    rng = nm.SeededRng(3)
    d = small_conv_disc(rng)
    x = rng.normal((4, 1, 9, 9))
    cam = attr.compute_cam(d, x).values
    _, scores = split_scores(d, x)
    assert np.abs(cam.sum(axis=(1, 2)) + d.b[0] - scores).max() < 1e-9


def test_cam_translation_equivariance_interior():
    rng = nm.SeededRng(4)
    body = init_network([nm.conv2d(1, 3, 3, 1), nm.leaky_relu(0.2), nm.sum_pool()], rng, 0.5)
    d = gan.DiscriminatorNet(body, rng.normal((3,)), np.zeros(1))
    base = rng.normal((1, 1, 10, 10))
    shifted = np.roll(base, 1, axis=3)
    cam_a = attr.compute_cam(d, base).values
    cam_b = attr.compute_cam(d, shifted).values
    # interior columns shift along; borders differ (valid convolution)
    assert np.allclose(cam_a[0, :, 1:-1], cam_b[0, :, 2:], atol=1e-12)


def test_cam_rejects_mlp_body():
    d = small_mlp_disc(nm.SeededRng(5))
    with pytest.raises(UnsupportedArchitectureError):
        attr.compute_cam(d, np.zeros((1, 2)))


def test_cam_masked_variant_requires_mask():
    d = single_channel_disc()
    with pytest.raises(ContractError):
        attr.compute_cam(d, np.zeros((1, 1, 2, 2)), None, "cam_ufs")


# --- PGM output --------------------------------------------------------------------- #


def test_pgm_pixel_values(tmp_path):
    path = tmp_path / "m.pgm"
    attr.heatmap_to_pgm(np.array([[0.0, 1.0], [2.0, 3.0]]), path)
    img = attr.read_pgm(path)
    assert np.array_equal(img, [[0, 85], [170, 255]])


def test_pgm_constant_map_is_mid_gray(tmp_path):
    path = tmp_path / "c.pgm"
    attr.heatmap_to_pgm(np.full((3, 3), 7.0), path)
    assert np.array_equal(attr.read_pgm(path), np.full((3, 3), 128))


def test_pgm_round_trip_reproduces_normalized_values(tmp_path):
    rng = nm.SeededRng(6)
    values = rng.normal((5, 7))
    path = tmp_path / "r.pgm"
    attr.heatmap_to_pgm(values, path)
    img = attr.read_pgm(path)
    lo, hi = values.min(), values.max()
    expected = np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    assert img.shape == (5, 7)
    assert np.array_equal(img, expected)


def test_pgm_rejects_nonfinite():
    with pytest.raises(ContractError):
        attr.heatmap_to_pgm(np.array([[np.nan, 1.0]]), "/tmp/never_written.pgm")


def test_read_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6 junk")
    with pytest.raises(ParseError):
        attr.read_pgm(path)


def test_upsample_nearest():
    up = attr.upsample_nearest(np.array([[1.0, 2.0]]), 2)
    assert np.array_equal(up, [[1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0]])


def test_save_attribution_maps_naming(tmp_path):
    rng = nm.SeededRng(7)
    d = small_conv_disc(rng)
    x = rng.normal((2, 1, 9, 9))
    maps = [attr.compute_cam(d, x)]
    written = attr.save_attribution_maps(maps, tmp_path, "runA")
    names = sorted(p.name for p in written)
    assert names == ["runA_000_cam.pgm", "runA_001_cam.pgm"]
    assert all(p.exists() for p in written)
