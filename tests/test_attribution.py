import numpy as np
import pytest

from helpers import (cam_state, critic_from_parts, init_network, small_conv_disc,
                     small_mlp_disc, split_scores)
from ufs_lab import attribution as attr
from ufs_lab import gan
from ufs_lab import numerics as nm
from ufs_lab.errors import ContractError, ParseError, UnsupportedArchitectureError


def single_channel_disc():
    """Identity conv body: features equal the input map."""
    body = nm.Network([nm.conv2d(1, 1, 1, 1), nm.sum_pool()], np.array([1.0, 0.0]))
    return critic_from_parts(body, np.array([1.0]), np.array([0.5]))


def supply_mask(monkeypatch, s):
    """Make compute_cam use mask s, whatever the state and features."""
    monkeypatch.setattr(attr, "generator_mask", lambda state, features: s)


def test_cam_single_channel_identity():
    d = single_channel_disc()
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    maps = attr.compute_cam(cam_state(d), x)
    assert list(maps) == ["cam"]
    assert np.array_equal(maps["cam"][0], [[1.0, 2.0], [3.0, 4.0]])


def test_cam_zero_mask_identities(monkeypatch):
    rng = nm.SeededRng(1)
    d = small_conv_disc(rng)
    x = rng.normal((2, 1, 9, 9))
    supply_mask(monkeypatch, np.zeros((2, d.feature_dim)))
    maps = attr.compute_cam(cam_state(d), x)
    assert np.array_equal(maps["cam_ufs"], np.zeros_like(maps["cam"]))
    assert np.allclose(maps["cam_sup"], maps["cam"])


def test_cam_decomposition_for_any_mask(monkeypatch):
    rng = nm.SeededRng(2)
    d = small_conv_disc(rng)
    x = rng.normal((3, 1, 9, 9))
    supply_mask(monkeypatch, rng.uniform((3, d.feature_dim)))
    maps = attr.compute_cam(cam_state(d), x)
    assert list(maps) == ["cam", "cam_ufs", "cam_sup"]
    assert np.abs(maps["cam_ufs"] + maps["cam_sup"] - maps["cam"]).max() < 1e-10


def test_cam_sums_to_score_minus_bias():
    rng = nm.SeededRng(3)
    d = small_conv_disc(rng)
    x = rng.normal((4, 1, 9, 9))
    cam = attr.compute_cam(cam_state(d), x)["cam"]
    _, scores = split_scores(d, x)
    assert np.abs(cam.sum(axis=(1, 2)) + d.b[0] - scores).max() < 1e-9


def test_cam_translation_equivariance_interior():
    rng = nm.SeededRng(4)
    body = init_network([nm.conv2d(1, 3, 3, 1), nm.leaky_relu(0.2), nm.sum_pool()], rng, 0.5)
    d = critic_from_parts(body, rng.normal((3,)), np.zeros(1))
    base = rng.normal((1, 1, 10, 10))
    shifted = np.roll(base, 1, axis=3)
    cam_a = attr.compute_cam(cam_state(d), base)["cam"]
    cam_b = attr.compute_cam(cam_state(d), shifted)["cam"]
    # interior columns shift along; borders differ (valid convolution)
    assert np.allclose(cam_a[0, :, 1:-1], cam_b[0, :, 2:], atol=1e-12)


def test_cam_rejects_mlp_body():
    d = small_mlp_disc(nm.SeededRng(5))
    with pytest.raises(UnsupportedArchitectureError):
        attr.compute_cam(cam_state(d), np.zeros((1, 2)))


# --- PGM output --------------------------------------------------------------------- #


def test_pgm_pixel_values(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(attr.encode_pgm(np.array([[0.0, 1.0], [2.0, 3.0]])))
    img = attr.read_pgm(path)
    assert np.array_equal(img, [[0, 85], [170, 255]])


def test_pgm_constant_map_is_mid_gray(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(attr.encode_pgm(np.full((3, 3), 7.0)))
    assert np.array_equal(attr.read_pgm(path), np.full((3, 3), 128))


def test_pgm_round_trip_reproduces_normalized_values(tmp_path):
    rng = nm.SeededRng(6)
    values = rng.normal((5, 7))
    path = tmp_path / "r.pgm"
    path.write_bytes(attr.encode_pgm(values))
    img = attr.read_pgm(path)
    lo, hi = values.min(), values.max()
    expected = np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    assert img.shape == (5, 7)
    assert np.array_equal(img, expected)


def test_pgm_rejects_nonfinite():
    with pytest.raises(ContractError):
        attr.encode_pgm(np.array([[np.nan, 1.0]]))


def test_read_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6 junk")
    with pytest.raises(ParseError):
        attr.read_pgm(path)


@pytest.mark.parametrize("raw, message", [
    (b"P5\n3 2\n255\n" + bytes(5), "truncated pixel data at byte 11"),
    (b"P5\n3 2\n15\n" + bytes(6), "not an 8-bit binary PGM"),
    (b"P5\nthree 2\n255\n" + bytes(6), "not an 8-bit binary PGM"),
    (b"P5\n3 2", "not an 8-bit binary PGM"),
], ids=["pixels-cut-short", "maxval-15", "width-not-a-number", "header-cut-short"])
def test_read_pgm_malformed_header_or_data(tmp_path, raw, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=message):
        attr.read_pgm(path)


def test_upsample_nearest():
    up = attr.upsample_nearest(np.array([[1.0, 2.0]]), 2)
    assert np.array_equal(up, [[1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0]])


def test_save_attribution_maps_naming(tmp_path):
    rng = nm.SeededRng(7)
    d = small_conv_disc(rng)
    x = rng.normal((2, 1, 9, 9))
    maps = attr.compute_cam(cam_state(d), x)
    written = attr.save_attribution_maps(maps, tmp_path, "runA")
    names = sorted(p.name for p in written)
    assert names == ["runA_000_cam.pgm", "runA_001_cam.pgm"]
    assert all(p.exists() for p in written)


def test_failed_map_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    rng = nm.SeededRng(7)
    d = small_conv_disc(rng)
    maps = attr.compute_cam(cam_state(d), rng.normal((1, 1, 9, 9)))
    (path,) = attr.save_attribution_maps(maps, tmp_path, "runA")
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(nm.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        attr.save_attribution_maps({"cam": -maps["cam"]}, tmp_path, "runA", 2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["runA_000_cam.pgm"]


def test_save_attribution_maps_writes_every_variant(tmp_path, monkeypatch):
    rng = nm.SeededRng(9)
    d = small_conv_disc(rng)
    x = rng.normal((2, 1, 9, 9))
    supply_mask(monkeypatch, rng.uniform((2, d.feature_dim)))
    written = attr.save_attribution_maps(attr.compute_cam(cam_state(d), x), tmp_path, "r", 2)
    assert [p.name for p in written] == ["r_000_cam.pgm", "r_001_cam.pgm", "r_000_cam_ufs.pgm",
                                         "r_001_cam_ufs.pgm", "r_000_cam_sup.pgm", "r_001_cam_sup.pgm"]
    assert all(attr.read_pgm(p).shape == (4, 4) for p in written)  # 2x2 maps, upsampled
