import numpy as np
import pytest

from ufs_lab import datasets as ds
from ufs_lab import numerics as nm
from ufs_lab.errors import ConfigError, ContractError, ParseError
from ufs_lab.numerics import SeededRng
from ufs_lab.selection import InstanceSelectionConfig


def test_ring_mode_zero_center():
    centers = ds.ring_centers()
    assert np.allclose(centers[0], [2.0, 0.0])
    assert centers.shape == (8, 2)
    assert np.allclose(np.linalg.norm(centers, axis=1), 2.0)


def test_grid_centers_layout():
    centers = ds.grid_centers()
    assert centers.shape == (25, 2)
    assert centers.min() == -4.0 and centers.max() == 4.0


def test_ring_sampling_concentrates_on_modes():
    mix = ds.make_dataset(ds.DatasetConfig("ring8"), SeededRng(0))
    pts = mix.sample(2000, SeededRng(1))
    dists = np.sqrt(((pts[:, None, :] - mix.centers[None]) ** 2).sum(-1)).min(1)
    assert dists.max() < 0.2  # sigma 0.02, so samples hug the centers
    assert mix.sigma == 0.02


def test_grid_default_sigma():
    mix = ds.make_dataset(ds.DatasetConfig("grid25"), SeededRng(0))
    assert mix.sigma == 0.05


def test_same_seed_same_first_batch():
    cfg = ds.DatasetConfig("ring8")
    a = ds.make_dataset(cfg, SeededRng(5)).sample(32, SeededRng(9))
    b = ds.make_dataset(cfg, SeededRng(5)).sample(32, SeededRng(9))
    assert np.array_equal(a, b)


def test_shapes_dataset_deterministic_and_bounded():
    cfg = ds.DatasetConfig("synthetic_shapes", num_shapes=16, image_size=16)
    bank_a = ds.make_dataset(cfg, SeededRng(3))
    bank_b = ds.make_dataset(cfg, SeededRng(3))
    assert np.array_equal(bank_a.data, bank_b.data)
    assert bank_a.data.shape == (16, 1, 16, 16)
    assert bank_a.data.min() >= -1.0 and bank_a.data.max() <= 1.0
    batch = bank_a.sample(4, SeededRng(0))
    assert batch.shape == (4, 1, 16, 16)


# --- IDX format --------------------------------------------------------------------- #


def test_idx_magic_bytes(tmp_path):
    path = tmp_path / "imgs.idx"
    ds.write_idx_images(np.zeros((2, 4, 4), np.uint8), path)
    assert path.read_bytes()[:4] == bytes([0x00, 0x00, 0x08, 0x03])


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, (5, 6, 7)).astype(np.uint8)
    path = tmp_path / "imgs.idx"
    ds.write_idx_images(imgs, path)
    loaded = ds.load_idx_images(path)
    assert loaded.dtype == np.float64 and loaded.shape == (5, 1, 6, 7)
    assert np.array_equal(loaded, imgs[:, None] / 127.5 - 1.0)
    ds.write_idx_images(imgs[:, ::2, ::-1], path)  # strided views are written in C order
    assert np.array_equal(ds.load_idx_images(path), imgs[:, None, ::2, ::-1] / 127.5 - 1.0)


def test_failed_idx_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "imgs.idx"
    ds.write_idx_images(np.zeros((2, 4, 4), np.uint8), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(nm.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        ds.write_idx_images(np.ones((3, 4, 4), np.uint8), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["imgs.idx"]


def test_idx_normalization_range(tmp_path):
    imgs = np.array([[[0, 255]]], np.uint8)
    path = tmp_path / "imgs.idx"
    ds.write_idx_images(imgs, path)
    norm = ds.load_idx_images(path)
    assert norm.shape == (1, 1, 1, 2)
    assert norm[0, 0, 0, 0] == -1.0
    assert norm[0, 0, 0, 1] == 1.0


@pytest.mark.parametrize("raw,offset_hint", [
    (b"\x01\x00\x08\x03" + b"\x00" * 12, "byte 0"),
    (b"\x00\x00\x07\x03" + b"\x00" * 12, "byte 2"),
    (b"\x00\x00\x08\x02" + b"\x00" * 12, "byte 3"),
    (b"\x00\x00\x08\x03" + b"\x00" * 4, "byte 4"),
    (b"\x00\x00\x08\x03" + (1).to_bytes(4, "big") * 3 + b"", "byte 16"),
])
def test_idx_parse_errors_carry_byte_offsets(tmp_path, raw, offset_hint):
    path = tmp_path / "bad.idx"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=offset_hint):
        ds.load_idx_images(path)


def test_idx_dataset_with_instance_selection(tmp_path):
    rng = SeededRng(1)
    shapes = ds.synthetic_shapes(20, 16, rng)
    u8 = np.clip((shapes[:, 0] + 1.0) * 127.5, 0, 255).astype(np.uint8)
    path = tmp_path / "shapes.idx"
    ds.write_idx_images(u8, path)
    cfg = ds.DatasetConfig("idx_images", path=str(path),
                          instance_selection=InstanceSelectionConfig(retention_ratio=0.5))
    bank = ds.make_dataset(cfg, SeededRng(2))
    assert len(bank.data) == 10


def test_dataset_config_validation():
    with pytest.raises(ConfigError):
        ds.DatasetConfig("nope")
    with pytest.raises(ConfigError):
        ds.DatasetConfig("idx_images")


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "synthetic_shapes", "num_shapes": 0}, "num_shapes >= 1"),
    ({"kind": "synthetic_shapes", "num_shapes": -3}, "num_shapes >= 1"),
    ({"kind": "synthetic_shapes", "image_size": 4}, "image_size >= 8"),
])
def test_dataset_config_rejects_values_the_dataset_cannot_use(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        ds.DatasetConfig(**kwargs)


def test_dataset_config_fills_the_fields_its_kind_reads_and_leaves_the_rest_null():
    assert ds.DatasetConfig("synthetic_shapes") == ds.DatasetConfig(
        "synthetic_shapes", None, 16, 2048, None)
    for kind in ("ring8", "grid25"):
        assert ds.DatasetConfig(kind) == ds.DatasetConfig(kind, None, None, None, None)
    assert ds.DatasetConfig("idx_images", "a.idx") == ds.DatasetConfig(
        "idx_images", "a.idx", None, None, None)


def test_dataset_config_rejects_a_field_its_kind_does_not_read():
    with pytest.raises(ConfigError, match="image_size is not read by dataset kind 'ring8'"):
        ds.DatasetConfig("ring8", image_size=16)  # the value the shapes kind reads
    with pytest.raises(ConfigError, match="path is not read by dataset kind 'synthetic_shapes'"):
        ds.DatasetConfig("synthetic_shapes", path="a.idx")


def test_image_bank_rejects_an_empty_stack():
    with pytest.raises(ContractError, match="n >= 1"):
        ds.ImageBank(np.zeros((0, 1, 16, 16)))
