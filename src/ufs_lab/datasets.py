"""Sample sources: analytic 2-d mixtures, IDX image files, procedural shapes."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, ParseError
from .numerics import Array, SeededRng, as_f64, write_atomic
from .selection import InstanceSelectionConfig, instance_select

# Each kind, the fields it reads and what null stands for; other fields stay null.
DATASET_KINDS = {"ring8": {}, "grid25": {},
                 "idx_images": {"path": None, "instance_selection": None},
                 "synthetic_shapes": {"image_size": 16, "num_shapes": 2048,
                                      "instance_selection": None}}


@dataclass
class DatasetConfig:
    kind: str
    path: str | None = None
    image_size: int | None = None
    num_shapes: int | None = None
    instance_selection: InstanceSelectionConfig | None = None

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        reads = DATASET_KINDS[self.kind]
        for name in ("path", "image_size", "num_shapes", "instance_selection"):
            if getattr(self, name) is None:
                setattr(self, name, reads.get(name))
            elif name not in reads:
                raise ConfigError(f"{name} is not read by dataset kind {self.kind!r}")
        if self.kind == "idx_images" and not self.path:
            raise ConfigError("idx_images dataset needs a path")
        if self.kind == "synthetic_shapes" and (self.num_shapes < 1 or self.image_size < 8):
            raise ConfigError(f"synthetic_shapes needs num_shapes >= 1 and image_size >= 8, "
                              f"got {self.num_shapes} and {self.image_size}")


class PointMixture:
    """Isotropic Gaussian modes on fixed centers."""

    def __init__(self, centers: Array, sigma: float):
        self.centers = as_f64(centers)
        self.sigma = float(sigma)
        self.data_shape = (2,)

    def sample(self, n: int, rng: SeededRng) -> Array:
        which = rng.integers(len(self.centers), size=n)
        return self.centers[which] + rng.normal((n, 2), 0.0, self.sigma)


class ImageBank:
    """A fixed stack of images sampled with replacement."""

    def __init__(self, data: Array):
        self.data = as_f64(data)
        if self.data.ndim != 4 or len(self.data) == 0:
            raise ContractError(f"image bank needs (n, c, h, w) with n >= 1, got {self.data.shape}")
        self.data_shape = self.data.shape[1:]

    def sample(self, n: int, rng: SeededRng) -> Array:
        return self.data[rng.integers(len(self.data), size=n)]


def ring_centers() -> Array:
    """Eight mode centers at 45-degree steps on a circle of radius 2; mode 0 sits at (2, 0)."""
    angles = np.arange(8) * (np.pi / 4.0)
    return np.stack([2.0 * np.cos(angles), 2.0 * np.sin(angles)], axis=1)


def grid_centers() -> Array:
    """5x5 grid of mode centers, 2 apart, centered on the origin."""
    offsets = (np.arange(5) - 2.0) * 2.0
    xs, ys = np.meshgrid(offsets, offsets, indexing="ij")
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


# --- IDX files ---------------------------------------------------------------- #

IDX_IMAGE_MAGIC = bytes([0x00, 0x00, 0x08, 0x03])


def load_idx_images(path) -> Array:
    """Read an IDX file of unsigned-byte images as the lab uses them: a
    float64 (n, 1, h, w) stack, each byte v mapped to v / 127.5 - 1 in [-1, 1]."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ParseError(f"{path}: truncated IDX header at byte 0")
    if raw[0] != 0 or raw[1] != 0:
        raise ParseError(f"{path}: bad IDX magic {raw[:4].hex()} at byte 0")
    if raw[2] != 0x08:
        raise ParseError(f"{path}: unsupported IDX element type 0x{raw[2]:02x} at byte 2")
    if raw[3] != 3:
        raise ParseError(f"{path}: expected 3 dimensions for images, got {raw[3]} at byte 3")
    if len(raw) < 16:
        raise ParseError(f"{path}: truncated IDX dimensions at byte 4")
    n, h, w = struct.unpack(">III", raw[4:16])
    expected = n * h * w
    if len(raw) - 16 != expected:
        raise ParseError(
            f"{path}: payload length mismatch at byte 16: expected {expected} bytes, "
            f"found {len(raw) - 16}")
    images = np.frombuffer(raw, np.uint8, offset=16).reshape(n, 1, h, w) / 127.5
    images -= 1.0
    return images


def write_idx_images(images: Array, path) -> None:
    """Write a (n, h, w) uint8 array as an IDX unsigned-byte image file."""
    arr = np.asarray(images)
    if arr.ndim != 3 or arr.dtype != np.uint8:
        raise ContractError(f"write_idx_images expects (n, h, w) uint8, got {arr.shape} {arr.dtype}")
    write_atomic(path, IDX_IMAGE_MAGIC + struct.pack(">III", *arr.shape),
                 np.ascontiguousarray(arr))


# --- procedural shapes --------------------------------------------------------- #


def synthetic_shapes(n: int, size: int, rng: SeededRng) -> Array:
    """Seeded grayscale 16x16-style shapes: rectangles, disks, and crosses.

    Background is -1; the shape is drawn at a random intensity in (0, 1].
    """
    if size < 8:
        raise ContractError(f"shape canvas must be at least 8 pixels, got {size}")
    images = np.full((n, 1, size, size), -1.0)
    yy, xx = np.mgrid[0:size, 0:size]
    for i in range(n):
        kind = int(rng.integers(3))
        cy, cx = rng.uniform((2,), size * 0.25, size * 0.75)
        half = float(rng.uniform((), size * 0.12, size * 0.3))
        intensity = float(rng.uniform((), 0.2, 1.0))
        if kind == 0:  # rectangle
            mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
        elif kind == 1:  # disk
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= half ** 2
        else:  # cross
            bar = max(1.0, half / 3.0)
            mask = ((np.abs(yy - cy) <= bar) & (np.abs(xx - cx) <= half)) | (
                (np.abs(xx - cx) <= bar) & (np.abs(yy - cy) <= half))
        images[i, 0][mask] = intensity
    return images


# --- factory -------------------------------------------------------------------- #


def make_dataset(cfg: DatasetConfig, rng: SeededRng):
    """Build a sample source; rng seeds any procedural generation."""
    if cfg.kind == "ring8":
        return PointMixture(ring_centers(), 0.02)
    if cfg.kind == "grid25":
        return PointMixture(grid_centers(), 0.05)
    if cfg.kind == "idx_images":
        images = load_idx_images(cfg.path)
    else:  # synthetic_shapes
        images = synthetic_shapes(cfg.num_shapes, cfg.image_size, rng)
    if cfg.instance_selection is not None:
        images = images[instance_select(images, cfg.instance_selection)]
    return ImageBank(images)
