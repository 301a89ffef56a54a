"""Spatial attribution of critic scores, with optional channel-mask splits.

The critic score of a convolutional body is a sum over spatial positions of
<feature channel vector, head weights>; evaluating that inner product per
position (before pooling) gives a map of where the score comes from. Masking
the channel vector with a suppression matrix splits the map into a kept part
and a suppressed part that add back up to the full map.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError, ParseError, UnsupportedArchitectureError
from .gan import DiscriminatorNet
from .numerics import Array, as_f64, forward_pass

VARIANTS = ("cam", "cam_ufs", "cam_sup")


@dataclass
class AttributionMap:
    variant: str
    values: Array  # (n, h, w)


def compute_cam(d: DiscriminatorNet, x: Array, s: Array | None = None,
                variant: str = "cam") -> AttributionMap:
    """Per-position inner product of the (optionally masked) pre-pool features
    with the head weights. The head bias is excluded."""
    if variant not in VARIANTS:
        raise ContractError(f"unknown attribution variant {variant!r}")
    specs = d.body.specs
    if not specs or specs[-1].kind != "global_sum_pool" or not any(
            sp.kind == "conv2d" for sp in specs):
        raise UnsupportedArchitectureError(
            "attribution needs a convolutional body ending in global sum pooling")
    feature_map, _ = forward_pass(specs[:-1], d.body.params[:-1], x)
    if variant == "cam":
        masked = feature_map
    else:
        if s is None:
            raise ContractError(f"variant {variant!r} needs a suppression matrix")
        if s.shape != feature_map.shape[:2]:
            raise DimensionError(
                f"suppression shape {s.shape} does not match features "
                f"{feature_map.shape[:2]}")
        factor = s if variant == "cam_ufs" else 1.0 - s
        masked = feature_map * factor[:, :, None, None]
    return AttributionMap(variant, np.einsum("nchw,c->nhw", masked, d.w))


def heatmap_to_pgm(values: Array, path) -> None:
    """Min-max normalize one 2-d map to [0, 255] and write it as binary PGM (P5).

    Constant maps come out as uniform 128.
    """
    v = as_f64(values)
    if v.ndim != 2:
        raise DimensionError(f"heatmap_to_pgm expects a 2-d map, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ContractError("heatmap contains NaN or Inf")
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        pixels = np.rint((v - lo) / (hi - lo) * 255.0)
    else:
        pixels = np.full(v.shape, 128.0)
    data = pixels.astype(np.uint8)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode()
    path = Path(path)
    try:
        path.write_bytes(header + data.tobytes())
    except OSError as exc:
        raise OSError(f"writing heatmap to {path}: {exc}") from exc


def read_pgm(path) -> Array:
    """Parse a binary (P5) 8-bit PGM back into a uint8 array."""
    raw = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4 and pos < len(raw):
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if len(fields) < 4 or fields[0] != b"P5":
        raise ParseError(f"{path}: not a binary PGM (header {fields[:1]})")
    width, height, maxval = (int(f) for f in fields[1:4])
    if maxval != 255:
        raise ParseError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pos += 1  # the single whitespace byte after maxval
    data = np.frombuffer(raw, np.uint8, count=width * height, offset=pos)
    if data.size != width * height:
        raise ParseError(f"{path}: truncated pixel data at byte {pos}")
    return data.reshape(height, width).copy()


def upsample_nearest(values: Array, factor: int) -> Array:
    """Nearest-neighbour upsampling of the trailing two axes."""
    if factor < 1:
        raise ContractError(f"upsample factor must be >= 1, got {factor}")
    return np.repeat(np.repeat(values, factor, axis=-2), factor, axis=-1)


def save_attribution_maps(maps, out_dir, run_id: str, upsample: int = 1) -> list:
    """One PGM per sample per variant, named <runid>_<sample>_<variant>.pgm."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for am in maps:
        for i in range(len(am.values)):
            target = out / f"{run_id}_{i:03d}_{am.variant}.pgm"
            heatmap_to_pgm(upsample_nearest(am.values[i], upsample), target)
            written.append(target)
    return written
