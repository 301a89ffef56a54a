"""Spatial attribution of critic scores, with the generator's mask split.

The critic score of a convolutional body is a sum over spatial positions of
<feature channel vector, head weights>; evaluating that inner product per
position (before pooling) gives a map of where the score comes from. Masking
the channel vector with the suppression matrix the generator objective would
apply splits the map into a kept part and a suppressed part that add back up
to the full map.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError, ParseError, UnsupportedArchitectureError
from .gan import TrainerState, generator_mask
from .numerics import Array, as_f64, forward_pass, global_sum_pool, write_atomic


def compute_cam(state: TrainerState, images: Array) -> dict:
    """Per-position inner products of the critic's pre-pool features with its
    head weights (the head bias excluded), as (n, h, w) maps keyed by variant.

    "cam" is the plain map. When gan.generator_mask gives a mask for these
    images' pooled features, "cam_ufs" and "cam_sup" are the maps of the
    features scaled by the mask and by one minus it. The body runs once: the
    pooled features are the sum pool of its pre-pool map, bitwise what the
    full body gives.
    """
    d = state.disc
    specs = d.body.specs
    if not specs or specs[-1].kind != "global_sum_pool" or not any(
            sp.kind == "conv2d" for sp in specs):
        raise UnsupportedArchitectureError(
            "attribution needs a convolutional body ending in global sum pooling")
    feature_map, _ = forward_pass(specs[:-1], d.body.params[:-1], images)
    maps = {"cam": np.einsum("nchw,c->nhw", feature_map, d.w)}
    s = generator_mask(state, global_sum_pool(feature_map))
    if s is not None:
        for variant, factor in (("cam_ufs", s), ("cam_sup", 1.0 - s)):
            maps[variant] = np.einsum("nchw,c->nhw", feature_map * factor[:, :, None, None], d.w)
    return maps


def encode_pgm(values: Array) -> bytes:
    """One 2-d map, min-max normalized to [0, 255], as binary PGM (P5) bytes.

    Constant maps come out as uniform 128.
    """
    v = as_f64(values)
    if v.ndim != 2:
        raise DimensionError(f"encode_pgm expects a 2-d map, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ContractError("heatmap contains NaN or Inf")
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        pixels = np.rint((v - lo) / (hi - lo) * 255.0)
    else:
        pixels = np.full(v.shape, 128.0)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode()
    return header + pixels.astype(np.uint8).tobytes()


def read_pgm(path) -> Array:
    """Parse a binary (P5) 8-bit PGM back into a uint8 array."""
    raw = Path(path).read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", raw)
    if header is None:
        raise ParseError(f"{path}: not an 8-bit binary PGM (header {raw[:16]!r})")
    width, height = int(header[1]), int(header[2])
    if len(raw) - header.end() < width * height:
        raise ParseError(f"{path}: truncated pixel data at byte {header.end()}")
    return np.frombuffer(raw, np.uint8, width * height, header.end()).reshape(height, width).copy()


def upsample_nearest(values: Array, factor: int) -> Array:
    """Nearest-neighbour upsampling of the trailing two axes."""
    if factor < 1:
        raise ContractError(f"upsample factor must be >= 1, got {factor}")
    return np.repeat(np.repeat(values, factor, axis=-2), factor, axis=-1)


def save_attribution_maps(maps: dict, out_dir, run_id: str, upsample: int = 1) -> list:
    """One PGM per sample of each compute_cam map, named <runid>_<sample>_<variant>.pgm."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for variant, values in maps.items():
        for i in range(len(values)):
            target = out / f"{run_id}_{i:03d}_{variant}.pgm"
            write_atomic(target, encode_pgm(upsample_nearest(values[i], upsample)))
            written.append(target)
    return written
