"""Experiment orchestration: strict JSON configs, CSV metrics, checkpoints.

Everything written to disk is a deterministic function of (config, seed),
except the wall_seconds column, which is deliberately kept last in the CSV
so determinism checks can slice it off. A trainer checkpoint is the run's
config plus the trainer's counters and state arrays; the reader rebuilds the
models from the config. Checkpoints, sample dumps, the CSV and the summary
are written atomically. Both sides of an evaluation are measured in the
space metrics.measure picks, which summary.json names. A step that raises
on a non-finite loss, or another numeric breakdown, ends the run with one
diagnostic row.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import gan as gan_mod
from .attribution import encode_pgm
from .datasets import DatasetConfig, PointMixture, make_dataset
from .errors import ConfigError, ContractError, ParseError
from .metrics import (ball_bounds, fit_gaussian, frechet_distance, manifold_metrics, measure,
                      mode_coverage)
from .numerics import Array, SeededRng, split_like

CSV_HEADER = ("iteration,L_D,L_G,frechet,precision,recall,density,coverage,"
              "covered_modes,hq_fraction,wall_seconds")

MANIFOLD_K = 3


@dataclass
class MetricsRecord:
    iteration: int
    L_D: float
    L_G: float
    frechet: float
    precision: float
    recall: float
    density: float
    coverage: float
    covered_modes: float
    hq_fraction: float
    wall_seconds: float

    def csv_row(self) -> str:
        cells = [str(self.iteration)]
        for value in (self.L_D, self.L_G, self.frechet, self.precision, self.recall,
                      self.density, self.coverage):
            cells.append(_fmt(value))
        cells.append(str(int(self.covered_modes)) if _is_finite(self.covered_modes) else "nan")
        cells.append(_fmt(self.hq_fraction))
        cells.append(_fmt(self.wall_seconds))
        return ",".join(cells)


def _fmt(x: float) -> str:
    return repr(float(x))


def _is_finite(x) -> bool:
    return math.isfinite(float(x))


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    train: gan_mod.TrainConfig
    eval_every: int = 250
    eval_samples: int = 2000
    out_dir: str = "runs/run"

    def __post_init__(self):
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if not MANIFOLD_K < self.eval_samples <= 10_000:
            raise ConfigError(
                f"eval_samples must be in ({MANIFOLD_K}, 10000], got {self.eval_samples}")


# --- strict JSON config -------------------------------------------------------- #


def _decode(cls, obj, where: str):
    """Build dataclass `cls` from a JSON object, checking each value against its
    field's type hint; nested dataclass fields recurse. Values pass unconverted,
    so the dataclasses' own checks see exactly what the JSON held; an error
    they raise is re-raised as a ConfigError prefixed with the block's key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {json.dumps(obj, default=repr)}")
    declared = {f.name: f for f in fields(cls)}
    unknown = sorted(set(obj) - set(declared))
    if unknown:
        raise ConfigError(f"unknown key {where}.{unknown[0]}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in declared.items():
        if name in obj:
            kwargs[name] = _decode_value(hints[name], obj[name], f"{where}.{name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {where}.{name}")
    try:
        return cls(**kwargs)
    except (ConfigError, ContractError) as exc:  # a range check in __post_init__
        raise ConfigError(f"{where}: {exc}") from exc


def _decode_value(hint, value, where: str):
    """bool is not int, int is accepted for float, None only for `| None` hints."""
    options = typing.get_args(hint) or (hint,)
    for option in options:
        if is_dataclass(option) and isinstance(value, dict):
            return _decode(option, value, where)
        if type(value) is option or (option is float and type(value) is int):
            return value
    expected = " or ".join("an object" if is_dataclass(t) else
                           "null" if t is type(None) else t.__name__ for t in options)
    raise ConfigError(f"{where} must be {expected}, got {json.dumps(value, default=repr)}")


def config_from_dict(obj) -> ExperimentConfig:
    cfg = _decode(ExperimentConfig, obj, "config")
    if cfg.dataset.kind == "idx_images" and not Path(cfg.dataset.path).exists():
        raise ConfigError(f"dataset file not found: {cfg.dataset.path}")
    return cfg


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read a JSON config file, apply 'dotted.key=json_value' overrides, decode it."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(apply_overrides(obj, overrides))


def apply_overrides(obj: dict, assignments) -> dict:
    """Apply 'dotted.key=json_value' overrides onto a raw config dict."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *parents, leaf = key.split(".")
        node = obj
        for part in parents:
            if not isinstance(node, dict):
                break
            node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {key!r} descends through a non-object")
        node[leaf] = value
    return obj


# --- checkpoint format ------------------------------------------------------------ #

CHECKPOINT_MAGIC = b"UFSL"
CHECKPOINT_VERSION = 3


def write_atomic(path, data: bytes) -> None:
    """Write a temp file beside `path`, then os.replace it into place: a killed
    process leaves the old file or the new one, never part of one (no fsync)."""
    tmp = Path(path).with_name(f".{Path(path).name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, arrays: dict) -> None:
    """Little-endian flat binary: magic, u32 version, then length-prefixed
    named float64 arrays (u32 name length, name, u32 ndim, u32 dims, data)."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(arrays))]
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        parts.append(arr.tobytes())
    write_atomic(path, b"".join(parts))


def load_checkpoint(path) -> dict:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a UFSL checkpoint")
    version, count = struct.unpack("<II", raw[4:12])
    if version != CHECKPOINT_VERSION:
        raise ParseError(
            f"{path}: checkpoint version {version} is incompatible with reader version "
            f"{CHECKPOINT_VERSION}")
    pos = 12
    arrays = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            name = raw[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            shape = struct.unpack_from(f"<{ndim}I", raw, pos)
            pos += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(raw, np.float64, count=size, offset=pos).reshape(shape)
            pos += 8 * size
        except (struct.error, ValueError) as exc:
            raise ParseError(f"{path}: corrupt checkpoint near byte {pos}: {exc}") from exc
        arrays[name] = arr.copy()
    return arrays


def save_embeddings(embeddings: Array, path) -> None:
    """Flat binary export of an (n, d) embedding matrix in the UFSL container."""
    save_checkpoint(path, {"embeddings": np.asarray(embeddings, dtype=np.float64)})


def encode_config(cfg: ExperimentConfig) -> Array:
    """The config as JSON, one byte per float64. out_dir is left out, so a
    run's checkpoints do not depend on where the run was written."""
    obj = asdict(cfg)
    del obj["out_dir"]
    return np.frombuffer(json.dumps(obj).encode(), np.uint8).astype(np.float64)


def _state_arrays(state: gan_mod.TrainerState) -> dict:
    """Every array of a trainer state under its checkpoint name. These are the
    live arrays (the Adam moments as views of their flat vectors), so the
    reader fills a fresh state through them in place."""
    gen, disc = state.gen.net.param_list(), state.disc.param_list()
    groups = {"gen": gen, "disc": disc}
    for name, params, adam in (("adam_g", gen, state.adam_g), ("adam_d", disc, state.adam_d)):
        groups[f"{name}.m"] = split_like(adam.m, params)
        groups[f"{name}.v"] = split_like(adam.v, params)
    named = {f"{prefix}.{i:02d}": arr for prefix, arrs in groups.items()
             for i, arr in enumerate(arrs)}
    named["stats.mu_real"] = state.stats.mu_real
    named["stats.mu_fake"] = state.stats.mu_fake
    return named


COUNTERS = ("run.iteration", "adam_g.step", "adam_d.step", "stats.initialized")


def trainer_to_arrays(state: gan_mod.TrainerState, encoded_cfg: Array) -> dict:
    """A trainer checkpoint: the run's config (from encode_config), the data
    shape, the counters and the state arrays."""
    counts = (state.t, state.adam_g.step, state.adam_d.step, state.stats.initialized)
    arrays = {name: np.array([float(v)]) for name, v in zip(COUNTERS, counts)}
    arrays["run.config"] = encoded_cfg
    arrays["run.data_shape"] = np.array(state.gen.data_shape, dtype=np.float64)
    arrays.update(_state_arrays(state))
    return arrays


def trainer_from_arrays(arrays: dict):
    """(ExperimentConfig, TrainerState) of a trainer checkpoint: gan.default_models
    for the stored data shape, filled with the stored arrays. Raises ParseError
    naming the first missing or misshapen array. The config is decoded without
    looking for an idx_images file, since nothing here reads the dataset."""
    missing = [n for n in COUNTERS + ("run.config", "run.data_shape") if n not in arrays]
    if missing:
        raise ParseError(f"not a trainer checkpoint: no array {missing[0]!r}")
    for name in COUNTERS:
        if arrays[name].shape != (1,):
            raise ParseError(f"{name}: expected shape (1,), got {arrays[name].shape}")
    try:
        obj = json.loads(bytes(int(v) for v in arrays["run.config"].ravel()))
    except (ValueError, OverflowError) as exc:  # not bytes, not UTF-8 or not JSON
        raise ParseError(f"run.config: not a JSON config: {exc}") from exc
    cfg = _decode(ExperimentConfig, obj, "run.config")
    data_shape = tuple(int(v) for v in arrays["run.data_shape"])
    state = gan_mod.init_trainer(cfg.train, *gan_mod.default_models(data_shape, SeededRng(0)))
    for name, live in _state_arrays(state).items():
        if name not in arrays:
            raise ParseError(f"trainer checkpoint has no array {name!r}")
        if arrays[name].shape != live.shape:
            raise ParseError(f"{name}: expected shape {live.shape}, got {arrays[name].shape}")
        live[...] = arrays[name]
    state.t, state.adam_g.step, state.adam_d.step, initialized = (
        int(arrays[name][0]) for name in COUNTERS)
    state.stats.initialized = bool(initialized)
    return cfg, state


# --- metrics CSV -------------------------------------------------------------------- #


def write_metrics_csv(records, path) -> None:
    lines = [CSV_HEADER] + [r.csv_row() for r in records]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_csv_without_wall_seconds(path) -> str:
    """CSV content with the wall_seconds column sliced off, for determinism checks."""
    lines = Path(path).read_text().splitlines()
    return "\n".join(",".join(ln.split(",")[:-1]) for ln in lines)


# --- the experiment loop --------------------------------------------------------------- #


@dataclass
class RunResult:
    status: str  # "ok" | "nan_abort"
    out_dir: Path
    metrics_path: Path
    records: list = field(default_factory=list)
    best_frechet: float = math.nan
    best_iteration: int = -1


def _dump_points(points: Array, path: Path) -> None:
    write_atomic(path, "".join(f"{repr(float(x))},{repr(float(y))}\n" for x, y in points).encode())


def _dump_image_grid(images: Array, path: Path) -> None:
    """Square montage of the images as one PGM, min-max scaled to [0, 255] as
    encode_pgm scales a heatmap; cells past the last image are -1."""
    n, _, h, w = images.shape
    side = int(math.ceil(math.sqrt(n)))
    grid = np.full((side * h, side * w), -1.0)
    for i in range(n):
        r, c = divmod(i, side)
        grid[r * h:(r + 1) * h, c * w:(c + 1) * w] = images[i, 0]
    write_atomic(path, encode_pgm(grid))


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Alternating critic/generator training with periodic evaluation rows."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.csv"

    root = SeededRng(cfg.train.seed)
    rng_data = root.derive(1)
    rng_init = root.derive(2)
    rng_train = root.derive(3)
    rng_eval = root.derive(4)

    dataset = make_dataset(cfg.dataset, rng_data)
    gen, disc = gan_mod.default_models(dataset.data_shape, rng_init)
    state = gan_mod.init_trainer(cfg.train, gen, disc)

    real_pool = dataset.sample(cfg.eval_samples, rng_eval)

    started = time.perf_counter()
    # The real side and the encoded config are fixed for the run, so they are
    # computed once, inside the first evaluation window rather than in set-up.
    real_points, space = measure(real_pool)
    real_fit, real_bounds = fit_gaussian(real_points), ball_bounds(real_points, MANIFOLD_K)
    encoded_cfg = encode_config(cfg)
    records = []

    def evaluate(iteration: int) -> tuple:
        """The cells of one evaluation row from frechet to hq_fraction, after
        its samples dump and checkpoint are written."""
        z = rng_eval.normal((cfg.eval_samples, state.gen.latent_dim))
        fake_pool = state.gen.sample(z)
        fake_points, _ = measure(fake_pool)
        if isinstance(dataset, PointMixture):
            covered, hq = mode_coverage(fake_pool, dataset.centers, dataset.sigma)
            _dump_points(fake_pool[:64], out / f"samples_{iteration:06d}.csv")
        else:
            covered, hq = math.nan, math.nan
            _dump_image_grid(fake_pool[:64], out / f"samples_{iteration:06d}.pgm")
        fr = frechet_distance(real_fit, fit_gaussian(fake_points))
        mm = manifold_metrics(real_points, fake_points, MANIFOLD_K, real_bounds)
        save_checkpoint(out / f"checkpoint_{iteration:06d}.ufsl",
                        trainer_to_arrays(state, encoded_cfg))
        return fr, mm.precision, mm.recall, mm.density, mm.coverage, covered, hq

    def write_row(iteration: int, l_d: float, l_g: float, cells) -> None:
        records.append(MetricsRecord(iteration, l_d, l_g, *cells, time.perf_counter() - started))
        write_metrics_csv(records, metrics_path)

    write_row(0, math.nan, math.nan, evaluate(0))
    status = "ok"
    for t in range(1, cfg.train.iterations + 1):
        l_d = l_g = math.nan  # the loss of a step that raises stays nan
        try:
            batches = (dataset.sample(cfg.train.batch_size, rng_train)
                       for _ in range(cfg.train.n_critic))
            l_d = [gan_mod.train_discriminator_step(state, real, rng_train) for real in batches][-1]
            l_g = gan_mod.train_generator_step(state, rng_train)
            if t % cfg.eval_every == 0 or t == cfg.train.iterations:
                write_row(t, l_d, l_g, evaluate(t))
        except (ArithmeticError, np.linalg.LinAlgError):
            # diagnostic row; the last successfully written checkpoint is retained
            write_row(t, l_d, l_g, (math.nan,) * 7)
            status = "nan_abort"
            break

    finite = [(r.frechet, r.iteration) for r in records if _is_finite(r.frechet)]
    best_frechet, best_iteration = min(finite) if finite else (math.nan, -1)
    summary = {"status": status, "best_frechet": best_frechet, "space": space,
               "best_iteration": best_iteration, "iterations_run": records[-1].iteration}
    write_atomic(out / "summary.json", (json.dumps(summary, indent=2) + "\n").encode())
    print(f"[ufs-lab] {cfg.out_dir}: status={status} best_frechet={best_frechet:.6g} "
          f"space={space} at iteration {best_iteration}")
    return RunResult(status, out, metrics_path, records, best_frechet, best_iteration)
