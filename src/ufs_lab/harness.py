"""Experiment orchestration: strict JSON configs, CSV metrics, checkpoints.

Everything written to disk is a deterministic function of (config, seed),
except the wall_seconds column, which is deliberately kept last in the CSV
so determinism checks can slice it off.
"""

from __future__ import annotations

import json
import math
import struct
import time
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import gan as gan_mod
from . import ufs as ufs_mod
from .datasets import DatasetConfig, PointMixture, make_dataset
from .errors import ConfigError, ContractError, ParseError
from .metrics import (ball_bounds, fit_gaussian, frechet_distance, manifold_metrics,
                      mode_coverage, random_feature_embed)
from .numerics import LAYER_KINDS, AdamState, Array, LayerSpec, Network, SeededRng

CSV_HEADER = ("iteration,L_D,L_G,frechet,precision,recall,density,coverage,"
              "covered_modes,hq_fraction,wall_seconds")

EVAL_EMBED_SEED = 0  # feature space for image-run metrics stays fixed across runs
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

    @property
    def seed(self) -> int:
        return self.train.seed


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
CHECKPOINT_VERSION = 1


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
    Path(path).write_bytes(b"".join(parts))


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


def _encode_spec(spec: LayerSpec) -> Array:
    """The layer kind is stored as its index in LAYER_KINDS."""
    return np.array([LAYER_KINDS.index(spec.kind), spec.in_features, spec.out_features,
                     spec.in_channels, spec.out_channels, spec.kernel, spec.stride,
                     spec.slope], dtype=np.float64)


def _decode_spec(name: str, values: Array) -> LayerSpec:
    if values.shape != (8,):
        raise ParseError(f"{name}: a layer spec holds 8 values, got shape {values.shape}")
    kind_id = float(values[0])
    if not (kind_id.is_integer() and 0 <= kind_id < len(LAYER_KINDS)):
        raise ParseError(f"{name}: unknown layer kind id {kind_id!r}")
    return LayerSpec(LAYER_KINDS[int(kind_id)], in_features=int(values[1]),
                     out_features=int(values[2]), in_channels=int(values[3]),
                     out_channels=int(values[4]), kernel=int(values[5]),
                     stride=int(values[6]), slope=float(values[7]))


def _network_arrays(prefix: str, net: Network, arrays: dict) -> None:
    for i, (spec, params) in enumerate(zip(net.specs, net.params)):
        arrays[f"{prefix}.spec.{i:02d}"] = _encode_spec(spec)
        for key, val in params.items():
            arrays[f"{prefix}.param.{i:02d}.{key}"] = val


def _network_from_arrays(prefix: str, arrays: dict) -> Network:
    specs = []
    params = []
    i = 0
    while (spec_name := f"{prefix}.spec.{i:02d}") in arrays:
        spec = _decode_spec(spec_name, arrays[spec_name])
        layer_params = {}
        for key in ("W", "b"):
            name = f"{prefix}.param.{i:02d}.{key}"
            if name in arrays:
                layer_params[key] = arrays[name]
        specs.append(spec)
        params.append(layer_params)
        i += 1
    return Network(specs, params)


def _adam_arrays(prefix: str, state: AdamState, arrays: dict) -> None:
    arrays[f"{prefix}.hyper"] = np.array([state.lr, state.b1, state.b2, state.eps])
    arrays[f"{prefix}.step"] = np.array([float(state.step)])
    for i, (m, v) in enumerate(zip(state.m, state.v)):
        arrays[f"{prefix}.m.{i:02d}"] = m
        arrays[f"{prefix}.v.{i:02d}"] = v


def trainer_to_arrays(state: gan_mod.TrainerState) -> dict:
    arrays: dict = {}
    arrays["run.iteration"] = np.array([float(state.t)])
    arrays["gen.latent_dim"] = np.array([float(state.gen.latent_dim)])
    arrays["gen.data_shape"] = np.array([float(v) for v in state.gen.data_shape])
    _network_arrays("gen", state.gen.net, arrays)
    _network_arrays("disc.body", state.disc.body, arrays)
    arrays["disc.head.w"] = state.disc.w
    arrays["disc.head.b"] = state.disc.b
    _adam_arrays("adam_g", state.adam_g, arrays)
    _adam_arrays("adam_d", state.adam_d, arrays)
    arrays["stats.mu_real"] = state.stats.mu_real
    arrays["stats.mu_fake"] = state.stats.mu_fake
    arrays["stats.momentum"] = np.array([state.stats.momentum])
    arrays["stats.initialized"] = np.array([1.0 if state.stats.initialized else 0.0])
    if state.cfg.ufs is not None:
        cfg = ufs_mod.effective_config(state.cfg.ufs, state.t, state.cfg.iterations)
        arrays["ufs.cfg"] = np.array([cfg.alpha, cfg.beta, cfg.epsilon, cfg.gamma,
                                      cfg.denom_floor, cfg.near_real_ratio])
    return arrays


# Arrays every trainer checkpoint carries, whatever the architecture.
TRAINER_ARRAYS = ("run.iteration", "gen.latent_dim", "gen.data_shape", "disc.head.w",
                  "disc.head.b", "stats.mu_real", "stats.mu_fake", "stats.momentum",
                  "stats.initialized")


def models_from_arrays(arrays: dict):
    """Rebuild (generator, discriminator, stats, ufs config or None, iteration).

    Raises ParseError naming the first missing array when the arrays are not
    a trainer checkpoint (an embeddings file, say)."""
    missing = [name for name in TRAINER_ARRAYS if name not in arrays]
    if missing:
        raise ParseError(f"not a trainer checkpoint: no array {missing[0]!r}")
    gen = gan_mod.GeneratorNet(
        int(arrays["gen.latent_dim"][0]),
        _network_from_arrays("gen", arrays),
        tuple(int(v) for v in arrays["gen.data_shape"]),
    )
    disc = gan_mod.DiscriminatorNet(
        _network_from_arrays("disc.body", arrays),
        arrays["disc.head.w"],
        arrays["disc.head.b"],
    )
    stats = ufs_mod.FeatureStats(
        arrays["stats.mu_real"],
        arrays["stats.mu_fake"],
        float(arrays["stats.momentum"][0]),
        bool(arrays["stats.initialized"][0]),
    )
    ufs_cfg = None
    if "ufs.cfg" in arrays:
        a, b, e, g, floor, near = arrays["ufs.cfg"]
        ufs_cfg = ufs_mod.UfsConfig(float(a), float(b), float(e), float(g),
                                    float(floor), float(near))
    return gen, disc, stats, ufs_cfg, int(arrays["run.iteration"][0])


# --- metrics CSV -------------------------------------------------------------------- #


def write_metrics_csv(records, path) -> None:
    lines = [CSV_HEADER] + [r.csv_row() for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


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


def _evaluate(cfg: ExperimentConfig, state: gan_mod.TrainerState, dataset,
              real_side: tuple, rng_eval: SeededRng, iteration: int, l_d: float,
              l_g: float, started: float, out: Path) -> MetricsRecord:
    """One metrics row. `real_side` is the run's fixed real side: (points, Gaussian
    fit, k-NN ball bounds), where the points are the real pool or, for image
    runs, its embedding."""
    real_points, real_fit, real_bounds = real_side
    z = rng_eval.normal((cfg.eval_samples, state.gen.latent_dim))
    fake_pool = state.gen.sample(z)
    if isinstance(dataset, PointMixture):
        fake_points = fake_pool
        covered, hq = mode_coverage(fake_pool, dataset.centers, dataset.sigma)
        _dump_points(fake_pool[:64], out / f"samples_{iteration:06d}.csv")
    else:
        fake_points = random_feature_embed(fake_pool, EVAL_EMBED_SEED)
        covered, hq = math.nan, math.nan
        _dump_image_grid(fake_pool[:64], out / f"samples_{iteration:06d}.pgm")
    fr = frechet_distance(real_fit, fit_gaussian(fake_points))
    mm = manifold_metrics(real_points, fake_points, MANIFOLD_K, real_bounds)
    save_checkpoint(out / f"checkpoint_{iteration:06d}.ufsl", trainer_to_arrays(state))
    return MetricsRecord(iteration, l_d, l_g, fr, mm.precision, mm.recall, mm.density,
                         mm.coverage, covered, hq, time.perf_counter() - started)


def _dump_points(points: Array, path: Path) -> None:
    path.write_text("".join(f"{repr(float(x))},{repr(float(y))}\n" for x, y in points))


def _dump_image_grid(images: Array, path: Path) -> None:
    """8x8 montage of [-1, 1] images as one PGM."""
    from .attribution import heatmap_to_pgm

    n, _, h, w = images.shape
    side = int(math.ceil(math.sqrt(n)))
    grid = np.full((side * h, side * w), -1.0)
    for i in range(n):
        r, c = divmod(i, side)
        grid[r * h:(r + 1) * h, c * w:(c + 1) * w] = images[i, 0]
    heatmap_to_pgm(grid, path)


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
    # The real side is fixed for the run, so it is embedded, fitted and bounded
    # once, inside the first evaluation window rather than in set-up.
    real_points = real_pool
    if not isinstance(dataset, PointMixture):
        real_points = random_feature_embed(real_pool, EVAL_EMBED_SEED)
    real_side = (real_points, fit_gaussian(real_points), ball_bounds(real_points, MANIFOLD_K))
    records = [_evaluate(cfg, state, dataset, real_side, rng_eval,
                         0, math.nan, math.nan, started, out)]
    write_metrics_csv(records, metrics_path)

    status = "ok"
    for t in range(1, cfg.train.iterations + 1):
        l_d = l_g = math.nan
        diverged = False
        try:
            for _ in range(cfg.train.n_critic):
                real = dataset.sample(cfg.train.batch_size, rng_train)
                l_d = gan_mod.train_discriminator_step(state, real, rng_train)
            l_g = gan_mod.train_generator_step(state, rng_train)
            if not (math.isfinite(l_d) and math.isfinite(l_g)):
                diverged = True
            elif t % cfg.eval_every == 0 or t == cfg.train.iterations:
                records.append(_evaluate(cfg, state, dataset, real_side, rng_eval,
                                         t, l_d, l_g, started, out))
                write_metrics_csv(records, metrics_path)
        except (ArithmeticError, np.linalg.LinAlgError):
            diverged = True
        if diverged:
            # diagnostic row; the last successfully written checkpoint is retained
            records.append(MetricsRecord(t, l_d, l_g, math.nan, math.nan, math.nan,
                                         math.nan, math.nan, math.nan, math.nan,
                                         time.perf_counter() - started))
            write_metrics_csv(records, metrics_path)
            status = "nan_abort"
            break

    finite = [(r.frechet, r.iteration) for r in records if _is_finite(r.frechet)]
    best_frechet, best_iteration = min(finite) if finite else (math.nan, -1)
    # image runs measure in random-feature space, point runs in the data itself
    space = "data" if isinstance(dataset, PointMixture) else "random_features"
    summary = {"status": status, "best_frechet": best_frechet, "space": space,
               "best_iteration": best_iteration, "iterations_run": records[-1].iteration}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"[ufs-lab] {cfg.out_dir}: status={status} best_frechet={best_frechet:.6g} "
          f"space={space} at iteration {best_iteration}")
    return RunResult(status, out, metrics_path, records, best_frechet, best_iteration)
