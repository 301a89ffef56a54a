"""Experiment orchestration: strict JSON configs, CSV metrics, checkpoints.

Everything written to disk is a deterministic function of (config, seed),
except the wall_seconds column, which is deliberately kept last in the CSV
so determinism checks can slice it off. A trainer checkpoint is a JSON
header (the run's config, the data shape and the counters) plus the state
arrays; the reader rebuilds the models from the data shape. Checkpoints,
sample dumps, the CSV and the summary are written atomically. Both sides of
an evaluation are measured in the space metrics.measure picks, which
summary.json names. A step that raises on a non-finite loss, or another
numeric breakdown, ends the run with one diagnostic row.
"""

from __future__ import annotations

import json
import math
import struct
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import gan as gan_mod
from . import ufs as ufs_mod
from .attribution import encode_pgm
from .datasets import DatasetConfig, PointMixture, make_dataset
from .errors import ConfigError, ContractError, ParseError
from .metrics import (MANIFOLD_K, MAX_SAMPLES, ball_bounds, covariance_root, fit_gaussian,
                      frechet_distance, manifold_metrics, measure, mode_coverage)
from .numerics import Array, SeededRng, write_atomic


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
    covered_modes: int | float  # nan for images and abort rows
    hq_fraction: float
    wall_seconds: float

    def csv_row(self) -> str:
        """The fields in order: an int as written, anything else as a float's repr."""
        return ",".join([str(v) if type(v) is int else repr(float(v)) for v in vars(self).values()])


CSV_HEADER = ",".join(f.name for f in fields(MetricsRecord))


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
        if not MANIFOLD_K < self.eval_samples <= MAX_SAMPLES:
            raise ConfigError(
                f"eval_samples must be in ({MANIFOLD_K}, {MAX_SAMPLES}], got {self.eval_samples}")


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
    """bool is not int, int is accepted for float, None only for `| None` hints;
    NaN and the infinities, which Python's json reads, are refused."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {json.dumps(value)}")
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
CHECKPOINT_VERSION = 5


def save_checkpoint(path, arrays: dict, header: dict | None = None) -> None:
    """Little-endian: magic, u32 version, u32 header length, a UTF-8 JSON header
    (the caller's entries plus `arrays`, each array's [name, shape] in file
    order), then each array's float64 buffer as it is, without a copy."""
    arrays = {name: np.asarray(arr, np.float64, order="C") for name, arr in arrays.items()}
    table = [[name, list(arr.shape)] for name, arr in arrays.items()]
    encoded = json.dumps(dict(header or {}, arrays=table)).encode()
    write_atomic(path, CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(encoded)),
                 encoded, *arrays.values())


def load_checkpoint(path) -> tuple:
    """(arrays, header) of a checkpoint: its arrays by name in file order, and
    its header entries without the arrays table."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a UFSL checkpoint")
    version, header_len = struct.unpack("<II", raw[4:12])
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: checkpoint version {version} is incompatible with "
                         f"reader version {CHECKPOINT_VERSION}")
    pos = 12 + header_len
    try:
        header = json.loads(raw[12:pos])
        arrays = {}
        for name, shape in header.pop("arrays"):
            if min(shape, default=0) < 0:  # frombuffer would read a -1 as "the rest"
                raise ValueError(f"array {name!r} has shape {shape}")
            arrays[name] = np.frombuffer(raw, np.float64, math.prod(shape), pos).reshape(shape)
            pos += arrays[name].nbytes
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ParseError(f"{path}: corrupt checkpoint near byte {pos}: {exc!r}") from exc
    if pos != len(raw):
        raise ParseError(f"{path}: data after the last array, from byte {pos}")
    return {name: arr.copy() for name, arr in arrays.items()}, header


def _state_arrays(state: gan_mod.TrainerState) -> dict:
    """Every array of a trainer state under its checkpoint name. These are the
    live arrays, so the reader fills a fresh state through them in place."""
    named = {"gen": state.gen.net.theta, "disc": state.disc.theta,
             "adam_g.m": state.adam_g.m, "adam_g.v": state.adam_g.v,
             "adam_d.m": state.adam_d.m, "adam_d.v": state.adam_d.v}
    if state.stats is not None:
        named.update({"stats.mu_real": state.stats.mu_real, "stats.mu_fake": state.stats.mu_fake})
    return named


# The header entries of a trainer checkpoint and the JSON type of each; the
# integers are counters. The generator's Adam step and whether feature
# statistics exist follow from them.
TRAINER_ENTRIES = {"run.config": dict, "run.data_shape": list, "run.iteration": int,
                   "adam_d.step": int}
_KIND_NAMES = {dict: "an object", list: "a list of integers", int: "a non-negative integer"}


def trainer_to_arrays(state: gan_mod.TrainerState, config: dict) -> tuple:
    """(arrays, header) of a trainer checkpoint: the state arrays, and the run's
    config as a dict (run_experiment drops out_dir), data shape and counters.
    Raises ContractError for a state whose statistics the header cannot imply:
    they exist exactly when the critic has stepped."""
    if (state.stats is None) != (state.adam_d.step == 0):
        raise ContractError(f"inconsistent counters: critic Adam step {state.adam_d.step}, "
                            f"feature statistics {'absent' if state.stats is None else 'present'}")
    header = {"run.config": config, "run.data_shape": list(state.gen.data_shape),
              "run.iteration": state.t, "adam_d.step": state.adam_d.step}
    return _state_arrays(state), header


def trainer_from_arrays(arrays: dict, header: dict):
    """(ExperimentConfig, TrainerState) of a trainer checkpoint: gan.default_models
    for the stored data shape, filled with the stored arrays. Raises ParseError
    naming the first missing or mistyped header entry (a negative counter is
    mistyped) or array. The config is decoded without looking for an
    idx_images file: nothing here reads it."""
    for name, kind in TRAINER_ENTRIES.items():
        value = header.get(name)
        if (type(value) is not kind or kind is list and not all(type(d) is int for d in value)
                or kind is int and value < 0):
            got = json.dumps(value) if name in header else "no entry"
            raise ParseError(f"not a trainer checkpoint: header entry {name!r} should be "
                             f"{_KIND_NAMES[kind]}, got {got}")
    cfg = _decode(ExperimentConfig, header["run.config"], "run.config")
    state = gan_mod.init_trainer(
        cfg.train, *gan_mod.default_models(header["run.data_shape"], SeededRng(0)))
    state.adam_g.step = header["run.iteration"]
    state.adam_d.step = header["adam_d.step"]
    if state.adam_d.step > 0:  # filled below
        state.stats = ufs_mod.FeatureStats(*np.zeros((2, state.disc.feature_dim)))
    for name, live in _state_arrays(state).items():
        if name not in arrays:
            raise ParseError(f"trainer checkpoint has no array {name!r}")
        if arrays[name].shape != live.shape:
            raise ParseError(f"{name}: expected shape {live.shape}, got {arrays[name].shape}")
        live[...] = arrays[name]
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


def _dump_points(points: Array, path: Path) -> None:
    write_atomic(path, "".join(f"{x!r},{y!r}\n" for x, y in points.tolist()).encode())


def _dump_image_grid(images: Array, path: Path) -> None:
    """Square montage of the images as one PGM, min-max scaled to [0, 255] as
    encode_pgm scales a heatmap; cells past the last image are -1."""
    n, _, h, w = images.shape
    side = int(math.ceil(math.sqrt(n)))
    cells = np.full((side * side, h, w), -1.0)
    cells[:n] = images[:, 0]
    grid = cells.reshape(side, side, h, w).transpose(0, 2, 1, 3).reshape(side * h, side * w)
    write_atomic(path, encode_pgm(grid))


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Alternating critic/generator training with periodic evaluation rows."""
    root = SeededRng(cfg.train.seed)
    rng_data = root.derive(1)
    rng_init = root.derive(2)
    rng_train = root.derive(3)
    rng_eval = root.derive(4)
    out = Path(cfg.out_dir)
    if out.is_dir() and any(out.iterdir()):  # its files would mix with an earlier run's
        raise ConfigError(f"out_dir {cfg.out_dir} is not empty")

    dataset = make_dataset(cfg.dataset, rng_data)
    gen, disc = gan_mod.default_models(dataset.data_shape, rng_init)
    state = gan_mod.init_trainer(cfg.train, gen, disc)

    real_pool = dataset.sample(cfg.eval_samples, rng_eval)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.csv"

    started = time.perf_counter()
    # The real side and the stored config are fixed for the run, so they are
    # computed once, inside the first evaluation window rather than in set-up.
    real_points, space = measure(real_pool)
    real_fit, real_bounds = fit_gaussian(real_points), ball_bounds(real_points, MANIFOLD_K)
    real_root = covariance_root(real_fit)
    stored_cfg = asdict(cfg)
    del stored_cfg["out_dir"]  # so a run's checkpoints do not depend on where it was written
    records = []

    def evaluate(iteration: int) -> tuple:
        """The cells of one evaluation row from frechet to hq_fraction, after
        its samples dump and checkpoint are written. The pool is scored first,
        so a pool the metrics refuse leaves neither file."""
        z = rng_eval.normal((cfg.eval_samples, state.gen.latent_dim))
        fake_pool = state.gen.sample(z)
        fake_points, _ = measure(fake_pool)
        fr = frechet_distance(real_fit, fit_gaussian(fake_points), real_root)
        mm = manifold_metrics(real_points, fake_points, MANIFOLD_K, real_bounds)
        if isinstance(dataset, PointMixture):
            covered, hq = mode_coverage(fake_pool, dataset.centers, dataset.sigma)
            _dump_points(fake_pool[:64], out / f"samples_{iteration:06d}.csv")
        else:
            covered, hq = math.nan, math.nan
            _dump_image_grid(fake_pool[:64], out / f"samples_{iteration:06d}.pgm")
        save_checkpoint(out / f"checkpoint_{iteration:06d}.ufsl",
                        *trainer_to_arrays(state, stored_cfg))
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

    finite = [(r.frechet, r.iteration) for r in records if math.isfinite(r.frechet)]
    best_frechet, best_iteration = min(finite) if finite else (math.nan, -1)
    summary = {"status": status, "best_frechet": best_frechet, "space": space,
               "best_iteration": best_iteration, "iterations_run": records[-1].iteration}
    write_atomic(out / "summary.json", (json.dumps(summary, indent=2) + "\n").encode())
    print(f"[ufs-lab] {cfg.out_dir}: status={status} best_frechet={best_frechet:.6g} "
          f"space={space} at iteration {best_iteration}")
    return RunResult(status, out, metrics_path, records)
