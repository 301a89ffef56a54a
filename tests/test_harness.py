import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ufs_lab
from ufs_lab import attribution, gan, harness, ufs
from ufs_lab import datasets as ds
from ufs_lab import numerics as nm
from ufs_lab.errors import ConfigError, ParseError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def tiny_config(tmp_path, **overrides):
    obj = {
        "dataset": {"kind": "ring8"},
        "train": {"batch_size": 8, "n_critic": 2, "iterations": 4, "seed": 3,
                  "loss": {"kind": "wgan_gp", "gp_lambda": 10.0}},
        "eval_every": 2,
        "eval_samples": 64,
        "out_dir": str(tmp_path / "run"),
    }
    harness.apply_overrides(obj, [f"{k}={json.dumps(v)}" for k, v in overrides.items()])
    return harness.config_from_dict(obj)


# --- config parsing -------------------------------------------------------------- #


RING8 = {"kind": "ring8"}
UFS = {"alpha": 0, "beta": 1, "epsilon": 1}
# knobs the ufs block once had, with the defaults they had
RETIRED_UFS_KEYS = {"denom_floor": 1e-8, "near_real_ratio": 1.0, "stats_momentum": 0.0,
                    "strict_stats": False}


@pytest.mark.parametrize("obj, message", [
    ({"dataset": RING8, "train": {}, "bogus": 1}, "unknown key config.bogus"),
    ({"dataset": RING8, "train": {"ufs": {"alpha": 0, "beta": 1, "epsilon": 1,
                                          "momentum_typo": 2}}},
     "unknown key config.train.ufs.momentum_typo"),
    ({"dataset": RING8}, "missing key config.train"),
    ({"dataset": RING8, "train": {"ufs": {"beta": 1.0, "epsilon": 1.0}}},
     "missing key config.train.ufs.alpha"),
    ({"dataset": RING8, "train": {"batch_size": "64"}},
     'config.train.batch_size must be int, got "64"'),
    ({"dataset": RING8, "train": {"iterations": True}},
     "config.train.iterations must be int, got true"),
    ({"dataset": RING8, "train": {"seed": 1.5}}, "config.train.seed must be int, got 1.5"),
    ({"dataset": RING8, "train": {"ufs": 5}},
     "config.train.ufs must be an object or null, got 5"),
    ({"dataset": "ring8", "train": {}}, 'config.dataset must be an object, got "ring8"'),
    ({"dataset": RING8, "train": {"loss": None}},
     "config.train.loss must be an object, got null"),
    ([], "config must be an object, got []"),
    # range checks in the dataclasses' __post_init__, one case per dataclass
    ({"dataset": RING8, "train": {"selection": {"anneal_fraction": 0.0}}},
     "config.train.selection: anneal_fraction must be in (0, 1], got 0.0"),
    ({"dataset": {"kind": "synthetic_shapes", "instance_selection": {"retention_ratio": 0.0}},
      "train": {}},
     "config.dataset.instance_selection: retention_ratio must be in (0, 1], got 0.0"),
    ({"dataset": RING8, "train": {"ufs": dict(UFS, beta_anneal={
        "beta_end": 1, "anneal_fraction": 0.0})}},
     "config.train.ufs.beta_anneal: anneal_fraction must be in (0, 1], got 0.0"),
    ({"dataset": RING8, "train": {"ufs": dict(UFS, gamma=-1)}},
     "config.train.ufs: gamma must be >= 0, got -1"),
    ({"dataset": RING8, "train": {"loss": {"kind": "lsgan"}}},
     "config.train.loss: unknown loss kind 'lsgan'"),
    ({"dataset": RING8, "train": {"batch_size": 1}},
     "config.train: batch_size must be >= 2, got 1"),
    ({"dataset": {"kind": "ring9"}, "train": {}}, "config.dataset: unknown dataset kind 'ring9'"),
    ({"dataset": RING8, "train": {}, "eval_every": 0}, "config: eval_every must be >= 1, got 0"),
    *[({"dataset": RING8, "train": {"ufs": dict(UFS, **{key: value})}},
       f"unknown key config.train.ufs.{key}")
      for key, value in RETIRED_UFS_KEYS.items()],
    # the schedule starts at ufs.beta
    ({"dataset": RING8, "train": {"ufs": dict(UFS, beta_anneal={
        "beta_start": 1.0, "beta_end": 0.5})}},
     "unknown key config.train.ufs.beta_anneal.beta_start"),
], ids=["unknown-top-level-key", "unknown-nested-key", "missing-block", "missing-ufs-alpha",
        "batch-size-string", "iterations-bool", "seed-float", "ufs-int", "dataset-string",
        "loss-null", "not-an-object", "range-SelectionConfig", "range-InstanceSelectionConfig",
        "range-BetaAnneal", "range-UfsConfig", "range-LossKind", "range-TrainConfig",
        "range-DatasetConfig", "range-ExperimentConfig",
        *[f"retired-{key}" for key in RETIRED_UFS_KEYS], "retired-beta_start"])
def test_config_error_names_dotted_key(obj, message):
    with pytest.raises(ConfigError) as info:
        harness.config_from_dict(obj)
    assert str(info.value) == message


def test_decoder_accepts_int_for_float_and_null_for_optional():
    cfg = harness.config_from_dict({
        "dataset": {"kind": "ring8", "radius": 3, "sigma": None},
        "train": {"n_critic": None, "ufs": {"alpha": 0, "beta": 1, "epsilon": 1},
                  "selection": None},
    })
    assert cfg.dataset.radius == 3 and cfg.dataset.sigma is None
    assert cfg.train.n_critic == 5  # wgan_gp default
    assert cfg.train.ufs == ufs.UfsConfig(0.0, 1.0, 1.0) and cfg.train.selection is None


FULL_CONFIG = {
    "dataset": {"kind": "synthetic_shapes", "image_size": 16, "num_shapes": 64,
                "instance_selection": {"retention_ratio": 0.5}},
    "train": {"batch_size": 8, "loss": {"kind": "hinge"},
              "ufs": {"alpha": 0.0, "beta": 1.5, "epsilon": 1.5,
                      "beta_anneal": {"beta_end": 1.0}},
              "selection": {"mode": "random", "k_start": 8, "k_end": 4}},
}


@pytest.mark.parametrize("name", ["ring8_baseline", "ring8_ufs", "ring8_topk",
                                  "ring8_topk_ufs", "every_block"])
def test_config_round_trips_through_asdict(name):
    if name == "every_block":
        cfg = harness.config_from_dict(json.loads(json.dumps(FULL_CONFIG)))
    else:
        cfg = harness.load_config(CONFIG_DIR / f"{name}.json")
    assert harness.config_from_dict(dataclasses.asdict(cfg)) == cfg


def test_load_config_round_trips_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "dataset": {"kind": "grid25", "sigma": 0.1},
        "train": {"batch_size": 16, "iterations": 7, "seed": 42,
                  "loss": {"kind": "hinge"},
                  "selection": {"mode": "bottom", "k_start": 8, "k_end": 4}},
        "eval_every": 5,
        "out_dir": "somewhere",
    }))
    cfg = harness.load_config(path)
    assert cfg.dataset.kind == "grid25"
    assert cfg.dataset.sigma == 0.1
    assert cfg.train.loss.kind == "hinge"
    assert cfg.train.n_critic == 1  # hinge default
    assert cfg.train.selection.mode == "bottom"
    assert cfg.train.seed == 42


def test_missing_idx_file_rejected_at_load():
    with pytest.raises(ConfigError, match="not found"):
        harness.config_from_dict({
            "dataset": {"kind": "idx_images", "path": "/nonexistent/file.idx"},
            "train": {},
        })


def test_apply_overrides_dotted_paths():
    obj = {"train": {"seed": 1}}
    harness.apply_overrides(obj, ["train.seed=9", "eval_every=10", "train.loss.kind=\"hinge\""])
    assert obj["train"]["seed"] == 9
    assert obj["eval_every"] == 10
    assert obj["train"]["loss"]["kind"] == "hinge"
    for root, item in (([], "eval_every=5"), ({"eval_every": 5}, "eval_every.x=1")):
        with pytest.raises(ConfigError, match="non-object"):
            harness.apply_overrides(root, [item])


# --- CSV ---------------------------------------------------------------------------- #


def test_csv_header_contract():
    assert harness.CSV_HEADER == ("iteration,L_D,L_G,frechet,precision,recall,density,"
                                  "coverage,covered_modes,hq_fraction,wall_seconds")


def test_write_metrics_csv_header_and_rows(tmp_path):
    path = tmp_path / "m.csv"
    row = harness.MetricsRecord(1, 0.5, -0.25, 2.0, 0.1, 0.2, 0.3, 0.4, 5, 0.6, 1.25)
    harness.write_metrics_csv([row, row], path)
    lines = path.read_text().splitlines()
    assert lines[0] == harness.CSV_HEADER
    assert lines[1] == lines[2] == "1,0.5,-0.25,2.0,0.1,0.2,0.3,0.4,5,0.6,1.25"


def test_csv_nan_cells():
    row = harness.MetricsRecord(0, math.nan, math.nan, 1.0, 0.1, 0.2, 0.3, 0.4,
                                math.nan, math.nan, 0.0)
    cells = row.csv_row().split(",")
    assert cells[1] == cells[2] == "nan"
    assert cells[8] == "nan"


# --- checkpoints ------------------------------------------------------------------------ #


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = nm.SeededRng(1)
    arrays = {
        "a.scalar": np.array([3.25]),
        "b.matrix": rng.normal((4, 5)),
        "c.tensor": rng.normal((2, 3, 2, 2)),
    }
    path = tmp_path / "x.ufsl"
    harness.save_checkpoint(path, arrays)
    assert path.read_bytes()[:4] == b"UFSL"
    loaded = harness.load_checkpoint(path)
    assert list(loaded) == list(arrays)
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])
        assert loaded[k].dtype == np.float64


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "x.ufsl"
    harness.save_checkpoint(path, {"a": np.zeros(1)})
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # bump the little-endian version field
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="version 99"):
        harness.load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ParseError):
        harness.load_checkpoint(path)


def trained_state(data_shape, train: gan.TrainConfig, steps: int = 2):
    """A trainer state a few critic and generator steps into a run."""
    state = gan.init_trainer(train, *gan.default_models(data_shape, nm.SeededRng(1)))
    rng = nm.SeededRng(2)
    for _ in range(steps):
        real = rng.normal((train.batch_size,) + tuple(data_shape))
        gan.train_discriminator_step(state, real, rng)
        gan.train_generator_step(state, rng)
    return state


def restore(state, cfg, path):
    harness.save_checkpoint(path, harness.trainer_to_arrays(state, harness.encode_config(cfg)))
    return harness.trainer_from_arrays(harness.load_checkpoint(path))


def test_trainer_checkpoint_round_trip(tmp_path):
    cfg = tiny_config(tmp_path, **{"train.iterations": 6, "train.ufs": dict(
        UFS, beta_anneal={"beta_end": 0.5}),
        "train.selection": {"mode": "top", "k_start": 8, "k_end": 4}})
    state = trained_state((2,), cfg.train)
    _, restored = restore(state, cfg, tmp_path / "t.ufsl")

    live_arrays, restored_arrays = harness._state_arrays(state), harness._state_arrays(restored)
    assert list(live_arrays) == list(restored_arrays)
    for name, arr in live_arrays.items():
        assert arr.tobytes() == restored_arrays[name].tobytes(), name
    counters = [(s.t, s.adam_g.step, s.adam_d.step, s.stats.initialized)
                for s in (state, restored)]
    assert counters == [(2, 2, 2, True)] * 2
    # the loader fills the flat Adam moments through their per-array views
    for live, back in ((state.adam_g, restored.adam_g), (state.adam_d, restored.adam_d)):
        assert np.any(live.m != 0.0) and np.any(live.v != 0.0)
        assert live.m.tobytes() == back.m.tobytes() and live.v.tobytes() == back.v.tobytes()
    _, fresh = restore(trained_state((2,), cfg.train, steps=0), cfg, tmp_path / "f.ufsl")
    assert (fresh.t, fresh.adam_d.step, fresh.stats.initialized) == (0, 0, False)

    # the next critic and generator steps are the same steps
    params = []
    for s in (state, restored):
        rng = nm.SeededRng(5)
        gan.train_discriminator_step(s, rng.normal((8, 2)), rng)
        gan.train_generator_step(s, rng)
        params.append([a.tobytes() for a in s.gen.net.param_list() + s.disc.param_list()])
    assert params[0] == params[1]


def test_checkpoint_stores_the_run_config_without_out_dir(tmp_path):
    cfg = tiny_config(tmp_path, **{"train.ufs": dict(UFS, beta_anneal={"beta_end": 0.5}),
                                   "train.selection": {"k_start": 8, "k_end": 4}})
    result = harness.run_experiment(cfg)
    path = result.out_dir / "checkpoint_000004.ufsl"
    stored, state = harness.trainer_from_arrays(harness.load_checkpoint(path))
    assert stored.out_dir == harness.ExperimentConfig.out_dir
    assert dataclasses.replace(stored, out_dir=cfg.out_dir) == cfg
    assert state.t == 4 and state.cfg == cfg.train
    assert str(tmp_path).encode() not in path.read_bytes()


def test_trainer_from_arrays_does_not_need_the_dataset_file(tmp_path):
    idx = tmp_path / "images.idx"
    ds.write_idx_images(np.zeros((4, 16, 16), np.uint8), idx)
    cfg = harness.config_from_dict({"dataset": {"kind": "idx_images", "path": str(idx)},
                                    "train": {"batch_size": 4}})
    state = gan.init_trainer(cfg.train, *gan.default_models((1, 16, 16), nm.SeededRng(0)))
    arrays = harness.trainer_to_arrays(state, harness.encode_config(cfg))
    idx.unlink()
    stored, _ = harness.trainer_from_arrays(arrays)
    assert stored.dataset.path == str(idx)


@pytest.mark.parametrize("beta_anneal", [None, {"beta_end": 0.5}])
def test_cam_from_restored_state_is_bitwise_the_live_one(tmp_path, beta_anneal):
    cfg = harness.config_from_dict({
        "dataset": {"kind": "synthetic_shapes"},
        "train": {"batch_size": 4, "n_critic": 1, "iterations": 6,
                  "ufs": dict(UFS, beta_anneal=beta_anneal)}})
    state = trained_state((1, 16, 16), cfg.train)
    _, restored = restore(state, cfg, tmp_path / "t.ufsl")
    images = nm.SeededRng(3).normal((3, 1, 16, 16))

    def cams(s):
        features, _ = nm.forward_pass(s.disc.body.specs, s.disc.body.params, images)
        mask = gan.generator_mask(s, features)
        return mask, [attribution.compute_cam(s.disc, images, mask, v).values
                      for v in attribution.VARIANTS]

    (mask_a, maps_a), (mask_b, maps_b) = cams(state), cams(restored)
    assert mask_a.tobytes() == mask_b.tobytes()
    assert [m.tobytes() for m in maps_a] == [m.tobytes() for m in maps_b]


def ring8_checkpoint():
    cfg = harness.config_from_dict({"dataset": {"kind": "ring8"}, "train": {}})
    state = gan.init_trainer(cfg.train, *gan.default_models((2,), nm.SeededRng(0)))
    return harness.trainer_to_arrays(state, harness.encode_config(cfg))


def config_bytes(text):
    return np.frombuffer(text.encode(), np.uint8).astype(float)


@pytest.mark.parametrize("edit, error, message", [
    (lambda a: a.pop("adam_d.m.03"), ParseError, "trainer checkpoint has no array 'adam_d.m.03'"),
    (lambda a: a.update({"gen.00": a["gen.00"][:, :4]}), ParseError,
     r"gen.00: expected shape \(64, 8\), got \(64, 4\)"),
    (lambda a: a.update({"run.iteration": np.array([1.0, 2.0])}), ParseError,
     r"run.iteration: expected shape \(1,\), got \(2,\)"),
    (lambda a: a.update({"run.config": config_bytes("{not json")}), ParseError,
     "run.config: not a JSON config"),
    (lambda a: a.update({"run.config": a["run.config"] + 200.0}), ParseError,
     "run.config: not a JSON config: bytes must be in range"),
    (lambda a: a.update({"run.config": config_bytes('{"dataset": {}}')}), ConfigError,
     "missing key run.config.dataset.kind"),
], ids=["missing-array", "misshapen-array", "misshapen-counter", "config-not-json",
        "config-not-bytes", "config-incomplete"])
def test_trainer_from_arrays_names_the_bad_array(edit, error, message):
    arrays = ring8_checkpoint()
    edit(arrays)
    with pytest.raises(error, match=message):
        harness.trainer_from_arrays(arrays)


def test_version_1_checkpoint_rejected(tmp_path):
    # version 2 stored configs with ufs keys that are gone since version 3
    path = tmp_path / "old.ufsl"
    harness.save_checkpoint(path, ring8_checkpoint())
    raw = bytearray(path.read_bytes())
    for version in (1, 2):
        raw[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match=f"checkpoint version {version} is incompatible "
                                             "with reader version 3"):
            harness.load_checkpoint(path)


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "c.ufsl"
    harness.save_checkpoint(path, {"a": np.zeros(3)})
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        harness.save_checkpoint(path, {"a": np.ones(5)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.ufsl"]


@pytest.mark.parametrize("dataset", [{"kind": "ring8"},
                                     {"kind": "synthetic_shapes", "num_shapes": 16}])
def test_failed_replace_leaves_no_partial_samples_dump(tmp_path, monkeypatch, dataset):
    # the samples dump is the first file a run writes
    cfg = tiny_config(tmp_path, dataset=dataset)

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        harness.run_experiment(cfg)
    assert list((tmp_path / "run").iterdir()) == []


# --- run_experiment ------------------------------------------------------------------------ #


def test_single_iteration_run_has_two_rows(tmp_path):
    cfg = tiny_config(tmp_path, **{"train.iterations": 1, "eval_every": 1})
    result = harness.run_experiment(cfg)
    assert result.status == "ok"
    lines = (result.out_dir / "metrics.csv").read_text().splitlines()
    assert len(lines) == 3  # header + init row + iteration 1
    assert lines[1].startswith("0,")
    assert lines[2].startswith("1,")


def test_run_is_byte_deterministic_modulo_wall_seconds(tmp_path):
    cfg_a = tiny_config(tmp_path / "a")
    cfg_b = tiny_config(tmp_path / "b")
    res_a = harness.run_experiment(cfg_a)
    res_b = harness.run_experiment(cfg_b)
    sliced_a = harness.read_csv_without_wall_seconds(res_a.metrics_path)
    sliced_b = harness.read_csv_without_wall_seconds(res_b.metrics_path)
    assert sliced_a == sliced_b
    # sample dumps and checkpoints are fully deterministic
    for name in ("samples_000000.csv", "checkpoint_000004.ufsl"):
        assert (res_a.out_dir / name).read_bytes() == (res_b.out_dir / name).read_bytes()


def test_run_writes_summary_and_checkpoints(tmp_path):
    cfg = tiny_config(tmp_path)
    result = harness.run_experiment(cfg)
    summary = json.loads((result.out_dir / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["best_iteration"] in [r.iteration for r in result.records]
    assert summary["best_frechet"] == result.best_frechet and summary["space"] == "data"
    assert (result.out_dir / "checkpoint_000000.ufsl").exists()
    assert (result.out_dir / "checkpoint_000004.ufsl").exists()


def test_run_nan_abort_keeps_last_checkpoint(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, **{"train.iterations": 6, "eval_every": 2})
    calls = {"n": 0}
    original = gan.train_generator_step

    def explode_late(state, rng):
        calls["n"] += 1
        if calls["n"] >= 4:
            state.gen.net.params[0]["W"][:] = np.nan
        return original(state, rng)

    monkeypatch.setattr(harness.gan_mod, "train_generator_step", explode_late)
    result = harness.run_experiment(cfg)
    assert result.status == "nan_abort"
    lines = result.metrics_path.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "2", "4"]
    # one diagnostic row: nan metrics, and nan for the loss whose step raised
    cells = lines[-1].split(",")
    assert math.isfinite(float(cells[1])) and cells[2:10] == ["nan"] * 8
    assert (result.out_dir / "checkpoint_000002.ufsl").exists()
    summary = json.loads((result.out_dir / "summary.json").read_text())
    assert summary["status"] == "nan_abort"


def test_run_critic_divergence_row_reads_nan_critic_loss(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, **{"train.iterations": 6, "eval_every": 2})
    calls = {"n": 0}
    original = gan.train_discriminator_step

    def explode_late(state, real, rng):
        calls["n"] += 1
        if calls["n"] == 6:  # the second of iteration 3's two critic steps
            state.disc.w[:] = np.nan
        return original(state, real, rng)

    monkeypatch.setattr(harness.gan_mod, "train_discriminator_step", explode_late)
    result = harness.run_experiment(cfg)
    assert result.status == "nan_abort"
    assert [r.iteration for r in result.records] == [0, 2, 3]
    last = result.records[-1]
    assert math.isnan(last.L_D) and math.isnan(last.L_G) and math.isnan(last.frechet)


def test_exactly_n_critic_steps_per_generator_step(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, **{"train.iterations": 3, "train.n_critic": 4})
    counts = {"d": 0, "g": 0}
    orig_d, orig_g = gan.train_discriminator_step, gan.train_generator_step

    def count_d(*a, **kw):
        counts["d"] += 1
        return orig_d(*a, **kw)

    def count_g(*a, **kw):
        counts["g"] += 1
        return orig_g(*a, **kw)

    monkeypatch.setattr(harness.gan_mod, "train_discriminator_step", count_d)
    monkeypatch.setattr(harness.gan_mod, "train_generator_step", count_g)
    harness.run_experiment(cfg)
    assert counts == {"d": 12, "g": 3}


def test_real_side_bounded_once_per_run(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, **{"train.iterations": 3, "eval_every": 1})
    calls = []
    orig = harness.ball_bounds

    def count_bounds(points, k):
        calls.append(points.shape)
        return orig(points, k)

    monkeypatch.setattr(harness, "ball_bounds", count_bounds)
    result = harness.run_experiment(cfg)
    assert result.status == "ok"
    assert len(result.records) == 4
    assert calls == [(64, 2)]


def test_image_run_smoke(tmp_path):
    obj = {
        "dataset": {"kind": "synthetic_shapes", "num_shapes": 32, "image_size": 16},
        "train": {"batch_size": 4, "n_critic": 1, "iterations": 2, "seed": 0,
                  "loss": {"kind": "hinge"}},
        "eval_every": 2,
        "eval_samples": 16,
        "out_dir": str(tmp_path / "img"),
    }
    result = harness.run_experiment(harness.config_from_dict(obj))
    assert result.status == "ok"
    assert (result.out_dir / "samples_000002.pgm").exists()
    assert all(math.isnan(r.covered_modes) for r in result.records)
    assert all(math.isfinite(r.frechet) for r in result.records)
    summary = json.loads((result.out_dir / "summary.json").read_text())
    assert summary["best_frechet"] == result.best_frechet
    assert summary["space"] == "random_features"


def test_image_run_identical_across_blas_thread_counts(tmp_path):
    cfg = {
        "dataset": {"kind": "synthetic_shapes", "num_shapes": 64, "image_size": 16},
        "train": {"batch_size": 32, "n_critic": 1, "iterations": 2, "seed": 5,
                  "loss": {"kind": "wgan_gp", "gp_lambda": 1.0},
                  "ufs": {"alpha": 0.0, "beta": 1.0, "epsilon": 1.0}},
        "eval_every": 1,
        "eval_samples": 32,
    }
    src_dir = str(Path(ufs_lab.__file__).resolve().parents[1])
    csvs = []
    for threads in ("1", "2"):
        cfg["out_dir"] = str(tmp_path / f"threads{threads}")
        cfg_path = tmp_path / f"threads{threads}.json"
        cfg_path.write_text(json.dumps(cfg))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "ufs_lab.cli", "run", str(cfg_path)],
                       env=env, check=True, timeout=300)
        csvs.append(harness.read_csv_without_wall_seconds(Path(cfg["out_dir"]) / "metrics.csv"))
    assert csvs[0] == csvs[1]
    assert len(csvs[0].splitlines()) == 4  # header + init row + two iterations


# --- presets -------------------------------------------------------------------------------- #


PRESETS = ["ring8_baseline", "ring8_ufs", "ring8_topk", "ring8_topk_ufs"]


def test_presets_parse_and_differ_only_in_ufs_and_selection():
    blobs = {}
    for name in PRESETS:
        obj = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        harness.config_from_dict(json.loads(json.dumps(obj)))  # validates
        blobs[name] = obj
    base = blobs["ring8_baseline"]
    for name, obj in blobs.items():
        stripped = json.loads(json.dumps(obj))
        stripped["train"].pop("ufs", None)
        stripped["train"].pop("selection", None)
        base_stripped = json.loads(json.dumps(base))
        base_stripped["train"].pop("ufs", None)
        base_stripped["train"].pop("selection", None)
        assert stripped == base_stripped, f"{name} differs outside ufs/selection"


def test_preset_knobs_match_published_settings():
    ufs_obj = json.loads((CONFIG_DIR / "ring8_ufs.json").read_text())["train"]["ufs"]
    assert (ufs_obj["alpha"], ufs_obj["beta"], ufs_obj["epsilon"]) == (0.0, 1.0, 1.0)
    assert ufs_obj["gamma"] == 1e-4
    sel_obj = json.loads((CONFIG_DIR / "ring8_topk.json").read_text())["train"]["selection"]
    assert (sel_obj["mode"], sel_obj["k_start"], sel_obj["k_end"]) == ("top", 64, 32)
