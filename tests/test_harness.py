import ctypes
import dataclasses
import json
import math
import mmap
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import cam_per_variant, checkpoint_bytes_joined, image_grid_loop
import ufs_lab
from ufs_lab import attribution, gan, harness, ufs
from ufs_lab import datasets as ds
from ufs_lab import numerics as nm
from ufs_lab.errors import ConfigError, ContractError, ParseError

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
     "config.train.loss: unknown loss kind 'lsgan'; the kinds are wgan_gp, hinge"),
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
        "dataset": {"kind": "ring8", "path": None},
        "train": {"n_critic": None, "ufs": {"alpha": 0, "beta": 1, "epsilon": 1},
                  "selection": None, "loss": {"kind": "wgan_gp", "gp_lambda": 3}},
    })
    assert cfg.train.loss.gp_lambda == 3 and cfg.dataset.path is None
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


# Blocks whose fields the chosen kind does not read are stored as null.
EXTRA_CONFIGS = {"every_block": FULL_CONFIG,
                 "grid25": {"dataset": {"kind": "grid25"}, "train": {}},
                 "hinge": {"dataset": RING8, "train": {"loss": {"kind": "hinge"}}}}


@pytest.mark.parametrize("name", ["ring8_baseline", "ring8_ufs", "ring8_topk",
                                  "ring8_topk_ufs", *EXTRA_CONFIGS])
def test_config_round_trips_through_asdict(name):
    if name in EXTRA_CONFIGS:
        cfg = harness.config_from_dict(json.loads(json.dumps(EXTRA_CONFIGS[name])))
    else:
        cfg = harness.load_config(CONFIG_DIR / f"{name}.json")
    assert harness.config_from_dict(dataclasses.asdict(cfg)) == cfg


def test_load_config_round_trips_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "dataset": {"kind": "grid25"},
        "train": {"batch_size": 16, "iterations": 7, "seed": 42,
                  "loss": {"kind": "hinge"},
                  "selection": {"mode": "bottom", "k_start": 8, "k_end": 4,
                                "anneal_fraction": 0.1}},
        "eval_every": 5,
        "out_dir": "somewhere",
    }))
    cfg = harness.load_config(path)
    assert cfg.dataset.kind == "grid25"
    assert cfg.train.selection.anneal_fraction == 0.1
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
    entries = {"run.iteration": 7, "name": "ü", "flags": [True, None], "x": 0.1}
    harness.save_checkpoint(path, arrays, entries)
    assert path.read_bytes()[:4] == b"UFSL"
    loaded, header = harness.load_checkpoint(path)
    assert header == entries
    assert list(loaded) == list(arrays)
    for k in arrays:
        assert np.array_equal(loaded[k], arrays[k])
        assert loaded[k].dtype == np.float64 and loaded[k].flags.writeable
    harness.save_checkpoint(path, arrays)
    assert harness.load_checkpoint(path)[1] == {}


def test_checkpoint_bytes_equal_the_joined_writer(tmp_path):
    arrays, header = ring8_checkpoint()
    arrays.update({"x.zero_d": np.float64(2.5), "x.empty": np.zeros((0, 3)),
                   "x.strided": np.arange(10.0)[::3], "x.ints": np.arange(4),
                   "x.fortran": np.asfortranarray(nm.SeededRng(2).normal((3, 4))),
                   "x.ünicode": np.ones((2, 1, 3))})
    path = tmp_path / "c.ufsl"
    harness.save_checkpoint(path, arrays, header)
    assert path.read_bytes() == checkpoint_bytes_joined(arrays, header)
    harness.save_checkpoint(path, {"embeddings": np.ones((3, 2))})
    assert path.read_bytes() == checkpoint_bytes_joined({"embeddings": np.ones((3, 2))})


def test_ring8_checkpoint_holds_eight_arrays_and_a_json_header(tmp_path):
    cfg = harness.config_from_dict({"dataset": {"kind": "ring8"}, "train": {}})
    state = trained_state((2,), cfg.train, steps=1)
    arrays, header = harness.trainer_to_arrays(state, dataclasses.asdict(cfg))
    assert list(arrays) == ["gen", "disc", "adam_g.m", "adam_g.v", "adam_d.m", "adam_d.v",
                            "stats.mu_real", "stats.mu_fake"]
    assert arrays["gen"] is state.gen.net.theta and arrays["disc"] is state.disc.theta
    assert {k: v for k, v in header.items() if k != "run.config"} == {
        "run.data_shape": [2], "run.iteration": 1, "adam_d.step": 1}
    path = tmp_path / "c.ufsl"
    harness.save_checkpoint(path, arrays, header)
    _, stored = harness.load_checkpoint(path)
    assert stored == json.loads(json.dumps(header))


def test_ring8_checkpoint_at_iteration_0_holds_6_arrays_and_no_stats(tmp_path):
    arrays, header = ring8_checkpoint()
    assert len(arrays) == 6 and not any(name.startswith("stats.") for name in arrays)
    assert {k: v for k, v in header.items() if k != "run.config"} == {
        "run.data_shape": [2], "run.iteration": 0, "adam_d.step": 0}
    path = tmp_path / "c.ufsl"
    harness.save_checkpoint(path, arrays, header)
    _, state = harness.trainer_from_arrays(*harness.load_checkpoint(path))
    assert (state.t, state.adam_g.step, state.adam_d.step, state.stats) == (0, 0, 0, None)


def test_points_dump_bytes_equal_the_per_row_form(tmp_path):
    points = np.concatenate([nm.SeededRng(4).normal((60, 2)),
                             [[-0.0, 0.0], [1e-300, -5e-324], [0.1, 1.0 / 3.0], [1e17, 2.0]]])
    path = tmp_path / "samples.csv"
    harness._dump_points(points, path)
    want = "".join(f"{repr(float(x))},{repr(float(y))}\n" for x, y in points).encode()
    assert path.read_bytes() == want


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


def container(header: bytes, data: bytes = b"") -> bytes:
    """A version-5 file of the given header bytes and array data."""
    return b"UFSL" + (5).to_bytes(4, "little") + len(header).to_bytes(4, "little") + header + data


@pytest.mark.parametrize("raw, message", [
    (container(b'{"arrays": [["a", [2, 3]]]}', bytes(8 * 5)), "corrupt checkpoint near byte"),
    (container(b'{"arrays": [["a", []]]}'), "corrupt checkpoint near byte"),
    (container(b'{"arrays": [["a", [2]]]}')[:-3], "corrupt checkpoint near byte"),
    (container(b"{not json"), "JSONDecodeError"),
    (container(b'{"arrays": []}')[:-1], "JSONDecodeError"),
    (container(b"\x80{}"), "UnicodeDecodeError"),
    (container(b"{}"), "KeyError"),
    (container(b"[1, 2]"), "corrupt checkpoint near byte"),
    (container(b'"arrays"'), "corrupt checkpoint near byte"),
    (container(b'{"arrays": 3}'), "corrupt checkpoint near byte"),
    (container(b'{"arrays": [["a"]]}'), "corrupt checkpoint near byte"),
    (container(b'{"arrays": [["a", [1.5]]]}', bytes(8)), "corrupt checkpoint near byte"),
    (container(b'{"arrays": [["a", "ab"]]}', bytes(16)), "corrupt checkpoint near byte"),
    (container(b'{"arrays": [["a", [-1]]]}', bytes(16)), "has shape \\[-1\\]"),
    (container(b'{"arrays": [["a", [2, -1]]]}', bytes(16)), "has shape \\[2, -1\\]"),
    (container(b'{"arrays": [[["a"], [1]]]}', bytes(8)), "corrupt checkpoint near byte"),
    (container(b'{"arrays": [["a", [1]]]}', bytes(9)), "data after the last array, from byte 44"),
    (container(b'{"arrays": []}', bytes(8)), "data after the last array, from byte 26"),
], ids=["data-cut-short", "0-d-data-missing", "last-array-cut-short", "header-not-json",
        "header-cut-short", "header-not-utf8", "no-arrays-table", "header-a-list",
        "header-a-string", "table-not-a-list", "entry-not-a-pair", "float-dim", "string-shape",
        "negative-dim", "negative-dim-pair", "unhashable-name", "trailing-byte",
        "trailing-array"])
def test_load_checkpoint_rejects_malformed_files(tmp_path, raw, message):
    path = tmp_path / "bad.ufsl"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=message):
        harness.load_checkpoint(path)


def test_load_checkpoint_reads_well_formed_edge_cases(tmp_path):
    path = tmp_path / "ok.ufsl"
    path.write_bytes(container('{"arrays": [["ü", []], ["e", [0, 3]]], "n": 1}'.encode(),
                               np.float64(2.5).tobytes()))
    arrays, header = harness.load_checkpoint(path)
    assert header == {"n": 1}
    assert arrays["ü"].shape == () and float(arrays["ü"]) == 2.5
    assert arrays["e"].shape == (0, 3)


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
    harness.save_checkpoint(path, *harness.trainer_to_arrays(state, dataclasses.asdict(cfg)))
    return harness.trainer_from_arrays(*harness.load_checkpoint(path))


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
    counters = [(s.t, s.adam_g.step, s.adam_d.step, s.stats is not None)
                for s in (state, restored)]
    assert counters == [(2, 2, 2, True)] * 2
    assert [type(c) for c in counters[1]] == [int, int, int, bool]
    # the loader fills the flat Adam moments in place
    for live, back in ((state.adam_g, restored.adam_g), (state.adam_d, restored.adam_d)):
        assert np.any(live.m != 0.0) and np.any(live.v != 0.0)
        assert live.m.tobytes() == back.m.tobytes() and live.v.tobytes() == back.v.tobytes()
    _, fresh = restore(trained_state((2,), cfg.train, steps=0), cfg, tmp_path / "f.ufsl")
    assert (fresh.t, fresh.adam_d.step, fresh.stats) == (0, 0, None)

    # the next critic and generator steps are the same steps
    params = []
    for s in (state, restored):
        rng = nm.SeededRng(5)
        gan.train_discriminator_step(s, rng.normal((8, 2)), rng)
        gan.train_generator_step(s, rng)
        params.append([s.gen.net.theta.tobytes(), s.disc.theta.tobytes()])
    assert params[0] == params[1]


@pytest.mark.parametrize("data_shape", [(2,), (1, 16, 16)])
def test_restored_networks_are_views_of_their_theta(tmp_path, data_shape):
    cfg = tiny_config(tmp_path)
    _, state = restore(trained_state(data_shape, cfg.train, steps=1), cfg, tmp_path / "t.ufsl")
    d, net = state.disc, state.gen.net
    parts = [d.w, d.b] + [a for p in d.body.params for a in p.values()]
    assert d.body.theta.base is d.theta and d.w.base is d.theta and d.b.base is d.theta
    assert all(np.shares_memory(a, d.theta) for a in parts)
    assert all(np.shares_memory(a, net.theta) for p in net.params for a in p.values())
    before = [a.copy() for a in parts]
    nm.adam_step(state.adam_d, d.theta, np.ones_like(d.theta), 1e-3)  # one step moves them all
    assert all((a != b).all() for a, b in zip(parts, before, strict=True))


def test_checkpoint_stores_the_run_config_without_out_dir(tmp_path):
    cfg = tiny_config(tmp_path, **{"train.ufs": dict(UFS, beta_anneal={"beta_end": 0.5}),
                                   "train.selection": {"k_start": 8, "k_end": 4}})
    result = harness.run_experiment(cfg)
    path = result.out_dir / "checkpoint_000004.ufsl"
    stored, state = harness.trainer_from_arrays(*harness.load_checkpoint(path))
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
    arrays, header = harness.trainer_to_arrays(state, dataclasses.asdict(cfg))
    idx.unlink()
    stored, _ = harness.trainer_from_arrays(arrays, header)
    assert stored.dataset.path == str(idx)


@pytest.mark.parametrize("beta_anneal", [None, {"beta_end": 0.5}])
def test_cam_from_restored_state_is_bitwise_the_live_one(tmp_path, monkeypatch, beta_anneal):
    cfg = harness.config_from_dict({
        "dataset": {"kind": "synthetic_shapes"},
        "train": {"batch_size": 4, "n_critic": 1, "iterations": 6,
                  "ufs": dict(UFS, beta_anneal=beta_anneal)}})
    state = trained_state((1, 16, 16), cfg.train)
    _, restored = restore(state, cfg, tmp_path / "t.ufsl")
    images = nm.SeededRng(3).normal((3, 1, 16, 16))
    masks = []

    def recorded_mask(s, features):
        masks.append(gan.generator_mask(s, features))
        return masks[-1]

    monkeypatch.setattr(attribution, "generator_mask", recorded_mask)
    maps_a = attribution.compute_cam(state, images)
    maps_b = attribution.compute_cam(restored, images)
    assert masks[0].tobytes() == masks[1].tobytes()
    assert list(maps_a) == list(maps_b) == ["cam", "cam_ufs", "cam_sup"]
    assert [m.tobytes() for m in maps_a.values()] == [m.tobytes() for m in maps_b.values()]


@pytest.mark.parametrize("ufs_block", [None, UFS, dict(UFS, beta_anneal={"beta_end": 0.5})])
def test_cam_is_bitwise_the_per_variant_computation(ufs_block):
    train = {"batch_size": 4, "n_critic": 1, "iterations": 6}
    if ufs_block is not None:
        train["ufs"] = ufs_block
    cfg = harness.config_from_dict({"dataset": {"kind": "synthetic_shapes"}, "train": train})
    state = trained_state((1, 16, 16), cfg.train)
    images = nm.SeededRng(4).normal((5, 1, 16, 16))
    got, want = attribution.compute_cam(state, images), cam_per_variant(state, images)
    assert list(got) == list(want) == (["cam"] if ufs_block is None
                                       else ["cam", "cam_ufs", "cam_sup"])
    assert [m.tobytes() for m in got.values()] == [m.tobytes() for m in want.values()]


def ring8_checkpoint():
    cfg = harness.config_from_dict({"dataset": {"kind": "ring8"}, "train": {}})
    state = gan.init_trainer(cfg.train, *gan.default_models((2,), nm.SeededRng(0)))
    return harness.trainer_to_arrays(state, dataclasses.asdict(cfg))


def v3_config_bytes(header):
    """The run config as version 3 stored it: its JSON, one byte per float64."""
    return list(np.frombuffer(json.dumps(header["run.config"]).encode(), np.uint8).astype(float))


@pytest.mark.parametrize("edit, error, message", [
    (lambda a, h: a.pop("adam_d.m"), ParseError, "trainer checkpoint has no array 'adam_d.m'"),
    (lambda a, h: a.update({"gen": a["gen"][:-4]}), ParseError,
     r"gen: expected shape \(4866,\), got \(4862,\)"),
    (lambda a, h: a.update({"adam_g.v": a["adam_g.v"][1:]}), ParseError,
     r"adam_g.v: expected shape \(4866,\), got \(4865,\)"),
    (lambda a, h: h.update({"run.iteration": [1, 2]}), ParseError,
     r"header entry 'run.iteration' should be a non-negative integer, got \[1, 2\]"),
    (lambda a, h: h.pop("adam_d.step"), ParseError,
     "not a trainer checkpoint: header entry 'adam_d.step' should be a non-negative integer, "
     "got no entry"),
    (lambda a, h: h.update({"adam_d.step": 2.0}), ParseError,
     "header entry 'adam_d.step' should be a non-negative integer, got 2.0"),
    (lambda a, h: h.update({"run.iteration": -5}), ParseError,
     "header entry 'run.iteration' should be a non-negative integer, got -5"),
    (lambda a, h: h.update({"adam_d.step": -3}), ParseError,
     "header entry 'adam_d.step' should be a non-negative integer, got -3"),
    (lambda a, h: h.update({"run.data_shape": ["2"]}), ParseError,
     r"header entry 'run.data_shape' should be a list of integers, got \[\"2\"\]"),
    (lambda a, h: h.update({"run.config": "{not json"}), ParseError,
     "header entry 'run.config' should be an object"),
    (lambda a, h: h.update({"run.config": v3_config_bytes(h)}), ParseError,
     r"header entry 'run.config' should be an object, got \[123.0, 34.0, "),
    (lambda a, h: h.update({"run.config": {"dataset": {}}}), ConfigError,
     "missing key run.config.dataset.kind"),
], ids=["missing-array", "misshapen-array", "misshapen-adam-moment", "misshapen-counter",
        "missing-counter", "float-counter", "negative-iteration", "negative-critic-step",
        "data-shape-strings", "config-not-json",
        "config-as-bytes", "config-incomplete"])
def test_trainer_from_arrays_names_the_bad_array(edit, error, message):
    arrays, header = ring8_checkpoint()
    edit(arrays, header)
    with pytest.raises(error, match=message):
        harness.trainer_from_arrays(arrays, header)


def restored_counters_and_arrays(arrays, header):
    _, state = harness.trainer_from_arrays(arrays, header)
    return ((state.t, state.adam_g.step, state.adam_d.step, state.stats is not None),
            {name: arr.tobytes() for name, arr in harness._state_arrays(state).items()})


@pytest.mark.parametrize("steps", [0, 2])
def test_checkpoint_with_the_implied_counters_restores_the_same_state(tmp_path, steps):
    # the earlier writer also stored adam_g.step and stats.initialized, and the
    # statistics arrays (zeros) before the first critic step; the reader ignores them
    cfg = tiny_config(tmp_path)
    state = trained_state((2,), cfg.train, steps)
    arrays, header = harness.trainer_to_arrays(state, dataclasses.asdict(cfg))
    assert set(header) == {"run.config", "run.data_shape", "run.iteration", "adam_d.step"}
    zeros = np.zeros(state.disc.feature_dim)
    old_arrays = dict({"stats.mu_real": zeros, "stats.mu_fake": zeros}, **arrays)
    old_header = dict(header, **{"adam_g.step": steps, "stats.initialized": steps > 0})
    restored = restored_counters_and_arrays(arrays, header)
    assert restored == restored_counters_and_arrays(old_arrays, old_header)
    assert restored[0] == (steps, steps, steps, steps > 0)
    assert len(restored[1]) == (6 if steps == 0 else 8)


# The iteration is the generator's Adam step, so the header cannot disagree
# with it; what it cannot carry is statistics that disagree with the critic's step.
@pytest.mark.parametrize("edit, message", [
    (lambda s: setattr(s, "stats", ufs.update_stats(s.disc.w, np.ones((2, 64)), np.ones((2, 64)))),
     "critic Adam step 0, feature statistics present"),
    (lambda s: setattr(s.adam_d, "step", 1), "critic Adam step 1, feature statistics absent"),
], ids=["stats-without-critic-step", "critic-step-without-stats"])
def test_trainer_to_arrays_refuses_counters_the_header_cannot_carry(edit, message):
    cfg = harness.config_from_dict({"dataset": {"kind": "ring8"}, "train": {}})
    state = gan.init_trainer(cfg.train, *gan.default_models((2,), nm.SeededRng(0)))
    edit(state)
    with pytest.raises(ContractError, match=f"inconsistent counters: {message}"):
        harness.trainer_to_arrays(state, dataclasses.asdict(cfg))


def test_version_1_checkpoint_rejected(tmp_path):
    # version 2 stored configs with ufs keys that are gone since version 3,
    # version 3 stored the config, data shape and counters as float64 arrays,
    # and version 4 stored each weight and bias as an array of its own
    path = tmp_path / "old.ufsl"
    arrays, header = ring8_checkpoint()
    harness.save_checkpoint(path, arrays, header)
    raw = bytearray(path.read_bytes())
    for version in (1, 2, 3, 4):
        raw[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match=f"checkpoint version {version} is incompatible "
                                             "with reader version 5"):
            harness.load_checkpoint(path)


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "c.ufsl"
    harness.save_checkpoint(path, {"a": np.zeros(3)})
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(nm.os, "replace", fail)
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

    monkeypatch.setattr(nm.os, "replace", fail)
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
    column = lines[0].split(",").index("covered_modes")
    assert all(line.split(",")[column].isdigit() for line in lines[1:])  # ring8 counts modes


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


def best_row(records):
    """(frechet, iteration) of the records' row with the lowest finite Fréchet."""
    return min((r.frechet, r.iteration) for r in records if math.isfinite(r.frechet))


def test_run_writes_summary_and_checkpoints(tmp_path):
    cfg = tiny_config(tmp_path)
    result = harness.run_experiment(cfg)
    summary = json.loads((result.out_dir / "summary.json").read_text())
    assert summary["status"] == "ok" and summary["space"] == "data"
    assert (summary["best_frechet"], summary["best_iteration"]) == best_row(result.records)
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


def test_run_with_a_nan_sample_in_an_evaluation_pool_aborts(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, **{"train.iterations": 6, "eval_every": 2})
    windows = {"n": 0}
    original = gan.GeneratorNet.sample

    def one_nan_at_second_window(self, z, want_cache=False):
        out = original(self, z, want_cache)
        if len(z) == cfg.eval_samples:  # an evaluation pool, not a training batch
            windows["n"] += 1
            if windows["n"] == 2:
                out[5, 1] = np.nan
        return out

    monkeypatch.setattr(gan.GeneratorNet, "sample", one_nan_at_second_window)
    result = harness.run_experiment(cfg)
    assert result.status == "nan_abort"
    lines = result.metrics_path.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "2"]
    cells = lines[-1].split(",")
    assert all(math.isfinite(float(c)) for c in cells[1:3]) and cells[3:10] == ["nan"] * 7
    assert (result.out_dir / "checkpoint_000000.ufsl").exists()
    assert not (result.out_dir / "checkpoint_000002.ufsl").exists()


def test_image_run_with_a_nan_pixel_in_an_evaluation_pool_aborts(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, **{"dataset": {"kind": "synthetic_shapes", "image_size": 16,
                                               "num_shapes": 32},
                                   "train.batch_size": 4, "train.n_critic": 1,
                                   "train.iterations": 2, "eval_every": 1, "eval_samples": 16})
    windows = {"n": 0}
    original = gan.GeneratorNet.sample

    def one_nan_at_second_window(self, z, want_cache=False):
        out = original(self, z, want_cache)
        if len(z) == cfg.eval_samples:  # an evaluation pool, not a training batch
            windows["n"] += 1
            if windows["n"] == 2:
                out[3, 0, 5, 7] = np.nan
        return out

    monkeypatch.setattr(gan.GeneratorNet, "sample", one_nan_at_second_window)
    result = harness.run_experiment(cfg)  # the samples dump would refuse the pixel
    assert result.status == "nan_abort"
    lines = result.metrics_path.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
    assert lines[-1].split(",")[3:10] == ["nan"] * 7
    assert json.loads((result.out_dir / "summary.json").read_text())["status"] == "nan_abort"
    assert (result.out_dir / "checkpoint_000000.ufsl").exists()
    assert (result.out_dir / "samples_000000.pgm").exists()
    assert not (result.out_dir / "samples_000001.pgm").exists()
    assert not (result.out_dir / "checkpoint_000001.ufsl").exists()


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
    assert (summary["best_frechet"], summary["best_iteration"]) == best_row(result.records)
    assert summary["space"] == "random_features"


@pytest.mark.parametrize("n", [1, 10, 17, 64])
def test_image_grid_bytes_equal_the_per_image_loop(tmp_path, n):
    images = nm.SeededRng(n).normal((n, 1, 16, 16))
    harness._dump_image_grid(images, tmp_path / "grid.pgm")
    assert (tmp_path / "grid.pgm").read_bytes() == attribution.encode_pgm(image_grid_loop(images))


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


def libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Runs a small ring8 experiment at the bench's ring8_eval settings (batch 64,
# 5 critic steps, an evaluation after every iteration) with a 256-point pool,
# whose distance blocks (512 KiB) are above glibc's default mmap threshold,
# and prints the minor page faults of each iteration and evaluation window:
# (kind, faults from the end of the previous one to its own end).
FAULT_PROBE = """
import json, resource, sys
from ufs_lab import gan, harness

marks = []
def mark_after(owner, name, kind):
    fn = getattr(owner, name)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.append((kind, resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
        return result
    setattr(owner, name, wrapper)

mark_after(gan, "train_generator_step", "iteration")
mark_after(harness, "save_checkpoint", "window")
harness.run_experiment(harness.config_from_dict({
    "dataset": {"kind": "ring8"},
    "train": {"batch_size": 64, "n_critic": 5, "iterations": 12, "seed": 3,
              "loss": {"kind": "wgan_gp", "gp_lambda": 1.0}},
    "eval_every": 1, "eval_samples": 256, "out_dir": sys.argv[1]}))
print(json.dumps([(kind, end - start) for (_, start), (kind, end) in zip(marks, marks[1:])]))
"""


@pytest.mark.skipif(not libc_has_mallopt(), reason="the heap policy needs glibc's mallopt")
def test_ring8_run_faults_in_no_fresh_buffers_after_warm_up(tmp_path):
    # With the thresholds fixed at import, numpy's temporaries come back from
    # the heap. Without them, every window faults in its distance blocks
    # afresh (300+ pages at these sizes) and iterations 100+ pages. A stray
    # page can still come from the heap or Python's allocator growing, so
    # the bound is one 64 KiB buffer, not zero.
    src_dir = str(Path(ufs_lab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    faults = json.loads(done.stdout.splitlines()[-1])
    assert [kind for kind, _ in faults] == ["iteration", "window"] * 12
    later = faults[len(faults) // 2:]  # iterations and windows 7 to 12
    assert max(n for _, n in later) < (64 << 10) // mmap.PAGESIZE, faults


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
