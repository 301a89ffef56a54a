import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ufs_lab import cli
from ufs_lab import datasets as ds
from ufs_lab import gan
from ufs_lab import numerics as nm
from ufs_lab.harness import config_from_dict, load_checkpoint, save_checkpoint, trainer_to_arrays
from ufs_lab.metrics import fit_gaussian, frechet_distance, measure
from ufs_lab.numerics import SeededRng


def write_shapes_idx(path, count=24, seed=0, size=16):
    shapes = ds.synthetic_shapes(count, size, SeededRng(seed))
    u8 = np.clip((shapes[:, 0] + 1.0) * 127.5, 0, 255).astype(np.uint8)
    ds.write_idx_images(u8, path)
    return path


def test_run_subcommand_with_overrides(tmp_path, capsys):
    cfg = {
        "dataset": {"kind": "ring8"},
        "train": {"batch_size": 8, "n_critic": 1, "iterations": 2, "seed": 0,
                  "loss": {"kind": "hinge"}},
        "eval_every": 2,
        "eval_samples": 32,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    rc = cli.main(["run", str(cfg_path), "--set", f"out_dir={json.dumps(str(out_dir))}"])
    assert rc == 0
    assert (out_dir / "metrics.csv").exists()


def test_eval_subcommand_on_point_csvs(tmp_path, capsys):
    rng = SeededRng(1)
    for columns in (2, 3):
        for name in ("real", "fake"):
            pts = rng.normal((40, columns))
            (tmp_path / f"{name}.csv").write_text(
                "".join(",".join(map(str, p)) + "\n" for p in pts))
        rc = cli.main(["eval", "--real", str(tmp_path / "real.csv"),
                       "--fake", str(tmp_path / "fake.csv"), "-k", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"space", "frechet", "precision", "recall", "density", "coverage"}
        assert out["space"] == "data", columns


def test_select_and_cam_subcommands(tmp_path, capsys):
    idx_path = write_shapes_idx(tmp_path / "shapes.idx")
    out_file = tmp_path / "kept.txt"
    rc = cli.main(["select", "--dataset", str(idx_path), "--retention", "0.5",
                   "--out", str(out_file)])
    assert rc == 0
    kept = [int(x) for x in out_file.read_text().split()]
    assert len(kept) == 12

    # train an image run for two iterations to get a checkpoint
    cfg = {
        "dataset": {"kind": "synthetic_shapes", "num_shapes": 16, "image_size": 16},
        "train": {"batch_size": 4, "n_critic": 1, "iterations": 2, "seed": 0,
                  "loss": {"kind": "hinge"},
                  "ufs": {"alpha": 0.0, "beta": 1.0, "epsilon": 1.5}},
        "eval_every": 2,
        "eval_samples": 8,
        "out_dir": str(tmp_path / "imgrun"),
    }
    cfg_path = tmp_path / "img.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == 0
    ckpt = tmp_path / "imgrun" / "checkpoint_000002.ufsl"
    cam_dir = tmp_path / "cams"
    rc = cli.main(["cam", "--checkpoint", str(ckpt), "--input", str(idx_path),
                   "--out", str(cam_dir), "--limit", "2"])
    assert rc == 0
    names = sorted(p.name for p in cam_dir.iterdir())
    assert any("cam_ufs" in n for n in names)
    assert any("cam_sup" in n for n in names)
    assert any(n.endswith("_cam.pgm") for n in names)


def test_eval_dump_embeddings(tmp_path, capsys):
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=12, seed=1)
    idx_path_b = write_shapes_idx(tmp_path / "b.idx", count=12, seed=2)
    dump = tmp_path / "emb"
    rc = cli.main(["eval", "--real", str(idx_path), "--fake", str(idx_path_b),
                   "-k", "2", "--dump-embeddings", str(dump)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["space"] == "random_features"
    arrays, header = load_checkpoint(dump / "real_embeddings.ufsl")
    assert header == {} and list(arrays) == ["embeddings"]
    assert arrays["embeddings"].shape == (12, 64)


def test_eval_on_idx_files_measures_as_the_run_does(tmp_path, capsys):
    paths = [write_shapes_idx(tmp_path / f"{name}.idx", count=12, seed=seed)
             for name, seed in (("a", 1), ("b", 2))]
    assert cli.main(["eval", "--real", str(paths[0]), "--fake", str(paths[1]), "-k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    (real, space), (fake, _) = (measure(ds.load_idx_images(p)) for p in paths)
    assert out["space"] == space == "random_features"
    assert out["frechet"] == frechet_distance(fit_gaussian(real), fit_gaussian(fake))


def assert_one_line_error(capsys, name):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"ufs-lab: {name}: ")
    return err


def write_points(path, count, seed):
    pts = SeededRng(seed).normal((count, 2))
    path.write_text("".join(f"{x},{y}\n" for x, y in pts))
    return str(path)


def test_eval_malformed_csv_one_line_error(tmp_path, capsys):
    real = write_points(tmp_path / "real.csv", 20, 1)
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,0.2\n0.3,oops\n")
    assert cli.main(["eval", "--real", real, "--fake", str(bad)]) == 2
    assert "bad.csv" in assert_one_line_error(capsys, "ParseError")


def test_eval_empty_csv_one_line_error(tmp_path):
    # a subprocess, so numpy's warnings reach stderr as a user would see them
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    src_dir = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "ufs_lab.cli", "eval", "--real", str(empty),
                           "--fake", str(empty)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith(f"ufs-lab: ParseError: {empty}: ")


def test_eval_missing_file_one_line_error(tmp_path, capsys):
    real = write_points(tmp_path / "real.csv", 20, 1)
    assert cli.main(["eval", "--real", real, "--fake", str(tmp_path / "absent.csv")]) == 2
    assert "absent.csv" in assert_one_line_error(capsys, "FileNotFoundError")


def test_eval_fewer_samples_than_k_one_line_error(tmp_path, capsys):
    real = write_points(tmp_path / "real.csv", 20, 1)
    fake = write_points(tmp_path / "fake.csv", 3, 2)
    assert cli.main(["eval", "--real", real, "--fake", fake, "-k", "3"]) == 2
    assert "k=3" in assert_one_line_error(capsys, "ContractError")


@pytest.mark.parametrize("k", [0, -1])
def test_eval_k_below_one_one_line_error(tmp_path, capsys, k):
    real = write_points(tmp_path / "real.csv", 20, 1)
    fake = write_points(tmp_path / "fake.csv", 20, 2)
    assert cli.main(["eval", "--real", real, "--fake", fake, "-k", str(k)]) == 2
    err = assert_one_line_error(capsys, "ContractError")
    assert f"k must be >= 1, got k={k}" in err and "sample counts" not in err


def test_eval_on_samples_of_different_shapes_one_line_error(tmp_path, capsys):
    # sum-pooled features grow with the image area, and points are no images
    idx16 = str(write_shapes_idx(tmp_path / "a.idx", count=12, seed=1))
    idx32 = str(write_shapes_idx(tmp_path / "b.idx", count=12, seed=2, size=32))
    points = write_points(tmp_path / "c.csv", 12, 3)
    dump = tmp_path / "emb"
    for real, fake, real_shape, fake_shape in ((idx16, idx32, "(1, 16, 16)", "(1, 32, 32)"),
                                               (points, idx16, "(2,)", "(1, 16, 16)")):
        assert cli.main(["eval", "--real", real, "--fake", fake, "-k", "2",
                         "--dump-embeddings", str(dump)]) == 2
        err = assert_one_line_error(capsys, "DimensionError")
        assert (f"{real} holds samples of shape {real_shape}, but {fake} holds samples of "
                f"shape {fake_shape}") in err
        assert not dump.exists()


def test_run_invalid_json_one_line_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"dataset": {"kind": "ring8"},')
    assert cli.main(["run", str(cfg_path)]) == 2
    assert_one_line_error(capsys, "ConfigError")


RING8_RUN = {"dataset": {"kind": "ring8"},
             "train": {"batch_size": 8, "n_critic": 1, "iterations": 1, "loss": {"kind": "hinge"}},
             "eval_every": 1, "eval_samples": 16}
UFS_ON = ["--set", 'train.ufs={"alpha": 0, "beta": 1, "epsilon": 1}']


@pytest.mark.parametrize("edit, args, key", [
    ({"nope": 1}, [], "unknown key config.nope"),
    ({"train": {"ufs": {"beta": 1.0, "epsilon": 1.0}}}, [], "config.train.ufs.alpha"),
    ({"train": {"batch_size": "64"}}, [], "config.train.batch_size"),
    ({"train": {"ufs": 5}}, [], "config.train.ufs"),
    ({"dataset": "ring8"}, [], "config.dataset"),
    ({}, ["--set", 'eval_every="5"'], "config.eval_every"),
    ({}, ["--set", "train.selection.anneal_fraction=0.0"], "config.train.selection: "),
    ({"dataset": {"kind": "synthetic_shapes", "instance_selection": {"retention_ratio": 0.0}}},
     [], "config.dataset.instance_selection: "),
    ({}, ["--set", 'train.ufs={"alpha": 0, "beta": 1, "epsilon": 1, "beta_anneal": '
          '{"beta_end": 1, "anneal_fraction": 0.0}}'],
     "config.train.ufs.beta_anneal: "),
    ({}, ["--set", 'train.ufs={"alpha": 0, "beta": 1, "epsilon": 1, "gamma": -1}'],
     "config.train.ufs: "),
    ({}, ["--set", 'train.loss.kind="lsgan"'],
     "config.train.loss: unknown loss kind 'lsgan'; the kinds are wgan_gp, hinge"),
    # a plain Wasserstein critic has neither weight clipping nor a gradient
    # penalty, and does not train; wgan_gp with gp_lambda 0 is its loss
    ({}, ["--set", 'train.loss={"kind": "wgan", "gp_lambda": 1.0}'],
     "config.train.loss: unknown loss kind 'wgan'; the kinds are wgan_gp, hinge"),
    ({}, ["--set", "train.batch_size=1"], "config.train: "),
    ({"dataset": {"kind": "ring9"}}, [], "config.dataset: "),
    ({}, ["--set", "eval_every=0"], "config: "),
    ({}, UFS_ON + ["--set", "train.ufs.gamma=NaN"], "config.train.ufs.gamma must be a finite"),
    ({}, ["--set", 'train.loss.kind="wgan_gp"', "--set", "train.loss.gp_lambda=NaN"],
     "config.train.loss.gp_lambda must be a finite"),
    ({}, UFS_ON + ["--set", "train.ufs.alpha=NaN"], "config.train.ufs.alpha must be a finite"),
    ({}, UFS_ON + ["--set", "train.ufs.epsilon=Infinity"],
     "config.train.ufs.epsilon must be a finite"),
], ids=["unknown-key", "missing-ufs-alpha", "batch-size-string", "ufs-int", "dataset-string",
        "override-eval-every-string", "range-SelectionConfig", "range-InstanceSelectionConfig",
        "range-BetaAnneal", "range-UfsConfig", "range-LossKind", "retired-wgan",
        "range-TrainConfig", "range-DatasetConfig", "range-ExperimentConfig", "nan-gamma",
        "nan-gp-lambda", "nan-alpha", "infinite-epsilon"])
def test_run_config_error_one_line(tmp_path, capsys, edit, args, key):
    cfg = dict(RING8_RUN, out_dir=str(tmp_path / "run"), **edit)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)] + args) == 2
    assert key in assert_one_line_error(capsys, "ConfigError")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("args, message", [
    (["--set", "dataset.num_shapes=0"], "num_shapes >= 1"),
    (["--set", "dataset.num_shapes=-3"], "num_shapes >= 1"),
    (["--set", "dataset.image_size=4"], "image_size >= 8"),
], ids=["no-shapes", "negative-shapes", "image-size-4"])
def test_run_bad_dataset_value_one_line_error(tmp_path, capsys, args, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(RING8_RUN, out_dir=str(tmp_path / "run"))))
    argv = ["run", str(cfg_path), "--set", 'dataset.kind="synthetic_shapes"'] + args
    assert cli.main(argv) == 2
    err = assert_one_line_error(capsys, "ConfigError")
    assert "config.dataset: " in err and message in err
    assert not (tmp_path / "run").exists()


# Keys the chosen kind does not read, each set to a value another kind reads.
POINT_UNREAD = {"instance_selection": {"retention_ratio": 0.5}, "image_size": 16,
                "num_shapes": 2048, "path": "nowhere.idx"}
UNREAD_DATASET_KEYS = [*[(kind, key, {key: value}) for kind in ("ring8", "grid25")
                         for key, value in POINT_UNREAD.items()],
                       ("synthetic_shapes", "path", {"path": "nowhere.idx"}),
                       ("idx_images", "image_size", {"path": "nowhere.idx", "image_size": 16}),
                       ("idx_images", "num_shapes", {"path": "nowhere.idx", "num_shapes": 2048})]
UNREAD_KEYS = [
    *[pytest.param({"kind": kind, key: value}, None, f"unknown key config.dataset.{key}",
                   id=f"{kind}-{key}")
      for kind, key, value in (("ring8", "radius", 2.0), ("grid25", "spacing", 2.0),
                               ("ring8", "sigma", 0.02), ("grid25", "sigma", 0.05),
                               ("synthetic_shapes", "sigma", 0.02))],
    *[pytest.param(dict(kind=kind, **block), None,
                   f"config.dataset: {key} is not read by dataset kind '{kind}'", id=f"{kind}-{key}")
      for kind, key, block in UNREAD_DATASET_KEYS],
    pytest.param(None, {"kind": "hinge", "gp_lambda": 50},
                 "config.train.loss: gp_lambda is not read by loss kind 'hinge'",
                 id="hinge-gp_lambda"),
]


@pytest.mark.parametrize("dataset, loss, message", UNREAD_KEYS)
def test_run_key_the_kind_does_not_read_one_line_error(tmp_path, capsys, dataset, loss, message):
    cfg = dict(RING8_RUN, out_dir=str(tmp_path / "run"))
    if dataset is not None:
        cfg["dataset"] = dataset
    if loss is not None:
        cfg["train"] = dict(cfg["train"], loss=loss)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert message in assert_one_line_error(capsys, "ConfigError")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("dataset, got", [
    ({"kind": "synthetic_shapes", "image_size": 14, "num_shapes": 8}, "14x14"),
    ({"kind": "idx_images", "path": "small.idx"}, "10x10"),
], ids=["shapes-14", "idx-10x10"])
def test_run_on_images_too_small_for_the_critic_one_line_error(tmp_path, capsys, dataset, got):
    ds.write_idx_images(np.zeros((4, 10, 10), np.uint8), tmp_path / "small.idx")
    if "path" in dataset:
        dataset = dict(dataset, path=str(tmp_path / dataset["path"]))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(RING8_RUN, dataset=dataset, out_dir=str(tmp_path / "run"))))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert f"at least 15x15 pixels, got {got}" in assert_one_line_error(capsys, "ContractError")
    assert not (tmp_path / "run").exists()


def test_run_on_empty_idx_file_one_line_error(tmp_path, capsys):
    idx_path = tmp_path / "empty.idx"
    ds.write_idx_images(np.zeros((0, 16, 16), np.uint8), idx_path)
    cfg = dict(RING8_RUN, dataset={"kind": "idx_images", "path": str(idx_path)},
               out_dir=str(tmp_path / "run"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert "n >= 1, got (0, 1, 16, 16)" in assert_one_line_error(capsys, "ContractError")
    assert not (tmp_path / "run").exists()


def test_cam_misshapen_checkpoint_one_line_error(tmp_path, capsys):
    cfg = config_from_dict({"dataset": {"kind": "synthetic_shapes"}, "train": {}})
    state = gan.init_trainer(cfg.train, *gan.default_models((1, 16, 16), SeededRng(0)))
    arrays, header = trainer_to_arrays(state, asdict(cfg))
    arrays["disc"] = arrays["disc"][:16]
    save_checkpoint(tmp_path / "bad.ufsl", arrays, header)
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=4)
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "bad.ufsl"),
                     "--input", str(idx_path), "--out", str(tmp_path / "cams")]) == 2
    assert "disc: expected shape (92801,), got (16,)" in assert_one_line_error(capsys, "ParseError")


def test_cam_negative_counter_checkpoint_one_line_error(tmp_path, capsys):
    cfg = config_from_dict({"dataset": {"kind": "synthetic_shapes"}, "train": {
        "batch_size": 4, "n_critic": 1, "ufs": {"alpha": 0.0, "beta": 1.0, "epsilon": 1.0}}})
    state = gan.init_trainer(cfg.train, *gan.default_models((1, 16, 16), SeededRng(0)))
    rng = SeededRng(1)
    gan.train_discriminator_step(state, rng.normal((4, 1, 16, 16)), rng)
    arrays, header = trainer_to_arrays(state, asdict(cfg))
    header.update({"run.iteration": -5, "adam_d.step": -3})
    save_checkpoint(tmp_path / "bad.ufsl", arrays, header)
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=4)
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "bad.ufsl"),
                     "--input", str(idx_path), "--out", str(tmp_path / "cams")]) == 2
    err = assert_one_line_error(capsys, "ParseError")
    assert "header entry 'run.iteration' should be a non-negative integer, got -5" in err
    assert not (tmp_path / "cams").exists()


def test_cam_on_embeddings_file_one_line_error(tmp_path, capsys):
    # a valid UFSL container that is not a trainer checkpoint
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=8, seed=1)
    dump = tmp_path / "emb"
    assert cli.main(["eval", "--real", str(idx_path), "--fake", str(idx_path),
                     "-k", "2", "--dump-embeddings", str(dump)]) == 0
    capsys.readouterr()
    assert cli.main(["cam", "--checkpoint", str(dump / "real_embeddings.ufsl"),
                     "--input", str(idx_path), "--out", str(tmp_path / "cams")]) == 2
    assert "'run.config'" in assert_one_line_error(capsys, "ParseError")


def test_cam_on_a_checkpoint_naming_the_wgan_loss_kind_one_line_error(tmp_path, capsys):
    cfg = config_from_dict({"dataset": {"kind": "synthetic_shapes"}, "train": {}})
    state = gan.init_trainer(cfg.train, *gan.default_models((1, 16, 16), SeededRng(0)))
    arrays, header = trainer_to_arrays(state, asdict(cfg))
    header["run.config"]["train"]["loss"] = {"kind": "wgan", "gp_lambda": None}
    save_checkpoint(tmp_path / "wgan.ufsl", arrays, header)
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=4)
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "wgan.ufsl"),
                     "--input", str(idx_path), "--out", str(tmp_path / "cams")]) == 2
    assert capsys.readouterr().err == ("ufs-lab: ConfigError: run.config.train.loss: unknown "
                                       "loss kind 'wgan'; the kinds are wgan_gp, hinge\n")
    assert not (tmp_path / "cams").exists()


def test_cam_on_version_3_checkpoint_one_line_error(tmp_path, capsys):
    # version 3: u32 array count, then per array its name, shape and float64 data
    v3 = b"UFSL" + struct.pack("<II", 3, 1) + struct.pack("<I13sII", 13, b"run.iteration", 1, 1)
    (tmp_path / "v3.ufsl").write_bytes(v3 + struct.pack("<d", 2.0))
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=4)
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "v3.ufsl"),
                     "--input", str(idx_path), "--out", str(tmp_path / "cams")]) == 2
    err = assert_one_line_error(capsys, "ParseError")
    assert "checkpoint version 3 is incompatible with reader version 5" in err
    assert not (tmp_path / "cams").exists()


def test_cam_on_version_4_checkpoint_one_line_error(tmp_path, capsys):
    # version 4: the same container, but each weight and bias an array of its
    # own (gen.00, gen.01, ..., disc.00, ...) beside the Adam moments
    cfg = config_from_dict({"dataset": {"kind": "synthetic_shapes"}, "train": {}})
    state = gan.init_trainer(cfg.train, *gan.default_models((1, 16, 16), SeededRng(0)))
    arrays, header = trainer_to_arrays(state, asdict(cfg))
    layers = [("gen", state.gen.net.specs, arrays.pop("gen")),
              ("disc", state.disc.body.specs + [nm.dense(128, 1)], arrays.pop("disc"))]
    v4 = {f"{prefix}.{i:02d}": a for prefix, specs, flat in layers
          for i, a in enumerate(a for p in nm.param_views(specs, flat) for a in p.values())}
    path = tmp_path / "v4.ufsl"
    save_checkpoint(path, dict(v4, **arrays), header)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (4).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=4)
    assert cli.main(["cam", "--checkpoint", str(path), "--input", str(idx_path),
                     "--out", str(tmp_path / "cams")]) == 2
    err = assert_one_line_error(capsys, "ParseError")
    assert "checkpoint version 4 is incompatible with reader version 5" in err
    assert not (tmp_path / "cams").exists()


def test_cam_on_point_checkpoint_one_line_error(tmp_path, capsys):
    cfg = {"dataset": {"kind": "ring8"},
           "train": {"batch_size": 8, "n_critic": 1, "iterations": 1, "loss": {"kind": "hinge"}},
           "eval_every": 1, "eval_samples": 16, "out_dir": str(tmp_path / "run")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == 0
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=4)
    capsys.readouterr()
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "run" / "checkpoint_000001.ufsl"),
                     "--input", str(idx_path), "--out", str(tmp_path / "cams")]) == 2
    assert "convolutional" in assert_one_line_error(capsys, "UnsupportedArchitectureError")


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_cam_limit_below_one_one_line_error(tmp_path, capsys, limit):
    cfg = config_from_dict({"dataset": {"kind": "synthetic_shapes"}, "train": {}})
    state = gan.init_trainer(cfg.train, *gan.default_models((1, 16, 16), SeededRng(0)))
    save_checkpoint(tmp_path / "t.ufsl", *trainer_to_arrays(state, asdict(cfg)))
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=4)
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "t.ufsl"), "--input", str(idx_path),
                     "--out", str(tmp_path / "cams"), "--limit", limit]) == 2
    assert f"--limit must be >= 1, got {limit}" in assert_one_line_error(capsys, "ContractError")
    assert not (tmp_path / "cams").exists()


def test_cam_upsample_below_one_one_line_error(tmp_path, capsys):
    cfg = config_from_dict({"dataset": {"kind": "synthetic_shapes"}, "train": {}})
    state = gan.init_trainer(cfg.train, *gan.default_models((1, 16, 16), SeededRng(0)))
    save_checkpoint(tmp_path / "t.ufsl", *trainer_to_arrays(state, asdict(cfg)))
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=3)
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "t.ufsl"), "--input", str(idx_path),
                     "--out", str(tmp_path / "cams"), "--upsample", "0"]) == 2
    assert "--upsample must be >= 1, got 0" in assert_one_line_error(capsys, "ContractError")
    assert not (tmp_path / "cams").exists()


def test_cam_on_empty_idx_file_one_line_error(tmp_path, capsys):
    cfg = config_from_dict({"dataset": {"kind": "synthetic_shapes"}, "train": {}})
    state = gan.init_trainer(cfg.train, *gan.default_models((1, 16, 16), SeededRng(0)))
    save_checkpoint(tmp_path / "t.ufsl", *trainer_to_arrays(state, asdict(cfg)))
    idx_path = tmp_path / "empty.idx"
    ds.write_idx_images(np.zeros((0, 16, 16), np.uint8), idx_path)
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "t.ufsl"), "--input", str(idx_path),
                     "--out", str(tmp_path / "cams")]) == 2
    assert "empty.idx: IDX file holds no images" in assert_one_line_error(capsys, "ParseError")
    assert not (tmp_path / "cams").exists()


@pytest.mark.parametrize("ufs_block", [None, {"alpha": 0.0, "beta": 1.0, "epsilon": 1.0}])
def test_cam_runs_the_critic_body_once(tmp_path, capsys, monkeypatch, ufs_block):
    train = {"batch_size": 4, "n_critic": 1}
    if ufs_block is not None:
        train["ufs"] = ufs_block
    cfg = config_from_dict({"dataset": {"kind": "synthetic_shapes"}, "train": train})
    state = gan.init_trainer(cfg.train, *gan.default_models((1, 16, 16), SeededRng(0)))
    rng = SeededRng(1)
    gan.train_discriminator_step(state, rng.normal((4, 1, 16, 16)), rng)  # fills the UFS stats
    save_checkpoint(tmp_path / "t.ufsl", *trainer_to_arrays(state, asdict(cfg)))
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=3)

    calls = []
    original = nm.forward_pass

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("ufs_lab")]:
        for key in [k for k, v in vars(module).items() if v is original]:
            monkeypatch.setattr(module, key, counted)
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "t.ufsl"), "--input", str(idx_path),
                     "--out", str(tmp_path / "cams")]) == 0
    assert len(calls) == 1
    names = sorted(p.name for p in (tmp_path / "cams").iterdir())
    assert len(names) == (3 if ufs_block is None else 9)
    assert ("no UFS mask" in capsys.readouterr().err) == (ufs_block is None)


@pytest.mark.parametrize("size", [12, 28, 40])
def test_cam_on_images_of_another_size_one_line_error(tmp_path, capsys, size):
    # the critic sum-pools, so its features grow with the image area, while the
    # stored statistics come from the checkpoint's own 16x16 batches
    cfg = config_from_dict({"dataset": {"kind": "synthetic_shapes"}, "train": {
        "batch_size": 4, "n_critic": 1, "ufs": {"alpha": 0.0, "beta": 1.0, "epsilon": 1.0}}})
    state = gan.init_trainer(cfg.train, *gan.default_models((1, 16, 16), SeededRng(0)))
    rng = SeededRng(1)
    gan.train_discriminator_step(state, rng.normal((4, 1, 16, 16)), rng)
    save_checkpoint(tmp_path / "t.ufsl", *trainer_to_arrays(state, asdict(cfg)))
    shapes = ds.synthetic_shapes(3, size, SeededRng(2))
    ds.write_idx_images(np.clip((shapes[:, 0] + 1.0) * 127.5, 0, 255).astype(np.uint8),
                        tmp_path / "a.idx")
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "t.ufsl"),
                     "--input", str(tmp_path / "a.idx"), "--out", str(tmp_path / "cams")]) == 2
    err = assert_one_line_error(capsys, "DimensionError")
    assert f"(1, {size}, {size})" in err and "(1, 16, 16)" in err
    assert not (tmp_path / "cams").exists()


@pytest.mark.parametrize("row", ["nan,1.0", "inf,1.0"])
def test_eval_non_finite_point_one_line_error(tmp_path, capsys, row):
    real = write_points(tmp_path / "real.csv", 20, 1)
    fake = tmp_path / "fake.csv"
    fake.write_text(Path(write_points(fake, 19, 2)).read_text() + row + "\n")
    assert cli.main(["eval", "--real", real, "--fake", str(fake)]) == 2
    assert "fake.csv: point CSV holds a non-finite value" in assert_one_line_error(
        capsys, "ParseError")
    assert capsys.readouterr().out == ""


def test_run_into_a_used_out_dir_one_line_error(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(RING8_RUN, out_dir=str(out))))
    assert cli.main(["run", str(cfg_path), "--set", "train.iterations=4"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "checkpoint_000004.ufsl" in before
    capsys.readouterr()
    assert cli.main(["run", str(cfg_path), "--set", "train.iterations=2"]) == 2
    assert f"out_dir {out} is not empty" in assert_one_line_error(capsys, "ConfigError")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_run_into_an_empty_out_dir(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(RING8_RUN, out_dir=str(out))))
    assert cli.main(["run", str(cfg_path)]) == 0
    assert (out / "checkpoint_000001.ufsl").exists()
