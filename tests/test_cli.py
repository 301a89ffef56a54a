import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ufs_lab import cli
from ufs_lab import datasets as ds
from ufs_lab import gan
from ufs_lab.harness import (config_from_dict, encode_config, load_checkpoint, save_checkpoint,
                             trainer_to_arrays)
from ufs_lab.metrics import fit_gaussian, frechet_distance, measure
from ufs_lab.numerics import SeededRng


def write_shapes_idx(path, count=24, seed=0):
    shapes = ds.synthetic_shapes(count, 16, SeededRng(seed))
    u8 = np.clip((shapes[:, 0] + 1.0) * 127.5, 0, 255).astype(np.uint8)
    ds.write_idx_images(u8, path)
    return path


def test_run_subcommand_with_overrides(tmp_path, capsys):
    cfg = {
        "dataset": {"kind": "ring8"},
        "train": {"batch_size": 8, "n_critic": 1, "iterations": 2, "seed": 0,
                  "loss": {"kind": "wgan"}},
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
    emb = load_checkpoint(dump / "real_embeddings.ufsl")["embeddings"]
    assert emb.shape == (12, 64)


def test_eval_on_idx_files_measures_as_the_run_does(tmp_path, capsys):
    paths = [write_shapes_idx(tmp_path / f"{name}.idx", count=12, seed=seed)
             for name, seed in (("a", 1), ("b", 2))]
    assert cli.main(["eval", "--real", str(paths[0]), "--fake", str(paths[1]), "-k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    (real, space), (fake, _) = (measure(ds.normalize_images(ds.load_idx_images(p)))
                                for p in paths)
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


def test_run_invalid_json_one_line_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"dataset": {"kind": "ring8"},')
    assert cli.main(["run", str(cfg_path)]) == 2
    assert_one_line_error(capsys, "ConfigError")


RING8_RUN = {"dataset": {"kind": "ring8"},
             "train": {"batch_size": 8, "n_critic": 1, "iterations": 1, "loss": {"kind": "wgan"}},
             "eval_every": 1, "eval_samples": 16}


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
    ({}, ["--set", 'train.loss.kind="lsgan"'], "config.train.loss: "),
    ({}, ["--set", "train.batch_size=1"], "config.train: "),
    ({"dataset": {"kind": "ring9"}}, [], "config.dataset: "),
    ({}, ["--set", "eval_every=0"], "config: "),
], ids=["unknown-key", "missing-ufs-alpha", "batch-size-string", "ufs-int", "dataset-string",
        "override-eval-every-string", "range-SelectionConfig", "range-InstanceSelectionConfig",
        "range-BetaAnneal", "range-UfsConfig", "range-LossKind", "range-TrainConfig",
        "range-DatasetConfig", "range-ExperimentConfig"])
def test_run_config_error_one_line(tmp_path, capsys, edit, args, key):
    cfg = dict(RING8_RUN, out_dir=str(tmp_path / "run"), **edit)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)] + args) == 2
    assert key in assert_one_line_error(capsys, "ConfigError")
    assert not (tmp_path / "run").exists()


def test_cam_misshapen_checkpoint_one_line_error(tmp_path, capsys):
    cfg = config_from_dict({"dataset": {"kind": "synthetic_shapes"}, "train": {}})
    state = gan.init_trainer(cfg.train, *gan.default_models((1, 16, 16), SeededRng(0)))
    arrays = trainer_to_arrays(state, encode_config(cfg))
    arrays["disc.00"] = arrays["disc.00"][:16]
    save_checkpoint(tmp_path / "bad.ufsl", arrays)
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=4)
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "bad.ufsl"),
                     "--input", str(idx_path), "--out", str(tmp_path / "cams")]) == 2
    assert "disc.00: expected shape (32, 1, 3, 3)" in assert_one_line_error(capsys, "ParseError")


def test_cam_on_embeddings_file_one_line_error(tmp_path, capsys):
    # a valid UFSL container that is not a trainer checkpoint
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=8, seed=1)
    dump = tmp_path / "emb"
    assert cli.main(["eval", "--real", str(idx_path), "--fake", str(idx_path),
                     "-k", "2", "--dump-embeddings", str(dump)]) == 0
    capsys.readouterr()
    assert cli.main(["cam", "--checkpoint", str(dump / "real_embeddings.ufsl"),
                     "--input", str(idx_path), "--out", str(tmp_path / "cams")]) == 2
    assert "'run.iteration'" in assert_one_line_error(capsys, "ParseError")


def test_cam_on_point_checkpoint_one_line_error(tmp_path, capsys):
    cfg = {"dataset": {"kind": "ring8"},
           "train": {"batch_size": 8, "n_critic": 1, "iterations": 1, "loss": {"kind": "wgan"}},
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
    save_checkpoint(tmp_path / "t.ufsl", trainer_to_arrays(state, encode_config(cfg)))
    idx_path = write_shapes_idx(tmp_path / "a.idx", count=4)
    assert cli.main(["cam", "--checkpoint", str(tmp_path / "t.ufsl"), "--input", str(idx_path),
                     "--out", str(tmp_path / "cams"), "--limit", limit]) == 2
    assert f"--limit must be >= 1, got {limit}" in assert_one_line_error(capsys, "ContractError")
    assert not (tmp_path / "cams").exists()
