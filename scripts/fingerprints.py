#!/usr/bin/env python3
"""Print determinism fingerprints of short preset runs, for comparing two trees.

Runs, one after another in a temporary directory: the four ring8 presets cut
to 300 iterations (evaluation every 100 on 2000 samples), the ring8_topk_ufs
preset on grid25 cut the same way, the ring8_ufs preset with the hinge loss
cut the same way (ring8_ufs_hinge), and one 20-iteration 16x16
synthetic_shapes run with WGAN-GP, UFS and top-k at batch 16. For each
run it prints the sha256 of the metrics CSV without its wall_seconds column
and of the last samples dump, then, on a line of its own, the sha256 of the
trainer state restored from the run's last checkpoint (its counters and the
arrays `harness.trainer_to_arrays` gives for it, not the file's bytes, so a
change of the checkpoint format that restores the same state keeps it).
Last, it runs `ufs-lab cam` on the shapes16 run's last checkpoint with 8
synthetic shapes and prints its exit status, the number of PGMs it writes,
and the sha256 of the float maps `compute_cam` gives for the same images
and restored state (every 16-px map is 1x1, so its min-max scaled PGM is a
constant 128 whatever the map holds). A refactor that keeps behaviour
prints the same lines before and after:

    PYTHONPATH=src python scripts/fingerprints.py
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np

from ufs_lab import cli
from ufs_lab.attribution import compute_cam
from ufs_lab.datasets import load_idx_images, synthetic_shapes, write_idx_images
from ufs_lab.harness import (config_from_dict, load_checkpoint, load_config,
                             read_csv_without_wall_seconds, run_experiment, trainer_from_arrays,
                             trainer_to_arrays)
from ufs_lab.numerics import SeededRng

PRESETS = ("ring8_baseline", "ring8_ufs", "ring8_topk", "ring8_topk_ufs")
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHAPES16 = {
    "dataset": {"kind": "synthetic_shapes", "image_size": 16, "num_shapes": 256},
    "train": {
        "batch_size": 16,
        "iterations": 20,
        "seed": 7,
        "loss": {"kind": "wgan_gp", "gp_lambda": 1.0},
        "ufs": {"alpha": 0.0, "beta": 1.0, "epsilon": 1.0, "gamma": 0.0001},
        "selection": {"mode": "top", "k_start": 16, "k_end": 8, "anneal_fraction": 1.0},
    },
    "eval_every": 10,
    "eval_samples": 64,
}
CAM_IMAGES = 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(cfg) -> str:
    """`status csv=<sha256> samples=<sha256>` of one run; its progress line is
    swallowed, since it names the temporary directory."""
    with contextlib.redirect_stdout(io.StringIO()):
        result = run_experiment(cfg)
    last_dump = sorted(result.out_dir.glob("samples_*"))[-1]
    return (f"status={result.status} "
            f"csv={sha256(read_csv_without_wall_seconds(result.metrics_path).encode())} "
            f"samples={sha256(last_dump.read_bytes())}")


def state_digest(run_dir: Path) -> str:
    """sha256 of the trainer state restored from the run's last checkpoint: its
    counters (iteration, both Adam steps, whether feature statistics exist),
    then each array `trainer_to_arrays` gives a checkpoint, in order."""
    _, state = trainer_from_arrays(*load_checkpoint(sorted(run_dir.glob("checkpoint_*"))[-1]))
    counters = (state.t, state.adam_g.step, state.adam_d.step, state.stats is not None)
    digest = hashlib.sha256(repr(counters).encode())
    for arr in trainer_to_arrays(state, {})[0].values():
        digest.update(arr.tobytes())
    return digest.hexdigest()


def cam_fingerprint(run_dir: Path) -> str:
    """`status=<code> maps=<count> cam=<sha256>` of `ufs-lab cam` on the run's
    last checkpoint: its exit code, the PGMs it writes, and the float maps
    compute_cam gives for the images it reads, hashed key and bytes in key
    order."""
    shapes = synthetic_shapes(CAM_IMAGES, SHAPES16["dataset"]["image_size"], SeededRng(0))
    idx = run_dir / "cam_input.idx"
    write_idx_images(np.clip((shapes[:, 0] + 1.0) * 127.5, 0, 255).astype(np.uint8), idx)
    checkpoint = sorted(run_dir.glob("checkpoint_*"))[-1]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["cam", "--checkpoint", str(checkpoint), "--input", str(idx),
                         "--out", str(run_dir / "cams"), "--run-id", "cam"])
    _, state = trainer_from_arrays(*load_checkpoint(checkpoint))
    images = load_idx_images(idx)[:CAM_IMAGES]
    digest = hashlib.sha256()
    for key, values in compute_cam(state, images).items():
        digest.update(key.encode() + values.tobytes())
    pgms = list((run_dir / "cams").glob("*.pgm"))
    return f"status={code} maps={len(pgms)} cam={digest.hexdigest()}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cut = ["train.iterations=300", "eval_every=100", "eval_samples=2000"]
        runs = [(name, load_config(CONFIG_DIR / f"{name}.json", [f"out_dir={tmp}/{name}"] + cut))
                for name in PRESETS]
        runs.append(("grid25", load_config(CONFIG_DIR / "ring8_topk_ufs.json",
                                           [f"out_dir={tmp}/grid25", 'dataset.kind="grid25"']
                                           + cut)))
        runs.append(("ring8_ufs_hinge", load_config(CONFIG_DIR / "ring8_ufs.json",
                                                    [f"out_dir={tmp}/ring8_ufs_hinge",
                                                     'train.loss={"kind": "hinge"}'] + cut)))
        runs.append(("shapes16", config_from_dict(dict(SHAPES16, out_dir=f"{tmp}/shapes16"))))
        for name, cfg in runs:
            print(f"{name} {fingerprint(cfg)}", flush=True)
            print(f"{name}_state state={state_digest(Path(cfg.out_dir))}", flush=True)
        print(f"shapes16_cam {cam_fingerprint(Path(tmp) / 'shapes16')}", flush=True)


if __name__ == "__main__":
    main()
