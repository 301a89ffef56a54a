#!/usr/bin/env python3
"""Print determinism fingerprints of short preset runs, for comparing two trees.

Runs, one after another in a temporary directory: the four ring8 presets cut
to 300 iterations (evaluation every 100 on 2000 samples), and one 20-iteration
16x16 synthetic_shapes run with WGAN-GP, UFS and top-k at batch 16. For each
run it prints the sha256 of the metrics CSV without its wall_seconds column
and of the last samples dump. Checkpoints are left out, since they hold the
config. A refactor that keeps behaviour prints the same lines before and
after:

    PYTHONPATH=src python scripts/fingerprints.py
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from ufs_lab.harness import (config_from_dict, load_config, read_csv_without_wall_seconds,
                             run_experiment)

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


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESETS:
            cfg = load_config(CONFIG_DIR / f"{name}.json",
                              [f"out_dir={tmp}/{name}", "train.iterations=300",
                               "eval_every=100", "eval_samples=2000"])
            print(f"{name} {fingerprint(cfg)}", flush=True)
        cfg = config_from_dict(dict(SHAPES16, out_dir=f"{tmp}/shapes16"))
        print(f"shapes16 {fingerprint(cfg)}", flush=True)


if __name__ == "__main__":
    main()
