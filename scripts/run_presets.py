#!/usr/bin/env python3
"""Run the four ring8 presets (baseline, +UFS, +Top-k, +Top-k+UFS) in sequence."""

import argparse
from pathlib import Path

from ufs_lab.errors import ConfigError
from ufs_lab.harness import load_config, run_experiment

PRESETS = ("ring8_baseline", "ring8_ufs", "ring8_topk", "ring8_topk_ufs")
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=None,
                        help="override the preset iteration budget")
    parser.add_argument("--out-root", default="runs", help="output directory root")
    args = parser.parse_args()

    for name in PRESETS:
        overrides = [f"out_dir={args.out_root}/{name}"]
        if args.iterations is not None:
            overrides.append(f"train.iterations={args.iterations}")
        try:
            result = run_experiment(load_config(CONFIG_DIR / f"{name}.json", overrides))
        except ConfigError as exc:  # a used --out-root, say: one line, not a traceback
            parser.exit(2, f"run_presets.py: {exc}\n")
        final = result.records[-1]
        print(f"{name}: status={result.status} final_frechet={final.frechet:.4f} "
              f"covered_modes={final.covered_modes}")


if __name__ == "__main__":
    main()
