"""Command line entry points: run / eval / cam / select."""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .attribution import compute_cam, save_attribution_maps
from .datasets import load_idx_images
from .errors import (ConfigError, ContractError, DimensionError, NumericError, ParseError,
                     UnsupportedArchitectureError)
from .harness import (load_checkpoint, load_config, run_experiment, save_checkpoint,
                      trainer_from_arrays)
from .metrics import MANIFOLD_K, fit_gaussian, frechet_distance, manifold_metrics, measure
from .selection import (COVARIANCE_MODES, InstanceSelectionConfig, instance_select,
                        write_index_file)


def _load_samples(path: str) -> np.ndarray:
    """Point CSVs as (n, d) points, IDX files as normalized (n, 1, h, w) images."""
    p = Path(path)
    if p.suffix.lower() == ".idx" or p.read_bytes()[:2] == b"\x00\x00":
        return load_idx_images(p)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data": raised below
            samples = np.loadtxt(p, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: not a numeric point CSV: {exc}") from exc
    if samples.size == 0:
        raise ParseError(f"{path}: point CSV has no data rows")
    if not np.isfinite(samples).all():
        raise ParseError(f"{path}: point CSV holds a non-finite value")
    return samples


def _cmd_run(args) -> int:
    result = run_experiment(load_config(args.config, args.set or ()))
    return 0 if result.status == "ok" else 1


def _cmd_eval(args) -> int:
    real, fake = _load_samples(args.real), _load_samples(args.fake)
    # sum-pooled image features grow with the image area, so only like shapes compare
    if real.shape[1:] != fake.shape[1:]:
        raise DimensionError(f"{args.real} holds samples of shape {real.shape[1:]}, but "
                             f"{args.fake} holds samples of shape {fake.shape[1:]}")
    real, space = measure(real)
    fake, _ = measure(fake)
    out = {"space": space, "frechet": frechet_distance(fit_gaussian(real), fit_gaussian(fake))}
    out.update(vars(manifold_metrics(real, fake, args.k)))  # precision, recall, density, coverage
    if args.dump_embeddings:
        target = Path(args.dump_embeddings)
        target.mkdir(parents=True, exist_ok=True)
        for name, points in (("real", real), ("fake", fake)):
            save_checkpoint(target / f"{name}_embeddings.ufsl", {"embeddings": points})
    print(json.dumps(out, indent=2))
    return 0


def _cmd_cam(args) -> int:
    if args.limit < 1:  # a slice bound below 1 would drop images, not cap them
        raise ContractError(f"--limit must be >= 1, got {args.limit}")
    if args.upsample < 1:
        raise ContractError(f"--upsample must be >= 1, got {args.upsample}")
    images = load_idx_images(args.input)[:args.limit]
    if len(images) == 0:
        raise ParseError(f"{args.input}: IDX file holds no images")
    _, state = trainer_from_arrays(*load_checkpoint(args.checkpoint))
    # sum-pooled features grow with the image area; compute_cam refuses points
    if len(state.gen.data_shape) > 1 and images.shape[1:] != state.gen.data_shape:
        raise DimensionError(f"{args.input}: images of shape {images.shape[1:]}, but the "
                             f"checkpoint was trained on {state.gen.data_shape}")
    maps = compute_cam(state, images)
    if "cam_ufs" not in maps:
        print("note: checkpoint has no UFS mask (UFS off, or taken at iteration 0); "
              "writing plain maps only", file=sys.stderr)
    run_id = args.run_id or Path(args.checkpoint).stem
    written = save_attribution_maps(maps, args.out, run_id, args.upsample)
    print(f"wrote {len(written)} heatmaps to {args.out}")
    return 0


def _cmd_select(args) -> int:
    images = load_idx_images(args.dataset)
    cfg = InstanceSelectionConfig(retention_ratio=args.retention,
                                  embedder_seed=args.seed,
                                  covariance_mode=args.cov_mode)
    kept = instance_select(images, cfg)
    write_index_file(kept, args.out)
    print(f"kept {len(kept)} of {len(images)} samples -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ufs-lab",
                                     description="Desk-scale GAN laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted path, JSON value)")
    p_run.set_defaults(func=_cmd_run)

    p_eval = sub.add_parser("eval", help="metrics between two sample files")
    p_eval.add_argument("--real", required=True)
    p_eval.add_argument("--fake", required=True)
    p_eval.add_argument("-k", type=int, default=MANIFOLD_K)
    p_eval.add_argument("--dump-embeddings", default=None, metavar="DIR",
                        help="also write both sample sets as UFSL embedding files")
    p_eval.set_defaults(func=_cmd_eval)

    p_cam = sub.add_parser("cam", help="attribution heatmaps from a checkpoint")
    p_cam.add_argument("--checkpoint", required=True)
    p_cam.add_argument("--input", required=True, help="IDX image file")
    p_cam.add_argument("--out", required=True)
    p_cam.add_argument("--limit", type=int, default=8)
    p_cam.add_argument("--upsample", type=int, default=1)
    p_cam.add_argument("--run-id", default=None)
    p_cam.set_defaults(func=_cmd_cam)

    select_defaults = InstanceSelectionConfig()
    p_sel = sub.add_parser("select", help="prune a dataset by Gaussian log-density")
    p_sel.add_argument("--dataset", required=True, help="IDX image file")
    p_sel.add_argument("--retention", type=float, default=select_defaults.retention_ratio)
    p_sel.add_argument("--out", required=True)
    p_sel.add_argument("--seed", type=int, default=select_defaults.embedder_seed)
    p_sel.add_argument("--cov-mode", default=select_defaults.covariance_mode,
                       choices=COVARIANCE_MODES)
    p_sel.set_defaults(func=_cmd_select)
    return parser


def _report(exc: Exception, code: int) -> int:
    """One line on stderr in place of a traceback; returns the exit code."""
    message = " ".join(str(exc).split())
    print(f"ufs-lab: {type(exc).__name__}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, ContractError, DimensionError,
            UnsupportedArchitectureError, OSError) as exc:
        return _report(exc, 2)  # bad input, like argparse's usage errors
    except NumericError as exc:
        return _report(exc, 1)  # the computation itself broke down


if __name__ == "__main__":
    sys.exit(main())
