#!/usr/bin/env python3
"""Closed-loop benchmark of ufs-lab experiments.

    python3 perfbench/run.py --workload ring8_train --seed 1 --seconds 40 --trace 0

Runs `harness.run_experiment` on the workload's config (perfbench/workloads.json)
in this process, one run after another, until the next run would end past
--seconds (at least two runs). Training seeds come from --seed; runs go in
pairs with the same seed, and the pair's metrics.csv fingerprints must match.
Each run must end with status ok and finite metric rows.

With --trace 0 the last line of stdout holds the end-to-end metrics. With
--trace 1 runs alternate untraced and traced on the same seed, and the last
line holds per-layer metrics from the traced runs plus the tracing overhead.
Details, the environment and the spans go to .perfbench_out/ at the root of
the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_RUNS = 2
# One BLAS thread: the workloads' matrices are small, and a second thread gave
# no speed-up on a 2-CPU host while it kept the other CPU spinning.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin BLAS threads; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def train_seed(workload: str, seed: int, pair: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{pair}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def environment(threads: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def high_percentile(values) -> tuple:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it,
    else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}", ordered[math.ceil(p / 100 * n) - 1]
    return "max", ordered[-1]


def summarize(values) -> dict:
    label, tail = high_percentile(values)
    return {"median": statistics.median(values), label: tail, "n": len(values)}


# --- one run ------------------------------------------------------------------ #


def read_rows(ufs_lab, path: Path) -> list:
    lines = path.read_text().splitlines()
    if lines[0] != ufs_lab.harness.CSV_HEADER:
        raise ValueError(f"metrics.csv header changed: {lines[0]!r}")
    names = lines[0].split(",")
    return [dict(zip(names, map(float, line.split(",")))) for line in lines[1:]]


def check_rows(rows: list, cfg: dict, points: bool) -> None:
    """Status-independent checks of metrics.csv: eval schedule and finite values."""
    iterations, every = cfg["train"]["iterations"], cfg["eval_every"]
    expected = sorted({0, iterations} | set(range(every, iterations + 1, every)))
    got = [int(r["iteration"]) for r in rows]
    if got != expected:
        raise ValueError(f"evaluation rows at {got}, expected {expected}")
    columns = ["frechet", "precision", "recall", "density", "coverage", "wall_seconds"]
    if points:
        columns += ["covered_modes", "hq_fraction"]
    for r in rows:
        names = columns + (["L_D", "L_G"] if r["iteration"] > 0 else [])
        bad = [c for c in names if not math.isfinite(r[c])]
        if bad:
            raise ValueError(f"non-finite {bad} at iteration {int(r['iteration'])}")


def render_cams(ufs_lab, cam: dict, size: int, checkpoint: Path, seed: int, out: Path) -> int:
    """`ufs-lab cam` on the final checkpoint; returns the number of maps checked."""
    import numpy as np

    images = ufs_lab.datasets.synthetic_shapes(cam["images"], size, ufs_lab.SeededRng(seed))
    u8 = np.clip((images[:, 0] + 1.0) * 127.5, 0, 255).astype(np.uint8)
    idx = out / "cam_input.idx"
    ufs_lab.datasets.write_idx_images(u8, idx)
    with contextlib.redirect_stdout(io.StringIO()):
        code = ufs_lab.cli.main(["cam", "--checkpoint", str(checkpoint), "--input", str(idx),
                                 "--out", str(out / "cams"), "--limit", str(cam["images"]),
                                 "--upsample", str(cam["upsample"]), "--run-id", "cam"])
    if code != 0:
        raise ValueError(f"ufs-lab cam exited with {code}")
    maps = sorted((out / "cams").glob("cam_*.pgm"))
    if len(maps) != 3 * cam["images"]:
        raise ValueError(f"ufs-lab cam wrote {len(maps)} maps, expected {3 * cam['images']}")
    for path in maps:
        values = ufs_lab.attribution.read_pgm(path)
        if values.size == 0 or values.shape[0] % cam["upsample"] or not np.isfinite(values).all():
            raise ValueError(f"{path.name}: bad map of shape {values.shape}")
    return len(maps)


def run_once(ufs_lab, spans, spec: dict, cfg: dict, seed: int, out: Path,
             traced: bool) -> dict:
    """One experiment (plus CAMs where the workload asks), timed and checked."""
    cfg = copy.deepcopy(cfg)
    cfg["train"]["seed"] = seed
    cfg["out_dir"] = str(out)
    shutil.rmtree(out, ignore_errors=True)
    record = {"seed": seed, "traced": traced, "ok": False}
    points = cfg["dataset"]["kind"] in ("ring8", "grid25")
    patches = spans.Patches()
    probe = spans.Probe()
    tracer = spans.Tracer() if traced else None
    probe.install(patches)
    if tracer is not None:
        tracer.install(patches)
    try:
        config = ufs_lab.harness.config_from_dict(cfg)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            result = ufs_lab.harness.run_experiment(config)
        total = time.perf_counter() - start
        rows = read_rows(ufs_lab, result.metrics_path)
        record["run_s"] = rows[-1]["wall_seconds"]
        record["setup_s"] = total - record["run_s"]
        record["iter_s"] = probe.iter_s
        record["eval_s"] = [rows[0]["wall_seconds"]] + probe.eval_s
        record["fingerprint"] = hashlib.sha256(
            ufs_lab.harness.read_csv_without_wall_seconds(result.metrics_path).encode()).hexdigest()
        record["frechet_final"] = rows[-1]["frechet"]
        record["coverage_final"] = rows[-1]["coverage"]
        record["covered_modes_final"] = rows[-1]["covered_modes"] if points else None
        if result.status != "ok":
            raise ValueError(f"run status {result.status}")
        check_rows(rows, cfg, points)
        if len(probe.iter_s) != cfg["train"]["iterations"] or len(record["eval_s"]) != len(rows):
            raise ValueError(f"timed {len(probe.iter_s)} iterations and "
                             f"{len(record['eval_s'])} evaluation windows")
        if "cam" in spec:
            ckpt = out / f"checkpoint_{cfg['train']['iterations']:06d}.ufsl"
            record["cam_maps"] = render_cams(ufs_lab, spec["cam"], cfg["dataset"]["image_size"],
                                             ckpt, seed, out)
        record["ok"] = True
    except Exception as exc:  # a failed run is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        patches.restore()
        shutil.rmtree(out, ignore_errors=True)
    if tracer is not None:
        record["layers"] = tracer.layer_stats()
        record["counts"] = dict(tracer.counts)
        record["spans"] = tracer.spans
    return record


def closed_loop(ufs_lab, spans, name: str, spec: dict, seed: int, seconds: float,
                trace: bool, out: Path) -> list:
    """Start runs back to back until the next one would end past `seconds`.

    Run i uses the seed of pair i // 2; with tracing, the second run of each
    pair is the traced one.
    """
    runs = []
    begin = time.perf_counter()
    while True:
        if len(runs) >= MIN_RUNS and len(runs) % (2 if trace else 1) == 0:
            typical = statistics.median(r["wall"] for r in runs)
            if time.perf_counter() - begin + typical > seconds:
                break
        t0 = time.perf_counter()
        record = run_once(ufs_lab, spans, spec, spec["config"], train_seed(name, seed, len(runs) // 2),
                          out / "run", trace and len(runs) % 2 == 1)
        record["wall"] = time.perf_counter() - t0
        runs.append(record)
    first = {}
    for r in runs:
        if r["ok"]:
            expected = first.setdefault(r["seed"], r["fingerprint"])
            if r["fingerprint"] != expected:
                r["ok"] = False
                r["error"] = f"fingerprint {r['fingerprint'][:16]} differs from {expected[:16]}"
    return runs


# --- reports ------------------------------------------------------------------- #


def end_to_end(runs: list) -> tuple:
    """The bounded metrics, and the detail lines behind them.

    The host slows by up to twice for tens of seconds at a time, so a median
    or mean over one invocation follows how long it spent slowed. Time per
    iteration and per evaluation window is therefore the fastest of the
    invocation's hundreds of short samples: the program's own cost. Set-up
    time is the median over runs. The whole training clock (`run_s`) is
    reported as a detail: a run lasts seconds and cannot miss the slow spells.
    """
    good = [r for r in runs if r["ok"] and not r["traced"]]
    samples = {
        "setup_s": [r["setup_s"] for r in good],
        "run_s": [r["run_s"] for r in good],
        "iter_ms": [1000.0 * s for r in good for s in r["iter_s"]],
        "eval_s": [s for r in good for s in r["eval_s"]],
    }
    details = {k: summarize(v) for k, v in samples.items()}
    for k in ("iter_ms", "eval_s"):
        details[k]["min"] = min(samples[k])
    metrics = {
        "setup_s": {"value": details["setup_s"]["median"], "unit": "s"},
        "iter_ms": {"value": details["iter_ms"]["min"], "unit": "ms"},
        "eval_s": {"value": details["eval_s"]["min"], "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "ok_share": {"value": sum(r["ok"] for r in runs) / len(runs), "unit": "share"},
    }
    return metrics, details


def per_layer(runs: list, spans) -> dict:
    traced = [r for r in runs if r["ok"] and r["traced"]]
    untraced = [r for r in runs if r["ok"] and not r["traced"]]
    metrics = {}

    def put(name, values, unit):
        metrics[name] = {"value": statistics.median(values), "unit": unit}

    for name in spans.LAYER_NAMES:
        put(f"{name}.calls", [r["layers"][name]["calls"] for r in traced], "count")
        put(f"{name}.total_s", [r["layers"][name]["total_s"] for r in traced], "s")
        put(f"{name}.self_s", [r["layers"][name]["self_s"] for r in traced], "s")
    for name in spans.CONV_PRIMITIVES:
        put(f"{name}.gflop", [r["counts"].get(f"{name}.gflop", 0.0) for r in traced], "GFLOP")
        put(f"{name}.mbytes", [r["counts"].get(f"{name}.mbytes", 0.0) for r in traced], "MB")
        put(f"{name}.gflop_per_s",
            [r["counts"].get(f"{name}.gflop", 0.0) / r["layers"][name]["total_s"]
             if r["layers"][name]["total_s"] > 0 else 0.0 for r in traced], "GFLOP/s")
    put("metrics.manifold_metrics.pairs",
        [r["counts"]["metrics.manifold_metrics.pairs"] / r["layers"]["metrics.manifold_metrics"]["calls"]
         for r in traced], "count")
    put("harness.save_checkpoint.bytes", [r["counts"]["harness.save_checkpoint.bytes"] for r in traced],
        "bytes")
    # generator steps without selection give every sample a gradient
    kept = []
    for r in traced:
        steps = r["layers"]["gan.train_generator_step"]["calls"]
        selected = r["layers"]["selection.select_indices"]["calls"]
        kept.append((r["counts"].get("selection.kept_share_sum", 0.0) + steps - selected) / steps)
    put("selection.kept_fraction", kept, "share")
    # the shares that show each workload's purpose
    put("trace.manifold_share_of_run",
        [r["layers"]["metrics.manifold_metrics"]["self_s"] / r["run_s"] for r in traced], "share")
    put("trace.metrics_share_of_run",
        [sum(v["self_s"] for k, v in r["layers"].items() if k.startswith("metrics."))
         / r["run_s"] for r in traced], "share")
    put("trace.conv_share_of_train",
        [sum(r["layers"][k]["train_self_s"] for k in spans.CONV_PRIMITIVES)
         / sum(r["layers"][k]["total_s"] for k in spans.TRAIN_STEPS) for r in traced], "share")
    traced_run = statistics.median(r["run_s"] for r in traced)
    untraced_run = statistics.median(r["run_s"] for r in untraced)
    metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
    metrics["trace.untraced_run_s"] = {"value": untraced_run, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_run / untraced_run - 1.0), "unit": "%"}
    return metrics


def module_shares(runs: list, spans) -> dict:
    """Per module, median over traced runs: self seconds in the whole run
    (set-up and CAMs included) and inside training steps, the latter also as
    a share of the training time."""
    traced = [r for r in runs if r["ok"] and r["traced"]]
    modules = {}
    for name in spans.LAYER_NAMES:
        modules.setdefault(name.split(".")[0], []).append(name)
    table = {}
    for module, names in modules.items():
        whole = [sum(r["layers"][n]["self_s"] for n in names) for r in traced]
        train = [sum(r["layers"][n]["train_self_s"] for n in names) for r in traced]
        share = [t / sum(r["layers"][k]["total_s"] for k in spans.TRAIN_STEPS)
                 for t, r in zip(train, traced)]
        table[module] = {"self_s": statistics.median(whole),
                         "train_self_s": statistics.median(train),
                         "share_of_train_s": statistics.median(share)}
    return table


def write_spans(path: Path, runs: list, spans) -> None:
    with open(path, "w") as fh:
        fh.write("run,name,start_s,end_s,parent\n")
        for i, r in enumerate(runs):
            for nid, start, end, parent in r.get("spans", ()):
                fh.write(f"{i},{spans.LAYER_NAMES[nid]},{start!r},{end!r},{parent}\n")


def main(argv=None) -> int:
    workloads = json.loads((BENCH_DIR / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        import ufs_lab
        import ufs_lab.cli
    except ImportError as exc:
        print(f"perfbench: cannot import ufs_lab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(ufs_lab.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: ufs_lab was imported from {ufs_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans

    spec = workloads[args.workload]
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment(threads)
    print("env " + json.dumps(env))

    warm_cfg = ufs_lab.harness.apply_overrides(copy.deepcopy(spec["config"]), spec["warmup"])
    warm = run_once(ufs_lab, spans, spec, warm_cfg, 0, out / "warmup", False)
    if not warm["ok"]:
        print(f"perfbench: warm-up run failed: {warm['error']}", file=sys.stderr)
        return 1

    runs = closed_loop(ufs_lab, spans, args.workload, spec, args.seed, args.seconds,
                       bool(args.trace), out)
    for i, r in enumerate(runs):
        status = "ok" if r["ok"] else f"FAILED {r['error']}"
        print(f"run {i} seed={r['seed']} traced={int(r['traced'])} wall_s={r['wall']:.3f} "
              f"fingerprint={r.get('fingerprint', '-')} frechet_final={r.get('frechet_final')} "
              f"coverage_final={r.get('coverage_final')} "
              f"covered_modes_final={r.get('covered_modes_final')} {status}")
    failed = sum(not r["ok"] for r in runs)
    for traced in ({False, True} if args.trace else {False}):
        if not any(r["ok"] and r["traced"] == traced for r in runs):
            print(f"perfbench: every {'traced' if traced else 'untraced'} run failed",
                  file=sys.stderr)
            return 1

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "config": spec["config"],
              "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs]}
    if args.trace:
        metrics = per_layer(runs, spans)
        report["modules"] = module_shares(runs, spans)
        for module, row in report["modules"].items():
            print(f"module {module} " + " ".join(f"{k}={v:.4g}" for k, v in row.items()))
        write_spans(out / "spans.csv", runs, spans)
    else:
        metrics, details = end_to_end(runs)
        report["end_to_end"] = details
        for name, d in details.items():
            print(f"{name} " + " ".join(f"{k}={v}" for k, v in d.items()))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in declared) != sorted(metrics):
        print("perfbench: reported metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    report["metrics"] = metrics
    (out / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
