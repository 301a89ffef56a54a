#!/usr/bin/env python3
"""Time the k-NN metrics at the sizes the presets and the bench use.

For 500 and 8000 2-d points (the bench's ring8 pool and the presets' pool)
and for 64 points in 64-d (an image evaluation window in the embedder's
space), it prints the fastest of several timed calls of
metrics.manifold_metrics, that time per distance pair, and the minor page
faults per call. Each call scores a fake set against a real set of the same
size whose ball bounds are computed once beforehand, as the experiment loop
does, so a call computes N^2 + M*N pairs.

Then, on ring8 draws of 500 and 8000 points, it prints the fastest call of
metrics.ball_bounds at k = 1, 3, 5 and 10 (each unit of k costs one more
pass over every row block, so the k where it stops beating a partition
shows here) and of metrics.mode_coverage against the eight ring centres.
Run it as

    PYTHONPATH=src python scripts/knn_probe.py

To compare two trees, alternate the invocations (parent, change, parent,
...) and compare the median of each side's runs: two batches run one after
the other can differ by more than a change does, even in an unchanged BLAS
call.
"""

import resource
import time

from ufs_lab.datasets import DatasetConfig, make_dataset
from ufs_lab.metrics import MANIFOLD_K, ball_bounds, manifold_metrics, mode_coverage
from ufs_lab.numerics import SeededRng

CASES = ((500, 2), (8000, 2), (64, 64))  # (points per set, dimension)
SELECTION_SIZES = (500, 8000)  # ring8 points
BOUND_KS = (1, 3, 5, 10)
MIN_CALLS = 5
MIN_SECONDS = 0.5


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def best_call(call) -> tuple:
    """(fastest call in seconds, minor faults per call) over at least
    MIN_CALLS calls timed for at least MIN_SECONDS, after one untimed call."""
    call()
    best, calls, faults, start = float("inf"), 0, 0, time.perf_counter()
    while calls < MIN_CALLS or time.perf_counter() - start < MIN_SECONDS:
        f0, t0 = minor_faults(), time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
        faults += minor_faults() - f0
        calls += 1
    return best, faults / calls


def main():
    rng = SeededRng(0)
    print(f"manifold_metrics, k={MANIFOLD_K}")
    print(f"{'points':>7}{'dim':>5}  {'ms/call':>9}  {'ns/pair':>8}  {'faults/call':>11}")
    for n, d in CASES:
        real, fake = rng.normal((n, d)), rng.normal((n, d))
        bounds = ball_bounds(real, MANIFOLD_K)
        seconds, faults = best_call(lambda: manifold_metrics(real, fake, MANIFOLD_K, bounds))
        pairs = 2 * n * n
        print(f"{n:>7}{d:>5}  {seconds * 1e3:9.3f}  {seconds / pairs * 1e9:8.3f}  {faults:11.1f}")

    ring8 = make_dataset(DatasetConfig(kind="ring8"), rng)
    print("\nring8 points: ms per call")
    print(f"{'points':>7}" + "".join(f"{f'bounds k={k}':>14}" for k in BOUND_KS)
          + f"{'mode_coverage':>15}")
    for n in SELECTION_SIZES:
        points = ring8.sample(n, rng)
        row = [best_call(lambda: ball_bounds(points, k))[0] for k in BOUND_KS]
        row.append(best_call(lambda: mode_coverage(points, ring8.centers, ring8.sigma))[0])
        print(f"{n:>7}" + "".join(f"{s * 1e3:14.3f}" for s in row[:-1]) + f"{row[-1] * 1e3:15.3f}")


if __name__ == "__main__":
    main()
