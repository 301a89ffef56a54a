#!/usr/bin/env python3
"""Time metrics.manifold_metrics at the sizes the presets and the bench use.

For 500 and 8000 2-d points (the bench's ring8 pool and the presets' pool)
and for 64 points in 64-d (an image evaluation window in the embedder's
space), it prints the fastest of several timed calls, that time per
distance pair, and the minor page faults per call. Each call scores a fake
set against a real set of the same size whose ball bounds are computed once
beforehand, as the experiment loop does, so a call computes N^2 + M*N
pairs. Run it as

    PYTHONPATH=src python scripts/knn_probe.py

To compare two trees, alternate the invocations (parent, change, parent,
...) and compare the median of each side's runs: two batches run one after
the other can differ by more than a change does, even in an unchanged BLAS
call.
"""

import resource
import time

from ufs_lab.metrics import ball_bounds, manifold_metrics
from ufs_lab.numerics import SeededRng

CASES = ((500, 2), (8000, 2), (64, 64))  # (points per set, dimension)
K = 3
MIN_CALLS = 5
MIN_SECONDS = 0.5


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def best_call(real, fake, bounds) -> tuple:
    """(fastest call in seconds, minor faults per call) over at least
    MIN_CALLS calls timed for at least MIN_SECONDS, after one untimed call."""
    manifold_metrics(real, fake, K, bounds)
    best, calls, faults, start = float("inf"), 0, 0, time.perf_counter()
    while calls < MIN_CALLS or time.perf_counter() - start < MIN_SECONDS:
        f0, t0 = minor_faults(), time.perf_counter()
        manifold_metrics(real, fake, K, bounds)
        best = min(best, time.perf_counter() - t0)
        faults += minor_faults() - f0
        calls += 1
    return best, faults / calls


def main():
    rng = SeededRng(0)
    print(f"{'points':>7}{'dim':>5}  {'ms/call':>9}  {'ns/pair':>8}  {'faults/call':>11}")
    for n, d in CASES:
        real, fake = rng.normal((n, d)), rng.normal((n, d))
        seconds, faults = best_call(real, fake, ball_bounds(real, K))
        pairs = 2 * n * n
        print(f"{n:>7}{d:>5}  {seconds * 1e3:9.3f}  {seconds / pairs * 1e9:8.3f}  {faults:11.1f}")


if __name__ == "__main__":
    main()
