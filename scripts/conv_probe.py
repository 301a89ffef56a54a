#!/usr/bin/env python3
"""Time the conv primitives of numerics at the shapes the presets and the bench use.

For the default image critic's three 3x3 stride-2 layers (1->32 on 16x16,
32->64 on 7x7, 64->128 on 3x3) at 4, 12, 48 and 192 rows, and for the
random-feature embedder's two layers (1->32 on 16x16, 32->64 on 7x7) at 64
and 512 rows, it prints, for conv2d_forward, conv2d_weight_grad and
conv2d_input_grad, the fastest of several timed calls and that time per
multiply-add ("product": rows x out x ho x wo x in x 3 x 3, the same count
for all three). The critic runs its body over the stacked [real; fake;
x_hat] rows of a batch, so 12, 48 and 192 rows are batches 4, 16 and 64;
the embedder sees 64 rows per evaluation window and 512 at instance
selection, and runs only the forward. Run it as

    PYTHONPATH=src python scripts/conv_probe.py

To compare two trees, alternate the invocations (parent, change, parent,
...) and compare the median of each side's runs: two batches run one after
the other can differ by more than a change does, even in an unchanged BLAS
call.
"""

import time

from ufs_lab.numerics import SeededRng, conv2d_forward, conv2d_input_grad, conv2d_weight_grad

CRITIC = ((1, 32, 16), (32, 64, 7), (64, 128, 3))  # (in, out, input side)
EMBEDDER = CRITIC[:2]
CASES = ([("critic", rows, layer) for rows in (4, 12, 48, 192) for layer in CRITIC]
         + [("embedder", rows, layer) for rows in (64, 512) for layer in EMBEDDER])
MIN_CALLS = 5
MIN_SECONDS = 0.5


def best_call_seconds(fn, *args) -> float:
    """Fastest of at least MIN_CALLS calls, timed for at least MIN_SECONDS."""
    best, calls, start = float("inf"), 0, time.perf_counter()
    while calls < MIN_CALLS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
        calls += 1
    return best


def main():
    rng = SeededRng(0)
    print(f"{'net':9}{'rows':>5}  {'layer':>12}  {'op':>12}  {'ms/call':>9}  {'ns/product':>10}")
    for net, rows, (cin, cout, side) in CASES:
        x = rng.normal((rows, cin, side, side))
        kernel = rng.normal((cout, cin, 3, 3))
        side_out = (side - 3) // 2 + 1
        dy = rng.normal((rows, cout, side_out, side_out))
        products = rows * cout * side_out * side_out * cin * 9
        ops = [("forward", conv2d_forward, (x, kernel, 2))]
        if net == "critic":
            ops += [("weight_grad", conv2d_weight_grad, (x, dy, 2, 3, 3)),
                    ("input_grad", conv2d_input_grad, (dy, kernel, x.shape, 2))]
        layer = f"{cin}->{cout}@{side}"
        for op, fn, args in ops:
            seconds = best_call_seconds(fn, *args)
            print(f"{net:9}{rows:>5}  {layer:>12}  {op:>12}  {seconds * 1e3:9.3f}  "
                  f"{seconds / products * 1e9:10.2f}")


if __name__ == "__main__":
    main()
