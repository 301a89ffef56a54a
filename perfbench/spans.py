"""Timers and layer spans wrapped around ufs_lab's public functions from outside.

Nothing under src/ is edited. A function is replaced at every name a ufs_lab
module binds it to, because modules import each other's functions by name
(harness calls its own `manifold_metrics`, gan its own `forward_pass`), and
put back when the run ends.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) for every layer the traced run reports; "Class.method"
# attributes are methods, reported under the module name.
LAYERS = (
    ("numerics", "conv2d_forward"),
    ("numerics", "conv2d_weight_grad"),
    ("numerics", "conv2d_input_grad"),
    ("numerics", "forward_pass"),
    ("numerics", "backward_pass"),
    ("numerics", "input_grad_param_grads"),
    ("numerics", "adam_step"),
    ("gan", "train_discriminator_step"),
    ("gan", "train_generator_step"),
    ("gan", "penalty_with_grads"),
    ("ufs", "update_stats"),
    ("ufs", "compute_ratio"),
    ("ufs", "compute_suppression"),
    ("ufs", "apply_suppression"),
    ("selection", "select_indices"),
    ("selection", "instance_select"),
    ("metrics", "manifold_metrics"),
    ("metrics", "frechet_distance"),
    ("metrics", "fit_gaussian"),
    ("metrics", "mode_coverage"),
    ("metrics", "random_feature_embed"),
    ("datasets", "make_dataset"),
    ("datasets", "PointMixture.sample"),
    ("datasets", "ImageBank.sample"),
    ("harness", "save_checkpoint"),
    ("harness", "write_metrics_csv"),
    ("harness", "load_checkpoint"),
    ("attribution", "compute_cam"),
    ("attribution", "save_attribution_maps"),
)

TRAIN_STEPS = ("gan.train_discriminator_step", "gan.train_generator_step")
CONV_PRIMITIVES = ("numerics.conv2d_forward", "numerics.conv2d_weight_grad",
                   "numerics.conv2d_input_grad")


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


LAYER_NAMES = tuple(dict.fromkeys(layer_name(m, a) for m, a in LAYERS))


class Patches:
    """Function replacements that can all be undone at once."""

    def __init__(self):
        self._undo = []

    def wrap(self, module: str, attr: str, make_wrapper) -> None:
        owner = sys.modules[f"ufs_lab.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[method]
            self._undo.append((cls, method, orig))
            setattr(cls, method, make_wrapper(orig))
            return
        orig = getattr(owner, attr)
        wrapper = make_wrapper(orig)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ufs_lab" or name.startswith("ufs_lab.")]
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is orig]:
                self._undo.append((mod, key, orig))
                setattr(mod, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)


class Probe:
    """End-to-end timers of one run: generator iterations and evaluation windows.

    An iteration runs from the start of its first critic step to the end of
    its generator step. An evaluation window after training starts when the
    generator step returns and ends when the checkpoint is written; the
    window at iteration 0 is read from the CSV instead, since it starts the
    training clock.
    """

    def __init__(self):
        self.iter_s: list[float] = []
        self.eval_s: list[float] = []
        self._iter_start = None
        self._gen_end = None

    def install(self, patches: Patches) -> None:
        patches.wrap("gan", "train_discriminator_step", self._critic)
        patches.wrap("gan", "train_generator_step", self._generator)
        patches.wrap("harness", "save_checkpoint", self._checkpoint)

    def _critic(self, fn):
        def critic_step(*args, **kwargs):
            if self._iter_start is None:
                self._iter_start = perf_counter()
            return fn(*args, **kwargs)
        return critic_step

    def _generator(self, fn):
        def generator_step(*args, **kwargs):
            start = perf_counter() if self._iter_start is None else self._iter_start
            result = fn(*args, **kwargs)
            self._gen_end = perf_counter()
            self.iter_s.append(self._gen_end - start)
            self._iter_start = None
            return result
        return generator_step

    def _checkpoint(self, fn):
        def save_checkpoint(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._gen_end is not None:
                self.eval_s.append(perf_counter() - self._gen_end)
                self._gen_end = None
            return result
        return save_checkpoint


# --- work counts computed from call shapes ------------------------------------- #


def _conv_work(counts, name, flops, moved):
    counts[f"{name}.gflop"] += flops / 1e9
    counts[f"{name}.mbytes"] += moved / 1e6


def _count_conv_forward(counts, args, kwargs, y):
    x, kernel = args[0], args[1]
    _, c, kh, kw = kernel.shape
    _conv_work(counts, "numerics.conv2d_forward", 2 * y.size * c * kh * kw,
               8 * (x.size + kernel.size + y.size))


def _count_conv_weight_grad(counts, args, kwargs, dk):
    x, dy = args[0], args[1]
    _, c, kh, kw = dk.shape
    _conv_work(counts, "numerics.conv2d_weight_grad", 2 * dy.size * c * kh * kw,
               8 * (x.size + dy.size + dk.size))


def _count_conv_input_grad(counts, args, kwargs, dx):
    dy, kernel = args[0], args[1]
    _, c, kh, kw = kernel.shape
    _conv_work(counts, "numerics.conv2d_input_grad", 2 * dy.size * c * kh * kw,
               8 * (dy.size + kernel.size + dx.size))


def _count_pairs(counts, args, kwargs, result):
    m, n = len(args[0]), len(args[1])
    counts["metrics.manifold_metrics.pairs"] += m * m + n * n + m * n


def _count_checkpoint_bytes(counts, args, kwargs, result):
    counts["harness.save_checkpoint.bytes"] += os.path.getsize(args[0])


def _count_kept(counts, args, kwargs, idx):
    counts["selection.kept_share_sum"] += len(idx) / len(args[0])


COUNTERS = {
    "numerics.conv2d_forward": _count_conv_forward,
    "numerics.conv2d_weight_grad": _count_conv_weight_grad,
    "numerics.conv2d_input_grad": _count_conv_input_grad,
    "metrics.manifold_metrics": _count_pairs,
    "harness.save_checkpoint": _count_checkpoint_bytes,
    "selection.select_indices": _count_kept,
}


class Tracer:
    """Spans (name, start, end, parent) of one run, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(float)
        self._stack: list = []
        self._ids = {name: i for i, name in enumerate(LAYER_NAMES)}

    def install(self, patches: Patches) -> None:
        for module, attr in LAYERS:
            name = layer_name(module, attr)
            patches.wrap(module, attr,
                         lambda fn, name=name: self._traced(name, fn, COUNTERS.get(name)))

    def _traced(self, name, fn, count):
        nid = self._ids[name]
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, result)
            return result
        return traced

    def layer_stats(self) -> dict:
        """Per layer: calls, total seconds, self seconds, and the part of the
        self seconds spent inside a critic or generator step.

        Self time is a span's duration minus the time its child spans cover;
        calls run on one thread, so children never overlap. Total time counts
        only the outermost span of a layer, so a layer that reaches itself
        through another is not counted twice.
        """
        train_ids = {self._ids[n] for n in TRAIN_STEPS}
        child = [0.0] * len(self.spans)
        in_train = [False] * len(self.spans)
        for i, (nid, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
            # a parent is always recorded before its children
            in_train[i] = nid in train_ids or (parent >= 0 and in_train[parent])
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "train_self_s": 0.0}
                 for name in LAYER_NAMES}
        for i, (nid, start, end, parent) in enumerate(self.spans):
            entry = stats[LAYER_NAMES[nid]]
            entry["calls"] += 1
            own = (end - start) - child[i]
            entry["self_s"] += own
            if in_train[i]:
                entry["train_self_s"] += own
            while parent >= 0 and self.spans[parent][0] != nid:
                parent = self.spans[parent][3]
            if parent < 0:
                entry["total_s"] += end - start
        return stats
