"""Dense float64 tensor math with handwritten layer gradients.

A network is a list of layer specs plus one flat float64 parameter
vector; param_views gives its per-layer W and b views, and the same layout
holds the parameter gradients and Adam's moments. A forward pass returns a
cache. The backward pass runs only the input-gradient chain and returns a
tape with it; param_grads turns (cache, tape) into the parameter gradients,
flat in the param_views layout. A second-order pass differentiates
through the input-gradient computation (for a gradient-norm penalty) and
returns its parameter gradients in that layout too. Nothing checks a chain
of specs ahead of time: each layer checks the array it is given, so a pass
through a mismatched chain raises DimensionError at the first layer that
does not fit.

The passes write only into arrays they create. A bias add, an activation's
product or a tanh writes in place into the fresh output of the pass's own
previous dense, conv or pool step (or input-gradient step); the caller's x,
upstream and v, every cache entry (a cached layer input, a tanh output, a
leaky mask) and every tape entry are never written. Parameter gradients go
straight into views of one flat vector, a weight gradient by a matmul or
copy into its slot, a bias gradient by an add.reduce into its slot. Each
value gets the operations of the allocating form in the same order, so the
results are bitwise those of a pass that allocates a new array per step.

Convolution forward and global sum pooling accumulate in a fixed loop
order (channel, then kernel row, then kernel column / row-major spatial)
so they agree bit-for-bit with a naive Python loop. The convolution forward
copies each sample block's windows into one contiguous buffer, then costs
three numpy calls per (sample block, group of input channels): one multiply
writes the tap products of every channel in the group, the running sum is
added into the first tap's products, and one add.reduce folds the taps in
(channel, row, col) order into an accumulator at least 2 wide. A group
holds as many channels as the block leaves room for in the budget
(`_CONV_BLOCK_ELEMS`), so small blocks, the training batches, pay for their
products rather than for their calls. Each distinct block size has its own
buffers, which store the longer of the out-channel axis and the block's
positions innermost, and the loop runs inside `unbuffered_ufuncs`, which
holds numpy's ufunc buffer at 16 elements so that numpy never copies the
broadcast operands through its buffers, and restores the caller's size on
the way out. The convolution gradients are one im2col GEMM each, a single
np.dot on the operands np.tensordot would build; they sum in BLAS order,
so they are checked against reference oracles to rounding and against
finite differences, and bitwise only against the tensordot forms.

Importing this module (and so any part of ufs_lab) fixes the process's
heap policy, once: where libc has `mallopt` (glibc), the mmap threshold is
set to 32 MiB and the trim threshold to 64 MiB, the largest values glibc's
own dynamic rule would reach. Left dynamic, both thresholds rise only when
some large buffer happens to be mmapped and freed, so whether numpy's
temporaries came back from the heap or were faulted in afresh on every
call depended on what a process had freed before. Fixed, they are reused
from the heap. Where libc has no `mallopt` nothing is set.
"""

from __future__ import annotations

import ctypes
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractError, DimensionError, UnsupportedArchitectureError

Array = np.ndarray

# glibc's mallopt parameters (malloc.h) and the values set at import.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _fix_heap_policy() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no process handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_fix_heap_policy()

# numpy's ufunc buffer size inside the loops of conv2d_forward and the k-NN
# distance blocks. At the default (8192 elements) the iterator copies the
# broadcast operands through its buffers whenever the contiguous inner axis
# is shorter than that, which triples the cost of a product; at 16 the inner
# loop reads them in place.
_UFUNC_BUFSIZE = 16


@contextmanager
def unbuffered_ufuncs():
    """Run the block with numpy's ufunc buffer at _UFUNC_BUFSIZE elements and
    restore the caller's size on the way out, also on an exception. numpy
    keeps the size in a context variable, so a generator must leave the block
    before each yield, or its consumer would run with the small buffer."""
    old = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


LAYER_KINDS = ("dense", "conv2d", "leaky_relu", "tanh", "global_sum_pool")


def as_f64(x) -> Array:
    return np.ascontiguousarray(x, dtype=np.float64)


class SeededRng:
    """Deterministic random stream: same seed + same call sequence = same values."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, *keys: int) -> "SeededRng":
        """Independent child stream, reproducible from (seed, *keys)."""
        ss = np.random.SeedSequence([self.seed] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in keys])
        return SeededRng(int(ss.generate_state(1, dtype=np.uint64)[0]))

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> Array:
        if std < 0:
            raise ContractError(f"std must be >= 0, got {std}")
        return mean + std * self._gen.standard_normal(shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> Array:
        return self._gen.uniform(low, high, shape)

    def integers(self, n: int, size=None) -> Array:
        return self._gen.integers(0, n, size=size)

    def choice_no_replace(self, n: int, k: int) -> Array:
        return self._gen.choice(n, size=k, replace=False)


# --- layer specs --------------------------------------------------------- #


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_features: int = 0
    out_features: int = 0
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    slope: float = 0.0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ContractError(f"unknown layer kind {self.kind!r}")
        if self.kind == "dense" and (self.in_features <= 0 or self.out_features <= 0):
            raise ContractError(f"dense layer needs positive sizes, got {self.in_features}x{self.out_features}")
        if self.kind == "conv2d":
            if min(self.in_channels, self.out_channels, self.kernel, self.stride) <= 0:
                raise ContractError("conv2d layer needs positive channels, kernel and stride")
        if self.kind == "leaky_relu" and not 0.0 < self.slope < 1.0:
            raise ContractError(f"leaky slope must be in (0, 1), got {self.slope}")


def dense(in_features: int, out_features: int) -> LayerSpec:
    return LayerSpec("dense", in_features=in_features, out_features=out_features)


def conv2d(in_channels: int, out_channels: int, kernel: int, stride: int = 1) -> LayerSpec:
    return LayerSpec("conv2d", in_channels=in_channels, out_channels=out_channels,
                     kernel=kernel, stride=stride)


def leaky_relu(slope: float = 0.2) -> LayerSpec:
    return LayerSpec("leaky_relu", slope=slope)


def tanh() -> LayerSpec:
    return LayerSpec("tanh")


def sum_pool() -> LayerSpec:
    return LayerSpec("global_sum_pool")


# --- primitive operations ------------------------------------------------ #


def _conv_output_hw(x_shape, kernel_shape, stride: int, op: str):
    """Validate a valid-correlation geometry and return its output (ho, wo)."""
    if len(x_shape) != 4 or len(kernel_shape) != 4:
        raise DimensionError(f"{op}: need 4-d input and kernel, got {tuple(x_shape)} and {tuple(kernel_shape)}")
    n, c, h, w = x_shape
    o, kc, kh, kw = kernel_shape
    if kc != c:
        raise DimensionError(f"{op}: input {tuple(x_shape)} has {c} channels but kernel {tuple(kernel_shape)} expects {kc}")
    if kh > h or kw > w:
        raise DimensionError(f"{op}: kernel {kh}x{kw} larger than input {h}x{w}")
    if stride < 1:
        raise ContractError(f"stride must be >= 1, got {stride}")
    return (h - kh) // stride + 1, (w - kw) // stride + 1


def _check_dy(dy: Array, want, x_shape, kernel_shape, op: str) -> None:
    if dy.shape != tuple(want):
        raise DimensionError(f"{op}: dy {dy.shape} does not fit input {tuple(x_shape)} and kernel "
                             f"{tuple(kernel_shape)}, expected {tuple(want)}")


# Budget in elements for one sample block's tap products plus its
# accumulator (1 MiB of float64): large enough to amortise the three calls
# per group of input channels, small enough that the block stays in cache.
# It sets the rows of a block (one channel's kh*kw taps must fit), then the
# channels of a group (as many channels' taps as fit beside that block's
# accumulator). The block's window copy, in_channels*kh*kw per position,
# comes on top.
_CONV_BLOCK_ELEMS = 1 << 17


def _windows(x: Array, kh: int, kw: int, stride: int, ho: int, wo: int) -> Array:
    """The (n, ho, wo, c, kh, kw) view of x's kernel windows:
    element [i, a, b, ci, p, q] is x[i, ci, a * stride + p, b * stride + q]."""
    sn, sc, sh, sw = x.strides
    return as_strided(x, (x.shape[0], ho, wo, x.shape[1], kh, kw),
                      (sn, sh * stride, sw * stride, sc, sh, sw), writeable=False)


def _conv_block_buffers(c: int, t: int, nb: int, ho: int, wo: int, op: int):
    """Window, product and accumulator buffers for a block of nb rows, and the
    input channels one multiply covers: ceil(c / groups) for the fewest
    groups whose products fit in _CONV_BLOCK_ELEMS beside the accumulator,
    so only the last group is short, on the leading (contiguous) part of the
    product buffer. The products and the accumulator store the longer of the
    out-channel axis and the block's positions (sample, ho, wo) innermost, so
    the multiply and the reduce run long contiguous inner loops.
    """
    per_tap = nb * ho * wo * op
    fit = max(1, (_CONV_BLOCK_ELEMS // per_tap - 1) // t)  # channels whose taps fit
    group = -(-c // -(-c // fit))
    cols = np.empty((c * t, nb, ho, wo, 1))
    if nb * ho * wo >= op:  # positions innermost
        prods = np.empty((group * t, op, nb, ho, wo)).transpose(0, 2, 3, 4, 1)
        acc = np.empty((op, nb, ho, wo)).transpose(1, 2, 3, 0)
    else:  # out-channels innermost
        prods = np.empty((group * t, nb, ho, wo, op))
        acc = np.empty((nb, ho, wo, op))
    return cols, prods, acc, group


def conv2d_forward(x: Array, kernel: Array, stride: int) -> Array:
    """Valid (no padding) cross-correlation; the kernel is not flipped.

    Each output element starts from 0.0 and adds its taps one at a time in
    (in-channel, kernel row, kernel col) order, so the result is bitwise equal
    to a naive six-loop implementation. Per block of samples, the block's
    kh*kw windows of every input channel are copied into one contiguous
    buffer. Then per group of input channels one broadcast multiply writes
    all the group's tap products (tap, sample, ho, wo, out-channel), taps in
    (channel, row, col) order; the running sum is added into the first tap's
    products (IEEE addition commutes), and one add.reduce over the tap axis
    folds the taps into the accumulator in that order.

    The rows are split into the fewest blocks within _CONV_BLOCK_ELEMS, each
    ceil(n / blocks) rows but the last. Every distinct block size gets its
    own buffers (see _conv_block_buffers: its channel groups and layout), so
    a short last block runs on contiguous buffers sized for it. The loop runs
    inside unbuffered_ufuncs. The out-channel axis is padded to at least 2:
    over a 1-wide accumulator numpy would sum the taps with its pairwise
    routine, in another order.
    """
    x = as_f64(x)
    kernel = as_f64(kernel)
    ho, wo = _conv_output_hw(x.shape, kernel.shape, stride, "conv2d")
    n, c = x.shape[:2]
    o, _, kh, kw = kernel.shape
    op, t = max(o, 2), kh * kw
    taps = np.zeros((c * t, 1, 1, 1, op))
    taps[..., :o] = kernel.reshape(o, c * t).T[:, None, None, None]
    windows = _windows(x, kh, kw, stride, ho, wo).transpose(3, 4, 5, 0, 1, 2)  # (c, kh, kw, n, ho, wo)
    y = np.empty((n, o, ho, wo))
    n_blocks = max(1, -(-n // max(1, _CONV_BLOCK_ELEMS // ((t + 1) * ho * wo * op))))
    block = max(1, -(-n // n_blocks))  # only the last block can be short, by under n_blocks rows
    buffers = {}
    with unbuffered_ufuncs():
        for lo in range(0, n, block):
            nb = min(block, n - lo)
            if nb not in buffers:
                buffers[nb] = _conv_block_buffers(c, t, nb, ho, wo, op)
            cols, prods, acc, group = buffers[nb]
            np.copyto(cols.reshape(c, kh, kw, nb, ho, wo), windows[:, :, :, lo:lo + nb])
            acc.fill(0.0)
            for k in range(0, c * t, group * t):
                part = prods[:min(group * t, c * t - k)]
                np.multiply(cols[k:k + len(part)], taps[k:k + len(part)], out=part)
                part[0] += acc
                np.add.reduce(part, axis=0, out=acc)
            y[lo:lo + nb] = acc[..., :o].transpose(0, 3, 1, 2)
    return y


def conv2d_weight_grad(x: Array, dy: Array, stride: int, kh: int, kw: int) -> Array:
    """Gradient of a valid cross-correlation with respect to its kernel.

    One im2col (a copy of x's strided window view) contracted with dy in one
    np.dot: the operands and the call np.tensordot would make, without its
    wrapper.
    """
    x = as_f64(x)
    dy = as_f64(dy)
    if x.ndim != 4 or dy.ndim != 4:
        raise DimensionError(f"conv2d_weight_grad: need 4-d x and dy, got {x.shape} and {dy.shape}")
    n, c = x.shape[:2]
    o = dy.shape[1]
    kernel_shape = (o, c, kh, kw)
    ho, wo = _conv_output_hw(x.shape, kernel_shape, stride, "conv2d_weight_grad")
    _check_dy(dy, (n, o, ho, wo), x.shape, kernel_shape, "conv2d_weight_grad")
    cols = _windows(x, kh, kw, stride, ho, wo).reshape(n * ho * wo, c * kh * kw)
    return np.dot(dy.transpose(1, 0, 2, 3).reshape(o, n * ho * wo), cols).reshape(kernel_shape)


def conv2d_input_grad(dy: Array, kernel: Array, x_shape, stride: int) -> Array:
    """Gradient of a valid cross-correlation with respect to its input.

    One np.dot (the operands and the call np.tensordot would make) gives
    every tap's contribution; a kh x kw scatter-add then folds them back
    onto the input grid.
    """
    dy = as_f64(dy)
    kernel = as_f64(kernel)
    x_shape = tuple(x_shape)
    ho, wo = _conv_output_hw(x_shape, kernel.shape, stride, "conv2d_input_grad")
    n, c = x_shape[:2]
    o, _, kh, kw = kernel.shape
    _check_dy(dy, (n, o, ho, wo), x_shape, kernel.shape, "conv2d_input_grad")
    cols = np.dot(kernel.transpose(1, 2, 3, 0).reshape(c * kh * kw, o),
                  dy.transpose(1, 0, 2, 3).reshape(o, n * ho * wo)).reshape(c, kh, kw, n, ho, wo)
    dx = np.zeros(x_shape)
    for p in range(kh):
        for q in range(kw):
            dx[:, :, p:p + stride * (ho - 1) + 1:stride, q:q + stride * (wo - 1) + 1:stride] += \
                cols[:, p, q].transpose(1, 0, 2, 3)
    return dx


def global_sum_pool(x: Array) -> Array:
    """Sum over spatial positions per channel, (n,c,h,w) -> (n,c).

    Accumulated position by position in row-major order, matching a plain loop.
    """
    x = as_f64(x)
    if x.ndim != 4:
        raise DimensionError(f"global_sum_pool expects a 4-d input, got shape {x.shape}")
    n, c, h, w = x.shape
    out = np.zeros((n, c))
    for i in range(h):
        for j in range(w):
            out += x[:, :, i, j]
    return out


# --- sequential networks -------------------------------------------------- #


WEIGHT_STD = 0.02


def _weight_shape(s: LayerSpec):
    """The shape of layer s's weight, or None for a layer without parameters;
    its bias holds shape[0] entries."""
    if s.kind == "dense":
        return (s.out_features, s.in_features)
    if s.kind == "conv2d":
        return (s.out_channels, s.in_channels, s.kernel, s.kernel)
    return None


def param_size(specs) -> int:
    """The length of the flat parameter vector of specs."""
    return sum(math.prod(w) + w[0] for w in map(_weight_shape, specs) if w)


def param_views(specs, flat: Array) -> list:
    """Per-layer dicts of views of flat: W then b of each dense or conv2d layer
    in spec order, each C-ordered, and {} for the other layers. This one
    layout serves parameters, their gradients and Adam's moments. flat must
    be a contiguous, aligned float64 vector of param_size(specs): on any
    other view matmul would leave BLAS for numpy's own loop, which sums in
    another order."""
    n = param_size(specs)
    if not (isinstance(flat, np.ndarray) and flat.shape == (n,) and flat.dtype == np.float64
            and flat.flags.c_contiguous and flat.flags.aligned):
        got = f"{flat.dtype} {flat.shape}" if isinstance(flat, np.ndarray) else type(flat).__name__
        raise ContractError(f"parameters must be a contiguous, aligned float64 vector of {n}, "
                            f"got {got}")
    views, lo = [], 0
    for w in map(_weight_shape, specs):
        if w is None:
            views.append({})
            continue
        mid = lo + math.prod(w)
        views.append({"W": flat[lo:mid].reshape(w), "b": flat[mid:mid + w[0]]})
        lo = mid + w[0]
    return views


def forward_pass(specs, params, x):
    """Run the stack, returning (output, cache) with per-layer saved values.

    The bias add, a tanh and the leaky product write in place into the
    output of the pass's own previous dense, conv or pool step; x and every
    cache entry (a tanh output, a layer input) are never written.
    """
    h = as_f64(x)
    cache = []
    fresh = False  # h is this pass's own and in no cache entry
    for i, (s, p) in enumerate(zip(specs, params)):
        if s.kind == "dense":
            if h.ndim != 2 or h.shape[1] != s.in_features:
                raise DimensionError(f"layer {i}: dense expects (n, {s.in_features}), got {h.shape}")
            cache.append(h)
            h = h @ p["W"].T
            h += p["b"]
        elif s.kind == "conv2d":
            cache.append(h)
            h = conv2d_forward(h, p["W"], s.stride)
            h += p["b"][:, None, None]
        elif s.kind == "leaky_relu":
            # bitwise np.where(h > 0.0, 1.0, slope) since 0 < slope < 1, without its branches
            m = np.maximum(h > 0.0, s.slope)
            cache.append(m)
            h = np.multiply(h, m, out=h if fresh else None)
        elif s.kind == "tanh":
            h = np.tanh(h, out=h if fresh else None)
            cache.append(h)
        else:  # global_sum_pool
            cache.append(h)
            h = global_sum_pool(h)
        fresh = s.kind != "tanh"
    return h, cache


def backward_pass(specs, params, cache, upstream, input_grad: bool = True):
    """Reverse-order chain rule for the input gradient; returns (dx, tape).

    The tape records the upstream gradient reaching each parametric layer
    (None elsewhere), for param_grads and input_grad_param_grads. With
    input_grad=False the chain stops at the lowest parametric layer's tape
    entry and dx is None, for callers that need only parameter gradients.
    An activation's product writes in place into the input gradient of the
    layer above it; upstream, the cache and the tape are never written.
    """
    g = as_f64(upstream)
    fresh = False  # g is a gradient this pass made and has not taped
    tape = [None] * len(specs)
    lowest = -1 if input_grad else next(
        (i for i, s in enumerate(specs) if s.kind in ("dense", "conv2d")), -1)
    for i in range(len(specs) - 1, -1, -1):
        s, p, c = specs[i], params[i], cache[i]
        if s.kind == "dense":
            if g.ndim != 2 or g.shape[1] != s.out_features:
                raise DimensionError(f"layer {i}: upstream shape {g.shape} does not match dense output")
            tape[i] = g
            if i == lowest:
                break
            g = g @ p["W"]
        elif s.kind == "conv2d":
            tape[i] = g
            if i == lowest:
                break
            g = conv2d_input_grad(g, p["W"], c.shape, s.stride)
        elif s.kind == "leaky_relu":
            g = np.multiply(g, c, out=g if fresh else None)
        elif s.kind == "tanh":
            d = c * c
            np.subtract(1.0, d, out=d)
            g = np.multiply(g, d, out=g if fresh else None)
        else:  # global_sum_pool
            g = np.broadcast_to(g[:, :, None, None], c.shape).copy()
        fresh = True
    return (g if input_grad else None), tape


def param_grads(specs, cache, tape, out=None) -> Array:
    """Parameter gradients from a forward cache and its backward tape, as one
    flat vector in the param_views layout: written into out when given
    (returned), else into a new vector. Each layer's gradients go straight
    into their views."""
    out = np.empty(param_size(specs)) if out is None else out
    for s, c, g, p in zip(specs, cache, tape, param_views(specs, out)):
        if s.kind == "dense":
            np.matmul(g.T, c, out=p["W"])
            np.add.reduce(g, axis=0, out=p["b"])
        elif s.kind == "conv2d":
            p["W"][...] = conv2d_weight_grad(c, g, s.stride, s.kernel, s.kernel)
            np.add.reduce(g, axis=(0, 2, 3), out=p["b"])
    return out


def input_grad_param_grads(specs, params, cache, tape, v):
    """Parameter gradients of sum(input_grad * v), holding v constant.

    Backprop through the backward pass. Only valid for piecewise-linear
    activations (leaky_relu), whose masks have zero derivative almost
    everywhere; tanh would add curvature terms and is rejected. Returns the
    gradients flat in the param_views layout (zero for biases). Each layer's
    weight gradient contracts its tape entry with q, v carried forward to the
    layer's input; the leaky product writes in place into q once q is this
    pass's own; v, the cache and the tape are never written.
    """
    q = as_f64(v)
    fresh = False  # q is this pass's own
    out = np.empty(param_size(specs))
    for i, (s, p, c, g) in enumerate(zip(specs, params, cache, param_views(specs, out))):
        if s.kind == "dense":
            np.matmul(tape[i].T, q, out=g["W"])
            g["b"].fill(0.0)
            q = q @ p["W"].T
        elif s.kind == "conv2d":
            g["W"][...] = conv2d_weight_grad(q, tape[i], s.stride, s.kernel, s.kernel)
            g["b"].fill(0.0)
            q = conv2d_forward(q, p["W"], s.stride)
        elif s.kind == "leaky_relu":
            q = np.multiply(q, c, out=q if fresh else None)
        elif s.kind == "tanh":
            raise UnsupportedArchitectureError(
                "second-order backward supports piecewise-linear activations only")
        else:  # global_sum_pool
            q = global_sum_pool(q)
        fresh = True
    return out


class Network:
    """A sequential layer stack with one flat parameter vector theta; params
    holds its per-layer W and b views (param_views), which forward_pass and
    backward_pass read. Whether consecutive layers fit is checked by the
    passes: the first forward pass through a mismatched chain raises
    DimensionError."""

    def __init__(self, specs, theta: Array):
        self.specs = list(specs)
        self.params = param_views(self.specs, theta)
        self.theta = theta

    @classmethod
    def init(cls, specs, rng: SeededRng) -> "Network":
        """N(0, WEIGHT_STD^2) weights drawn in spec order, zero biases."""
        net = cls(specs, np.zeros(param_size(specs)))
        for p in net.params:
            if p:
                p["W"][...] = rng.normal(p["W"].shape, 0.0, WEIGHT_STD)
        return net


# --- optimizer ------------------------------------------------------------ #


# Adam's decay rates and floor: the WGAN-GP setting (Gulrajani et al. 2017).
ADAM_B1 = 0.5
ADAM_B2 = 0.9
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: Array
    v: Array
    step: int = 0

    @classmethod
    def for_params(cls, theta: Array) -> "AdamState":
        return cls(np.zeros(theta.size), np.zeros(theta.size))


def adam_step(state: AdamState, theta: Array, grad: Array, lr: float) -> None:
    """One bias-corrected Adam update of the flat parameters theta at rate lr
    (ADAM_B1, ADAM_B2, ADAM_EPS), in place. grad is theta's flat gradient and
    serves as scratch; each element gets the per-array recipe's operations in
    its order."""
    if grad.shape != state.m.shape or theta.shape != grad.shape:
        raise DimensionError(f"adam_step: {grad.shape} gradient for {state.m.size} moments "
                             f"and {theta.size} parameters")
    state.step += 1
    c1 = 1.0 - ADAM_B1 ** state.step
    c2 = 1.0 - ADAM_B2 ** state.step
    m, v = state.m, state.v
    t = grad * grad
    t *= 1.0 - ADAM_B2
    v *= ADAM_B2
    v += t
    grad *= 1.0 - ADAM_B1
    m *= ADAM_B1
    m += grad
    np.divide(v, c2, out=grad)
    np.sqrt(grad, out=grad)
    grad += ADAM_EPS
    np.divide(m, c1, out=t)
    t *= lr
    t /= grad
    theta -= t


# --- schedules ------------------------------------------------------------ #


def linear_anneal(start: float, end: float, fraction: float, t: int, total: int) -> float:
    """Linear ramp from start to end over the first fraction of total
    iterations, then flat at end."""
    if t < 0 or t > total:
        raise ContractError(f"iteration {t} outside [0, {total}]")
    window = fraction * total
    if window <= 0 or t >= window:
        return end
    return start + (end - start) * (t / window)


# --- files (here, as every module that writes one imports numerics) ------- #


def write_atomic(path, *chunks) -> None:
    """Write the chunks (bytes, or C-contiguous arrays written as their raw
    buffers) in turn to a temp file beside `path`, then os.replace it into
    place: a killed process leaves the old file or the new one, never part of
    one (no fsync)."""
    tmp = Path(path).with_name(f".{Path(path).name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
