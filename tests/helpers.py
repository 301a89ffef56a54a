"""Shared oracles and gradient-check utilities for the test suite.

The oracles here are deliberately written as plain Python loops or textbook
iterations, independent of the library's vectorized implementations. The
conv gradient references contract one kernel tap at a time with einsum,
independent of the library's im2col GEMMs, and the tensordot conv gradients
are the forms the library's single np.dot gradients are checked against
byte for byte. The sqrt-distance manifold metrics take a square root per
pair and compare it with sqrt radii, independent of the library's squared
distances and ball bounds. The
split-head critic objective writes the head's gradients out by hand and
runs the body forward once per batch, and the split-head penalty carries
w in every row to the features and contracts ones with the second-order
term there: the forms the library's one-network critic, its head a dense
layer, and its single forward over stacked batches are checked against.
The one-sweep backward pass and the per-array Adam step are the forms the
library's split backward and flat Adam are checked against bitwise, the
allocating forward and second-order passes (a new array for every bias add,
activation and gradient piece, joined by np.concatenate) are the forms the
library's in-place passes are checked against bitwise, and the
channels-last conv forward (window view, out-channels innermost, numpy's
default ufunc buffer) is the form the library's forward is checked against
bitwise at sizes too large for the loop oracle. The per-variant CAM runs
the critic body once for the mask and once per map, the form the library's
one-pass CAM is checked against bitwise. The fill-plus-subtract distance
blocks (each coordinate's column copied into the block, then the row
subtracted, at numpy's default ufunc buffer) are the form the library's
broadcast-subtract blocks are checked against bitwise, through the
distances, ball bounds and k-NN metrics built on them. The joined-bytes
version-5 checkpoint writer is the form the library's streaming writer is
checked against byte for byte.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ufs_lab import gan, ufs
from ufs_lab import numerics as nm
from ufs_lab.errors import ContractError, UnsupportedArchitectureError
from ufs_lab.selection import SelectionConfig


def rel_err(a, b) -> float:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-300)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def grad_close(got, want, rtol=1e-5, atol=1e-9) -> bool:
    """Gradient comparison: relative where the scale allows, absolute near zero
    (central differences bottom out around 1e-10 on unit-scale functions)."""
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    denom = max(np.abs(got).max(initial=0.0), np.abs(want).max(initial=0.0))
    return float(np.abs(got - want).max(initial=0.0)) <= rtol * denom + atol


# --- loop oracles --------------------------------------------------------- #


def matmul_loop(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def conv2d_loop(x, kernel, stride):
    """Six-loop valid cross-correlation, accumulating over (c, p, q)."""
    n, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for b in range(n):
        for oc in range(o):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for p in range(kh):
                            for q in range(kw):
                                acc += x[b, ci, i * stride + p, j * stride + q] * kernel[oc, ci, p, q]
                    out[b, oc, i, j] = acc
    return out


def conv2d_forward_channels_last(x, kernel, stride):
    """Valid cross-correlation with the taps added in (c, p, q) order: per
    sample block and input channel, one broadcast multiply writes the kh*kw
    tap products channels-last (tap, sample, ho, wo, out) straight from a
    window view of x, the running sum goes into the first tap's products, and
    one add.reduce folds the taps in order into an accumulator at least 2
    wide."""
    x = nm.as_f64(x)
    kernel = nm.as_f64(kernel)
    n, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    op = max(o, 2)
    taps = np.zeros((c, kh, kw, 1, 1, 1, op))
    taps[..., :o] = kernel.transpose(1, 2, 3, 0)[:, :, :, None, None, None]
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    windows = windows.transpose(1, 4, 5, 0, 2, 3)[..., None]  # (c, kh, kw, n, ho, wo, 1)
    y = np.empty((n, o, ho, wo))
    block = max(1, min(n, (1 << 17) // ((kh * kw + 1) * ho * wo * op)))
    prods_buf = np.empty((kh, kw, block, ho, wo, op))
    flat_buf = prods_buf.reshape(kh * kw, block, ho, wo, op)
    acc_buf = np.empty((block, ho, wo, op))
    for lo in range(0, n, block):
        nb = min(block, n - lo)
        prods, flat, acc = prods_buf[:, :, :nb], flat_buf[:, :nb], acc_buf[:nb]
        acc.fill(0.0)
        for ci in range(c):
            np.multiply(windows[ci, :, :, lo:lo + nb], taps[ci], out=prods)
            flat[0] += acc
            np.add.reduce(flat, axis=0, out=acc)
        y[lo:lo + nb] = acc[..., :o].transpose(0, 3, 1, 2)
    return y


def conv2d_weight_grad_einsum(x, dy, stride, kh, kw):
    """Kernel gradient of a valid cross-correlation, one einsum per kernel tap."""
    n, c, h, w = x.shape
    _, o, ho, wo = dy.shape
    dk = np.empty((o, c, kh, kw))
    for p in range(kh):
        for q in range(kw):
            xs = x[:, :, p:p + stride * (ho - 1) + 1:stride, q:q + stride * (wo - 1) + 1:stride]
            dk[:, :, p, q] = np.einsum("ncij,noij->oc", xs, dy)
    return dk


def conv2d_input_grad_einsum(dy, kernel, x_shape, stride):
    """Input gradient of a valid cross-correlation, one einsum per kernel tap."""
    o, _, kh, kw = kernel.shape
    ho, wo = dy.shape[2], dy.shape[3]
    dx = np.zeros(x_shape)
    for p in range(kh):
        for q in range(kw):
            piece = np.einsum("noij,oc->ncij", dy, kernel[:, :, p, q])
            dx[:, :, p:p + stride * (ho - 1) + 1:stride, q:q + stride * (wo - 1) + 1:stride] += piece
    return dx


def conv2d_weight_grad_tensordot(x, dy, stride, kh, kw):
    """Kernel gradient of a valid cross-correlation: one tensordot of dy with
    the strided window view of x."""
    cols = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]  # (n, c, ho, wo, kh, kw)
    return np.tensordot(dy, cols, axes=([0, 2, 3], [0, 2, 3]))


def conv2d_input_grad_tensordot(dy, kernel, x_shape, stride):
    """Input gradient of a valid cross-correlation: one tensordot of the kernel
    with dy, then a kh x kw scatter-add onto the input grid."""
    o, _, kh, kw = kernel.shape
    ho, wo = dy.shape[2], dy.shape[3]
    cols = np.tensordot(kernel, dy, axes=([0], [1]))  # (c, kh, kw, n, ho, wo)
    dx = np.zeros(x_shape)
    for p in range(kh):
        for q in range(kw):
            dx[:, :, p:p + stride * (ho - 1) + 1:stride, q:q + stride * (wo - 1) + 1:stride] += \
                cols[:, p, q].transpose(1, 0, 2, 3)
    return dx


def sum_pool_loop(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c))
    for b in range(n):
        for ci in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += x[b, ci, i, j]
            out[b, ci] = acc
    return out


def prdc_loop(real, fake, k):
    """Exhaustive enumeration of the k-NN manifold metrics (inclusive balls)."""
    m, n = len(real), len(fake)

    def dist(a, b):
        return math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))

    def knn_radius(points, i):
        ds = sorted(dist(points[i], points[j]) for j in range(len(points)) if j != i)
        return ds[k - 1]

    r_real = [knn_radius(real, i) for i in range(m)]
    r_fake = [knn_radius(fake, j) for j in range(n)]
    precision = sum(
        1 for j in range(n) if any(dist(fake[j], real[i]) <= r_real[i] for i in range(m))) / n
    recall = sum(
        1 for i in range(m) if any(dist(real[i], fake[j]) <= r_fake[j] for j in range(n))) / m
    density = sum(
        1 for j in range(n) for i in range(m) if dist(fake[j], real[i]) <= r_real[i]) / (k * n)
    coverage = sum(
        1 for i in range(m) if any(dist(real[i], fake[j]) <= r_real[i] for j in range(n))) / m
    return precision, recall, density, coverage


def distance_block_sqrt(a, b):
    """Euclidean distances through a (rows, n, d) difference tensor."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def knn_radii_sqrt(points, k):
    """Distance to the k-th nearest neighbour within the set, self excluded."""
    dist = distance_block_sqrt(points, points)
    dist[np.arange(len(points)), np.arange(len(points))] = np.inf
    return np.partition(dist, k - 1, axis=1)[:, k - 1]


def manifold_metrics_sqrt(real, fake, k):
    """(precision, recall, density, coverage) from sqrt distances and sqrt radii."""
    dist = distance_block_sqrt(real, fake)
    m, n = dist.shape
    inside_real = dist <= knn_radii_sqrt(real, k)[:, None]
    recalled = (dist <= knn_radii_sqrt(fake, k)[None, :]).any(axis=1)
    return (float(inside_real.any(axis=0).mean()), int(recalled.sum()) / m,
            int(inside_real.sum()) / (k * n), int(inside_real.any(axis=1).sum()) / m)


def sq_distance_blocks_copyto(a, b, block_pairs=2 ** 16):
    """(lo, squared distances from a row block of a to every point of b), each
    coordinate's differences made as a fill of a's column plus a subtract."""
    n, d = b.shape
    b_cols = np.ascontiguousarray(b.T)
    rows = max(1, min(len(a), block_pairs // n))
    for lo in range(0, len(a), rows):
        a_block = a[lo:lo + rows]
        out = np.empty((len(a_block), n))
        term = np.empty((len(a_block), n))
        np.copyto(out, a_block[:, :1])
        out -= b_cols[0]
        out *= out
        for j in range(1, d):
            np.copyto(term, a_block[:, j:j + 1])
            term -= b_cols[j]
            term *= term
            out += term
        yield lo, out


def pairwise_distances_copyto(a, b):
    return np.concatenate([np.sqrt(sq) for _, sq in sq_distance_blocks_copyto(a, b)])


def ball_bounds_copyto(points, k):
    """Squared k-NN radii from the copyto blocks (partitioned copies), raised
    to the largest double whose sqrt is still the radius."""
    bound = np.empty(len(points))
    for lo, sq in sq_distance_blocks_copyto(points, points):
        rows = np.arange(len(sq))
        sq[rows, lo + rows] = np.inf
        bound[lo:lo + len(sq)] = np.partition(sq, k - 1, axis=1)[:, k - 1]
    radius = np.sqrt(bound)
    while True:
        up = np.nextafter(bound, np.inf)
        grow = (np.sqrt(up) <= radius) & (up > bound)
        if not grow.any():
            return bound
        bound[grow] = up[grow]


def mode_coverage_rows(samples, centers, sigma, hq_sigmas=3.0):
    """(covered modes, high-quality fraction) from a samples x centres
    distance matrix: the first nearest centre per row, modes counted by
    np.unique."""
    dists = pairwise_distances_copyto(samples, centers)
    nearest = dists.argmin(axis=1)
    d_min = dists[np.arange(len(samples)), nearest]
    high_quality = d_min <= hq_sigmas * sigma
    return int(np.unique(nearest[high_quality]).size), float(high_quality.mean())


def manifold_metrics_copyto(real, fake, k):
    """(precision, recall, density, coverage) from the copyto blocks and bounds."""
    real_bounds, fake_bounds = ball_bounds_copyto(real, k), ball_bounds_copyto(fake, k)
    sq = np.concatenate([block for _, block in sq_distance_blocks_copyto(real, fake)])
    m, n = sq.shape
    inside_real = sq <= real_bounds[:, None]
    recalled = (sq <= fake_bounds).any(axis=1)
    return (float(inside_real.any(axis=0).mean()), int(recalled.sum()) / m,
            int(inside_real.sum()) / (k * n), int(inside_real.any(axis=1).sum()) / m)


def image_grid_loop(images):
    """Square montage of (n, 1, h, w) images, one cell copied at a time into a
    grid of -1."""
    n, _, h, w = images.shape
    side = int(math.ceil(math.sqrt(n)))
    grid = np.full((side * h, side * w), -1.0)
    for i in range(n):
        r, c = divmod(i, side)
        grid[r * h:(r + 1) * h, c * w:(c + 1) * w] = images[i, 0]
    return grid


def checkpoint_bytes_joined(arrays, header=None):
    """UFSL version-5 checkpoint bytes built as one joined bytes object: magic,
    version, header length, the JSON header (the given entries plus the
    [name, shape] table), then each array's `tobytes()` data in C order."""
    table = [[name, list(np.shape(arr))] for name, arr in arrays.items()]
    encoded = json.dumps(dict(header or {}, arrays=table)).encode()
    data = [np.asarray(arr, dtype=np.float64).tobytes() for arr in arrays.values()]
    return b"".join([b"UFSL", struct.pack("<II", 5, len(encoded)), encoded] + data)


def denman_beavers_sqrt(mat, iters=60):
    """Iterative matrix square root: Y -> sqrt(mat) for matrices with positive spectrum."""
    y = np.array(mat, float)
    z = np.eye(len(mat))
    for _ in range(iters):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z = 0.5 * (z + np.linalg.inv(y))
        y = y_next
    return y


def frechet_oracle(fit_a, fit_b):
    prod_sqrt = denman_beavers_sqrt(fit_a.covariance @ fit_b.covariance)
    diff = fit_a.mean - fit_b.mean
    return float(diff @ diff + np.trace(fit_a.covariance + fit_b.covariance - 2.0 * prod_sqrt))


def covariance_root_symmetrizing(cov):
    """The square root of cov as covariance_root took it while a fit could
    hold an asymmetric covariance: symmetrize, then eigh, tiny negative
    eigenvalues clipped."""
    vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def frechet_distance_symmetrizing(mean_a, cov_a, mean_b, cov_b):
    """frechet_distance of (mean, cov) pairs as it was taken while a fit could
    hold an asymmetric covariance: each covariance symmetrized inside, the
    product's eigenvalues through eigvalsh of its symmetrized form."""
    root_a = covariance_root_symmetrizing(cov_a)
    cov_a, cov_b = (cov_a + cov_a.T) / 2.0, (cov_b + cov_b.T) / 2.0
    inner = root_a @ cov_b @ root_a
    trace_sqrt = float(np.sqrt(np.clip(np.linalg.eigvalsh((inner + inner.T) / 2.0), 0.0, None)).sum())
    diff = mean_a - mean_b
    return max(float(diff @ diff) + float(np.trace(cov_a) + np.trace(cov_b)) - 2.0 * trace_sqrt, 0.0)


# --- gradient checking ----------------------------------------------------- #


def fd_param_grads(value_fn, arrays, h=1e-6):
    """Central differences of a scalar function with respect to a list of arrays."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            fp = value_fn()
            flat[i] = old - h
            fm = value_fn()
            flat[i] = old
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def finite_diff_grad(f, x, h: float = 1e-5):
    """Central-difference gradient of a scalar function of one array, coordinate
    by coordinate."""
    if h <= 0:
        raise ContractError(f"step size must be positive, got {h}")
    x = nm.as_f64(x)
    g = np.zeros_like(x)
    flat_g = g.ravel()
    for i in range(x.size):
        xp = x.copy()
        xp.ravel()[i] += h
        xm = x.copy()
        xm.ravel()[i] -= h
        fp, fm = f(xp), f(xm)
        if np.ndim(fp) != 0 or np.ndim(fm) != 0:
            raise ContractError("finite_diff_grad needs a scalar-valued function")
        flat_g[i] = (float(fp) - float(fm)) / (2.0 * h)
    return g


# --- the critic with its head split off -------------------------------------- #


def critic_from_parts(body, w, b):
    """The critic with body `body` and head (w, b): a DiscriminatorNet on
    [body | w | b], the head a dense(C, 1) layer appended to the body."""
    return gan.DiscriminatorNet(body.specs + [nm.dense(len(w), 1)],
                                np.concatenate([body.theta, w, b]))


def param_arrays(specs, flat):
    """The W and b views of a flat parameter or gradient vector, layer by
    layer: its per-array form."""
    return [a for p in nm.param_views(specs, flat) for a in p.values()]


def split_scores(d, x):
    """Pooled features and scores of the critic, the head applied apart."""
    features, _ = nm.forward_pass(d.body.specs, d.body.params, x)
    return features, gan.score_from_features(d, features)


def penalty_at(d, x_hat, gp_lambda):
    """gan.penalty_with_grads on the whole critic's own forward cache at x_hat."""
    _, cache = nm.forward_pass(d.specs, d.params, x_hat)
    return gan.penalty_with_grads(d, cache, gp_lambda)


def penalty_split_head(d, x_hat, gp_lambda):
    """The gradient-norm penalty with the head split off: (value, flat body
    grads, dw). The score's gradient at the pooled features is w in every
    row, and dw is ones @ q, where q is the allocating second-order pass's
    term carried up to the features."""
    specs, params = d.body.specs, d.body.params
    _, cache = nm.forward_pass(specs, params, x_hat)
    ones = np.ones(len(x_hat))
    gx, tape = nm.backward_pass(specs, params, cache, gan.head_feature_grad(d.w, None, ones))
    norms = np.sqrt((gx * gx).sum(axis=tuple(range(1, gx.ndim))))
    value = gp_lambda * float(((norms - 1.0) ** 2).mean())
    coef = gp_lambda * 2.0 * (norms - 1.0) / (len(x_hat) * np.maximum(norms, 1e-12))
    pgrads, q = input_grad_param_grads_alloc(specs, params, cache, tape,
                                             gx * coef.reshape((-1,) + (1,) * (gx.ndim - 1)))
    return value, pgrads, ones @ q


def critic_objective_per_group(d, real, fake, loss, x_hat=None):
    """The critic objective with one body forward per group (real, fake, x_hat)
    and the head's gradients written out by hand: the form the library's
    single forward over the stacked groups and its whole-critic backward are
    checked against bitwise. Returns what gan.discriminator_objective_grads
    does."""
    specs, params = d.body.specs, d.body.params
    y_r, cache_r = nm.forward_pass(specs, params, real)
    y_f, cache_f = nm.forward_pass(specs, params, fake)
    s_r, s_f = gan.score_from_features(d, y_r), gan.score_from_features(d, y_f)
    value, dr, df = gan.critic_loss(loss.kind, s_r, s_f)
    dw = dr @ y_r + df @ y_f
    db = np.array([dr.sum() + df.sum()])
    grads_r, _ = backward_pass_oracle(specs, params, cache_r, np.outer(dr, d.w))
    grads_f, _ = backward_pass_oracle(specs, params, cache_f, np.outer(df, d.w))
    body_grads = flat_grads([{k: ga[k] + gb[k] for k in ga} for ga, gb in zip(grads_r, grads_f)])
    penalty = 0.0
    if loss.kind == "wgan_gp":
        penalty, pgrads, pw = penalty_split_head(d, x_hat, loss.gp_lambda)
        body_grads = body_grads + pgrads
        dw = dw + pw
    diag = {"real_scores": s_r, "fake_scores": s_f, "penalty": penalty,
            "y_real": y_r, "y_fake": y_f}
    return value + penalty, np.concatenate([body_grads, dw, db]), diag


def penalty_stacked(d, x_hat, gp_lambda):
    """The gradient-norm penalty's value through a forward and backward pass
    of the whole critic."""
    y, cache = nm.forward_pass(d.specs, d.params, x_hat)
    gx, _ = nm.backward_pass(d.specs, d.params, cache, np.ones_like(y))
    norms = np.sqrt((gx * gx).sum(axis=tuple(range(1, gx.ndim))))
    return gp_lambda * float(((norms - 1.0) ** 2).mean())


# --- the per-array training step ---------------------------------------------- #


def backward_pass_oracle(specs, params, cache, upstream):
    """The backward pass in one sweep: (per-layer parameter gradient dicts,
    input gradient), each parametric layer's gradients computed beside the
    input-gradient chain."""
    g = nm.as_f64(upstream)
    grads = [{} for _ in specs]
    for i in range(len(specs) - 1, -1, -1):
        s, p, c = specs[i], params[i], cache[i]
        if s.kind == "dense":
            grads[i]["W"] = g.T @ c
            grads[i]["b"] = g.sum(axis=0)
            g = g @ p["W"]
        elif s.kind == "conv2d":
            grads[i]["W"] = nm.conv2d_weight_grad(c, g, s.stride, s.kernel, s.kernel)
            grads[i]["b"] = g.sum(axis=(0, 2, 3))
            g = nm.conv2d_input_grad(g, p["W"], c.shape, s.stride)
        elif s.kind == "leaky_relu":
            g = g * c
        elif s.kind == "tanh":
            g = g * (1.0 - c * c)
        else:  # global_sum_pool
            g = np.broadcast_to(g[:, :, None, None], c.shape).copy()
    return grads, g


def forward_pass_alloc(specs, params, x):
    """The forward pass with a new array for every bias add and activation:
    returns what nm.forward_pass does."""
    h = nm.as_f64(x)
    cache = []
    for s, p in zip(specs, params):
        if s.kind == "dense":
            cache.append(h)
            h = h @ p["W"].T + p["b"]
        elif s.kind == "conv2d":
            cache.append(h)
            h = nm.conv2d_forward(h, p["W"], s.stride) + p["b"][None, :, None, None]
        elif s.kind == "leaky_relu":
            m = np.maximum(h > 0.0, s.slope)
            cache.append(m)
            h = h * m
        elif s.kind == "tanh":
            h = np.tanh(h)
            cache.append(h)
        else:  # global_sum_pool
            cache.append(h)
            h = nm.global_sum_pool(h)
    return h, cache


def input_grad_param_grads_alloc(specs, params, cache, tape, v):
    """The second-order pass with a new array for every gradient piece and
    product, joined by one np.concatenate: returns what
    nm.input_grad_param_grads does."""
    q = nm.as_f64(v)
    parts = []
    for i, (s, p, c) in enumerate(zip(specs, params, cache)):
        if s.kind == "dense":
            parts += [(tape[i].T @ q).ravel(), np.zeros_like(p["b"])]
            q = q @ p["W"].T
        elif s.kind == "conv2d":
            parts += [nm.conv2d_weight_grad(q, tape[i], s.stride, s.kernel, s.kernel).ravel(),
                      np.zeros_like(p["b"])]
            q = nm.conv2d_forward(q, p["W"], s.stride)
        elif s.kind == "leaky_relu":
            q = q * c
        elif s.kind == "tanh":
            raise UnsupportedArchitectureError(
                "second-order backward supports piecewise-linear activations only")
        else:  # global_sum_pool
            q = nm.global_sum_pool(q)
    return np.concatenate(parts), q


def flat_grads(grads):
    """Per-layer gradient dicts as one flat vector in the param_views layout."""
    return np.concatenate([arr.ravel() for g in grads for arr in g.values()])


@dataclass
class AdamOracle:
    """Adam state with one m and one v array per parameter."""

    lr: float
    b1: float
    b2: float
    eps: float
    m: list
    v: list
    step: int = 0

    @classmethod
    def for_params(cls, params, lr, b1, b2, eps=1e-8):
        return cls(lr, b1, b2, eps, [np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params])


def adam_step_oracle(state, params, grads):
    """One bias-corrected Adam update, array by array, in place."""
    state.step += 1
    c1 = 1.0 - state.b1 ** state.step
    c2 = 1.0 - state.b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.b1
        m += (1.0 - state.b1) * g
        v *= state.b2
        v += (1.0 - state.b2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# --- the generator objective ------------------------------------------------- #


def objective_state(rng, gen, d, mode, ufs_cfg, batch=5):
    """Trainer state selecting 3 of `batch` samples by `mode` (None: uniform
    weights) whose feature stats, with a UFS config, come from one seeded
    real/fake batch pair."""
    selection = None if mode is None else SelectionConfig(mode, 3, 2)
    cfg = gan.TrainConfig(batch_size=batch, iterations=10, loss=gan.LossKind("hinge"),
                          ufs=ufs_cfg, selection=selection)
    state = gan.init_trainer(cfg, gen, d)
    y_real, _ = nm.forward_pass(d.body.specs, d.body.params, rng.normal((8, 2)))
    y_fake, _ = nm.forward_pass(d.body.specs, d.body.params, rng.normal((8, 2), 0.5, 1.5))
    if ufs_cfg is not None:
        state.stats = ufs.update_stats(d.w, y_real, y_fake)
    return state


def frozen_generator_loss(state, z, s, weights):
    """-sum(weights * scores) with the mask s and the weights held fixed."""
    d = state.disc
    features, _ = nm.forward_pass(d.body.specs, d.body.params, state.gen.sample(z))
    scores = gan.score_from_features(
        d, features if s is None else ufs.apply_suppression(features, s))
    return -float(scores @ weights)


def masked_scores(y, s, w, b):
    """Critic scores of the features y masked by s under the head (w, b), as
    the generator objective forms them."""
    head = critic_from_parts(nm.Network([], np.zeros(0)), w, b)  # an empty body
    return gan.score_from_features(head, ufs.apply_suppression(y, s))


def worst_channel_weights(cfg):
    """The suppression weights at ratios beta and beta + 1, the clipped end of
    the mask where a channel's distance reaches the whole real-fake margin."""
    return ufs.compute_suppression(np.array([[cfg.beta, cfg.beta + 1.0]]), cfg, cfg.beta)


# --- tiny model builders ---------------------------------------------------- #


def init_network(specs, rng, scale):
    """nm.Network.init with N(0, scale^2) weights in place of N(0, WEIGHT_STD^2):
    the same draws in the same order, so gradient checks see weights large
    enough to matter."""
    net = nm.Network(specs, np.zeros(nm.param_size(specs)))
    for p in net.params:
        if p:
            p["W"][...] = rng.normal(p["W"].shape, 0.0, scale)
    return net



def small_mlp_disc(rng, in_dim=2, hidden=8, channels=6, scale=0.4):
    body = init_network(
        [nm.dense(in_dim, hidden), nm.leaky_relu(0.2), nm.dense(hidden, channels),
         nm.leaky_relu(0.2)], rng, scale)
    return critic_from_parts(body, rng.normal((channels,), 0.0, scale),
                             rng.normal((1,), 0.0, scale))


def small_conv_disc(rng, channels=4, scale=0.4):
    body = init_network(
        [nm.conv2d(1, 3, 3, 2), nm.leaky_relu(0.2), nm.conv2d(3, channels, 3, 1),
         nm.leaky_relu(0.2), nm.sum_pool()], rng, scale)
    return critic_from_parts(body, rng.normal((channels,), 0.0, scale),
                             rng.normal((1,), 0.0, scale))


def small_gen(rng, latent=4, out_dim=2, scale=0.4):
    net = init_network(
        [nm.dense(latent, 8), nm.leaky_relu(0.2), nm.dense(8, out_dim)], rng, scale)
    return gan.GeneratorNet(net, (out_dim,))


def cam_state(d):
    """A trainer state around critic d with UFS off, so compute_cam finds no
    mask; its generator is never run."""
    return gan.init_trainer(gan.TrainConfig(), small_gen(nm.SeededRng(0)), d)


def cam_per_variant(state, x):
    """CAM maps keyed by variant: one full body forward for the pooled
    features the mask is computed from, then one pre-pool forward per map."""
    d = state.disc
    specs, params = d.body.specs, d.body.params
    features, _ = nm.forward_pass(specs, params, x)
    s = gan.generator_mask(state, features)
    maps = {}
    for variant in ("cam",) if s is None else ("cam", "cam_ufs", "cam_sup"):
        feature_map, _ = nm.forward_pass(specs[:-1], params[:-1], x)
        if variant == "cam":
            masked = feature_map
        else:
            factor = s if variant == "cam_ufs" else 1.0 - s
            masked = feature_map * factor[:, :, None, None]
        maps[variant] = np.einsum("nchw,c->nhw", masked, d.w)
    return maps
