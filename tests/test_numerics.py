import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import (backward_pass_oracle, conv2d_forward_channels_last, conv2d_input_grad_einsum,
                     conv2d_input_grad_tensordot, conv2d_loop, conv2d_weight_grad_einsum,
                     conv2d_weight_grad_tensordot, fd_param_grads, finite_diff_grad, flat_grads,
                     forward_pass_alloc, init_network, input_grad_param_grads_alloc, matmul_loop,
                     param_arrays, rel_err, sum_pool_loop)
from ufs_lab import gan
from ufs_lab import numerics as nm
from ufs_lab.errors import ContractError, DimensionError, UnsupportedArchitectureError


# --- matmul: a dense layer's product ------------------------------------------ #


def dense_product(a, b):
    """a @ b through forward_pass, as one bias-free dense layer with W = b.T."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    y, _ = nm.forward_pass([nm.dense(*b.shape)], [{"W": b.T, "b": np.zeros(b.shape[1])}], a)
    return y


def test_matmul_identity():
    b = np.array([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(dense_product(np.eye(2), b), b)


def test_matmul_hand():
    assert dense_product([[1.0, 2.0]], [[3.0], [4.0]]) == np.array([[11.0]])


def test_matmul_against_loop_oracle():
    rng = nm.SeededRng(11)
    a = rng.normal((4, 5))
    b = rng.normal((5, 3))
    assert rel_err(dense_product(a, b), matmul_loop(a, b)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(n, 2\).*\(2, 3\)"):
        dense_product(np.zeros((2, 3)), np.zeros((2, 2)))


# --- conv2d ----------------------------------------------------------------- #


def test_conv_identity_kernel():
    rng = nm.SeededRng(1)
    x = rng.normal((2, 1, 4, 4))
    y = nm.conv2d_forward(x, np.ones((1, 1, 1, 1)), 1)
    assert np.array_equal(y, x)


def test_conv_sum_kernel():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    k = np.ones((1, 1, 2, 2))
    assert nm.conv2d_forward(x, k, 1)[0, 0, 0, 0] == 10.0


def test_conv_matches_loop_oracle_exactly():
    rng = nm.SeededRng(2)
    x = rng.normal((2, 3, 8, 8))
    k = rng.normal((4, 3, 3, 3))
    got = nm.conv2d_forward(x, k, 2)
    assert np.array_equal(got, conv2d_loop(x, k, 2))


@st.composite
def conv_cases(draw):
    n, c, o = (draw(st.integers(1, 4)) for _ in range(3))
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride = draw(st.integers(1, 3))
    h = draw(st.integers(kh, kh + 2 * stride + 1))
    w = draw(st.integers(kw, kw + 2 * stride + 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = nm.SeededRng(seed)
    x = rng.normal((n, c, h, w))
    kernel = rng.normal((o, c, kh, kw))
    kind = draw(st.sampled_from(["normal", "zero_input", "mixed_signs"]))
    if kind == "zero_input":  # every product is -0.0; the 0.0 start must still give +0.0
        x = np.zeros_like(x)
        kernel = -np.abs(kernel)
    elif kind == "mixed_signs":  # exact cancellations and huge/tiny magnitudes
        x = np.round(x) * 10.0 ** rng.integers(7, size=x.shape) * 1e-3
    return x, kernel, stride


@settings(max_examples=150, deadline=None)
@given(conv_cases())
def test_conv_forward_bitwise_equals_loop_oracle(case):
    x, kernel, stride = case
    got = nm.conv2d_forward(x, kernel, stride)
    want = conv2d_loop(x, kernel, stride)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_conv_zero_input_negative_kernel_gives_positive_zero():
    got = nm.conv2d_forward(np.zeros((1, 2, 3, 3)), -np.ones((1, 2, 3, 3)), 1)
    assert got.tobytes() == np.zeros((1, 1, 1, 1)).tobytes()


def test_conv_forward_blocks_match_loop_oracle():
    # enough samples that the forward pass runs over several sample blocks
    rng = nm.SeededRng(3)
    x = rng.normal((70, 1, 5, 5))
    k = rng.normal((128, 1, 2, 2))
    assert nm.conv2d_forward(x, k, 1).tobytes() == conv2d_loop(x, k, 1).tobytes()


CRITIC_CONVS = [(1, 32, 16), (32, 64, 7), (64, 128, 3)]  # (in, out, input side), 3x3, stride 2


@pytest.mark.parametrize("x_shape", [(1, 1, 3, 3), (1, 3, 3, 3), (1, 64, 3, 3)])
def test_conv_forward_one_wide_accumulator_keeps_tap_order(x_shape):
    # one sample, one out channel, a 1x1 output: a 1-wide accumulator, where
    # an unpadded tap reduce would sum pairwise
    rng = nm.SeededRng(x_shape[1])
    x = rng.normal(x_shape)
    k = rng.normal((1,) + x_shape[1:])
    assert nm.conv2d_forward(x, k, 1).tobytes() == conv2d_loop(x, k, 1).tobytes()


@pytest.mark.parametrize("c,o,side", [(2, 1, 5), (3, 128, 7)])
def test_conv_forward_partial_last_block_matches_loop_oracle(c, o, side):
    # one row more than two blocks' budget: three blocks, and since the rows
    # do not divide by 3, the last one shorter than the others
    ho = (side - 3) // 2 + 1
    budget = nm._CONV_BLOCK_ELEMS // ((3 * 3 + 1) * ho * ho * max(o, 2))
    rows = 2 * budget + 1
    assert rows % 3
    rng = nm.SeededRng(c * o)
    x = rng.normal((rows, c, side, side))
    k = rng.normal((o, c, 3, 3))
    assert nm.conv2d_forward(x, k, 2).tobytes() == conv2d_loop(x, k, 2).tobytes()


@pytest.mark.parametrize("rows", [1, 4, 12])
@pytest.mark.parametrize("cin,cout,side", CRITIC_CONVS)
def test_conv_forward_critic_layers_match_loop_oracle(rows, cin, cout, side):
    rng = nm.SeededRng(100 * cin + rows)
    x = rng.normal((rows, cin, side, side))
    k = rng.normal((cout, cin, 3, 3))
    assert nm.conv2d_forward(x, k, 2).tobytes() == conv2d_loop(x, k, 2).tobytes()


@pytest.mark.parametrize("rows", [48, 192])  # batches 16 and 64, as [real; fake; x_hat]
@pytest.mark.parametrize("cin,cout,side", CRITIC_CONVS)
def test_conv_forward_critic_layers_match_channels_last_oracle(rows, cin, cout, side):
    rng = nm.SeededRng(100 * cin + rows)
    x = rng.normal((rows, cin, side, side))
    k = rng.normal((cout, cin, 3, 3))
    assert nm.conv2d_forward(x, k, 2).tobytes() == conv2d_forward_channels_last(x, k, 2).tobytes()


# (rows, out channels, output side): the buffers store block positions
# (rows x side^2) innermost when there are at least as many of them as
# (padded) out channels, else the out channels. One row with one out
# channel and a 1x1 output is test_conv_forward_one_wide_accumulator_keeps_tap_order.
LAYOUT_CASES = [(2, 17, 3), (2, 18, 3), (2, 19, 3), (3, 2, 1), (3, 4, 1)]


@pytest.mark.parametrize("rows,out,side", LAYOUT_CASES)
def test_conv_forward_either_side_of_the_layout_boundary_matches_loop_oracle(rows, out, side):
    rng = nm.SeededRng(rows * out + side)
    x = rng.normal((rows, 3, side + 2, side + 2))
    k = rng.normal((out, 3, 3, 3))
    assert nm.conv2d_forward(x, k, 1).tobytes() == conv2d_loop(x, k, 1).tobytes()


@pytest.mark.parametrize("out", [1, 2, 5])
def test_conv_forward_one_sample_last_block_in_either_layout(monkeypatch, out):
    # blocks of 2 samples with a 1x1 output: 2 positions against max(out, 2)
    # out channels, then a 1-position block in the layout chosen for 2
    monkeypatch.setattr(nm, "_CONV_BLOCK_ELEMS", (9 + 1) * max(out, 2) * 2)
    rng = nm.SeededRng(out)
    x = rng.normal((5, 2, 3, 3))
    k = rng.normal((out, 2, 3, 3))
    assert nm.conv2d_forward(x, k, 1).tobytes() == conv2d_loop(x, k, 1).tobytes()


def recording(monkeypatch, name, record):
    """Replace np.<name> by a wrapper that passes each call's out (or
    destination) array to record before running it."""
    fn = getattr(np, name)

    def wrapper(*args, **kwargs):
        record(kwargs.get("out", args[0]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(np, name, wrapper)


@pytest.mark.parametrize("rows,cin,cout,side,blocks", [
    (48, 32, 64, 7, [16, 16, 16]),  # a budget of 22 rows: not 22 + 22 + 4
    (12, 1, 32, 16, [6, 6]),  # a budget of 8 rows: not 8 + 4
    (70, 1, 128, 5, [24, 24, 22]),  # a budget of 25 rows: not 25 + 25 + 20
])
def test_conv_forward_splits_rows_into_near_equal_blocks(monkeypatch, rows, cin, cout, side, blocks):
    seen = []
    recording(monkeypatch, "copyto", lambda dst: seen.append(dst.shape[3]))  # (c, kh, kw, rows, ho, wo)
    rng = nm.SeededRng(rows)
    x = rng.normal((rows, cin, side, side))
    k = rng.normal((cout, cin, 3, 3))
    nm.conv2d_forward(x, k, 2)
    assert seen == blocks


@pytest.mark.parametrize("rows,cin,cout,side,groups", [
    (4, 64, 128, 3, [22, 22, 20]),  # room for 28 channels' taps: not 28 + 28 + 8
    (12, 64, 128, 3, [8] * 8),  # room for 9
    (4, 32, 64, 7, [6] * 5 + [2]),  # room for 6
    (12, 32, 64, 7, [1] * 32),  # no room for a second channel
])
def test_conv_forward_groups_input_channels_within_the_budget(monkeypatch, rows, cin, cout, side, groups):
    # one multiply per channel group, each writing 9 taps per channel
    seen = []
    recording(monkeypatch, "multiply", lambda prods: seen.append(len(prods) // 9))
    rng = nm.SeededRng(rows * cin)
    x = rng.normal((rows, cin, side, side))
    k = rng.normal((cout, cin, 3, 3))
    nm.conv2d_forward(x, k, 2)
    assert seen == groups


@pytest.mark.parametrize("out", [3, 40])  # positions innermost, then out-channels innermost
def test_conv_forward_channel_groups_with_a_short_last_group_match_loop_oracle(monkeypatch, out):
    # one block of 2 rows with room for 3 channels' taps: groups of 3, 3 and 1
    monkeypatch.setattr(nm, "_CONV_BLOCK_ELEMS", 2 * 3 * 3 * max(out, 2) * 30)
    rng = nm.SeededRng(out)
    x = rng.normal((2, 7, 5, 5))
    k = rng.normal((out, 7, 3, 3))
    want = conv2d_loop(x, k, 1)
    seen = []
    recording(monkeypatch, "multiply", lambda prods: seen.append(len(prods) // 9))
    assert nm.conv2d_forward(x, k, 1).tobytes() == want.tobytes()
    assert seen == [3, 3, 1]


@pytest.mark.parametrize("out", [2, 5, 9])  # full and short block: both positions, either, both out
def test_conv_forward_short_last_block_runs_on_its_own_buffers(monkeypatch, out):
    # blocks of 2, 2 and 1 rows with a 2x2 output
    monkeypatch.setattr(nm, "_CONV_BLOCK_ELEMS", (9 + 1) * 2 * 2 * max(out, 2) * 2)
    rng = nm.SeededRng(10 + out)
    x = rng.normal((5, 3, 4, 4))
    k = rng.normal((out, 3, 3, 3))
    want = conv2d_loop(x, k, 1)
    windows = []
    recording(monkeypatch, "copyto", windows.append)
    assert nm.conv2d_forward(x, k, 1).tobytes() == want.tobytes()
    assert [w.shape[3] for w in windows] == [2, 2, 1]  # (c, kh, kw, rows, ho, wo)
    assert all(w.flags.c_contiguous for w in windows)
    assert not np.shares_memory(windows[2], windows[0])


def test_conv_forward_leaves_the_ufunc_buffer_size_as_it_found_it(monkeypatch):
    rng = nm.SeededRng(21)
    x, k = rng.normal((3, 2, 5, 5)), rng.normal((4, 2, 3, 3))
    old = np.setbufsize(4096)
    try:
        nm.conv2d_forward(x, k, 1)
        assert np.getbufsize() == 4096

        def fail(*args, **kwargs):
            raise RuntimeError("copy failed")

        monkeypatch.setattr(np, "copyto", fail)  # raises inside the block loop
        with pytest.raises(RuntimeError, match="copy failed"):
            nm.conv2d_forward(x, k, 1)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


def test_unbuffered_ufuncs_restores_the_callers_buffer_size():
    old = np.setbufsize(4096)
    try:
        with nm.unbuffered_ufuncs():
            assert np.getbufsize() == nm._UFUNC_BUFSIZE == 16
        assert np.getbufsize() == 4096
        with pytest.raises(RuntimeError, match="inside"):
            with nm.unbuffered_ufuncs():
                raise RuntimeError("inside")
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("cin,cout,side", CRITIC_CONVS)
def test_conv_forward_same_bytes_at_any_caller_buffer_size(cin, cout, side):
    rng = nm.SeededRng(cin)
    x = rng.normal((12, cin, side, side))
    k = rng.normal((cout, cin, 3, 3))
    outs = []
    for size in (8192, 16):
        old = np.setbufsize(size)
        try:
            outs.append(nm.conv2d_forward(x, k, 2).tobytes())
        finally:
            np.setbufsize(old)
    assert outs[0] == outs[1] == conv2d_forward_channels_last(x, k, 2).tobytes()


@pytest.mark.parametrize("batch", [4, 64])
@pytest.mark.parametrize("cin,cout,side", CRITIC_CONVS)
def test_conv_grads_match_einsum_oracles(batch, cin, cout, side):
    rng = nm.SeededRng(1000 * cin + batch)
    x = rng.normal((batch, cin, side, side))
    kernel = rng.normal((cout, cin, 3, 3))
    ho = (side - 3) // 2 + 1
    dy = rng.normal((batch, cout, ho, ho))
    assert rel_err(nm.conv2d_weight_grad(x, dy, 2, 3, 3),
                   conv2d_weight_grad_einsum(x, dy, 2, 3, 3)) < 1e-12
    assert rel_err(nm.conv2d_input_grad(dy, kernel, x.shape, 2),
                   conv2d_input_grad_einsum(dy, kernel, x.shape, 2)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(conv_cases())
def test_conv_grads_match_einsum_oracles_any_geometry(case):
    x, kernel, stride = case
    o, _, kh, kw = kernel.shape
    dy = nm.SeededRng(x.size).normal(nm.conv2d_forward(x, kernel, stride).shape)
    assert rel_err(nm.conv2d_weight_grad(x, dy, stride, kh, kw),
                   conv2d_weight_grad_einsum(x, dy, stride, kh, kw)) < 1e-12
    assert rel_err(nm.conv2d_input_grad(dy, kernel, x.shape, stride),
                   conv2d_input_grad_einsum(dy, kernel, x.shape, stride)) < 1e-12


def assert_same_array(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [4, 12, 48])  # the critic's penalty, body and batch-16 body rows
@pytest.mark.parametrize("cin,cout,side", CRITIC_CONVS)
def test_conv_grads_bitwise_equal_tensordot_oracles(rows, cin, cout, side):
    rng = nm.SeededRng(10 * cin + rows)
    x = rng.normal((rows, cin, side, side))
    kernel = rng.normal((cout, cin, 3, 3))
    ho = (side - 3) // 2 + 1
    dy = rng.normal((rows, cout, ho, ho))
    assert_same_array(nm.conv2d_weight_grad(x, dy, 2, 3, 3), conv2d_weight_grad_tensordot(x, dy, 2, 3, 3))
    assert_same_array(nm.conv2d_input_grad(dy, kernel, x.shape, 2),
                      conv2d_input_grad_tensordot(dy, kernel, x.shape, 2))


@settings(max_examples=100, deadline=None)
@given(conv_cases())
def test_conv_grads_bitwise_equal_tensordot_oracles_any_geometry(case):
    x, kernel, stride = case
    o, _, kh, kw = kernel.shape
    dy = nm.SeededRng(x.size + 1).normal(nm.conv2d_forward(x, kernel, stride).shape)
    assert_same_array(nm.conv2d_weight_grad(x, dy, stride, kh, kw),
                      conv2d_weight_grad_tensordot(x, dy, stride, kh, kw))
    assert_same_array(nm.conv2d_input_grad(dy, kernel, x.shape, stride),
                      conv2d_input_grad_tensordot(dy, kernel, x.shape, stride))


def test_conv_weight_grad_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 4, 3, 3\).*\(2, 3, 8, 8\)"):
        nm.conv2d_weight_grad(np.zeros((2, 3, 8, 8)), np.zeros((2, 4, 3, 3)), 1, 3, 3)
    with pytest.raises(DimensionError, match=r"\(3, 4, 6, 6\)"):
        nm.conv2d_weight_grad(np.zeros((2, 3, 8, 8)), np.zeros((3, 4, 6, 6)), 1, 3, 3)
    with pytest.raises(DimensionError, match=r"\(2, 3, 8\).*\(2, 4, 6, 6\)"):
        nm.conv2d_weight_grad(np.zeros((2, 3, 8)), np.zeros((2, 4, 6, 6)), 1, 3, 3)


def test_conv_input_grad_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 4, 3, 3\).*\(2, 3, 8, 8\)"):
        nm.conv2d_input_grad(np.zeros((2, 4, 3, 3)), np.zeros((4, 3, 3, 3)), (2, 3, 8, 8), 1)
    with pytest.raises(DimensionError, match=r"\(2, 5, 6, 6\)"):
        nm.conv2d_input_grad(np.zeros((2, 5, 6, 6)), np.zeros((4, 3, 3, 3)), (2, 3, 8, 8), 1)
    with pytest.raises(DimensionError, match=r"\(2, 2, 8, 8\).*\(4, 3, 3, 3\)"):
        nm.conv2d_input_grad(np.zeros((2, 4, 6, 6)), np.zeros((4, 3, 3, 3)), (2, 2, 8, 8), 1)


def test_conv_kernel_too_large():
    with pytest.raises(DimensionError):
        nm.conv2d_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)), 1)


def test_conv_output_shape():
    y = nm.conv2d_forward(np.zeros((2, 3, 9, 9)), np.zeros((4, 3, 3, 3)), 2)
    assert y.shape == (2, 4, 4, 4)
    assert nm.conv2d_forward(np.zeros((2, 3, 9, 9)), np.zeros((0, 3, 3, 3)), 2).shape == (2, 0, 4, 4)


# --- activations -------------------------------------------------------------- #


def activate(spec, x):
    y, _ = nm.forward_pass([spec], [{}], np.asarray(x, float))
    return y


def test_leaky_relu_values():
    got = activate(nm.leaky_relu(0.2), [[-1.0, 0.0, 2.0]])
    assert np.allclose(got, [[-0.2, 0.0, 2.0]])


def test_tanh_zero():
    assert activate(nm.tanh(), np.zeros((1, 3))).sum() == 0.0


# --- global sum pool ------------------------------------------------------------ #


def test_pool_single_channel():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    assert nm.global_sum_pool(x)[0, 0] == 10.0


def test_pool_all_zero():
    assert np.array_equal(nm.global_sum_pool(np.zeros((2, 3, 4, 4))), np.zeros((2, 3)))


def test_pool_matches_loop_oracle_exactly():
    rng = nm.SeededRng(4)
    x = rng.normal((2, 3, 5, 7))
    assert np.array_equal(nm.global_sum_pool(x), sum_pool_loop(x))


def test_pool_wrong_rank():
    with pytest.raises(DimensionError):
        nm.global_sum_pool(np.zeros((2, 3)))


# --- backward pass ---------------------------------------------------------------- #


def test_dense_backward_trivial():
    # y = Wx + b with a single output, upstream 1: dW = x^T, db = 1
    net = nm.Network([nm.dense(3, 1)], np.array([2.0, -1.0, 0.5, 0.0]))
    x = np.array([[1.0, 2.0, 3.0]])
    _, cache = nm.forward_pass(net.specs, net.params, x)
    dx, tape = nm.backward_pass(net.specs, net.params, cache, np.ones((1, 1)))
    w_grad, b_grad = param_arrays(net.specs, nm.param_grads(net.specs, cache, tape))
    assert np.array_equal(w_grad, x)
    assert np.array_equal(b_grad, [1.0])
    assert np.array_equal(dx, [[2.0, -1.0, 0.5]])


def test_zero_upstream_gives_zero_grads():
    rng = nm.SeededRng(5)
    net = init_network([nm.dense(2, 4), nm.leaky_relu(0.2), nm.dense(4, 3)], rng, 0.5)
    _, cache = nm.forward_pass(net.specs, net.params, rng.normal((6, 2)))
    dx, tape = nm.backward_pass(net.specs, net.params, cache, np.zeros((6, 3)))
    assert np.all(nm.param_grads(net.specs, cache, tape) == 0.0)
    assert np.all(dx == 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_mlp_param_grads_match_finite_differences(seed):
    rng = nm.SeededRng(100 + seed)
    net = init_network(
        [nm.dense(3, 6), nm.leaky_relu(0.2), nm.dense(6, 5), nm.tanh(), nm.dense(5, 1)],
        rng, 0.5)
    x = rng.normal((4, 3))

    def loss():
        y, _ = nm.forward_pass(net.specs, net.params, x)
        return float(y.sum())

    y, cache = nm.forward_pass(net.specs, net.params, x)
    _, tape = nm.backward_pass(net.specs, net.params, cache, np.ones_like(y))
    grads = param_arrays(net.specs, nm.param_grads(net.specs, cache, tape))
    fd = fd_param_grads(loss, param_arrays(net.specs, net.theta))
    for got, want in zip(grads, fd, strict=True):
        assert rel_err(got, want) < 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_conv_net_grads_match_finite_differences(seed):
    rng = nm.SeededRng(200 + seed)
    net = init_network(
        [nm.conv2d(2, 3, 3, 2), nm.leaky_relu(0.1), nm.conv2d(3, 4, 2, 1), nm.leaky_relu(0.2),
         nm.sum_pool(), nm.dense(4, 1)], rng, 0.5)
    x = rng.normal((2, 2, 7, 7))

    def loss():
        y, _ = nm.forward_pass(net.specs, net.params, x)
        return float(y.sum())

    y, cache = nm.forward_pass(net.specs, net.params, x)
    dx, tape = nm.backward_pass(net.specs, net.params, cache, np.ones_like(y))
    grads = param_arrays(net.specs, nm.param_grads(net.specs, cache, tape))
    fd = fd_param_grads(loss, param_arrays(net.specs, net.theta))
    for got, want in zip(grads, fd, strict=True):
        assert rel_err(got, want) < 1e-5
    # input gradient against the coordinate-wise finite-difference oracle
    def loss_of_x(xv):
        y2, _ = nm.forward_pass(net.specs, net.params, xv)
        return float(y2.sum())
    assert rel_err(dx, finite_diff_grad(loss_of_x, x)) < 1e-5


def test_forward_backward_deterministic():
    rng = nm.SeededRng(6)
    net = init_network([nm.dense(3, 8), nm.leaky_relu(0.2), nm.dense(8, 2)], rng, 0.5)
    x = rng.normal((5, 3))
    y1, c1 = nm.forward_pass(net.specs, net.params, x)
    dx1, t1 = nm.backward_pass(net.specs, net.params, c1, np.ones_like(y1))
    y2, c2 = nm.forward_pass(net.specs, net.params, x)
    dx2, t2 = nm.backward_pass(net.specs, net.params, c2, np.ones_like(y2))
    assert np.array_equal(y1, y2)
    assert np.array_equal(dx1, dx2)
    assert np.array_equal(nm.param_grads(net.specs, c1, t1), nm.param_grads(net.specs, c2, t2))


def test_no_nan_from_finite_inputs():
    rng = nm.SeededRng(7)
    net = init_network(
        [nm.dense(4, 16), nm.leaky_relu(0.2), nm.dense(16, 16), nm.tanh(), nm.dense(16, 3)],
        rng, 0.5)
    x = rng.normal((10, 4), 0.0, 100.0)
    y, cache = nm.forward_pass(net.specs, net.params, x)
    dx, tape = nm.backward_pass(net.specs, net.params, cache, rng.normal(y.shape))
    assert np.isfinite(y).all() and np.isfinite(dx).all()
    assert np.isfinite(nm.param_grads(net.specs, cache, tape)).all()


@pytest.mark.parametrize("data_shape, batch", [((2,), 64), ((1, 16, 16), 4)])
def test_split_backward_matches_one_sweep_oracle_bitwise(data_shape, batch):
    rng = nm.SeededRng(11)
    gen, disc = gan.default_models(data_shape, rng)
    for net, x in ((disc, rng.normal((batch,) + data_shape)),
                   (gen.net, rng.normal((batch, gen.latent_dim)))):
        y, cache = nm.forward_pass(net.specs, net.params, x)
        upstream = rng.normal(y.shape)
        dx, tape = nm.backward_pass(net.specs, net.params, cache, upstream)
        want_grads, want_dx = backward_pass_oracle(net.specs, net.params, cache, upstream)
        assert dx.tobytes() == want_dx.tobytes()
        assert nm.param_grads(net.specs, cache, tape).tobytes() == flat_grads(want_grads).tobytes()


# --- in-place passes: bitwise the allocating forms, inputs untouched ------------------ #


def snapshot(arrays):
    return [None if a is None else a.tobytes() for a in arrays]


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_passes_match_alloc_and_keep_their_inputs(specs, params, x, rng):
    """Each pass bitwise equal to its allocating form, and x, upstream, v and
    every cache and tape entry holding their bytes after every later pass."""
    x_bytes = x.tobytes()
    want_y, want_cache = forward_pass_alloc(specs, params, x)
    y, cache = nm.forward_pass(specs, params, x)
    assert x.tobytes() == x_bytes
    assert_same_bytes(y, want_y)
    for c, w in zip(cache, want_cache, strict=True):
        assert_same_bytes(c, w)
    cache_bytes = snapshot(cache)

    upstream = rng.normal(y.shape)
    upstream_bytes = upstream.tobytes()
    want_grads, want_dx = backward_pass_oracle(specs, params, cache, upstream)
    dx, tape = nm.backward_pass(specs, params, cache, upstream)
    assert_same_bytes(dx, want_dx)
    assert upstream.tobytes() == upstream_bytes
    tape_bytes = snapshot(tape)
    assert_same_bytes(nm.param_grads(specs, cache, tape), flat_grads(want_grads))
    assert snapshot(cache) == cache_bytes and snapshot(tape) == tape_bytes

    v = rng.normal(x.shape)
    v_bytes = v.tobytes()
    if any(s.kind == "tanh" for s in specs):
        with pytest.raises(UnsupportedArchitectureError):
            nm.input_grad_param_grads(specs, params, cache, tape, v)
    else:
        want_pg, _ = input_grad_param_grads_alloc(specs, params, cache, tape, v)
        assert_same_bytes(nm.input_grad_param_grads(specs, params, cache, tape, v), want_pg)
    assert v.tobytes() == v_bytes
    assert snapshot(cache) == cache_bytes and snapshot(tape) == tape_bytes
    assert x.tobytes() == x_bytes and upstream.tobytes() == upstream_bytes


@pytest.mark.parametrize("data_shape, rows", [((2,), 64), ((2,), 192),
                                              ((1, 16, 16), 4), ((1, 16, 16), 12)])
def test_in_place_passes_match_allocating_forms_on_the_default_models(data_shape, rows):
    # the ring8 pair at a batch and at a stacked critic step; the conv critic
    # at the shapes16 batch and its stacked step (and its tanh generator)
    rng = nm.SeededRng(rows)
    gen, disc = gan.default_models(data_shape, rng)
    for net in (disc, gen.net):
        # weights large enough that both leaky branches and tanh's curve show
        params = [{k: rng.normal(a.shape, 0.0, 0.5) for k, a in p.items()} for p in net.params]
        x = rng.normal((rows,) + (data_shape if net is disc else (gen.latent_dim,)))
        assert_passes_match_alloc_and_keep_their_inputs(net.specs, params, x, rng)


@st.composite
def stacks(draw):
    """(specs, x shape): dense, leaky_relu and tanh layers in any order, at
    least one of them dense on points, or behind a conv layer and a sum pool
    on images."""
    kinds = draw(st.lists(st.sampled_from(["dense", "leaky_relu", "tanh"]), min_size=1, max_size=6))
    image = draw(st.booleans())
    if not image and "dense" not in kinds:
        kinds.append("dense")  # a stack with parameters to take gradients of
    rows = draw(st.integers(1, 9))
    width = draw(st.integers(1, 6))
    specs, shape = [], (rows, width)
    if image:
        shape = (rows, width, 7, 7)
        width = draw(st.integers(1, 5))
        specs.append(nm.conv2d(shape[1], width, draw(st.integers(1, 3)), draw(st.integers(1, 2))))
    pooled = not image
    for kind in kinds:
        if kind == "dense":
            if not pooled:
                specs.append(nm.sum_pool())
                pooled = True
            out = draw(st.integers(1, 6))
            specs.append(nm.dense(width, out))
            width = out
        else:
            specs.append(nm.leaky_relu(0.2) if kind == "leaky_relu" else nm.tanh())
    if not pooled:
        specs.append(nm.sum_pool())
    return specs, shape


@settings(max_examples=80, deadline=None)
@given(stack=stacks(), seed=st.integers(0, 2 ** 16))
@example(stack=([nm.leaky_relu(0.2), nm.dense(3, 4), nm.tanh(), nm.leaky_relu(0.1), nm.dense(4, 2)],
                (5, 3)), seed=0)
@example(stack=([nm.leaky_relu(0.2), nm.dense(3, 4), nm.leaky_relu(0.2), nm.dense(4, 2)],
                (5, 3)), seed=1)
@example(stack=([nm.conv2d(2, 3, 3, 2), nm.tanh(), nm.leaky_relu(0.2), nm.sum_pool(),
                 nm.dense(3, 2), nm.leaky_relu(0.2)], (4, 2, 7, 7)), seed=2)
def test_in_place_passes_match_allocating_forms_on_any_stack(stack, seed):
    specs, shape = stack
    rng = nm.SeededRng(seed)
    params = init_network(specs, rng, 0.5).params
    for p in params:
        if "b" in p:
            p["b"] = rng.normal(p["b"].shape, 0.0, 0.5)
    assert_passes_match_alloc_and_keep_their_inputs(specs, params, rng.normal(shape), rng)


def test_param_views_lay_out_each_layer_in_spec_order():
    specs = [nm.dense(2, 3), nm.leaky_relu(0.2), nm.conv2d(3, 2, 1), nm.sum_pool()]
    flat = np.arange(nm.param_size(specs), dtype=float)
    views = nm.param_views(specs, flat)
    assert [sorted(p) for p in views] == [["W", "b"], [], ["W", "b"], []]
    assert [a.shape for p in views for a in p.values()] == [(3, 2), (3,), (2, 3, 1, 1), (2,)]
    assert np.concatenate([a.ravel() for p in views for a in p.values()]).tobytes() == flat.tobytes()
    assert all(np.shares_memory(a, flat) for p in views for a in p.values())


@pytest.mark.parametrize("bad", [np.zeros(13), np.zeros(15), np.zeros(28)[::2],
                                 np.zeros(14, np.float32), np.zeros((2, 7)), list(range(14))],
                         ids=["short", "long", "strided", "float32", "2-d", "list"])
def test_param_views_refuses_anything_but_its_vector(bad):
    specs = [nm.dense(3, 2), nm.leaky_relu(0.2), nm.dense(2, 2)]
    assert nm.param_size(specs) == 14
    with pytest.raises(ContractError, match="contiguous, aligned float64 vector of 14"):
        nm.param_views(specs, bad)
    with pytest.raises(ContractError):
        nm.Network(specs, bad)


def test_network_theta_writes_show_in_the_forward_pass():
    rng = nm.SeededRng(20)
    net = init_network([nm.dense(3, 4), nm.leaky_relu(0.2), nm.dense(4, 2)], rng, 0.5)
    x = rng.normal((5, 3))
    before, _ = nm.forward_pass(net.specs, net.params, x)
    net.theta[-2:] += 1.0  # the last layer's bias
    after, _ = nm.forward_pass(net.specs, net.params, x)
    assert np.array_equal(after, before + 1.0)
    net.theta[:] = 0.0
    zero, _ = nm.forward_pass(net.specs, net.params, x)
    assert not zero.any()


def test_network_init_draws_weights_in_spec_order_into_one_vector():
    specs = [nm.dense(2, 3), nm.leaky_relu(0.2), nm.dense(3, 1)]
    theta = nm.Network.init(specs, nm.SeededRng(4)).theta
    rng = nm.SeededRng(4)
    want = [rng.normal((3, 2), 0.0, nm.WEIGHT_STD), np.zeros(3),
            rng.normal((1, 3), 0.0, nm.WEIGHT_STD), np.zeros(1)]
    assert theta.tobytes() == b"".join(a.tobytes() for a in want)


SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308]


@settings(max_examples=200, deadline=None)
@given(h=arrays(np.float64, array_shapes(min_dims=1, max_dims=4, max_side=6),
                elements=st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_subnormal=True)),
       slope=st.sampled_from([0.1, 0.2]))
def test_leaky_mask_is_bitwise_the_where_mask(h, slope):
    y, cache = nm.forward_pass([nm.leaky_relu(slope)], [{}], h)
    want = np.where(h > 0.0, 1.0, slope)
    assert cache[0].shape == want.shape and cache[0].tobytes() == want.tobytes()
    assert y.tobytes() == (h * want).tobytes()


# Each chain's first layer takes an input of in_shape; a later layer does not
# fit what the layer before it gives.
MISMATCHED_CHAINS = {
    "dense-dense-width": ([nm.dense(2, 4), nm.dense(5, 1)], (3, 2)),
    "conv-conv-channels": ([nm.conv2d(1, 2, 3), nm.conv2d(3, 1, 1)], (3, 1, 5, 5)),
    "dense-conv": ([nm.dense(2, 4), nm.conv2d(4, 1, 1)], (3, 2)),
    "dense-pool": ([nm.dense(2, 4), nm.sum_pool()], (3, 2)),
    "pool-pool": ([nm.conv2d(1, 2, 3), nm.sum_pool(), nm.sum_pool()], (3, 1, 5, 5)),
    "pool-dense-width": ([nm.conv2d(1, 2, 3), nm.sum_pool(), nm.dense(3, 1)], (3, 1, 5, 5)),
    "conv-dense": ([nm.conv2d(1, 2, 3), nm.leaky_relu(0.2), nm.dense(2, 1)], (3, 1, 5, 5)),
}


@pytest.mark.parametrize("specs,in_shape", MISMATCHED_CHAINS.values(), ids=MISMATCHED_CHAINS)
def test_first_forward_pass_rejects_mismatched_chain(specs, in_shape):
    net = nm.Network.init(specs, nm.SeededRng(0))
    with pytest.raises(DimensionError):
        nm.forward_pass(net.specs, net.params, np.ones(in_shape))


# --- finite differences -------------------------------------------------------------- #


def test_finite_diff_square():
    g = finite_diff_grad(lambda v: float(v[0] ** 2), np.array([3.0]))
    assert abs(g[0] - 6.0) < 1e-8


def test_finite_diff_sum_gives_ones():
    g = finite_diff_grad(lambda v: float(v.sum()), np.zeros((2, 3)))
    assert np.allclose(g, 1.0, atol=1e-9)


def test_finite_diff_rejects_vector_output():
    with pytest.raises(ContractError):
        finite_diff_grad(lambda v: v, np.zeros(2))


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ContractError):
        finite_diff_grad(lambda v: float(v.sum()), np.zeros(2), h=0.0)


# --- adam ------------------------------------------------------------------------------ #


def test_adam_first_step_magnitude():
    p = np.array([1.0])
    state = nm.AdamState.for_params(p)
    nm.adam_step(state, p, np.array([0.7]), 0.001)
    assert abs(abs(1.0 - p[0]) - 0.001) < 1e-6
    assert state.step == 1


def test_adam_zero_gradient_keeps_params():
    rng = nm.SeededRng(8)
    p = rng.normal((9,))
    before = p.copy()
    state = nm.AdamState.for_params(p)
    for _ in range(10):
        nm.adam_step(state, p, np.zeros(p.size), 1e-3)
    assert np.array_equal(p, before)


def test_adam_two_steps_decrease_quadratic():
    p = np.array([2.0])
    state = nm.AdamState.for_params(p)
    f0 = p[0] ** 2
    for _ in range(2):
        nm.adam_step(state, p, 2.0 * p, 0.1)
    assert p[0] ** 2 < f0


def test_adam_shape_mismatch():
    p = np.zeros(3)
    state = nm.AdamState.for_params(p)
    with pytest.raises(DimensionError):
        nm.adam_step(state, p, np.zeros(4), 1e-3)
    with pytest.raises(DimensionError):
        nm.adam_step(state, np.zeros(6), np.zeros(3), 1e-3)
    assert state.step == 0 and not state.m.any()


# --- rng: Gaussian samples come from SeededRng.normal ------------------------------------ #


def test_gaussian_sample_zero_std_is_constant():
    x = nm.SeededRng(9).normal((4, 4), mean=2.5, std=0.0)
    assert np.all(x == 2.5)


def test_gaussian_sample_same_seed_identical():
    a = nm.SeededRng(42).normal((100,))
    b = nm.SeededRng(42).normal((100,))
    assert np.array_equal(a, b)


def test_gaussian_sample_law_of_large_numbers():
    x = nm.SeededRng(10).normal((100_000,))
    assert abs(x.mean()) < 0.02
    assert abs(x.std() - 1.0) < 0.02


def test_gaussian_sample_negative_std():
    with pytest.raises(ContractError):
        nm.SeededRng(0).normal((2,), std=-1.0)


def test_rng_derive_is_deterministic_and_distinct():
    a = nm.SeededRng(5).derive(1, 2)
    b = nm.SeededRng(5).derive(1, 2)
    c = nm.SeededRng(5).derive(1, 3)
    assert a.seed == b.seed != c.seed
    assert np.array_equal(a.normal((8,)), b.normal((8,)))
