"""Numeric kernel: worked examples, invariants, and gradient checks."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from dams import kernel
from dams.kernel import (DegenerateBatchError, DimensionError, GradCheckAborted,
                         Parameter, grad_check)


def arr3(values):
    return np.asarray(values, dtype=np.float64)


class TestConv1d:
    def test_identity_kernel(self):
        x = arr3([[[1, 2, 3]]])
        w = arr3([[[1.0]]])
        out, _ = kernel.conv1d(x, w, np.zeros(1), padding=0)
        np.testing.assert_array_equal(out, x)

    def test_hand_summation(self):
        x = arr3([[[1, 2, 3, 4]]])
        w = arr3([[[1.0, 1.0]]])
        out, _ = kernel.conv1d(x, w, np.zeros(1), padding=0)
        np.testing.assert_array_equal(out, arr3([[[3, 5, 7]]]))

    def test_odd_kernel_same_padding_preserves_length(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 16))
        w = np.random.default_rng(1).standard_normal((4, 3, 3))
        out, _ = kernel.conv1d(x, w, np.zeros(4), padding=1)
        assert out.shape == (2, 4, 16)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_same_padding_any_odd_kernel(self, k):
        x = np.random.default_rng(2).standard_normal((1, 2, 11))
        w = np.random.default_rng(3).standard_normal((2, 2, k))
        out, _ = kernel.conv1d(x, w, np.zeros(2), padding=k // 2)
        assert out.shape[2] == 11

    def test_channel_mismatch_raises(self):
        with pytest.raises(DimensionError):
            kernel.conv1d(np.zeros((1, 2, 4)), np.zeros((1, 3, 1)), np.zeros(1))

    def test_kernel_too_long_raises(self):
        with pytest.raises(DimensionError):
            kernel.conv1d(np.zeros((1, 1, 2)), np.zeros((1, 1, 5)), np.zeros(1))

    def test_cross_correlation_convention(self):
        # an asymmetric kernel distinguishes correlation from convolution
        x = arr3([[[1, 0, 0]]])
        w = arr3([[[1.0, 2.0, 3.0]]])
        out, _ = kernel.conv1d(x, w, np.zeros(1), padding=1)
        # window at t=0 is [pad, 1, 0] -> w[1]*1 = 2; t=1 sees [1,0,0] -> w[0]*1
        np.testing.assert_array_equal(out, arr3([[[2, 1, 0]]]))


class TestPooling:
    def test_avg_unit_kernel_identity(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 5))
        out, _ = kernel.avg_pool1d(x, 1)
        np.testing.assert_array_equal(out, x)

    def test_avg_edge_divisor_excludes_padding(self):
        out, _ = kernel.avg_pool1d(arr3([[[2, 4, 6]]]), 3, padding=1)
        np.testing.assert_allclose(out, arr3([[[3, 4, 5]]]))

    def test_avg_length_preserved_t27(self):
        x = np.random.default_rng(1).standard_normal((1, 2, 27))
        out, _ = kernel.avg_pool1d(x, 3, stride=1, padding=1)
        assert out.shape == (1, 2, 27)

    def test_avg_kernel_too_long_raises(self):
        with pytest.raises(DimensionError):
            kernel.avg_pool1d(np.zeros((1, 1, 3)), kernel=6, padding=1)

    def test_max_unit_kernel_identity(self):
        x = np.random.default_rng(2).standard_normal((2, 3, 5))
        out, _ = kernel.max_pool1d(x, 1)
        np.testing.assert_array_equal(out, x)

    def test_max_hand_case(self):
        out, _ = kernel.max_pool1d(arr3([[[1, 5, 2]]]), 3, padding=1)
        np.testing.assert_array_equal(out, arr3([[[5, 5, 5]]]))

    def test_max_constant_input_constant_output(self):
        x = np.full((1, 2, 7), 3.5)
        out, _ = kernel.max_pool1d(x, 3, padding=1)
        np.testing.assert_array_equal(out, x)

    def test_max_padding_sentinel_never_wins(self):
        x = np.full((1, 1, 4), -100.0)
        out, _ = kernel.max_pool1d(x, 3, padding=1)
        np.testing.assert_array_equal(out, np.full((1, 1, 4), -100.0))


def avg_pool1d_backward_scatter(g, cache):
    """Reference: scatter each window tap through a fancy index."""
    (B, C, T), kernel_size, stride, padding, counts = cache
    gd = g / counts
    dxp = np.zeros((B, C, T + 2 * padding))
    starts = np.arange(g.shape[2]) * stride
    for k in range(kernel_size):
        dxp[:, :, starts + k] += gd
    return dxp[:, :, padding:padding + T] if padding else dxp


# (kernel, stride, padding, T): the pyramid scales s with padding s//2, then
# strided windows and inputs exactly as long as kernel - 2*padding.
POOL_GEOMETRIES = (
    [(s, 1, s // 2, T) for s in (1, 3, 9, 27) for T in (1, 2, 9, 40)]
    + [(4, 2, 1, 11), (4, 2, 1, 2), (5, 3, 2, 13), (5, 3, 2, 1),
       (9, 1, 2, 5), (7, 2, 0, 7), (6, 5, 2, 2), (29, 3, 14, 30)])


class TestAvgPoolBackward:
    @pytest.mark.parametrize("kernel_size,stride,padding,T", POOL_GEOMETRIES)
    def test_bit_identical_to_scatter(self, kernel_size, stride, padding, T):
        rng = np.random.default_rng([kernel_size, stride, padding, T])
        x = rng.standard_normal((2, 3, T))
        out, cache = kernel.avg_pool1d(x, kernel_size, stride, padding)
        g = rng.standard_normal(out.shape)
        assert np.array_equal(kernel.avg_pool1d_backward(g, cache),
                              avg_pool1d_backward_scatter(g, cache))

    @pytest.mark.parametrize("kernel_size,stride,padding,T",
                             [(9, 1, 4, 12), (27, 1, 13, 30), (4, 2, 1, 11),
                              (5, 3, 2, 13)])
    def test_gradient(self, kernel_size, stride, padding, T):
        rng = np.random.default_rng(kernel_size)
        x = Parameter(rng.uniform(-1, 1, (2, 2, T)), "x")
        out_shape = kernel.avg_pool1d(x.value, kernel_size, stride, padding)[0].shape
        r = rng.uniform(-1, 1, out_shape)

        def fn():
            out, cache = kernel.avg_pool1d(x.value, kernel_size, stride, padding)
            x.grad += kernel.avg_pool1d_backward(r, cache)
            return (out * r).sum()
        report = grad_check(fn, [x], tolerance=1e-8)
        assert report.passed, report.max_rel_error


def assert_same_array(a, b):
    """Equal shape, bytes and memory layout (strides of axes longer than 1):
    the layout sets the summation order of later reductions."""
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()
    assert ([s for s, n in zip(a.strides, a.shape) if n > 1]
            == [s for s, n in zip(b.strides, b.shape) if n > 1])


def conv1d_einsum(x, w, b, padding=0):
    """Reference: conv1d as an einsum over a sliding-window view."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    win = sliding_window_view(xp, w.shape[2], axis=2)
    return np.einsum("bctk,ock->bot", win, w, optimize=True) + b[None, :, None]


def conv1d_backward_einsum(g, cache):
    """Reference: conv1d_backward as one einsum for dw and one per tap for dx."""
    xp, w, padding, T = cache
    K = w.shape[2]
    win = sliding_window_view(xp, K, axis=2)
    dw = np.einsum("bot,bctk->ock", g, win, optimize=True)
    db = g.sum(axis=(0, 2))
    dxp = np.zeros_like(xp)
    To = g.shape[2]
    for k in range(K):
        dxp[:, :, k:k + To] += np.einsum("bot,oc->bct", g, w[:, :, k], optimize=True)
    dx = dxp[:, :, padding:padding + T] if padding else dxp
    return dx, dw, db


def avg_pool1d_window_sum(x, kernel_size, stride=1, padding=0):
    """Reference: avg_pool1d as a sum over a sliding-window view."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    win = sliding_window_view(xp, kernel_size, axis=2)[:, :, ::stride]
    starts = np.arange(win.shape[2]) * stride
    T = x.shape[2]
    counts = (np.minimum(starts + kernel_size, padding + T)
              - np.maximum(starts, padding)).astype(np.float64)
    return win.sum(axis=3) / counts


def wide_range(rng, shape, layout):
    """Values over ~30 binades, so that any change of summation order shows.
    layout "c": C-contiguous; "cm": channel-major ([C, B, T] in memory), as
    conv1d and the elementwise layers after it return."""
    if layout == "cm":
        return wide_range(rng, (shape[1], shape[0], shape[2]), "c").transpose(1, 0, 2)
    return rng.standard_normal(shape) * np.exp(3.0 * rng.standard_normal(shape))


CONV_WIDTHS = ((16, 16), (16, 8), (8, 1), (64, 16), (64, 128), (128, 128),
               (128, 64), (64, 1), (2, 1))


class TestConvGemmBytes:
    """conv1d/conv1d_backward as gemms give the einsum reference's bytes."""

    @pytest.mark.parametrize("K", [1, 3, 7])
    @pytest.mark.parametrize("cin,cout", CONV_WIDTHS)
    @pytest.mark.parametrize("x_layout", ["c", "cm"])
    def test_matches_einsum(self, K, cin, cout, x_layout):
        rng = np.random.default_rng([K, cin, cout])
        w = rng.uniform(-1, 1, (cout, cin, K))
        b = rng.uniform(-1, 1, cout)
        for padding in sorted({0, K // 2}):
            # (3, 11): a batch; (1, 9): one video; T = K - 2*padding: T' = 1
            for B, T in ((3, 11), (1, 9), (4, K - 2 * padding)):
                if T < 1:
                    continue
                x = wide_range(rng, (B, cin, T), x_layout)
                out, cache = kernel.conv1d(x, w, b, padding)
                assert_same_array(out, conv1d_einsum(x, w, b, padding))
                for g_layout in ("c", "cm"):
                    g = wide_range(rng, out.shape, g_layout)
                    for got, ref in zip(kernel.conv1d_backward(g, cache),
                                        conv1d_backward_einsum(g, cache)):
                        assert_same_array(got, ref)


class TestAvgPoolTapBytes:
    """avg_pool1d as strided-tap sums gives the window-sum reference's bytes."""

    @pytest.mark.parametrize("kernel_size,stride,padding,T", POOL_GEOMETRIES)
    @pytest.mark.parametrize("layout", ["c", "cm"])
    def test_pool_geometries(self, kernel_size, stride, padding, T, layout):
        x = wide_range(np.random.default_rng([kernel_size, T]), (2, 3, T), layout)
        out, _ = kernel.avg_pool1d(x, kernel_size, stride, padding)
        assert_same_array(out, avg_pool1d_window_sum(x, kernel_size, stride, padding))

    # 8 and 16 taps start the unrolled sums; 129 and 300 split in halves
    @pytest.mark.parametrize("kernel_size", list(range(1, 41)) + [129, 300])
    @pytest.mark.parametrize("layout", ["c", "cm"])
    def test_kernels_and_strides(self, kernel_size, layout):
        rng = np.random.default_rng(kernel_size)
        for stride in (1, 2, 3, 5):
            for padding in sorted({0, kernel_size // 2}):
                x = wide_range(rng, (2, 3, kernel_size + 2 * stride + 1), layout)
                out, _ = kernel.avg_pool1d(x, kernel_size, stride, padding)
                assert_same_array(
                    out, avg_pool1d_window_sum(x, kernel_size, stride, padding))

    @pytest.mark.parametrize("kernel_size", [1, 2, 3, 7, 8, 9, 16, 27, 40])
    def test_negative_zero_window(self, kernel_size):
        x = np.full((2, 3, kernel_size + 2), -0.0)
        out, _ = kernel.avg_pool1d(x, kernel_size)
        ref = avg_pool1d_window_sum(x, kernel_size)
        assert_same_array(out, ref)
        assert not np.signbit(ref).any()  # numpy sums from +0.0


class TestGlobalAvgPool:
    def test_constant(self):
        out, _ = kernel.global_avg_pool(np.full((2, 3, 5), 1.25))
        np.testing.assert_array_equal(out, np.full((2, 3), 1.25))

    def test_arithmetic_mean(self):
        out, _ = kernel.global_avg_pool(arr3([[[1, 2, 3]]]))
        np.testing.assert_array_equal(out, arr3([[2.0]]))

    def test_matches_full_width_avg_pool(self):
        x = np.random.default_rng(3).standard_normal((2, 4, 9))
        gap, _ = kernel.global_avg_pool(x)
        pooled, _ = kernel.avg_pool1d(x, kernel=9, padding=0)
        np.testing.assert_allclose(gap, pooled[:, :, 0], atol=1e-15)


class TestLinear:
    def test_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        out, _ = kernel.linear(x, np.eye(4), np.zeros(4))
        np.testing.assert_allclose(out, x)

    def test_hand_matmul(self):
        out, _ = kernel.linear(arr3([1, 2]), arr3([[1, 1], [1, -1]]), np.zeros(2))
        np.testing.assert_array_equal(out, arr3([3, -1]))

    def test_bias_only(self):
        out, _ = kernel.linear(np.ones((2, 3)), np.zeros((4, 3)), arr3([1, 2, 3, 4]))
        np.testing.assert_array_equal(out, np.tile(arr3([1, 2, 3, 4]), (2, 1)))

    def test_dim_mismatch_raises(self):
        with pytest.raises(DimensionError):
            kernel.linear(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(4))


class TestSoftmax:
    def test_uniform(self):
        out, _ = kernel.softmax(np.zeros((1, 4)), axis=1)
        np.testing.assert_allclose(out, np.full((1, 4), 0.25))

    def test_shift_invariance(self):
        x = np.random.default_rng(0).standard_normal((3, 5))
        a, _ = kernel.softmax(x, axis=1)
        b, _ = kernel.softmax(x + 17.5, axis=1)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_closed_form(self):
        out, _ = kernel.softmax(np.array([[0.0, np.log(3.0)]]), axis=1)
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_rows_sum_to_one(self):
        x = np.random.default_rng(1).standard_normal((10, 7)) * 50
        out, _ = kernel.softmax(x, axis=1)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestActivations:
    def test_sigmoid_zero(self):
        out, _ = kernel.sigmoid(np.zeros(1))
        assert out[0] == 0.5

    def test_relu_values(self):
        out, _ = kernel.relu(arr3([-1.0, 2.0]))
        np.testing.assert_array_equal(out, arr3([0.0, 2.0]))

    def test_sigmoid_symmetry(self):
        x = np.random.default_rng(0).standard_normal(100) * 5
        a, _ = kernel.sigmoid(x)
        b, _ = kernel.sigmoid(-x)
        np.testing.assert_allclose(a, 1.0 - b, atol=1e-15)

    def test_sigmoid_strictly_in_unit_interval(self):
        # |x| kept within the range where 1/(1+e^-x) is representable away
        # from the endpoints in 64-bit floats
        out, _ = kernel.sigmoid(arr3([-30.0, 0.0, 30.0]))
        assert np.all(out > 0.0) and np.all(out < 1.0)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        x = np.random.default_rng(0).standard_normal((4, 3, 8)) * 2 + 5
        state = kernel.BatchNormState.create(3)
        out, _ = kernel.batch_norm1d(x, np.ones(3), np.zeros(3), state, train=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_eval_identity_with_unit_running_stats(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 4))
        state = kernel.BatchNormState.create(3)  # mean 0, var 1
        out, _ = kernel.batch_norm1d(x, np.ones(3), np.zeros(3), state, train=False)
        np.testing.assert_allclose(out, x, atol=1e-5)

    def test_hand_case(self):
        x = arr3([[[1.0, 3.0]]])
        state = kernel.BatchNormState.create(1)
        out, _ = kernel.batch_norm1d(x, np.ones(1), np.zeros(1), state, train=True)
        np.testing.assert_allclose(out, arr3([[[-1.0, 1.0]]]), atol=1e-5)

    def test_degenerate_batch_raises(self):
        state = kernel.BatchNormState.create(1)
        with pytest.raises(DegenerateBatchError):
            kernel.batch_norm1d(np.zeros((1, 1, 1)), np.ones(1), np.zeros(1),
                                state, train=True)

    def test_running_stats_momentum(self):
        x = np.full((1, 1, 4), 2.0)
        state = kernel.BatchNormState.create(1)
        kernel.batch_norm1d(x, np.ones(1), np.zeros(1), state, train=True)
        np.testing.assert_allclose(state.running_mean, [0.9 * 0 + 0.1 * 2.0])
        np.testing.assert_allclose(state.running_var, [0.9 * 1 + 0.1 * 0.0])


class TestGradCheck:
    def test_linear_layer_tight(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 3))
        w = Parameter(rng.standard_normal((3, 3)), "w")
        b = Parameter(rng.standard_normal(3), "b")
        r = rng.standard_normal((3, 3))

        def fn():
            out, cache = kernel.linear(x, w.value, b.value)
            _, dw, db = kernel.linear_backward(r, cache)
            w.grad += dw
            b.grad += db
            return (out * r).sum()
        report = grad_check(fn, [w, b], tolerance=1e-7)
        assert report.passed and report.max_rel_error < 1e-7

    def test_constant_output_zero_grads(self):
        p = Parameter(np.ones(4), "p")

        def fn():
            return 3.0
        report = grad_check(fn, [p], tolerance=1e-9)
        assert report.passed and report.max_rel_error == 0.0

    def test_nonfinite_loss_aborts(self):
        p = Parameter(np.ones(1), "p")
        with pytest.raises(GradCheckAborted):
            grad_check(lambda: float("nan"), [p])

    def test_detects_wrong_gradient(self):
        p = Parameter(np.ones(2), "p")

        def fn():
            p.grad += 100.0  # deliberately wrong: true gradient is 2*p
            return float((p.value ** 2).sum())
        report = grad_check(fn, [p], tolerance=1e-5)
        assert not report.passed


class TestBackwardPasses:
    """Analytic backward of each op against finite differences (tol 1e-5)."""

    @pytest.mark.parametrize("name", ["conv1d", "avg_pool1d", "max_pool1d",
                                      "linear", "softmax", "sigmoid", "relu",
                                      "batch_norm1d"])
    def test_op_gradient(self, name):
        from dams.checks import ALL_CHECKS
        for seed in range(3):
            report = ALL_CHECKS[name](seed, tolerance=1e-5)
            assert report.passed, f"{name} seed {seed}: {report.max_rel_error}"

    def test_determinism(self):
        x = np.random.default_rng(5).uniform(-1, 1, (2, 3, 8))
        w = np.random.default_rng(6).uniform(-1, 1, (4, 3, 3))
        a, _ = kernel.conv1d(x, w, np.zeros(4), padding=1)
        b, _ = kernel.conv1d(x, w, np.zeros(4), padding=1)
        assert np.array_equal(a, b)
