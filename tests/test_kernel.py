"""Numeric kernel: worked examples, invariants, and gradient checks."""

import math
import tracemalloc

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
        out, _ = kernel.conv1d(x, w, np.zeros(1))
        np.testing.assert_array_equal(out, x)

    def test_hand_summation(self):
        x = arr3([[[1, 2, 3, 4]]])
        w = arr3([[[1.0, 1.0, 1.0]]])
        out, _ = kernel.conv1d(x, w, np.zeros(1))
        np.testing.assert_array_equal(out, arr3([[[3, 6, 9, 7]]]))

    def test_odd_kernel_same_padding_preserves_length(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 16))
        w = np.random.default_rng(1).standard_normal((4, 3, 3))
        out, _ = kernel.conv1d(x, w, np.zeros(4))
        assert out.shape == (2, 4, 16)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_same_padding_any_odd_kernel(self, k):
        x = np.random.default_rng(2).standard_normal((1, 2, 11))
        w = np.random.default_rng(3).standard_normal((2, 2, k))
        out, _ = kernel.conv1d(x, w, np.zeros(2))
        assert out.shape[2] == 11

    def test_channel_mismatch_raises(self):
        with pytest.raises(DimensionError):
            kernel.conv1d(np.zeros((1, 2, 4)), np.zeros((1, 3, 1)), np.zeros(1))

    def test_even_kernel_raises(self):
        """An even kernel has no centre frame."""
        for k in (0, 2, 4):
            with pytest.raises(DimensionError, match="not odd"):
                kernel.conv1d(np.zeros((1, 1, 5)), np.zeros((1, 1, k)), np.zeros(1))

    def test_cross_correlation_convention(self):
        # an asymmetric kernel distinguishes correlation from convolution
        x = arr3([[[1, 0, 0]]])
        w = arr3([[[1.0, 2.0, 3.0]]])
        out, _ = kernel.conv1d(x, w, np.zeros(1))
        # window at t=0 is [pad, 1, 0] -> w[1]*1 = 2; t=1 sees [1,0,0] -> w[0]*1
        np.testing.assert_array_equal(out, arr3([[[2, 1, 0]]]))


def assert_within_prefix_sum_bound(got, ref, x, padding, counts=1.0):
    """|got - ref| <= 2*L*eps*sum(|row of x|)/count elementwise, with L =
    T + 2*padding the length of the padded row the prefix sums run over.

    `got` takes each window sum of the padded row as S[t + n] - S[t] of its
    prefix sums S. A prefix sum of j terms is off by at most (j-1)*u*sum|x|
    (u = eps/2, first order), the difference and the division by the count
    add one rounding each: at most 2*T*u*sum|x|/count. A reference that adds
    the at most L terms of one window and divides adds (L-1)*u*sum|x|/count
    and one rounding. Both together stay below 4*L*u = 2*L*eps.
    """
    assert got.shape == ref.shape
    L = x.shape[2] + 2 * padding
    row = np.abs(x).sum(axis=2, keepdims=True)
    bound = 2 * L * np.finfo(np.float64).eps * row / counts
    assert (np.abs(got - ref) <= bound).all(), np.max(np.abs(got - ref) / bound)


class TestPooling:
    def test_avg_unit_kernel_identity(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 5))
        out, _ = kernel.avg_pool1d(x, 1)
        assert_within_prefix_sum_bound(out, x, x, 0)

    def test_avg_edge_divisor_excludes_padding(self):
        out, _ = kernel.avg_pool1d(arr3([[[2, 4, 6]]]), 3)
        np.testing.assert_allclose(out, arr3([[[3, 4, 5]]]))

    def test_avg_length_preserved_t27(self):
        x = np.random.default_rng(1).standard_normal((1, 2, 27))
        out, _ = kernel.avg_pool1d(x, 3)
        assert out.shape == (1, 2, 27)

    def test_avg_even_kernel_raises(self):
        """A kernel that is even or not positive has no centre frame."""
        for k in (-1, 0, 2, 6):
            with pytest.raises(DimensionError, match="not odd"):
                kernel.avg_pool1d(np.zeros((1, 1, 3)), k)

    def test_max_over_unit_axis_identity(self):
        """A max over an axis of length 1 is the input without that axis."""
        x = np.random.default_rng(2).standard_normal((2, 3, 1))
        out, _ = kernel.max_over(x, 2)
        np.testing.assert_array_equal(out, x[:, :, 0])
        out, _ = kernel.max_over(x.transpose(0, 2, 1), 1)
        np.testing.assert_array_equal(out, x[:, :, 0])

    def test_max_hand_case(self):
        """The max of [1, 5, 2] is 5, over time and over channels."""
        out, _ = kernel.max_over(arr3([[[1, 5, 2]]]), 2)
        np.testing.assert_array_equal(out, arr3([[5]]))
        out, _ = kernel.max_over(arr3([[[1], [5], [2]]]), 1)
        np.testing.assert_array_equal(out, arr3([[5]]))

    def test_max_constant_input_constant_output(self):
        """A constant row's max is that constant."""
        out, _ = kernel.max_over(np.full((1, 2, 7), 3.5), 2)
        np.testing.assert_array_equal(out, np.full((1, 2), 3.5))

    def test_max_over_all_negative_row(self):
        """An all -100 row gives -100: nothing but the row enters the max."""
        out, _ = kernel.max_over(np.full((1, 1, 4), -100.0), 2)
        np.testing.assert_array_equal(out, np.full((1, 1), -100.0))

    @pytest.mark.parametrize("axis", [1, 2])
    def test_max_tie_goes_to_first_index(self, axis):
        """Of two equal maxima the first index wins and takes the whole
        gradient."""
        x = np.moveaxis(arr3([[[1, 4, 4, 2], [0, 0, 0, 0]]]), 2, axis)
        out, cache = kernel.max_over(x, axis)
        np.testing.assert_array_equal(out, arr3([[4, 0]]))
        dx = kernel.max_over_backward(arr3([[3, 7]]), cache)
        want = np.moveaxis(arr3([[[0, 3, 0, 0], [7, 0, 0, 0]]]), 2, axis)
        np.testing.assert_array_equal(dx, want)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_max_first_index_channel_major(self, axis):
        """On channel-major frames, where the channel axis is outermost in
        memory, rows with ties (one all equal) match argmax's first index;
        `into` adds the same gradient at the same places."""
        rng = np.random.default_rng(axis)
        x = rng.integers(0, 3, (4, 5, 6)).astype(np.float64)
        x[1, :, 2] = x[1, 2, :] = 1.5
        x = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
        out, cache = kernel.max_over(x, axis)
        np.testing.assert_array_equal(out, x.max(axis=axis))
        g = rng.standard_normal(out.shape)
        want = np.zeros(x.shape)
        np.put_along_axis(want, np.expand_dims(x.argmax(axis=axis), axis),
                          np.expand_dims(g, axis), axis=axis)
        dx = kernel.max_over_backward(g, cache)
        np.testing.assert_array_equal(dx, want)
        assert_channel_major(dx)
        base = wide_range(rng, x.shape, "cm")
        np.testing.assert_array_equal(
            kernel.max_over_backward(g, cache, into=base.copy()), base + want)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_max_nan_gradient_goes_to_first_nan(self, axis):
        """A row whose max is NaN sends its gradient to its first NaN, as
        numpy's argmax does, in either memory layout; other rows keep the
        first index of their max."""
        x = np.moveaxis(arr3([[[1, 5, np.nan, np.nan], [0, 3, 1, 3]]]), 2, axis)
        want = np.moveaxis(arr3([[[0, 0, 3, 0], [0, 7, 0, 0]]]), 2, axis)
        for layout in (np.ascontiguousarray(x),
                       np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)):
            out, cache = kernel.max_over(layout, axis)
            assert np.isnan(out[0, 0]) and out[0, 1] == 3
            np.testing.assert_array_equal(
                kernel.max_over_backward(arr3([[3, 7]]), cache), want)


def avg_pool1d_backward_scatter(g, kernel_size, padding, T, counts):
    """Reference: the backward of a pool padded by `padding`, which scatters
    each window tap through a fancy index."""
    B, C, To = g.shape
    gd = g / counts
    dxp = np.zeros((B, C, T + 2 * padding))
    starts = np.arange(To)
    for k in range(kernel_size):
        dxp[:, :, starts + k] += gd
    return dxp[:, :, padding:padding + T]


def refused(kernel_size):
    """For an even kernel, which has no centre frame, check that avg_pool1d
    refuses it and return True; return False for an odd kernel."""
    if kernel_size % 2:
        return False
    with pytest.raises(DimensionError, match="not odd"):
        kernel.avg_pool1d(np.zeros((2, 3, 5)), kernel_size)
    return True


def centre_crop(kernel_size, padding, T):
    """The frames of a same-length pool or conv that the one padded by
    `padding` <= kernel_size // 2 computes: its output t is the window
    centred on frame t + d, d = kernel_size // 2 - padding."""
    d = kernel_size // 2 - padding
    return slice(d, T - d)


# (kernel, batch, padding, T): the pyramid scales s with padding s//2 on one
# and on two videos (one video's "cm" layout is the "c" one), then batches of
# 1 to 5 videos with odd kernels at padding kernel // 2, the even kernels the
# pools refuse, and odd kernels padded by less than kernel // 2, which are a
# `centre_crop` of the same-length pool, on inputs exactly as long as
# kernel - 2*padding.
POOL_GEOMETRIES = (
    [(s, b, s // 2, T) for s in (1, 3, 9, 27) for b in (1, 2)
     for T in (1, 2, 9, 40)]
    + [(4, 2, 1, 11), (4, 2, 1, 2), (5, 3, 2, 13), (5, 3, 2, 1),
       (9, 1, 2, 5), (9, 2, 2, 5), (7, 2, 0, 7), (6, 5, 2, 2),
       (29, 3, 14, 30)])


class TestAvgPoolBackward:
    @pytest.mark.parametrize("kernel_size,batch,padding,T", POOL_GEOMETRIES)
    def test_bit_identical_to_scatter(self, kernel_size, batch, padding, T):
        """The backward is the centred window sum of g / counts; it is within
        that sum's prefix-sum bound of the scatter reference. Padded by less
        than kernel // 2, the pool's backward is the same-length backward of
        a g that is zero outside the crop (the name keeps the test ids)."""
        if refused(kernel_size):
            return
        rng = np.random.default_rng([kernel_size, batch, padding, T])
        x = rng.standard_normal((batch, 3, T))
        out, cache = kernel.avg_pool1d(x, kernel_size)
        counts = cache[1]
        crop = centre_crop(kernel_size, padding, T)
        g = np.zeros(out.shape)
        g[:, :, crop] = rng.standard_normal(out[:, :, crop].shape)
        assert_within_prefix_sum_bound(
            kernel.avg_pool1d_backward(g, cache),
            avg_pool1d_backward_scatter(g[:, :, crop], kernel_size, padding, T,
                                        counts[crop]),
            g / counts, kernel_size // 2)

    @pytest.mark.parametrize("kernel_size,batch,padding,T",
                             [(9, 1, 4, 12), (9, 2, 4, 12), (27, 1, 13, 30),
                              (27, 2, 13, 30), (4, 2, 1, 11), (5, 3, 2, 13)])
    def test_gradient(self, kernel_size, batch, padding, T):
        """Every odd row is padded by kernel // 2; the even one is refused."""
        if refused(kernel_size):
            return
        rng = np.random.default_rng(kernel_size)
        x = Parameter(rng.uniform(-1, 1, (batch, 2, T)), "x")
        r = rng.uniform(-1, 1, x.value.shape)

        def fn():
            out, cache = kernel.avg_pool1d(x.value, kernel_size)
            x.grad += kernel.avg_pool1d_backward(r, cache)
            return (out * r).sum()
        report = grad_check(fn, [x], tolerance=1e-8)
        assert report.passed, report.max_rel_error


def assert_channel_major(a):
    """[C, B, T] memory order: the strides of the axes longer than 1 fall
    from C to B to T (a slice along T, like a padded buffer's interior,
    keeps that order)."""
    strides = [a.strides[i] for i in (1, 0, 2) if a.shape[i] > 1]
    assert strides == sorted(strides, reverse=True), a.strides


def assert_within_dot_bound(got, ref, abs_ref, n):
    """|got - ref| <= n*eps*abs_ref elementwise, where each entry is a sum of
    at most n products a_i*b_i and `abs_ref` is the same computation on
    |a_i| and |b_i|, i.e. sum(|a_i*b_i|).

    Any order of summing n products, with or without fused multiply-adds,
    is within gamma_n*sum(|a_i*b_i|) of the exact sum, gamma_n = n*u/(1-n*u)
    and u = eps/2 (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1). Two such orders differ by at most 2*gamma_n*sum|a_i*b_i|,
    which to first order in u is n*eps*sum|a_i*b_i|; `abs_ref`, a sum of
    nonnegative terms, is within gamma_n of sum|a_i*b_i| relatively, a
    second-order change to the bound.
    """
    assert got.shape == ref.shape
    bound = n * np.finfo(np.float64).eps * abs_ref
    assert (np.abs(got - ref) <= bound).all(), np.max(np.abs(got - ref) - bound)


def assert_same_array(a, b):
    """Equal shape, bytes and memory layout (strides of axes longer than 1):
    the layout sets the summation order of later reductions."""
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()
    assert ([s for s, n in zip(a.strides, a.shape) if n > 1]
            == [s for s, n in zip(b.strides, b.shape) if n > 1])


def conv1d_einsum(x, w, b):
    """Reference: conv1d as an einsum over a sliding-window view of the
    input padded by K // 2."""
    padding = w.shape[2] // 2
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    win = sliding_window_view(xp, w.shape[2], axis=2)
    return np.einsum("bctk,ock->bot", win, w, optimize=True) + b[None, :, None]


def conv1d_backward_einsum(g, cache):
    """Reference: conv1d_backward as one einsum for dw and one per tap for dx."""
    xp, w = cache
    K = w.shape[2]
    padding, T = K // 2, g.shape[2]
    win = sliding_window_view(xp, K, axis=2)
    dw = np.einsum("bot,bctk->ock", g, win, optimize=True)
    db = g.sum(axis=(0, 2))
    dxp = np.zeros_like(xp)
    for k in range(K):
        dxp[:, :, k:k + T] += np.einsum("bot,oc->bct", g, w[:, :, k], optimize=True)
    return dxp[:, :, padding:padding + T], dw, db


def avg_pool1d_window_sum(x, kernel_size, padding):
    """Reference: avg_pool1d as a sum over a sliding-window view."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    win = sliding_window_view(xp, kernel_size, axis=2)
    starts = np.arange(win.shape[2])
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
    """conv1d gives the einsum reference's bytes and layout on a
    channel-major input. A C-order input is padded into a channel-major
    buffer, whose im2col the reference reads with other strides when T = 1,
    so there the output is held to the dot-product bound (Cin*K products
    and the bias). conv1d_backward gives the reference's db bytes, and dw and dx within
    the dot-product bound: a dw entry sums B*T products, a dx entry at most
    Cout*K. dx is channel-major."""

    @pytest.mark.parametrize("K", [1, 3, 7])
    @pytest.mark.parametrize("cin,cout", CONV_WIDTHS)
    @pytest.mark.parametrize("x_layout", ["c", "cm"])
    def test_matches_einsum(self, K, cin, cout, x_layout):
        rng = np.random.default_rng([K, cin, cout])
        w = rng.uniform(-1, 1, (cout, cin, K))
        b = rng.uniform(-1, 1, cout)
        # (3, 11): a batch; (1, 9): one video; (4, 1): one frame each
        for B, T in ((3, 11), (1, 9), (4, 1)):
            x = wide_range(rng, (B, cin, T), x_layout)
            out, cache = kernel.conv1d(x, w, b)
            ref = conv1d_einsum(x, w, b)
            if x_layout == "cm":
                assert_same_array(out, ref)
            else:
                assert_within_dot_bound(
                    out, ref, conv1d_einsum(np.abs(x), np.abs(w), np.abs(b)),
                    cin * K + 1)
                assert_channel_major(out)
            abs_cache = (np.abs(cache[0]), np.abs(w))
            for g_layout in ("c", "cm"):
                g = wide_range(rng, out.shape, g_layout)
                dx, dw, db = kernel.conv1d_backward(g, cache)
                ref_dx, ref_dw, ref_db = conv1d_backward_einsum(g, cache)
                abs_dx, abs_dw, _ = conv1d_backward_einsum(np.abs(g), abs_cache)
                assert_within_dot_bound(dw, ref_dw, abs_dw, B * T)
                assert_within_dot_bound(dx, ref_dx, abs_dx, cout * K)
                assert_channel_major(dx)
                assert_same_array(db, ref_db)

    @pytest.mark.parametrize("K,padding", [(1, 0), (3, 1), (7, 3), (3, 0)])
    @pytest.mark.parametrize("cin,cout", [(64, 16), (16, 16), (128, 128)])
    def test_without_dx(self, K, padding, cin, cout):
        """need_dx=False returns no dx and the dw and db bytes of the full
        call. Padded by less than K // 2, the conv's backward is the
        same-length backward of a g that is zero outside the crop."""
        rng = np.random.default_rng([K, padding, cin, cout])
        w = rng.uniform(-1, 1, (cout, cin, K))
        b = rng.uniform(-1, 1, cout)
        x = wide_range(rng, (3, cin, 11), "cm")
        out, cache = kernel.conv1d(x, w, b)
        g = wide_range(rng, out.shape, "cm")
        crop = centre_crop(K, padding, 11)
        g[:, :, :crop.start] = g[:, :, crop.stop:] = 0.0
        _, dw, db = kernel.conv1d_backward(g, cache)
        dx, dw_only, db_only = kernel.conv1d_backward(g, cache, need_dx=False)
        assert dx is None
        assert_same_array(dw_only, dw)
        assert_same_array(db_only, db)


class TestAvgPoolTapBytes:
    """avg_pool1d as prefix-sum differences stays within their error bound of
    the window-sum reference, in both input layouts."""

    @pytest.mark.parametrize("kernel_size,batch,padding,T", POOL_GEOMETRIES)
    @pytest.mark.parametrize("layout", ["c", "cm"])
    def test_pool_geometries(self, kernel_size, batch, padding, T, layout):
        """Padded by less than kernel // 2, the pool is the same-length
        pool's `centre_crop`."""
        if refused(kernel_size):
            return
        x = wide_range(np.random.default_rng([kernel_size, T]), (batch, 3, T), layout)
        out, (_, counts) = kernel.avg_pool1d(x, kernel_size)
        crop = centre_crop(kernel_size, padding, T)
        assert_within_prefix_sum_bound(
            out[:, :, crop], avg_pool1d_window_sum(x, kernel_size, padding), x,
            kernel_size // 2, counts[crop])

    @pytest.mark.parametrize("kernel_size", list(range(1, 41)) + [129, 300])
    @pytest.mark.parametrize("layout", ["c", "cm"])
    def test_kernels_and_strides(self, kernel_size, layout):
        """Every odd kernel on two videos in both memory layouts; every even
        one is refused (all at stride 1; the name keeps the test ids)."""
        if refused(kernel_size):
            return
        padding = kernel_size // 2
        x = wide_range(np.random.default_rng(kernel_size), (2, 3, kernel_size + 3),
                       layout)
        out, (_, counts) = kernel.avg_pool1d(x, kernel_size)
        assert_within_prefix_sum_bound(
            out, avg_pool1d_window_sum(x, kernel_size, padding), x, padding, counts)

    @pytest.mark.parametrize("kernel_size", [1, 2, 3, 7, 8, 9, 16, 27, 40])
    def test_negative_zero_window(self, kernel_size):
        """A row of -0.0 pools to zeros; an even kernel is refused. Their
        sign is not pinned: a window at the start is S[t + n] - S[t] with
        S[t] the padding's +0.0."""
        if refused(kernel_size):
            return
        x = np.full((2, 3, kernel_size + 2), -0.0)
        out, _ = kernel.avg_pool1d(x, kernel_size)
        assert np.array_equal(out, np.zeros_like(out))

    @pytest.mark.parametrize("T", [128, 1024, 4096])
    @pytest.mark.parametrize("kernel_size", [1, 3, 9, 27])
    def test_matches_fsum(self, T, kernel_size):
        """Each output against the correctly rounded window sum (math.fsum)
        over the count, on N(0.5, 1) rows as long as 4096 frames."""
        x = np.random.default_rng([T, kernel_size]).normal(0.5, 1.0, (1, 2, T))
        padding = kernel_size // 2
        out, (_, counts) = kernel.avg_pool1d(x, kernel_size)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))).tolist()
        exact = np.array([[[math.fsum(row[t:t + kernel_size]) for t in range(T)]
                           for row in video] for video in xp]) / counts
        assert_within_prefix_sum_bound(out, exact, x, padding, counts)


def batch_norm1d_reference(x, gamma, beta, state, train):
    """Reference: batch norm with numpy's x.mean/x.var statistics."""
    B, C, T = x.shape
    if train:
        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        state.running_mean[...] = (kernel.BN_MOMENTUM * state.running_mean
                                   + (1.0 - kernel.BN_MOMENTUM) * mean)
        state.running_var[...] = (kernel.BN_MOMENTUM * state.running_var
                                  + (1.0 - kernel.BN_MOMENTUM) * var)
    else:
        mean = state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + kernel.BN_EPS)
    xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
    out = gamma[None, :, None] * xhat + beta[None, :, None]
    return out, (xhat, inv_std, gamma, B * T)


def batch_norm1d_backward_reference(g, cache):
    """Reference: the backward of training-mode batch norm."""
    xhat, inv_std, gamma, n = cache
    dgamma = (g * xhat).sum(axis=(0, 2))
    dbeta = g.sum(axis=(0, 2))
    dxhat = g * gamma[None, :, None]
    s1 = dxhat.sum(axis=(0, 2), keepdims=True)
    s2 = (dxhat * xhat).sum(axis=(0, 2), keepdims=True)
    dx = inv_std[None, :, None] * (dxhat - s1 / n - xhat * s2 / n)
    return dx, dgamma, dbeta


def assert_within_bn_backward_bound(got, ref, g, cache):
    """|got - ref| <= (n + 7)*eps*|gamma|*inv_std*A elementwise, with
    A = |g| + (sum|g| + |xhat|*sum|g*xhat|)/n, the sums over (B, T).

    Exactly, dx = gamma*inv_std*(g - sum(g)/n - xhat*sum(g*xhat)/n), and
    |dx| <= |gamma|*inv_std*A. The kernel forms
    (gamma*inv_std/n)*((n*g - dbeta) - xhat*dgamma), whose bracket is at
    most n*A in size: dbeta and dgamma are within (n-1)u*sum|g| and
    n*u*sum|g*xhat| of their exact values (u = eps/2), together at most
    n*u*n*A in the bracket; the roundings of n*g, of xhat*dgamma and of the
    two subtractions add u*n*A each; the scale's two roundings and the last
    product add three u relative to dx. That is (n + 7)*u*|gamma|*inv_std*A
    to first order. The reference's inv_std*((dxhat - s1/n) - xhat*s2/n) with
    dxhat = gamma*g sums one more rounding into s2 and counts (n + 6)*u the
    same way. The two differ by at most (2n + 13)*u <= (n + 7)*eps times
    gamma*inv_std*A.
    """
    xhat, inv_std, gamma, n = cache
    a = (np.abs(g) + (np.abs(g).sum(axis=(0, 2), keepdims=True)
                      + np.abs(xhat) * np.abs(g * xhat).sum(axis=(0, 2), keepdims=True))
         / n)
    scale = np.abs(gamma)[None, :, None] * inv_std.reshape(1, -1, 1)
    bound = (n + 7) * np.finfo(np.float64).eps * scale * a
    assert got.shape == ref.shape
    assert (np.abs(got - ref) <= bound).all(), np.max(np.abs(got - ref) - bound)


class TestBatchNormBytes:
    """batch_norm1d, its running statistics and the backward's dgamma and
    dbeta give the reference's bytes and layouts; the backward's dx is
    channel-major and within `assert_within_bn_backward_bound` of the
    reference. Eval mode keeps no backward cache."""

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("x_layout", ["c", "cm"])
    @pytest.mark.parametrize("g_layout", ["c", "cm"])
    @pytest.mark.parametrize("shape", [(3, 5, 11), (1, 16, 9), (30, 16, 7),
                                       (4, 8, 1)])
    def test_matches_reference(self, train, x_layout, g_layout, shape):
        rng = np.random.default_rng(list(shape))
        C = shape[1]
        x = wide_range(rng, shape, x_layout) + 3.0
        gamma = rng.uniform(0.5, 1.5, C)
        beta = rng.standard_normal(C)
        stats = rng.standard_normal(C), rng.uniform(0.5, 2.0, C)
        got_state = kernel.BatchNormState(stats[0].copy(), stats[1].copy())
        ref_state = kernel.BatchNormState(stats[0].copy(), stats[1].copy())
        out, cache = kernel.batch_norm1d(x, gamma, beta, got_state, train)
        ref, ref_cache = batch_norm1d_reference(x, gamma, beta, ref_state, train)
        assert_same_array(out, ref)
        assert_same_array(got_state.running_mean, ref_state.running_mean)
        assert_same_array(got_state.running_var, ref_state.running_var)
        if not train:
            assert cache is None
            return
        g = wide_range(rng, shape, g_layout)
        check_batch_norm_backward(g, cache, ref_cache)

    @pytest.mark.parametrize("layout", ["c", "cm"])
    @pytest.mark.parametrize("shape", [(30, 16, 120), (2, 128, 3), (5, 3, 40)])
    def test_backward_wide_range(self, layout, shape):
        """gamma, x and g all spread over ~30 binades, at batch sizes up to
        the model's (n = B*T = 3600)."""
        rng = np.random.default_rng([7, *shape])
        C = shape[1]
        x = wide_range(rng, shape, layout)
        gamma = wide_range(rng, (1, C, 1), "c").reshape(C)
        beta = rng.standard_normal(C)
        state = kernel.BatchNormState.create(C)
        _, cache = kernel.batch_norm1d(x, gamma, beta, state, True)
        _, ref_cache = batch_norm1d_reference(x, gamma, beta,
                                              kernel.BatchNormState.create(C), True)
        check_batch_norm_backward(wide_range(rng, shape, layout), cache, ref_cache)


def check_batch_norm_backward(g, cache, ref_cache):
    dx, dgamma, dbeta = kernel.batch_norm1d_backward(g, cache)
    ref_dx, ref_dgamma, ref_dbeta = batch_norm1d_backward_reference(g, ref_cache)
    assert_same_array(dgamma, ref_dgamma)
    assert_same_array(dbeta, ref_dbeta)
    assert_channel_major(dx)
    assert_within_bn_backward_bound(dx, ref_dx, g, cache)


class TestFrameLayout:
    """A C=16 training step and a ten-crop eval forward: every [B, C, T]
    operand and result of the conv, pool and batch-norm kernels is
    channel-major, and a 1-tap conv1d_backward reads its channel-major g
    without copying it."""

    SPIED = ("conv1d", "conv1d_backward", "avg_pool1d", "batch_norm1d",
             "batch_norm1d_backward")

    def run(self, monkeypatch, step):
        """`step(cfg, model, weights)` of a C=16 model with every SPIED
        kernel spied on; returns (name, args, result, transient bytes) per
        call, after checking that every 3-d operand and result is
        channel-major."""
        from dams.amtpn import PyramidConfig
        from dams.model import ModelConfig
        from dams.trainer import TrainConfig, build_model

        calls = []

        def spy(name, fn):
            def wrapped(*args, **kw):
                tracemalloc.start()
                try:
                    result = fn(*args, **kw)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                kept = sum(r.nbytes for r in result if isinstance(r, np.ndarray))
                calls.append((name, args, result, peak - kept))
                return result
            return wrapped

        for name in self.SPIED:
            monkeypatch.setattr(kernel, name, spy(name, getattr(kernel, name)))
        model = ModelConfig(input_dim=16, channels=16, depth=1,
                            pyramid=PyramidConfig(scales=(1, 3, 9, 27), channels=16))
        cfg = TrainConfig(model=model, seed=0, batch_size=8)
        step(cfg, *build_model(cfg))

        for name, args, result, transient in calls:
            for a in (args[0], result[0]):
                if isinstance(a, np.ndarray):
                    assert a.ndim == 3
                    assert_channel_major(a)
        return calls

    def test_train_step(self, monkeypatch):
        from dams.data import SyntheticSpec, batch_iter, synthesize_dataset
        from dams.trainer import train_step

        records = synthesize_dataset(SyntheticSpec(num_videos=8, t_min=20, t_max=40,
                                                   input_dim=16, seed=0))
        calls = self.run(monkeypatch, lambda cfg, net, weights: train_step(
            net, weights, next(batch_iter(records, 8, 0, "train")), cfg, 0))

        assert {name for name, *_ in calls} == set(self.SPIED)
        copy_checked = 0
        for name, args, result, transient in calls:
            if name == "conv1d_backward":
                g, (_, w) = args[0], args[1]
                if w.shape[0] > 1 and w.shape[2] == 1:
                    assert transient < g.nbytes // 2, (w.shape, transient, g.nbytes)
                    copy_checked += 1
        assert copy_checked >= 6  # the projection, four TPP convs, AFF's refine, head.conv1

    def test_score_video(self, monkeypatch):
        """`score_video` stacks the crops into a channel-major buffer, so the
        projection's im2col reads it as a view."""
        from dams.data import SyntheticSpec, synthesize_dataset
        from dams.trainer import score_video

        record = synthesize_dataset(SyntheticSpec(num_videos=1, t_min=30, t_max=30,
                                                  input_dim=16, num_crops=10,
                                                  seed=0))[0]
        calls = self.run(monkeypatch, lambda cfg, net, weights: score_video(net, record))
        assert {name for name, *_ in calls} == {"conv1d", "avg_pool1d", "batch_norm1d"}
        assert calls[0][1][0].shape == (10, 16, 30)  # the projection's input


class TestMeanOver:
    """`mean_over(x, 2)`, the temporal mean of every descriptor."""

    def test_constant(self):
        """A constant row's temporal mean is that constant."""
        out, _ = kernel.mean_over(np.full((2, 3, 5), 1.25), 2)
        np.testing.assert_array_equal(out, np.full((2, 3), 1.25))

    def test_arithmetic_mean(self):
        """The temporal mean of [1, 2, 3] is 2."""
        out, _ = kernel.mean_over(arr3([[[1, 2, 3]]]), 2)
        np.testing.assert_array_equal(out, arr3([[2.0]]))

    def test_matches_full_width_avg_pool(self):
        """`mean_over(x, 2)` agrees at every frame with the centred pool of
        width 2T - 1, whose every window covers the whole row."""
        x = np.random.default_rng(3).standard_normal((2, 4, 9))
        gap, _ = kernel.mean_over(x, 2)
        pooled, _ = kernel.avg_pool1d(x, 17)
        np.testing.assert_allclose(pooled, np.repeat(gap[:, :, None], 9, axis=2),
                                   atol=1e-15)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entries", [None, 1])
    def test_nonfinite_analytic_gradient_aborts(self, bad, entries):
        """A backward that writes NaN or inf into one gradient entry fails
        the check, also when that entry is not among the sampled ones."""
        p = Parameter(np.ones(50), "p")
        sampled = np.random.default_rng(0).choice(50, size=1, replace=False)
        i = 0 if sampled[0] != 0 else 1  # never sampled with one entry

        def fn():
            p.grad += 2.0 * p.value
            p.grad[i] = bad
            return float((p.value ** 2).sum())
        with pytest.raises(GradCheckAborted, match="analytic gradient of p"):
            grad_check(fn, [p], max_entries_per_param=entries,
                       rng=np.random.default_rng(0))

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

    @pytest.mark.parametrize("shape", [(2, 3, 5), (2, 1, 5), (2, 3, 1)])
    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("op", ["mean_over", "max_over"])
    def test_axis_reduction_gradient(self, op, axis, shape):
        """Uniform draws hold no tie, which finite differences could not check."""
        from dams.checks import _op_check
        out_shape = tuple(n for i, n in enumerate(shape) if i != axis)
        for seed in range(3):
            report = _op_check(seed, [(shape, "x")], out_shape,
                               lambda x: getattr(kernel, op)(x, axis),
                               getattr(kernel, f"{op}_backward"), tolerance=1e-5)
            assert report.passed, f"{op} seed {seed}: {report.max_rel_error}"

    def test_determinism(self):
        x = np.random.default_rng(5).uniform(-1, 1, (2, 3, 8))
        w = np.random.default_rng(6).uniform(-1, 1, (4, 3, 3))
        a, _ = kernel.conv1d(x, w, np.zeros(4))
        b, _ = kernel.conv1d(x, w, np.zeros(4))
        assert np.array_equal(a, b)
