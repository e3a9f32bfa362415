"""Minimal deterministic numeric kernel.

Rank-1/2/3 float64 arrays with the small fixed set of forward operations the
model needs, a hand-written backward for each, and a finite-difference
gradient checker. There is no tape: every composite module calls the
`*_backward` functions in reverse order of its forward calls.

Conventions (pinned by tests):
  - conv1d and avg_pool1d run at stride 1 over same-length centred windows:
    an odd kernel n is zero-padded by n // 2 at both ends, so output frame
    t is the window centred on input frame t; other kernels raise
    `DimensionError`. conv1d is cross-correlation (no kernel flip).
  - avg_pool1d divides by the number of in-bounds frames only
    (count-exclude-pad). A centred window sum is its own adjoint, so the
    backward is the same window sum over g / counts.
  - mean_over and max_over reduce one whole axis, which the output drops.
    A tie for the max goes to the first index, which takes the whole
    gradient; a NaN max sends it to the first NaN.

Layout: a [B, C, T] frame tensor is channel-major, [C, B, T] in memory, so
its [C, B*T] matrix is its memory and the conv gemms read it as a view.
Every frame buffer a kernel allocates itself comes from `frame_buffer`, and
the elementwise results numpy allocates follow their operands' layout, so
channel-major in is channel-major out. The one buffer that copies an
operand's layout instead is batch_norm1d's squares buffer: a sum's bytes
depend on the layout it runs over, and the variance keeps x.var's bytes.

Summation order (pinned against numpy references in tests/test_kernel.py,
byte for byte unless a bound is named):
  - conv1d is one gemm, out = W[Cout, Cin*K] @ cols[Cin*K, B*T], where
    cols (im2col) holds tap k of input channel c in row c*K + k; K = 1,
    which pads nothing, makes cols a view of a channel-major input. The
    result is returned as a view of the gemm's output.
  - conv1d_backward takes g[Cout, B*T] as a view of a channel-major g.
    dW = g @ cols.T and dx = W.T @ g are one gemm each, within
    N*eps*sum(|terms|) of any other order of their N-term dot products.
    For K = 1 dx is the gemm's output; otherwise its K taps are added in
    tap order into a zeroed, padded buffer.
  - avg_pool1d and its backward sum each window as a difference of two prefix
    sums: an output is within 2*L*eps*sum(|row|)/count of exact, L being the
    padded row's length.
  - batch_norm1d's training statistics have the bytes of x.mean and x.var
    over (B, T): one sum divided by the count, the centred input computed
    once for the variance and xhat. Its backward takes dgamma = sum(g*xhat)
    and dbeta = sum(g), and from them
    dx = (gamma*inv_std/n) * ((n*g - dbeta) - xhat*dgamma), channel-major.
  - In eval mode batch norm is a per-channel affine map of the running
    statistics, folded into the conv before it (`batch_norm_fold`): one
    conv1d with weight w*s and bias (b - mean)*s + beta,
    s = gamma/sqrt(var + eps).

Padding mask (eval forward only): a [B, T] `mask` is 1 on a row's real
frames and 0 on the zeros that pad it to the batch's length. conv1d reads a
padded frame as zero; avg_pool1d divides by the valid frames in each window
(its input must already be zero on padded frames); mean_over over time
divides the sum of the valid frames by the row's length; max_over over time
never takes a padded frame. With a mask of ones each gives the bytes it
gives without one, so a video scores the same in a padded batch as alone,
up to the last bits of the gemms.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from numpy.lib.stride_tricks import as_strided


class DimensionError(ValueError):
    """Operand shapes are incompatible with the operation."""


class DegenerateBatchError(ValueError):
    """Batch statistics are undefined (fewer than two samples per channel)."""


class GradCheckAborted(RuntimeError):
    """The loss closure produced a non-finite loss or gradient."""


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def frame_buffer(B, C, T, zero=False):
    """A [B, C, T] float64 buffer laid out channel-major ([C, B, T] in
    memory), zero-filled when `zero` is set."""
    return (np.zeros if zero else np.empty)((C, B, T)).transpose(1, 0, 2)


@dataclasses.dataclass
class Parameter:
    """A learnable array paired with its gradient accumulator."""

    value: np.ndarray
    name: str
    grad: np.ndarray = None

    def __post_init__(self):
        self.value = as_f64(self.value)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        assert self.grad.shape == self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

def mask_frames(x, mask, out=None):
    """`x` [B, C, T] with the frames where the [B, T] `mask` is 0 zeroed,
    written into `out` (a new channel-major buffer by default)."""
    if out is None:
        out = frame_buffer(*x.shape)
    return np.multiply(x, mask[:, None, :], out=out)


def _pad_time(x, padding, mask=None):
    """`x` with `padding` zeros at both ends of the time axis, and its
    padded frames zeroed when a `mask` is given."""
    if not padding:
        return x
    B, C, T = x.shape
    xp = frame_buffer(B, C, T + 2 * padding, zero=True)
    if mask is None:
        xp[:, :, padding:padding + T] = x
    else:
        mask_frames(x, mask, out=xp[:, :, padding:padding + T])
    return xp


def _im2col(xp, K, To):
    """[C*K, B*To] columns: row c*K + k holds xp[b, c, k:k + To] for each b.

    A strided view of `xp` reshaped: numpy copies it in C order unless the
    reshape can stay a view (K = 1 on a channel-major input, or To = 1).
    """
    B, C, _ = xp.shape
    sb, sc, st = xp.strides
    taps = as_strided(xp, (C, K, B, To), (sc, st, sb, st), writeable=False)
    return taps.reshape(C * K, B * To)


def conv1d(x, w, b, mask=None):
    """1D cross-correlation, stride 1, zero-padded by K // 2 at both ends, so
    output frame t is centred on input frame t (K odd). With a [B, T]
    `mask`, the padded frames of `x` read as zero (K = 1 reads no neighbour).

    x: [B, Cin, T], w: [Cout, Cin, K], b: [Cout] -> out [B, Cout, T], a
    channel-major view ([Cout, B, T] in memory) of one [Cout, Cin*K] x
    [Cin*K, B*T] gemm.
    """
    B, cin, T = x.shape
    cout, cin_w, K = w.shape
    if cin != cin_w:
        raise DimensionError(f"conv1d: input channels {cin} != kernel channels {cin_w}")
    if K % 2 == 0:
        raise DimensionError(f"conv1d: kernel {K} is not odd")
    xp = _pad_time(x, K // 2, mask)
    out = np.matmul(w.reshape(cout, cin * K), _im2col(xp, K, T))
    out += b[:, None]
    return out.reshape(cout, B, T).transpose(1, 0, 2), (xp, w)


def conv1d_backward(g, cache, need_dx=True):
    """(dx, dw, db) of `conv1d`; with `need_dx` false the input gradient is
    not computed and dx is None. dx is channel-major."""
    xp, w = cache
    cout, cin, K = w.shape
    B, _, T = g.shape
    g_cols = g.transpose(1, 0, 2).reshape(cout, B * T)  # a view if g is channel-major
    dw = np.matmul(g_cols, _im2col(xp, K, T).T).reshape(cout, cin, K)
    db = g.sum(axis=(0, 2))
    if not need_dx:
        return None, dw, db
    dcols = np.matmul(w.reshape(cout, cin * K).T, g_cols).reshape(cin, K, B, T)
    if K == 1:
        return dcols[:, 0].transpose(1, 0, 2), dw, db
    dxp = frame_buffer(B, cin, T + K - 1, zero=True)
    for k in range(K):
        dxp[:, :, k:k + T] += dcols[:, k].transpose(1, 0, 2)
    h = K // 2
    return dxp[:, :, h:h + T], dw, db


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def _window_sums(x, n):
    """[B, C, T]: the sum of the n-wide window (n odd) centred on each frame
    of `x`, zero-padded by n // 2 at both ends, as S[t + n] - S[t] of the
    padded input's prefix sums S (S[0] = 0)."""
    B, C, T = x.shape
    h = n // 2
    S = frame_buffer(B, C, T + 2 * h + 1)
    S[:, :, :h + 1] = 0.0
    np.cumsum(x, axis=2, out=S[:, :, h + 1:h + 1 + T])
    S[:, :, h + 1 + T:] = S[:, :, h + T, None]
    return S[:, :, n:] - S[:, :, :-n]


def avg_pool1d(x, kernel, mask=None):
    """The mean of the `kernel`-wide window centred on each frame; the
    divisor counts only in-bounds frames. With a [B, T] `mask` it counts the
    valid frames of the window's own row, and `x` must be zero on padded
    frames; a padded frame with no valid frame in reach pools to 0."""
    if kernel < 1 or kernel % 2 == 0:
        raise DimensionError(f"avg_pool1d: kernel {kernel} is not odd and positive")
    if mask is None:
        h, T = kernel // 2, x.shape[2]
        t = np.arange(T)
        counts = (np.minimum(t + h + 1, T) - np.maximum(t - h, 0)).astype(np.float64)
    else:  # a window sum of 0/1 values is exact; 0 counts divide a 0 sum
        counts = np.maximum(_window_sums(mask[:, None, :], kernel), 1.0)
    out = _window_sums(x, kernel)
    out /= counts
    return out, (kernel, counts)


def avg_pool1d_backward(g, cache):
    """A centred window sum is its own adjoint: the input gradient is the
    same window sum over g / counts."""
    kernel, counts = cache
    return _window_sums(g / counts, kernel)


def mean_over(x, axis, mask=None):
    """Mean along `axis`, which the output drops. With a [B, T] `mask`
    (time axis 2 only), the sum of each row's valid frames over its length;
    that form has no backward."""
    if mask is None:
        return x.mean(axis=axis), (axis, x.shape[axis])
    out = mask_frames(x, mask).sum(axis=2)
    out /= mask.sum(axis=1)[:, None]
    return out, None


def mean_over_backward(g, cache):
    axis, n = cache
    shape = list(g.shape)
    shape.insert(axis, n)
    dx = frame_buffer(*shape)
    dx[...] = np.expand_dims(g / n, axis)
    return dx


def max_over(x, axis, mask=None):
    """Max along `axis`, which the output drops; a tie goes to the first
    index. The index is found by the backward, so inference never looks
    for it. With a [B, T] `mask` (time axis 2 only) a padded frame reads as
    -inf, so it never wins, not even over an all-negative row."""
    if mask is not None:
        x = np.where(mask[:, None, :] > 0, x, -np.inf)
    out = x.max(axis=axis)
    return out, (x, out, axis)


def _first_max_index(x, m, axis):
    """The first index along `axis` where `x` equals its max `m`, or, where
    the max is NaN, the first NaN (as numpy's argmax), in any layout of `x`.
    argmax runs on the comparison, so moving a non-innermost axis last
    copies one byte an entry, not eight."""
    hit = x == np.expand_dims(m, axis)
    if np.isnan(m).any():
        hit |= np.isnan(x)
    return hit.argmax(axis=axis)


def max_over_backward(g, cache, into=None):
    """`g` at each max's index, zero elsewhere; with `into`, `g` is added
    into `into` at those indices instead, and `into` is returned."""
    x, m, axis = cache
    arg = np.expand_dims(_first_max_index(x, m, axis), axis)
    g = np.expand_dims(g, axis)
    if into is None:
        into = frame_buffer(*x.shape, zero=True)
    else:
        g = g + np.take_along_axis(into, arg, axis=axis)
    np.put_along_axis(into, arg, g, axis=axis)
    return into


# ---------------------------------------------------------------------------
# linear / activations / softmax
# ---------------------------------------------------------------------------

def linear(x, w, b):
    """Affine map along the trailing axis: x [..., Din] -> [..., Dout]."""
    if x.shape[-1] != w.shape[1]:
        raise DimensionError(f"linear: trailing dim {x.shape[-1]} != {w.shape[1]}")
    return x @ w.T + b, (x, w)


def linear_backward(g, cache):
    x, w = cache
    dx = g @ w
    x2 = x.reshape(-1, x.shape[-1])
    g2 = g.reshape(-1, g.shape[-1])
    dw = g2.T @ x2
    db = g2.sum(axis=0)
    return dx, dw, db


def relu(x):
    out = np.maximum(x, 0.0)
    return out, (x > 0)


def relu_backward(g, cache):
    return g * cache


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out, out


def sigmoid_backward(g, cache):
    s = cache
    return g * s * (1.0 - s)


def softmax(x, axis=-1):
    """Numerically stable softmax along `axis`."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    return out, (out, axis)


def softmax_backward(g, cache):
    s, axis = cache
    dot = (g * s).sum(axis=axis, keepdims=True)
    return s * (g - dot)


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------

BN_MOMENTUM = 0.9  # weight of the old running statistic in each update
BN_EPS = 1e-5     # added to the variance before its square root


@dataclasses.dataclass
class BatchNormState:
    """Running statistics for eval-mode normalization."""

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, channels):
        return cls(np.zeros(channels), np.ones(channels))


def batch_norm1d(x, gamma, beta, state):
    """Training-mode per-channel normalization over (B, T) with learnable
    scale/shift; updates the running statistics.

    The statistics take the arithmetic of x.mean and x.var over (B, T): one
    sum divided by the count, and the centred input, whose squares summed
    and divided by the count give the variance and which, scaled in place,
    is xhat. Eval mode is `batch_norm_fold`.
    """
    B, C, T = x.shape
    n = B * T
    if n < 2:
        raise DegenerateBatchError(f"batch_norm1d: B*T = {n} < 2")
    mean = x.sum(axis=(0, 2), keepdims=True)
    mean /= n
    # the squares' buffer is taken before xhat, so the output later reuses
    # its freed block; allocated after, it left the heap ~3 MB larger. It is
    # laid out like x (and xhat), so its sum has x.var's bytes.
    sq = np.empty_like(x)
    xhat = x - mean
    var = np.multiply(xhat, xhat, out=sq).sum(axis=(0, 2), keepdims=True)
    del sq
    var /= n
    state.running_mean[...] = (BN_MOMENTUM * state.running_mean
                               + (1.0 - BN_MOMENTUM) * mean.reshape(C))
    state.running_var[...] = (BN_MOMENTUM * state.running_var
                              + (1.0 - BN_MOMENTUM) * var.reshape(C))
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    out = xhat * gamma[None, :, None]
    out += beta[None, :, None]
    return out, (xhat, inv_std, gamma, n)


def batch_norm_fold(w, b, gamma, beta, state):
    """The weight and bias of one conv that runs conv1d(x, w, b) then
    eval-mode batch norm, gamma*(h - running_mean)/sqrt(running_var + eps)
    + beta: w*s and (b - running_mean)*s + beta, s = gamma/sqrt(running_var
    + eps) (Jacob et al., CVPR 2018)."""
    s = gamma / np.sqrt(state.running_var + BN_EPS)
    return w * s[:, None, None], (b - state.running_mean) * s + beta


def batch_norm1d_backward(g, cache):
    """The backward of a training-mode `batch_norm1d`: the sums of
    dxhat = gamma*g and of dxhat*xhat that the chain rule through the
    statistics needs are gamma*dbeta and gamma*dgamma."""
    xhat, inv_std, gamma, n = cache
    buf = g * xhat
    dgamma = buf.sum(axis=(0, 2))
    dbeta = g.sum(axis=(0, 2))
    dx = np.multiply(g, float(n), out=frame_buffer(*xhat.shape))
    dx -= dbeta[None, :, None]
    dx -= np.multiply(xhat, dgamma[None, :, None], out=buf)
    del buf
    dx *= gamma[None, :, None] * inv_std / n
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool


def grad_check(loss_fn, params, tolerance=1e-5, step=1e-6,
               max_entries_per_param=None, rng=None):
    """Compare analytic gradients against central finite differences.

    `loss_fn()` must zero nothing itself: it evaluates the forward pass,
    runs the backward pass, accumulates gradients into `params`, and
    returns the scalar loss.

    When `max_entries_per_param` is set, a seeded random subset of entries
    per parameter is differenced instead of every entry. A non-finite loss,
    or a non-finite analytic gradient entry (differenced or not), raises
    `GradCheckAborted`.
    """
    zero_grads(params)
    loss0 = float(loss_fn())
    if not np.isfinite(loss0):
        raise GradCheckAborted(f"non-finite loss {loss0!r}")
    for p in params:
        if not np.isfinite(p.grad).all():
            raise GradCheckAborted(f"non-finite analytic gradient of {p.name}")
    analytic = {p.name: p.grad.copy() for p in params}

    if rng is None:
        rng = np.random.default_rng(0)
    max_err = 0.0
    for p in params:
        n = p.value.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            idx = rng.choice(n, size=max_entries_per_param, replace=False)
        else:
            idx = np.arange(n)
        flat = p.value.reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            zero_grads(params)
            lp = float(loss_fn())
            flat[i] = orig - step
            zero_grads(params)
            lm = float(loss_fn())
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise GradCheckAborted("non-finite loss during differencing")
            numeric = (lp - lm) / (2.0 * step)
            a = analytic[p.name].reshape(-1)[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            max_err = max(max_err, err)
    return GradCheckReport(max_err, max_err <= tolerance)
