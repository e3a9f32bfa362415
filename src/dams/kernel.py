"""Minimal deterministic numeric kernel.

Rank-1/2/3 float64 arrays with the small fixed set of forward operations the
model needs, a hand-written backward for each, and a finite-difference
gradient checker. There is no tape: every composite module calls the
`*_backward` functions in reverse order of its forward calls.

Conventions (pinned by tests):
  - conv1d is cross-correlation (no kernel flip), stride 1, zero padding.
  - avg_pool1d runs at stride 1: output t is the window at padded positions
    t .. t + kernel - 1. It divides by the number of in-bounds elements only
    (count-exclude-pad).
  - mean_over and max_over reduce one whole axis, which the output drops.
    A tie for the max goes to the first index, which takes the whole
    gradient.

Summation order (pinned against numpy references in tests/test_kernel.py,
byte for byte unless a bound is named):
  - conv1d is one gemm, out = W[Cout, Cin*K] @ cols[Cin*K, B*T'], where
    cols (im2col) holds tap k of input channel c in row c*K + k. The result
    is returned as a view: [B, Cout, T'] indexing, [Cout, B, T'] in memory.
    The backward computes dW = cols @ g[B*T', Cout] and adds
    W[:, :, k].T @ g[Cout, B*T'] for each tap into zeros laid out like the
    padded input. These are the operands, shapes and layouts numpy's
    optimized einsum hands to matmul for the window-view formulation, so
    every result has its bytes (Cin = 1 with B = 1 or K = 1 excepted).
  - avg_pool1d and its backward sum each window as a difference of two prefix
    sums: an output is within 2*L*eps*sum(|row|)/count of exact, L being the
    padded row's length.
  - batch_norm1d's training statistics have the bytes of x.mean and x.var
    over (B, T): one sum divided by the count, the centred input computed
    once for the variance and xhat. Its backward keeps the reference
    operation order inv_std * ((dxhat - s1/n) - (xhat*s2)/n) and the layout
    of dx that order gives for any layouts of x and g. Eval mode normalizes
    with the running statistics and keeps no backward cache.
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

def _pad_time(x, padding):
    """`x` with `padding` zeros at both ends of the time axis, laid out as
    np.pad lays it out (Fortran order for a Fortran-only input)."""
    if not padding:
        return x
    B, C, T = x.shape
    xp = np.zeros((B, C, T + 2 * padding), order="F" if x.flags.fnc else "C")
    xp[:, :, padding:padding + T] = x
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


def conv1d(x, w, b, padding=0):
    """1D cross-correlation, stride 1.

    x: [B, Cin, T], w: [Cout, Cin, K], b: [Cout] -> out [B, Cout, T']
    with T' = T + 2*padding - K + 1. The output is a channel-major view
    ([Cout, B, T'] in memory) of one [Cout, Cin*K] x [Cin*K, B*T'] gemm.
    """
    B, cin, T = x.shape
    cout, cin_w, K = w.shape
    if cin != cin_w:
        raise DimensionError(f"conv1d: input channels {cin} != kernel channels {cin_w}")
    if K < 1 or padding < 0 or T + 2 * padding < K:
        raise DimensionError(f"conv1d: kernel {K} does not fit T={T}, padding={padding}")
    xp = _pad_time(x, padding)
    To = T + 2 * padding - K + 1
    out = np.matmul(w.reshape(cout, cin * K), _im2col(xp, K, To))
    out += b[:, None]
    return out.reshape(cout, B, To).transpose(1, 0, 2), (xp, w, padding, T)


def conv1d_backward(g, cache, need_dx=True):
    """(dx, dw, db) of `conv1d`; with `need_dx` false the input gradient is
    not computed and dx is None."""
    xp, w, padding, T = cache
    cout, cin, K = w.shape
    B, _, To = g.shape
    dw = np.matmul(_im2col(xp, K, To), g.transpose(0, 2, 1).reshape(B * To, cout))
    dw = dw.reshape(cin, K, cout).transpose(2, 0, 1)
    db = g.sum(axis=(0, 2))
    if not need_dx:
        return None, dw, db
    g_cols = g.transpose(1, 0, 2).reshape(cout, B * To)
    dxp = np.zeros_like(xp)
    for k in range(K):
        dxk = np.matmul(w[:, :, k].T, g_cols)
        dxp[:, :, k:k + To] += dxk.reshape(cin, B, To).transpose(1, 0, 2)
    dx = dxp[:, :, padding:padding + T] if padding else dxp
    return dx, dw, db


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def _pool_length(T, kernel, padding):
    """The output length of a stride-1 pool."""
    if kernel < 1 or padding < 0:
        raise DimensionError(f"pool: bad kernel/padding {kernel}/{padding}")
    Tp = T + 2 * padding
    if kernel > Tp:
        raise DimensionError(f"pool: kernel {kernel} > padded length {Tp}")
    return Tp - kernel + 1


def _window_sums(x, n, padding):
    """[B, C, T + 2*padding - n + 1]: the sum of each n-wide window of `x`
    zero-padded by `padding` at both ends, as S[t + n] - S[t] of the padded
    input's prefix sums S (S[0] = 0)."""
    B, C, T = x.shape
    S = np.zeros((B, C, T + 2 * padding + 1))
    np.cumsum(x, axis=2, out=S[:, :, padding + 1:padding + 1 + T])
    S[:, :, padding + 1 + T:] = S[:, :, padding + T, None]
    return S[:, :, n:] - S[:, :, :-n]


def avg_pool1d(x, kernel, padding=0):
    """Average pooling; the divisor counts only in-bounds elements."""
    B, C, T = x.shape
    To = _pool_length(T, kernel, padding)
    starts = np.arange(To)
    counts = (np.minimum(starts + kernel, padding + T)
              - np.maximum(starts, padding)).astype(np.float64)
    if np.any(counts < 1):
        raise DimensionError("avg_pool1d: window contains no in-bounds elements")
    out = _window_sums(x, kernel, padding)
    out /= counts
    return out, (kernel, padding, counts)


def avg_pool1d_backward(g, cache):
    """The adjoint of a stride-1 window sum is the same sum over the output
    gradient padded by kernel - 1 - padding (>= 0 when every window holds an
    in-bounds element); its length is the input's."""
    kernel, padding, counts = cache
    return _window_sums(g / counts, kernel, kernel - 1 - padding)


def mean_over(x, axis):
    """Mean along `axis`, which the output drops."""
    return x.mean(axis=axis), (axis, x.shape[axis])


def mean_over_backward(g, cache):
    axis, n = cache
    return np.repeat(np.expand_dims(g / n, axis), n, axis=axis)


def max_over(x, axis):
    """Max along `axis`, which the output drops; a tie goes to the first
    index."""
    arg = np.expand_dims(x.argmax(axis=axis), axis)
    return np.take_along_axis(x, arg, axis=axis).squeeze(axis), (x.shape, axis, arg)


def max_over_backward(g, cache):
    """`g` at each max's index, zero elsewhere."""
    shape, axis, arg = cache
    dx = np.zeros(shape)
    np.put_along_axis(dx, arg, np.expand_dims(g, axis), axis=axis)
    return dx


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


def batch_norm1d(x, gamma, beta, state, train):
    """Per-channel normalization over (B, T) with learnable scale/shift.

    Training takes the statistics with the arithmetic of x.mean and x.var
    over (B, T): one sum divided by the count, and the centred input, whose
    squares summed and divided by the count give the variance and which,
    scaled in place, is xhat. Evaluation normalizes with the running
    statistics in one buffer and returns no cache: nothing back-propagates
    through eval mode.
    """
    B, C, T = x.shape
    n = B * T
    if not train:
        inv_std = 1.0 / np.sqrt(state.running_var[None, :, None] + BN_EPS)
        out = x - state.running_mean[None, :, None]
        out *= inv_std
        out *= gamma[None, :, None]
        out += beta[None, :, None]
        return out, None
    if n < 2:
        raise DegenerateBatchError(f"batch_norm1d: B*T = {n} < 2")
    mean = x.sum(axis=(0, 2), keepdims=True)
    mean /= n
    # the squares' buffer is taken before xhat, so the output later reuses
    # its freed block; allocated after, it left the heap ~3 MB larger
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


def batch_norm1d_backward(g, cache):
    """The backward of a training-mode `batch_norm1d`."""
    xhat, inv_std, gamma, n = cache
    buf = g * xhat
    dgamma = buf.sum(axis=(0, 2))
    dbeta = g.sum(axis=(0, 2))
    dxhat = g * gamma[None, :, None]
    s1 = dxhat.sum(axis=(0, 2), keepdims=True)
    s2 = np.multiply(dxhat, xhat, out=buf).sum(axis=(0, 2), keepdims=True)
    del buf
    # inv_std * ((dxhat - s1/n) - (xhat*s2)/n). Each operand of the last
    # subtraction is laid out as its out-of-place form, so dx is too.
    dxhat -= s1 / n
    buf = xhat * s2
    buf /= n
    dx = np.subtract(dxhat, buf, out=dxhat if dxhat.strides == buf.strides else None)
    dx *= inv_std
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
