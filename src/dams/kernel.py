"""Minimal deterministic numeric kernel.

Rank-1/2/3 float64 arrays with the small fixed set of forward operations the
model needs, a hand-written backward for each, and a finite-difference
gradient checker. There is no tape: every composite module calls the
`*_backward` functions in reverse order of its forward calls.

Conventions (pinned by tests):
  - conv1d is cross-correlation (no kernel flip), stride 1, zero padding.
  - avg_pool1d divides by the number of in-bounds elements only
    (count-exclude-pad).
  - max_pool1d pads with -inf; the sentinel never wins on finite input.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class DimensionError(ValueError):
    """Operand shapes are incompatible with the operation."""


class DegenerateBatchError(ValueError):
    """Batch statistics are undefined (fewer than two samples per channel)."""


class GradCheckAborted(RuntimeError):
    """The loss closure produced a non-finite value."""


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

def conv1d(x, w, b, padding=0):
    """1D cross-correlation, stride 1.

    x: [B, Cin, T], w: [Cout, Cin, K], b: [Cout] -> out [B, Cout, T']
    with T' = T + 2*padding - K + 1.
    """
    B, cin, T = x.shape
    cout, cin_w, K = w.shape
    if cin != cin_w:
        raise DimensionError(f"conv1d: input channels {cin} != kernel channels {cin_w}")
    if K < 1 or padding < 0 or T + 2 * padding < K:
        raise DimensionError(f"conv1d: kernel {K} does not fit T={T}, padding={padding}")
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    win = sliding_window_view(xp, K, axis=2)  # [B, Cin, T', K]
    out = np.einsum("bctk,ock->bot", win, w, optimize=True) + b[None, :, None]
    return out, (xp, w, padding, T)


def conv1d_backward(g, cache):
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


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def _pool_geometry(T, kernel, stride, padding):
    if kernel < 1 or stride < 1 or padding < 0:
        raise DimensionError(f"pool: bad kernel/stride/padding {kernel}/{stride}/{padding}")
    Tp = T + 2 * padding
    if kernel > Tp:
        raise DimensionError(f"pool: kernel {kernel} > padded length {Tp}")
    To = (Tp - kernel) // stride + 1
    return Tp, To


def avg_pool1d(x, kernel, stride=1, padding=0):
    """Average pooling; the divisor counts only in-bounds elements."""
    B, C, T = x.shape
    Tp, To = _pool_geometry(T, kernel, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    win = sliding_window_view(xp, kernel, axis=2)[:, :, ::stride]
    starts = np.arange(To) * stride
    counts = (np.minimum(starts + kernel, padding + T)
              - np.maximum(starts, padding)).astype(np.float64)
    if np.any(counts < 1):
        raise DimensionError("avg_pool1d: window contains no in-bounds elements")
    out = win.sum(axis=3) / counts
    return out, (x.shape, kernel, stride, padding, counts)


def avg_pool1d_backward(g, cache):
    (B, C, T), kernel, stride, padding, counts = cache
    gd = g / counts
    dxp = np.zeros((B, C, T + 2 * padding))
    span = stride * (g.shape[2] - 1) + 1
    # Tap k of window t lands on padded position t*stride + k. Within one tap
    # those positions are distinct, so a strided slice receives exactly the
    # additions a scatter over `starts + k` would, in the same order.
    for k in range(kernel):
        dxp[:, :, k:k + span:stride] += gd
    return dxp[:, :, padding:padding + T] if padding else dxp


def max_pool1d(x, kernel, stride=1, padding=0):
    """Max pooling; padding uses a -inf sentinel that never wins."""
    B, C, T = x.shape
    Tp, To = _pool_geometry(T, kernel, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)),
                constant_values=-np.inf) if padding else x
    win = sliding_window_view(xp, kernel, axis=2)[:, :, ::stride]
    arg = win.argmax(axis=3)  # first max: deterministic tie rule
    out = np.take_along_axis(win, arg[..., None], axis=3)[..., 0]
    return out, (x.shape, stride, padding, arg)


def max_pool1d_backward(g, cache):
    (B, C, T), stride, padding, arg = cache
    To = g.shape[2]
    dxp = np.zeros((B, C, T + 2 * padding))
    pos = np.arange(To) * stride + arg  # absolute padded positions, [B, C, To]
    bi = np.arange(B)[:, None, None]
    ci = np.arange(C)[None, :, None]
    np.add.at(dxp, (bi, ci, pos), g)
    return dxp[:, :, padding:padding + T] if padding else dxp


def global_avg_pool(x):
    """Mean over the temporal axis: [B, C, T] -> [B, C]."""
    return x.mean(axis=2), x.shape


def global_avg_pool_backward(g, cache):
    B, C, T = cache
    return np.repeat(g[:, :, None] / T, T, axis=2)


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

@dataclasses.dataclass
class BatchNormState:
    """Running statistics for eval-mode normalization."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    eps: float = 1e-5

    @classmethod
    def create(cls, channels, momentum=0.9, eps=1e-5):
        return cls(np.zeros(channels), np.ones(channels), momentum, eps)


def batch_norm1d(x, gamma, beta, state, train):
    """Per-channel normalization over (B, T) with learnable scale/shift."""
    B, C, T = x.shape
    if train:
        if B * T < 2:
            raise DegenerateBatchError(f"batch_norm1d: B*T = {B * T} < 2")
        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        state.running_mean[...] = (state.momentum * state.running_mean
                                   + (1.0 - state.momentum) * mean)
        state.running_var[...] = (state.momentum * state.running_var
                                  + (1.0 - state.momentum) * var)
    else:
        mean = state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
    out = gamma[None, :, None] * xhat + beta[None, :, None]
    return out, (xhat, inv_std, gamma, B * T, train)


def batch_norm1d_backward(g, cache):
    xhat, inv_std, gamma, n, train = cache
    dgamma = (g * xhat).sum(axis=(0, 2))
    dbeta = g.sum(axis=(0, 2))
    dxhat = g * gamma[None, :, None]
    if train:
        s1 = dxhat.sum(axis=(0, 2), keepdims=True)
        s2 = (dxhat * xhat).sum(axis=(0, 2), keepdims=True)
        dx = inv_std[None, :, None] * (dxhat - s1 / n - xhat * s2 / n)
    else:
        dx = dxhat * inv_std[None, :, None]
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    passed: bool
    checked_entries: int


def grad_check(loss_fn, params, tolerance=1e-5, step=1e-6,
               max_entries_per_param=None, rng=None):
    """Compare analytic gradients against central finite differences.

    `loss_fn()` must zero nothing itself: it evaluates the forward pass,
    runs the backward pass, accumulates gradients into `params`, and
    returns the scalar loss.

    When `max_entries_per_param` is set, a seeded random subset of entries
    per parameter is differenced instead of every entry.
    """
    zero_grads(params)
    loss0 = float(loss_fn())
    if not np.isfinite(loss0):
        raise GradCheckAborted(f"non-finite loss {loss0!r}")
    analytic = {p.name: p.grad.copy() for p in params}

    if rng is None:
        rng = np.random.default_rng(0)
    max_err = 0.0
    worst = ""
    checked = 0
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
            checked += 1
            if err > max_err:
                max_err = err
                worst = p.name
    return GradCheckReport(max_err, worst, max_err <= tolerance, checked)
