"""Thin stateful wrappers over the kernel ops, and the base of every module.

Every layer and composite module follows one protocol: `forward(x,
train=False)` returns the output and passes `train` down to its children;
`backward(g)` returns the input gradient and accumulates parameter
gradients. A forward records its backward cache on the instance's stack only
when `train` is true, so inference leaves no state behind. The stack lets
one instance be applied several times per forward pass (e.g. a descriptor
MLP shared across pyramid branches). Backward calls must mirror training
forward calls in exact reverse order; `backward` pops the most recent cache.

`Sequential` is the one place that mirror is written, so a chain such as a
pyramid branch (`AvgPool1d` -> `Conv1d` -> `BatchNorm1d` -> `Relu`) or a
gating MLP is declared once, as its list of children. `Gate(gate)` is the
one place a gate's product rule is written: it returns `x * gate(x)`.

Parameters and persistent state come from the attribute tree: `params()`
takes every `Parameter` attribute and the parameters of every child layer
(`children()`: the layers in public attributes, a list's in list order), in
assignment order. Assignment order is therefore parameter order (what Adam
and the gradient checks index into); an attribute set to `None` takes no
part. Only `BatchNorm1d` lists its persistent state itself.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernel
from .kernel import BatchNormState, Parameter


class Layer:
    def __init__(self):
        self._caches = []

    def _record(self, train, out, cache):
        """Return `out`; keep `cache` for `backward` only when training."""
        if train:
            self._caches.append(cache)
        return out

    def _accumulate(self, dx, *grads):
        """Add each gradient to its parameter, in `params()` order; return `dx`."""
        for p, g in zip(self.params(), grads):
            p.grad += g
        return dx

    def _public(self, kinds):
        """Values of type `kinds` held in public attributes, in assignment
        order; a list attribute gives its items in list order."""
        found = []
        for name, value in vars(self).items():
            if not name.startswith("_"):
                for v in value if isinstance(value, list) else (value,):
                    if isinstance(v, kinds):
                        found.append(v)
        return found

    def children(self):
        return self._public(Layer)

    def params(self):
        return [p for v in self._public((Parameter, Layer))
                for p in (v.params() if isinstance(v, Layer) else (v,))]

    def state_arrays(self):
        """Name -> live array of persistent non-parameter state."""
        return {k: v for child in self.children()
                for k, v in child.state_arrays().items()}


class Sequential(Layer):
    """Children applied in order; `backward` runs their backwards in reverse.
    The chain that runs is `_layers`, public as `layers`; a subclass may run
    wrappers of its children instead (`cbam.Cbam` runs a `Gate` round each)."""

    def __init__(self, *layers):
        super().__init__()
        self.layers = self._layers = list(layers)

    def forward(self, x, train=False):
        for layer in self._layers:
            x = layer.forward(x, train)
        return x

    def backward(self, g):
        for layer in reversed(self._layers):
            g = layer.backward(g)
        return g


class Gate(Layer):
    """`x * gate(x)`. The map is broadcast over the axes where it has size 1
    or that it lacks at the end (a `[B, C]` map over `[B, C, T]`); its
    gradient sums `g * x` over those axes."""

    def __init__(self, gate):
        super().__init__()
        self.gate = gate

    def forward(self, x, train=False):
        m = self.gate.forward(x, train)
        mb = m.reshape(m.shape + (1,) * (x.ndim - m.ndim))
        return self._record(train, x * mb, (x, mb, m.shape))

    def backward(self, g):
        x, m, shape = self._caches.pop()
        axes = tuple(i for i, (n, k) in enumerate(zip(m.shape, x.shape)) if n < k)
        return g * m + self.gate.backward((g * x).sum(axis=axes).reshape(shape))


class _Affine(Layer):
    """Weight `[out, *fan-in axes]`, then bias `[out]`, each uniform in
    +-1/sqrt(fan_in). A positive constant `bias_init` keeps every relu unit
    of a gating MLP on nonnegative descriptors alive; `weight_scale` < 1
    starts an output layer near neutral (gate ~ 0.5, fusion ~ uniform)."""

    def __init__(self, shape, rng, name, bias_init, weight_scale):
        super().__init__()
        bound = math.sqrt(1.0 / math.prod(shape[1:]))
        self.w = Parameter(weight_scale * rng.uniform(-bound, bound, shape),
                           f"{name}.w")
        b = (rng.uniform(-bound, bound, shape[:1]) if bias_init is None
             else np.full(shape[0], float(bias_init)))
        self.b = Parameter(b, f"{name}.b")


class Conv1d(_Affine):
    """Stride-1 conv padded by `kernel_size // 2` (odd `kernel_size` keeps
    the length)."""

    def __init__(self, cin, cout, kernel_size, rng, name,
                 bias_init=None, weight_scale=1.0):
        super().__init__((cout, cin, kernel_size), rng, name, bias_init,
                         weight_scale)
        self.padding = kernel_size // 2

    def forward(self, x, train=False):
        return self._record(train, *kernel.conv1d(x, self.w.value, self.b.value,
                                                  self.padding))

    def backward(self, g, need_dx=True):
        return self._accumulate(*kernel.conv1d_backward(g, self._caches.pop(), need_dx))


class Linear(_Affine):
    def __init__(self, din, dout, rng, name, bias_init=None, weight_scale=1.0):
        super().__init__((dout, din), rng, name, bias_init, weight_scale)

    def forward(self, x, train=False):
        return self._record(train, *kernel.linear(x, self.w.value, self.b.value))

    def backward(self, g):
        return self._accumulate(*kernel.linear_backward(g, self._caches.pop()))


class BatchNorm1d(Layer):
    def __init__(self, channels, name):
        super().__init__()
        self.gamma = Parameter(np.ones(channels), f"{name}.gamma")
        self.beta = Parameter(np.zeros(channels), f"{name}.beta")
        self.state = BatchNormState.create(channels)
        self.name = name

    def forward(self, x, train=False):
        return self._record(train, *kernel.batch_norm1d(
            x, self.gamma.value, self.beta.value, self.state, train))

    def backward(self, g):
        return self._accumulate(*kernel.batch_norm1d_backward(g, self._caches.pop()))

    def state_arrays(self):
        return {f"{self.name}.running_mean": self.state.running_mean,
                f"{self.name}.running_var": self.state.running_var}


class AvgPool1d(Layer):
    """Stride-1 average pool over time, padded by `size // 2` (odd `size`
    keeps the length)."""

    def __init__(self, size):
        super().__init__()
        self.size = size

    def forward(self, x, train=False):
        return self._record(train, *kernel.avg_pool1d(
            x, self.size, padding=self.size // 2))

    def backward(self, g):
        return kernel.avg_pool1d_backward(g, self._caches.pop())


class Mean(Layer):
    """Mean over `axis`, which the output drops (`Mean(2)`: [B, C, T] -> [B, C])."""

    def __init__(self, axis):
        super().__init__()
        self.axis = axis

    def forward(self, x, train=False):
        return self._record(train, *kernel.mean_over(x, self.axis))

    def backward(self, g):
        return kernel.mean_over_backward(g, self._caches.pop())


class Max(Layer):
    """Max over `axis`, which the output drops; a tie goes to the first index."""

    def __init__(self, axis):
        super().__init__()
        self.axis = axis

    def forward(self, x, train=False):
        return self._record(train, *kernel.max_over(x, self.axis))

    def backward(self, g):
        return kernel.max_over_backward(g, self._caches.pop())


class Relu(Layer):
    def forward(self, x, train=False):
        return self._record(train, *kernel.relu(x))

    def backward(self, g):
        return kernel.relu_backward(g, self._caches.pop())


class Sigmoid(Layer):
    def forward(self, x, train=False):
        return self._record(train, *kernel.sigmoid(x))

    def backward(self, g):
        return kernel.sigmoid_backward(g, self._caches.pop())
