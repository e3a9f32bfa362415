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
gating MLP is declared once, as its list of children.

A composite module's parameters and persistent state come from its
attribute tree: `children()` lists the layers held in its public attributes
in assignment order, and `params()` / `state_arrays()` concatenate theirs.
Assignment order is therefore parameter order (what Adam and the gradient
checks index into); a child set to `None` takes no part. Only the leaves
that own parameters or state list them explicitly.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernel
from .kernel import BatchNormState, Parameter


def uniform_init(rng, shape, fan_in):
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


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

    def children(self):
        """The `Layer`s held in public attributes, in assignment order; a
        list attribute gives its layers in list order, and `None` is skipped."""
        found = []
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            for v in value if isinstance(value, list) else [value]:
                if isinstance(v, Layer):
                    found.append(v)
        return found

    def params(self):
        return [p for child in self.children() for p in child.params()]

    def state_arrays(self):
        """Name -> live array of persistent non-parameter state."""
        return {k: v for child in self.children()
                for k, v in child.state_arrays().items()}


class Sequential(Layer):
    """Children applied in order; `backward` runs their backwards in reverse."""

    def __init__(self, *layers):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x, train=False):
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, g):
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g


class Conv1d(Layer):
    """Stride-1 conv padded by `kernel_size // 2` (odd `kernel_size` keeps
    the length)."""

    def __init__(self, cin, cout, kernel_size, rng, name,
                 bias_init=None, weight_scale=1.0):
        super().__init__()
        fan_in = cin * kernel_size
        self.w = Parameter(
            weight_scale * uniform_init(rng, (cout, cin, kernel_size), fan_in),
            f"{name}.w")
        if bias_init is None:
            b = uniform_init(rng, (cout,), fan_in)
        else:
            b = np.full(cout, float(bias_init))
        self.b = Parameter(b, f"{name}.b")
        self.padding = kernel_size // 2

    def forward(self, x, train=False):
        return self._record(train, *kernel.conv1d(x, self.w.value, self.b.value,
                                                  self.padding))

    def backward(self, g, need_dx=True):
        return self._accumulate(*kernel.conv1d_backward(g, self._caches.pop(), need_dx))

    def params(self):
        return [self.w, self.b]


class Linear(Layer):
    def __init__(self, din, dout, rng, name, bias_init=None, weight_scale=1.0):
        super().__init__()
        # bias_init: optional constant bias. Gating MLPs that only ever see
        # nonnegative pooled descriptors use a positive constant so no hidden
        # unit starts permanently dead behind its relu. weight_scale < 1 lets
        # gate output layers start near-neutral (gate ~ 0.5, fusion ~ uniform).
        self.w = Parameter(weight_scale * uniform_init(rng, (dout, din), din),
                           f"{name}.w")
        if bias_init is None:
            b = uniform_init(rng, (dout,), din)
        else:
            b = np.full(dout, float(bias_init))
        self.b = Parameter(b, f"{name}.b")

    def forward(self, x, train=False):
        return self._record(train, *kernel.linear(x, self.w.value, self.b.value))

    def backward(self, g):
        return self._accumulate(*kernel.linear_backward(g, self._caches.pop()))

    def params(self):
        return [self.w, self.b]


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

    def params(self):
        return [self.gamma, self.beta]

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
