"""Adaptive multiscale temporal pyramid.

Three cascaded stages, all temporal-length preserving:
  TPP  - per-scale average pooling followed by a 1x1 conv + BN + ReLU branch,
  AFF  - softmax fusion weights from per-branch pooled descriptors, weighted
         sum, then a 1x1 refinement conv,
  TCE  - squeeze/excite channel gating from global temporal statistics.

Fusion weights come from all branches (per-branch GAP -> shared 2-layer MLP
-> concatenate -> linear head -> softmax). The gating MLPs use hidden width
C / reduction_ratio.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import kernel
from .layers import (AvgPool1d, Conv1d, ConvBn, Gate, Layer, Linear, Mean, Relu,
                     Sequential, Sigmoid)


class ConfigError(ValueError):
    """Invalid pyramid or model configuration."""


class EmptyPyramidError(ConfigError):
    """Fusion was asked to combine zero branches."""


@dataclasses.dataclass(frozen=True)
class PyramidConfig:
    scales: tuple = (1, 3, 9, 27)
    channels: int = 128
    reduction_ratio: int = 4

    def __post_init__(self):
        scales = tuple(self.scales)
        object.__setattr__(self, "scales", scales)
        if len(scales) == 0:
            raise EmptyPyramidError("pyramid needs at least one scale")
        if any(s < 1 or s % 2 == 0 for s in scales):
            raise ConfigError(f"scales must be odd and >= 1, got {scales}")
        if any(b <= a for a, b in zip(scales, scales[1:])):
            raise ConfigError(f"scales must be strictly increasing, got {scales}")
        if self.channels < 1:
            raise ConfigError("channels must be positive")
        if self.reduction_ratio < 1 or self.channels % self.reduction_ratio:
            raise ConfigError(
                f"reduction_ratio {self.reduction_ratio} must divide channels {self.channels}")


class Tpp(Layer):
    """One branch per scale s: avg_pool(s) -> conv1x1 -> BN -> ReLU; scale 1,
    whose pool is the identity, starts at the conv. With a mask, the input's
    padded frames are zeroed once for every pool."""

    def __init__(self, cfg: PyramidConfig, rng, name="tpp"):
        super().__init__()
        c = cfg.channels
        self.branches = [Sequential(*([AvgPool1d(s)] if s > 1 else []),
                                    ConvBn(c, c, 1, rng, f"{name}.s{s}"), Relu())
                         for s in cfg.scales]

    def forward(self, x, train=False, mask=None):
        if mask is not None:
            x = kernel.mask_frames(x, mask)
        return [br.forward(x, train, mask) for br in self.branches]

    def backward(self, grads):
        dx = None
        for br, g in zip(reversed(self.branches), reversed(grads)):
            d = br.backward(g)
            dx = d if dx is None else dx + d
        return dx


class Aff(Layer):
    """Adaptive feature fusion over pyramid branches."""

    def __init__(self, cfg: PyramidConfig, rng, name="aff", adaptive=True):
        super().__init__()
        c, r, k = cfg.channels, cfg.reduction_ratio, len(cfg.scales)
        self.k = k
        self.mlp = Sequential(Mean(2),
                              Linear(c, c // r, rng, f"{name}.mlp1",
                                     bias_init=1.0),
                              Relu(),
                              Linear(c // r, c, rng, f"{name}.mlp2"))
        # near-zero head: fusion starts close to uniform weights and the
        # adaptive part is learned rather than injected as init noise
        self.head = Linear(k * c, k, rng, f"{name}.head",
                           bias_init=0.0, weight_scale=0.1)
        self.refine = Conv1d(c, c, 1, rng, f"{name}.refine")
        if not adaptive:
            # built all the same so no later rng draw moves; uniform fusion
            # has no descriptor MLP or head to train
            self.mlp = self.head = None

    def forward(self, branches, train=False, mask=None):
        if len(branches) == 0:
            raise EmptyPyramidError("aff_forward: no branches")
        if len(branches) != self.k:
            raise ConfigError(f"aff_forward: expected {self.k} branches, got {len(branches)}")
        B = branches[0].shape[0]
        if self.head is not None:
            concat = np.concatenate([self.mlp.forward(br, train, mask)
                                     for br in branches], axis=1)
            logits = self.head.forward(concat, train)
            weights, sm_cache = kernel.softmax(logits, axis=1)
        else:
            sm_cache = None
            weights = np.full((B, self.k), 1.0 / self.k)
        mix = np.zeros_like(branches[0])
        for i, br in enumerate(branches):
            mix += weights[:, i, None, None] * br
        fused = self.refine.forward(mix, train)
        return self._record(train, (fused, weights),
                            (branches, weights, sm_cache))

    def backward(self, g_fused):
        branches, weights, sm_cache = self._caches.pop()
        g_mix = self.refine.backward(g_fused)
        g_branches = [weights[:, i, None, None] * g_mix for i in range(self.k)]
        if self.head is not None:
            g_w = np.stack([(g_mix * br).sum(axis=(1, 2)) for br in branches], axis=1)
            g_logits = kernel.softmax_backward(g_w, sm_cache)
            g_concat = self.head.backward(g_logits)
            c = branches[0].shape[1]
            for i in reversed(range(self.k)):
                g_branches[i] = g_branches[i] + self.mlp.backward(
                    g_concat[:, i * c:(i + 1) * c])
        return g_branches


class Tce(Gate):
    """Channel gate: out = x * sigmoid(W2 relu(W1 gap(x))), broadcast over T."""

    def __init__(self, channels, reduction_ratio, rng, name="tce"):
        if channels % reduction_ratio:
            raise ConfigError(
                f"tce: reduction ratio {reduction_ratio} must divide channels {channels}")
        hidden = channels // reduction_ratio
        # near-zero output layer: the gate starts ~0.5 for every channel
        # instead of a random fixed attenuation
        super().__init__(Sequential(Mean(2),
                                    Linear(channels, hidden, rng, f"{name}.w1",
                                           bias_init=1.0),
                                    Relu(),
                                    Linear(hidden, channels, rng, f"{name}.w2",
                                           bias_init=0.0, weight_scale=0.1),
                                    Sigmoid()))


class Amtpn(Layer):
    """TPP -> AFF -> TCE pipeline; output shape equals input shape.

    `use_aff=False` freezes fusion at uniform weights 1/K; `use_tce=False`
    forces the channel gate open (identity).
    """

    def __init__(self, cfg: PyramidConfig, rng, name="amtpn",
                 use_aff=True, use_tce=True):
        super().__init__()
        self.cfg = cfg
        self.tpp = Tpp(cfg, rng, f"{name}.tpp")
        self.aff = Aff(cfg, rng, f"{name}.aff", adaptive=use_aff)
        self.tce = (Tce(cfg.channels, cfg.reduction_ratio, rng, f"{name}.tce")
                    if use_tce else None)

    def fuse(self, x, train=False, mask=None):
        """(output, the AFF fusion weights [B, K])."""
        fused, weights = self.aff.forward(self.tpp.forward(x, train, mask), train,
                                          mask)
        out = self.tce.forward(fused, train, mask) if self.tce is not None else fused
        return out, weights

    def forward(self, x, train=False, mask=None):
        return self.fuse(x, train, mask)[0]

    def backward(self, g):
        if self.tce is not None:
            g = self.tce.backward(g)
        g_branches = self.aff.backward(g)
        return self.tpp.backward(g_branches)
