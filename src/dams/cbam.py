"""Convolutional block attention for temporal sequences.

Channel attention first (which channels matter, map [B, C, 1]), then
temporal attention (which positions matter, map [B, 1, T]); each gate
multiplies the features it was computed from. The sequence axis plays the
role image CBAM gives to space.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .amtpn import ConfigError
from .layers import Conv1d, Gate, Layer, Linear, Max, Mean, Relu, Sequential, Sigmoid


@dataclasses.dataclass(frozen=True)
class CbamConfig:
    reduction_ratio: int = 4
    temporal_kernel: int = 7

    def __post_init__(self):
        if self.temporal_kernel < 1 or self.temporal_kernel % 2 == 0:
            raise ConfigError(f"temporal kernel must be odd, got {self.temporal_kernel}")
        if self.reduction_ratio < 1:
            raise ConfigError("reduction_ratio must be positive")


class ChannelAttention(Layer):
    """M_c = sigmoid(mlp(avg_pool_T(f)) + mlp(max_pool_T(f))), shape [B, C, 1]."""

    def __init__(self, channels, reduction_ratio, rng, name="ca"):
        super().__init__()
        if channels % reduction_ratio:
            raise ConfigError(
                f"channel attention: ratio {reduction_ratio} must divide C {channels}")
        hidden = channels // reduction_ratio
        # near-zero output layer so the channel gate starts ~0.5
        self.mlp = Sequential(Linear(channels, hidden, rng, f"{name}.mlp1"),
                              Relu(),
                              Linear(hidden, channels, rng, f"{name}.mlp2",
                                     bias_init=0.0, weight_scale=0.1))
        self.avg_pool, self.max_pool = Mean(2), Max(2)
        self.gate = Sigmoid()

    def forward(self, f, train=False):
        m = self.gate.forward(self.mlp.forward(self.avg_pool.forward(f, train), train)
                              + self.mlp.forward(self.max_pool.forward(f, train), train),
                              train)
        return m[:, :, None]

    def backward(self, g_m):
        g_logits = self.gate.backward(g_m[:, :, 0])
        # pop order mirrors forward: max branch was applied second
        g_zmax = self.mlp.backward(g_logits)
        g_zavg = self.mlp.backward(g_logits)
        return self.avg_pool.backward(g_zavg) + self.max_pool.backward(g_zmax)


class TemporalAttention(Layer):
    """M_t = sigmoid(conv_k([mean_C(f); max_C(f)])), shape [B, 1, T]."""

    def __init__(self, kernel_size, rng, name="ta"):
        super().__init__()
        # near-zero conv so the temporal gate starts ~0.5 at every frame
        self.conv = Conv1d(2, 1, kernel_size, rng, f"{name}.conv",
                           bias_init=0.0, weight_scale=0.1)
        self.gate = Sigmoid()
        self.avg_pool, self.max_pool = Mean(1), Max(1)

    def forward(self, f, train=False):
        pooled = np.stack([self.avg_pool.forward(f, train),
                           self.max_pool.forward(f, train)], axis=1)  # [B, 2, T]
        return self.gate.forward(self.conv.forward(pooled, train), train)

    def backward(self, g_m):
        g_pooled = self.conv.backward(self.gate.backward(g_m))
        return (self.avg_pool.backward(g_pooled[:, 0])
                + self.max_pool.backward(g_pooled[:, 1]))


class Cbam(Sequential):
    """Sequential gating: f' = M_c(f) * f, then f'' = M_t(f') * f'.

    `use_ca` / `use_sa` force the corresponding gate to 1 (stage skipped).
    The `Gate`s that run are private, so the parameters come from `ca` and
    `ta`, once each.
    """

    def __init__(self, channels, cfg: CbamConfig, rng, name="cbam",
                 use_ca=True, use_sa=True):
        Layer.__init__(self)
        self.ca = (ChannelAttention(channels, cfg.reduction_ratio, rng, f"{name}.ca")
                   if use_ca else None)
        self.ta = (TemporalAttention(cfg.temporal_kernel, rng, f"{name}.ta")
                   if use_sa else None)
        self._layers = [Gate(m) for m in (self.ca, self.ta) if m is not None]
