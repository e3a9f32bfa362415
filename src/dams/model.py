"""Main-path model assembly and the offline embedding-similarity scorer.

Main path: input projection + residual temporal-conv backbone, then the
multiscale pyramid, then channel/temporal attention, then a two-layer 1x1
conv head producing one logit per frame. Ablation switches replace disabled
stages with identities.

The similarity path is offline: it consumes precomputed frame and
anomaly-class text embeddings and turns temperature-scaled cosine
similarities into per-frame pseudo-probabilities. It never trains and never
touches model parameters.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import kernel
from .amtpn import Amtpn, ConfigError, PyramidConfig
from .cbam import Cbam, CbamConfig
from .layers import BatchNorm1d, Conv1d, Layer, Relu, Sequential


class DegenerateEmbeddingError(ValueError):
    """An embedding row has (near-)zero norm; cosine similarity is undefined."""


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    input_dim: int = 1024
    channels: int = 128
    depth: int = 2
    head_hidden: int = 0          # 0 -> channels // 2
    dropout: float = 0.0
    pyramid: PyramidConfig = None
    cbam: CbamConfig = None
    use_amtpn: bool = True
    use_cbam: bool = True
    use_ca: bool = True
    use_sa: bool = True
    use_aff: bool = True
    use_tce: bool = True
    use_tpp: bool = True

    def __post_init__(self):
        if self.input_dim < 1 or self.channels < 1 or self.depth < 0:
            raise ConfigError("input_dim/channels must be positive, depth >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.head_hidden < 0:
            raise ConfigError(f"head_hidden must be >= 0 (0 picks channels // 2), "
                              f"got {self.head_hidden}")
        if self.pyramid is None:
            scales = (1, 3, 9, 27) if self.use_tpp else (1,)
            object.__setattr__(self, "pyramid",
                               PyramidConfig(scales=scales, channels=self.channels))
        elif not self.use_tpp and len(self.pyramid.scales) > 1:
            object.__setattr__(self, "pyramid",
                               dataclasses.replace(self.pyramid, scales=(1,)))
        if self.pyramid.channels != self.channels:
            raise ConfigError("pyramid channels must match backbone channels")
        if self.cbam is None:
            object.__setattr__(self, "cbam", CbamConfig())
        if self.head_hidden == 0:
            object.__setattr__(self, "head_hidden", max(1, self.channels // 2))


@dataclasses.dataclass(frozen=True)
class ClipPathConfig:
    temperature: float = 0.07
    scaling: float = 100.0
    threshold: float = 0.5

    def __post_init__(self):
        # chained bounds, so NaN fails them too
        if not (0 < self.temperature < math.inf and 0 < self.scaling < math.inf):
            raise ConfigError("temperature and scaling must be positive and finite")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")


@dataclasses.dataclass
class ForwardOutput:
    frame_logits: np.ndarray    # [B, T]
    frame_scores: np.ndarray    # [B, T], sigmoid of logits
    embeddings: np.ndarray      # [B, C, T], penultimate features
    aff_weights: np.ndarray = None  # [B, K] when the pyramid is active


class Backbone(Layer):
    """1x1 projection then `depth` residual blocks of conv(k=3) -> BN -> ReLU."""

    def __init__(self, input_dim, channels, depth, rng, name="backbone"):
        super().__init__()
        self.proj = Conv1d(input_dim, channels, 1, rng, f"{name}.proj")
        self.blocks = [Sequential(Conv1d(channels, channels, 3, rng,
                                         f"{name}.block{i}.conv"),
                                  BatchNorm1d(channels, f"{name}.block{i}.bn"),
                                  Relu())
                       for i in range(depth)]

    def forward(self, x, train=False):
        h = self.proj.forward(x, train)
        for block in self.blocks:
            h = h + block.forward(h, train)
        return h

    def backward(self, g, need_dx=True):
        for block in reversed(self.blocks):
            g = g + block.backward(g)
        return self.proj.backward(g, need_dx)


class Head(Sequential):
    """Per-frame classifier: conv1x1 C->H, ReLU, conv1x1 H->1."""

    def __init__(self, channels, hidden, rng, name="head"):
        super().__init__(Conv1d(channels, hidden, 1, rng, f"{name}.conv1"),
                         Relu(),
                         Conv1d(hidden, 1, 1, rng, f"{name}.conv2"))

    def forward(self, x, train=False):
        return super().forward(x, train)[:, 0, :]

    def backward(self, g_logits):
        return super().backward(g_logits[:, None, :])


class DamsModel(Layer):
    """backbone -> pyramid -> attention -> head, with manual backward."""

    def __init__(self, cfg: ModelConfig, rng):
        super().__init__()
        self.cfg = cfg
        self.backbone = Backbone(cfg.input_dim, cfg.channels, cfg.depth, rng)
        self.amtpn = (Amtpn(cfg.pyramid, rng, use_aff=cfg.use_aff, use_tce=cfg.use_tce)
                      if cfg.use_amtpn else None)
        self.cbam = (Cbam(cfg.channels, cfg.cbam, rng,
                          use_ca=cfg.use_ca, use_sa=cfg.use_sa)
                     if cfg.use_cbam else None)
        self.head = Head(cfg.channels, cfg.head_hidden, rng)

    def forward(self, x, train=False, dropout_rng=None) -> ForwardOutput:
        p = self.cfg.dropout if train else 0.0
        if p > 0.0 and dropout_rng is None:
            raise ValueError("dropout requires an rng in train mode")
        h = self.backbone.forward(x, train)
        weights = None
        if self.amtpn is not None:
            h, weights = self.amtpn.fuse(h, train)
        if self.cbam is not None:
            h = self.cbam.forward(h, train)
        embeddings = h
        drop_mask = None
        if p > 0.0:
            drop_mask = (dropout_rng.random(h.shape) >= p) / (1.0 - p)
            h = h * drop_mask
        h = self._record(train, h, drop_mask)
        logits = self.head.forward(h, train)
        scores, _ = kernel.sigmoid(logits)
        return ForwardOutput(logits, scores, embeddings, weights)

    def backward(self, g_logits, g_embeddings=None):
        """Accumulate every parameter's gradient from the loss gradients;
        returns None. The input gradient is not computed: the features are
        data, and the projection's dx gemms would be thrown away (the module
        gradchecks difference the input through `Backbone.backward`)."""
        g = self.head.backward(g_logits)
        drop_mask = self._caches.pop()
        if drop_mask is not None:
            g = g * drop_mask
        if g_embeddings is not None:
            g = g + g_embeddings
        if self.cbam is not None:
            g = self.cbam.backward(g)
        if self.amtpn is not None:
            g = self.amtpn.backward(g)
        self.backbone.backward(g, need_dx=False)

    def state_arrays(self):
        """All persistent arrays: parameters plus BN running statistics."""
        out = {p.name: p.value for p in self.params()}
        out.update(super().state_arrays())
        return out


# ---------------------------------------------------------------------------
# offline similarity path
# ---------------------------------------------------------------------------

def _normalize_rows(v, what):
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateEmbeddingError(f"{what}: zero-norm embedding row")
    return v / norms[:, None]


def clip_scores(frame_embeds, text_embeds, cfg: ClipPathConfig):
    """Per-frame class distribution: softmax over classes of cos/temperature.

    frame_embeds [T, De], text_embeds [Ncls, De] -> [T, Ncls]; rows sum to 1.
    """
    v = _normalize_rows(np.asarray(frame_embeds, dtype=np.float64), "frame_embeds")
    u = _normalize_rows(np.asarray(text_embeds, dtype=np.float64), "text_embeds")
    if v.shape[1] != u.shape[1]:
        raise ConfigError(f"embedding dims differ: {v.shape[1]} vs {u.shape[1]}")
    cos = v @ u.T
    out, _ = kernel.softmax(cos / cfg.temperature, axis=1)
    return out

def clip_binary_probs(frame_embeds, abn_text_embeds, cfg: ClipPathConfig):
    """Per-frame anomaly probability from anomaly-class text embeddings.

    Uses the best cosine match over anomaly classes, centered by the video
    mean, squashed by the scaling parameter:
        p_t = sigmoid(scaling * (max_c cos(v_t, u_c) - mean_t max_c cos)).
    """
    v = _normalize_rows(np.asarray(frame_embeds, dtype=np.float64), "frame_embeds")
    u = _normalize_rows(np.asarray(abn_text_embeds, dtype=np.float64), "abn_text_embeds")
    if u.shape[0] < 1:
        raise ConfigError("need at least one anomaly text embedding")
    if v.shape[1] != u.shape[1]:
        raise ConfigError(f"embedding dims differ: {v.shape[1]} vs {u.shape[1]}")
    best = (v @ u.T).max(axis=1)
    probs, _ = kernel.sigmoid(cfg.scaling * (best - best.mean()))
    return probs


def pseudo_labels(probs, threshold):
    """Binarize pseudo-probabilities: 1 iff prob strictly exceeds threshold."""
    probs = np.asarray(probs, dtype=np.float64)
    return (probs > threshold).astype(np.float64)
