"""Training losses: frame-level focal, video-level top-k BCE, triplet
separation, and their uncertainty-weighted combination.

Every loss returns its scalar value together with the analytic gradient of
that value with respect to its differentiable inputs, so the trainer can
chain them through the model's manual backward pass.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .amtpn import ConfigError
from .kernel import Parameter

PROB_EPS = 1e-7


class EmptyLossError(ValueError):
    """No valid frames were available to average over."""


class NonFiniteLossError(RuntimeError):
    """A loss component evaluated to NaN or infinity."""


@dataclasses.dataclass(frozen=True)
class LossConfig:
    focal_alpha_pos: float = 0.75
    focal_gamma: float = 2.0
    topk_fraction: float = 0.1
    triplet_margin: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.focal_alpha_pos < 1.0:
            raise ConfigError("focal_alpha_pos must lie in (0, 1)")
        if not 0 <= self.focal_gamma < math.inf:  # NaN fails too
            raise ConfigError("focal_gamma must be finite and >= 0")
        if not 0.0 < self.topk_fraction <= 1.0:
            raise ConfigError("topk_fraction must lie in (0, 1]")
        if not 0 <= self.triplet_margin < math.inf:
            raise ConfigError("triplet_margin must be finite and >= 0")


@dataclasses.dataclass
class LossBreakdown:
    l_pse: float
    l_cls: float
    l_trip: float
    total: float
    weights: np.ndarray   # effective 1 / (2 sigma_i^2)
    sigma2: np.ndarray


# ---------------------------------------------------------------------------
# frame-level focal loss on pseudo labels
# ---------------------------------------------------------------------------

def focal_loss(frame_scores, pseudo, mask, cfg: LossConfig):
    """Mean over valid frames of -alpha_t (1 - p_t)^gamma log(p_t).

    p_t is the predicted probability of the pseudo class (clamped to
    [PROB_EPS, 1 - PROB_EPS]); alpha_t is alpha_pos for pseudo-anomalous
    frames and 1 - alpha_pos otherwise. Returns (loss, d loss / d scores).
    """
    scores = np.asarray(frame_scores, dtype=np.float64)
    y = np.asarray(pseudo, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    n = m.sum()
    if n < 1:
        raise EmptyLossError("focal_loss: all frames masked")
    pt_raw = np.where(y > 0.5, scores, 1.0 - scores)
    clamped = (pt_raw < PROB_EPS) | (pt_raw > 1.0 - PROB_EPS)
    pt = np.clip(pt_raw, PROB_EPS, 1.0 - PROB_EPS)
    alpha = np.where(y > 0.5, cfg.focal_alpha_pos, 1.0 - cfg.focal_alpha_pos)
    one_minus = 1.0 - pt
    g = cfg.focal_gamma
    per_frame = -alpha * one_minus ** g * np.log(pt)
    loss = float((per_frame * m).sum() / n)

    if g > 0:
        dpt = alpha * (g * one_minus ** (g - 1.0) * np.log(pt) - one_minus ** g / pt)
    else:
        dpt = -alpha / pt
    dpt = np.where(clamped, 0.0, dpt)
    sign = np.where(y > 0.5, 1.0, -1.0)
    d_scores = dpt * sign * m / n
    return loss, d_scores


# ---------------------------------------------------------------------------
# video-level top-k pooling and classification
# ---------------------------------------------------------------------------

def topk_count(t, fraction):
    return max(1, math.ceil(fraction * t))


def topk_rows(values, mask, fraction):
    """Per row of `values` [B, T], the indices of its topk_count(valid,
    fraction) largest frames, `valid` being the row's mask sum; masked frames
    rank last and ties go to the earlier frame.

    One lexsort over the whole matrix sorts each row by descending value,
    then by frame; masked frames enter it as -inf.
    """
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask)
    masked = np.where(mask > 0, values, -np.inf)
    t = np.broadcast_to(np.arange(values.shape[-1]), values.shape)
    order = np.lexsort((t, -masked), axis=-1)
    return [row[:topk_count(int(valid), fraction)]
            for row, valid in zip(order, mask.sum(axis=-1))]


def topk_mean(values, sets):
    """Per row i of `values` [B, T], the mean of its frames `sets[i]`."""
    return np.array([row[idx].mean() for row, idx in zip(values, sets)])


def topk_mean_backward(g, sets, into):
    """Adjoint of `topk_mean`: adds g[i] / len(sets[i]) to the frames
    `sets[i]` of row i of `into`, row by row."""
    for i, idx in enumerate(sets):
        into[i, idx] += g[i] / len(idx)


def topk_video_score(frame_scores, fraction):
    """Mean of the ceil(fraction * T) largest frame scores."""
    values = np.asarray(frame_scores, dtype=np.float64)[None]
    sets = topk_rows(values, np.ones(values.shape), fraction)
    return float(topk_mean(values, sets)[0])


def video_cls_loss(video_logits, labels):
    """Mean sigmoid BCE over videos, computed exactly in the logit domain.

    Returns (loss, d loss / d logits).
    """
    logits = np.asarray(video_logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = logits.shape[0]
    # softplus(z) = log(1 + e^z), stable for large |z|
    sp = np.logaddexp(0.0, logits)
    per = y * (sp - logits) + (1.0 - y) * sp
    loss = float(per.mean())
    p = 1.0 / (1.0 + np.exp(-np.clip(logits, -500, 500)))
    return loss, (p - y) / n


# ---------------------------------------------------------------------------
# triplet separation
# ---------------------------------------------------------------------------

def triplet_loss(f_a, f_p, f_n, margin):
    """max(0, |a-p|^2 - |a-n|^2 + margin); grads are zero when satisfied."""
    f_a = np.asarray(f_a, dtype=np.float64)
    f_p = np.asarray(f_p, dtype=np.float64)
    f_n = np.asarray(f_n, dtype=np.float64)
    dap = f_a - f_p
    dan = f_a - f_n
    raw = float(dap @ dap - dan @ dan + margin)
    if raw <= 0.0:
        z = np.zeros_like(f_a)
        return 0.0, z, z.copy(), z.copy()
    return raw, 2.0 * (f_n - f_p), -2.0 * dap, 2.0 * dan


def _pairs(frames):
    videos, times = frames
    return list(zip(videos.tolist(), times.tolist()))


@dataclasses.dataclass
class TripletSelection:
    """Frame memberships of the three mean embeddings.

    Each set is a pair of index arrays (videos, frames) naming distinct
    frames; the mean runs over the listed frames, so each frame receives
    1/len of the embedding gradient. `*_frames` lists a set as (video,
    frame) tuples.
    """
    anchor: tuple
    positive: tuple
    negative: tuple
    f_a: np.ndarray
    f_p: np.ndarray
    f_n: np.ndarray

    anchor_frames = property(lambda self: _pairs(self.anchor))
    positive_frames = property(lambda self: _pairs(self.positive))
    negative_frames = property(lambda self: _pairs(self.negative))

    def scatter_grads(self, d_fa, d_fp, d_fn, d_embeddings):
        # frames are distinct within a set, so one indexed += per set adds to
        # each frame what a loop over the set would, sets in the same order
        for (videos, times), d in ((self.anchor, d_fa), (self.positive, d_fp),
                                   (self.negative, d_fn)):
            d_embeddings[videos, :, times] += (1.0 / len(videos)) * d


def _mean_embedding(embeddings, frames):
    """Mean of the frames' embeddings, added in list order from 0.0 as a
    running sum would be: the last row of a cumsum over a leading zero row."""
    videos, times = frames
    rows = np.zeros((len(videos) + 1, embeddings.shape[1]))
    rows[1:] = embeddings[videos, :, times]
    return np.cumsum(rows, axis=0)[-1] / len(videos)


def build_triplet(embeddings, frame_scores, pseudo, video_labels, mask,
                  topk_fraction):
    """Select anchor/positive/negative frame sets from one batch.

    Anchor: top-k scored frames of anomalous videos. Positive: pseudo-label-1
    frames of anomalous videos (falls back to the anchor frames when there
    are none). Negative: all valid frames of normal videos. Returns None when
    the batch lacks either class; training then skips the term.
    """
    labels = np.asarray(video_labels, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    abn = np.nonzero(labels > 0.5)[0]
    normal = labels <= 0.5
    if len(abn) == 0 or not normal.any():
        return None

    videos, times = [], []
    for b, top in zip(abn, topk_rows(frame_scores[abn], mask[abn], topk_fraction)):
        if mask[b].sum() >= 1:
            videos.append(np.full(len(top), b))
            times.append(top)
    present = mask > 0
    negative = np.nonzero(present & normal[:, None])
    if not videos or len(negative[0]) == 0:
        return None
    anchor = (np.concatenate(videos), np.concatenate(times))
    positive = np.nonzero(present & (labels > 0.5)[:, None]
                          & (np.asarray(pseudo) > 0.5))
    if len(positive[0]) == 0:
        positive = anchor

    return TripletSelection(
        anchor, positive, negative,
        _mean_embedding(embeddings, anchor),
        _mean_embedding(embeddings, positive),
        _mean_embedding(embeddings, negative))


# ---------------------------------------------------------------------------
# uncertainty-weighted total
# ---------------------------------------------------------------------------

class UncertaintyWeights:
    """Learnable per-task variances sigma_i^2 = exp(rho_i), rho unconstrained."""

    def __init__(self, init=0.0):
        self.rho = Parameter(np.full(3, float(init)), "uncertainty.rho")

    @property
    def sigma2(self):
        return np.exp(self.rho.value)

    def params(self):
        return [self.rho]


def total_loss(l_pse, l_cls, l_trip, weights: UncertaintyWeights) -> LossBreakdown:
    """total = sum_i [ l_i / (2 sigma_i^2) + ln(1 + sigma_i^2) ].

    The gradient w.r.t. each rho_i is added to weights.rho.grad; the
    gradient w.r.t. each l_i is the returned weight 1 / (2 sigma_i^2).
    """
    losses = np.array([l_pse, l_cls, l_trip], dtype=np.float64)
    if not np.all(np.isfinite(losses)):
        raise NonFiniteLossError(f"non-finite loss components: {losses}")
    s2 = weights.sigma2
    w = 1.0 / (2.0 * s2)
    total = float((w * losses).sum() + np.log1p(s2).sum())
    weights.rho.grad += -losses / (2.0 * s2) + s2 / (1.0 + s2)
    return LossBreakdown(float(l_pse), float(l_cls), float(l_trip), total, w, s2)
