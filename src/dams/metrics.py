"""Frame-level ranking metrics and the scale-complementarity diagnostic.

roc_auc is the Mann-Whitney statistic with the half-tie convention;
average_precision is the step-interpolated PR sweep with tied scores
processed as one block. Both are pinned against brute-force oracles in the
tests because tie conventions move third-decimal results.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .amtpn import ConfigError


class UndefinedMetricError(ValueError):
    """The metric is undefined for this input (single class, no positives)."""


def _validate(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ConfigError("scores and labels must be equal-length 1-D arrays")
    return scores, labels


def _tie_blocks(sorted_scores):
    """(first, last) index arrays of the runs of equal scores in a sorted array."""
    n = sorted_scores.shape[0]
    first = np.flatnonzero(np.concatenate(
        ([True], sorted_scores[1:] != sorted_scores[:-1])))
    last = np.append(first[1:], n) - 1
    return first, last


def roc_auc(scores, labels):
    """P(score_pos > score_neg) + 0.5 * P(tie), via a rank sweep."""
    scores, labels = _validate(scores, labels)
    n_pos = int((labels > 0.5).sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_auc needs both classes")
    order = np.argsort(scores, kind="stable")
    first, last = _tie_blocks(scores[order])
    ranks = np.empty(scores.shape[0])
    # every member of a tie block gets the block's average 1-based rank
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum = ranks[labels > 0.5].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def average_precision(scores, labels):
    """AP = sum_n (R_n - R_{n-1}) P_n over the descending-score sweep.

    All items sharing a score enter the sweep together; the per-block terms
    are added in sweep order.
    """
    scores, labels = _validate(scores, labels)
    n_pos = int((labels > 0.5).sum())
    if n_pos == 0:
        raise UndefinedMetricError("average_precision needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    _, last = _tie_blocks(scores[order])
    tp = np.cumsum(labels[order] > 0.5)[last]
    block_tp = np.diff(tp, prepend=0)
    terms = (block_tp / n_pos) * (tp / (last + 1))
    return float(np.cumsum(terms)[-1])


# ---------------------------------------------------------------------------
# discrete mutual information and the complementarity index
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MiEstimatorConfig:
    bins: int = 8

    def __post_init__(self):
        if self.bins < 2:
            raise ConfigError("mi estimator needs at least 2 bins")


def quantile_bins(values, bins):
    """Assign each value to one of `bins` quantile bins (0-based)."""
    values = np.asarray(values, dtype=np.float64)
    edges = np.quantile(values, np.linspace(0, 1, bins + 1)[1:-1])
    return np.searchsorted(edges, values, side="right")


def _entropy_from_counts(counts):
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def mi_discrete(a, b, cfg: MiEstimatorConfig = MiEstimatorConfig(),
                a_is_binned=False, b_is_binned=True):
    """Plug-in mutual information (nats) between two discrete variables.

    Continuous inputs are quantile-binned first; pass *_is_binned=True for
    inputs that are already integer bin labels.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 2:
        raise ConfigError("mi_discrete needs two equal-length 1-D arrays, M >= 2")
    ab = a.astype(np.int64) if a_is_binned else quantile_bins(a, cfg.bins)
    bb = b.astype(np.int64) if b_is_binned else quantile_bins(b, cfg.bins)
    _, ai = np.unique(ab, return_inverse=True)
    _, bi = np.unique(bb, return_inverse=True)
    na, nb = ai.max() + 1, bi.max() + 1
    joint = np.zeros((na, nb))
    np.add.at(joint, (ai, bi), 1.0)
    ha = _entropy_from_counts(joint.sum(axis=1))
    hb = _entropy_from_counts(joint.sum(axis=0))
    hab = _entropy_from_counts(joint.reshape(-1))
    return max(0.0, ha + hb - hab)


def complementarity_index(feat_i, feat_j, labels,
                          cfg: MiEstimatorConfig = MiEstimatorConfig()):
    """Relative information gain of combining two branch features.

    Each branch [M, C] is reduced to its channel-mean scalar per frame and
    quantile-binned; the joint term bins the scalar pair. CI = (I_ij -
    max(I_i, I_j)) / (I_i + I_j).
    """
    feat_i = np.asarray(feat_i, dtype=np.float64)
    feat_j = np.asarray(feat_j, dtype=np.float64)
    y = np.asarray(labels)
    if feat_i.shape != feat_j.shape or feat_i.ndim != 2:
        raise ConfigError("branch features must be equal-shape [M, C] arrays")
    if feat_i.shape[0] != y.shape[0]:
        raise ConfigError("labels length must match frame count")
    xi = quantile_bins(feat_i.mean(axis=1), cfg.bins)
    xj = quantile_bins(feat_j.mean(axis=1), cfg.bins)
    i_i = mi_discrete(xi, y, cfg, a_is_binned=True)
    i_j = mi_discrete(xj, y, cfg, a_is_binned=True)
    joint = xi * cfg.bins + xj
    i_ij = mi_discrete(joint, y, cfg, a_is_binned=True)
    denom = i_i + i_j
    if denom < 1e-9:
        raise UndefinedMetricError("complementarity index undefined: both "
                                   "single-scale informations vanish")
    return float((i_ij - max(i_i, i_j)) / denom)
