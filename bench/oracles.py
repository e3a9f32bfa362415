"""Reference computations the benchmark checks the program's outputs against.

They are written apart from the program and favour the plainest formula over
speed: AUC by comparing every positive with every negative, AP by a sweep
over distinct score values, the uncertainty-weighted total by its defining
sum.
"""

from __future__ import annotations

import math

import numpy as np


def pairwise_auc(scores, labels, chunk=512):
    """P(s_pos > s_neg) + 0.5 P(s_pos == s_neg) over all positive/negative pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels > 0.5]
    neg = scores[labels <= 0.5]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("pairwise_auc needs both classes")
    wins = 0.0
    for i in range(0, len(pos), chunk):
        p = pos[i:i + chunk, None]
        wins += float((p > neg[None, :]).sum()) + 0.5 * float((p == neg[None, :]).sum())
    return wins / (len(pos) * len(neg))


def sweep_ap(scores, labels):
    """Sum over distinct thresholds, high to low, of recall gain x precision.

    All items sharing a score are admitted at the same threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels) > 0.5
    n_pos = int(positive.sum())
    if n_pos == 0:
        raise ValueError("sweep_ap needs a positive")
    ap = 0.0
    tp = fp = 0
    for threshold in sorted(set(scores.tolist()), reverse=True):
        at = scores == threshold
        gained = int((at & positive).sum())
        tp += gained
        fp += int((at & ~positive).sum())
        ap += (gained / n_pos) * (tp / (tp + fp))
    return ap


def uncertainty_total(losses, sigma2):
    """sum_i l_i / (2 sigma_i^2) + ln(1 + sigma_i^2)."""
    return math.fsum(l / (2.0 * s) + math.log1p(s) for l, s in zip(losses, sigma2))
