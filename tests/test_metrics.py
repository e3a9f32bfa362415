"""Ranking metrics against brute-force oracles; MI and complementarity."""

import numpy as np
import pytest

from dams.amtpn import ConfigError
from dams.metrics import (MiEstimatorConfig, UndefinedMetricError,
                          average_precision, complementarity_index,
                          mi_discrete, quantile_bins, roc_auc)


def rng(seed=0):
    return np.random.default_rng(seed)


def brute_force_auc(scores, labels):
    """O(n_pos * n_neg) pairwise definition with the half-tie convention."""
    pos = scores[labels > 0.5]
    neg = scores[labels <= 0.5]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def brute_force_ap(scores, labels):
    """Full descending sweep with tied scores entering as one block."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order] > 0.5
    n_pos = int(y.sum())
    ap = tp = fp = 0.0
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        btp = float(y[i:j + 1].sum())
        tp += btp
        fp += (j - i + 1) - btp
        if btp:
            ap += (btp / n_pos) * (tp / (tp + fp))
        i = j + 1
    return ap


def roc_auc_loop(scores, labels):
    """Reference: roc_auc with a Python loop over the tie blocks."""
    labels = np.asarray(labels, dtype=np.float64)
    n_pos = int((labels > 0.5).sum())
    n_neg = labels.shape[0] - n_pos
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.shape[0])
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average rank, 1-based
        i = j + 1
    rank_sum = ranks[labels > 0.5].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def average_precision_loop(scores, labels):
    """Reference: average_precision with a Python loop over the tie blocks."""
    labels = np.asarray(labels, dtype=np.float64)
    n_pos = int((labels > 0.5).sum())
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order] > 0.5
    ap = 0.0
    tp = fp = 0
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        block_tp = int(y[i:j + 1].sum())
        tp += block_tp
        fp += (j - i + 1) - block_tp
        if block_tp:
            ap += (block_tp / n_pos) * (tp / (tp + fp))
        i = j + 1
    return float(ap)


def test_vectorized_tie_blocks_repr_equal_to_loops():
    """The array form of the tie-block sweep returns the loops' exact floats."""
    r = rng(3)
    for case in range(3000):
        m = int(r.integers(1, 400))
        levels = int(r.integers(1, 12))
        if case % 3:
            scores = r.integers(0, levels, m) / levels  # heavy ties
        else:
            scores = r.standard_normal(m)
        if case % 7 == 0:
            scores[r.integers(0, m)] = np.nan
        if case % 11 == 0:
            scores = np.where(scores == 0.0, -0.0, scores)
        labels = (r.random(m) < r.random()).astype(float)
        n_pos = int(labels.sum())
        if n_pos:
            assert (repr(average_precision(scores, labels))
                    == repr(average_precision_loop(scores, labels)))
        if 0 < n_pos < m:
            assert repr(roc_auc(scores, labels)) == repr(roc_auc_loop(scores, labels))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(np.asarray([0.1, 0.2, 0.8, 0.9]),
                       np.asarray([0, 0, 1, 1])) == 1.0

    def test_all_ties_half(self):
        assert roc_auc(np.full(6, 0.3), np.asarray([0, 1, 0, 1, 0, 1])) == 0.5

    def test_worked_example(self):
        auc = roc_auc(np.asarray([0.1, 0.4, 0.35, 0.8]),
                      np.asarray([0, 0, 1, 1]))
        assert abs(auc - 0.75) < 1e-15

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc(np.asarray([0.1, 0.2]), np.asarray([1, 1]))

    def test_monotone_transform_invariance(self):
        scores = rng(0).random(50)
        labels = (rng(1).random(50) > 0.6).astype(float)
        a = roc_auc(scores, labels)
        b = roc_auc(np.exp(5 * scores), labels)
        assert abs(a - b) < 1e-12

    def test_matches_brute_force_200_instances(self):
        r = rng(42)
        for _ in range(200):
            m = int(r.integers(2, 1001))
            # quantized scores force heavy ties
            scores = np.round(r.random(m), int(r.integers(0, 3)))
            labels = (r.random(m) > r.uniform(0.2, 0.8)).astype(float)
            if labels.sum() in (0, m):
                labels[0] = 1.0 - labels[0]
            fast = roc_auc(scores, labels)
            slow = brute_force_auc(scores, labels)
            assert abs(fast - slow) < 1e-12


class TestAveragePrecision:
    def test_all_positives_first(self):
        assert average_precision(np.asarray([0.9, 0.8, 0.2, 0.1]),
                                 np.asarray([1, 1, 0, 0])) == 1.0

    def test_single_positive_last(self):
        m = 8
        scores = np.linspace(1.0, 0.1, m)
        labels = np.zeros(m)
        labels[-1] = 1.0
        assert abs(average_precision(scores, labels) - 1.0 / m) < 1e-15

    def test_worked_example(self):
        ap = average_precision(np.asarray([0.9, 0.8, 0.7, 0.6]),
                               np.asarray([1, 0, 1, 0]))
        assert abs(ap - 5.0 / 6.0) < 1e-15

    def test_no_positives_raises(self):
        with pytest.raises(UndefinedMetricError):
            average_precision(np.asarray([0.5, 0.6]), np.zeros(2))

    def test_matches_brute_force_200_instances(self):
        r = rng(7)
        for _ in range(200):
            m = int(r.integers(2, 1001))
            scores = np.round(r.random(m), int(r.integers(0, 3)))
            labels = (r.random(m) > r.uniform(0.2, 0.8)).astype(float)
            if labels.sum() == 0:
                labels[0] = 1.0
            fast = average_precision(scores, labels)
            slow = brute_force_ap(scores, labels)
            assert abs(fast - slow) < 1e-12


class TestMiDiscrete:
    def test_self_information(self):
        a = rng(0).integers(0, 4, 500)
        mi = mi_discrete(a, a, a_is_binned=True, b_is_binned=True)
        counts = np.bincount(a)
        p = counts[counts > 0] / counts.sum()
        h = -(p * np.log(p)).sum()
        assert abs(mi - h) < 1e-12

    def test_bijective_relabeling(self):
        a = rng(1).integers(0, 4, 500)
        b = (a * 7 + 3) % 4  # a permutation of the labels
        mi_ab = mi_discrete(a, b, a_is_binned=True, b_is_binned=True)
        mi_aa = mi_discrete(a, a, a_is_binned=True, b_is_binned=True)
        assert abs(mi_ab - mi_aa) < 1e-12

    def test_independent_near_zero(self):
        r = rng(2)
        a = r.integers(0, 4, 10_000)
        b = r.integers(0, 4, 10_000)
        assert mi_discrete(a, b, a_is_binned=True, b_is_binned=True) <= 0.05

    def test_symmetry(self):
        r = rng(3)
        a = r.integers(0, 3, 400)
        b = (a + r.integers(0, 2, 400)) % 3
        ab = mi_discrete(a, b, a_is_binned=True, b_is_binned=True)
        ba = mi_discrete(b, a, a_is_binned=True, b_is_binned=True)
        assert abs(ab - ba) < 1e-12

    def test_bounded_by_entropies(self):
        r = rng(4)
        a = r.integers(0, 5, 300)
        b = r.integers(0, 3, 300)

        def entropy(v):
            c = np.bincount(v)
            p = c[c > 0] / c.sum()
            return -(p * np.log(p)).sum()
        mi = mi_discrete(a, b, a_is_binned=True, b_is_binned=True)
        assert 0 <= mi <= min(entropy(a), entropy(b)) + 1e-12

    def test_continuous_inputs_are_binned(self):
        x = rng(5).standard_normal(1000)
        mi = mi_discrete(x, x, a_is_binned=False, b_is_binned=False)
        assert abs(mi - np.log(8)) < 0.05  # 8 equal quantile bins

    def test_quantile_bins_balanced(self):
        bins = quantile_bins(rng(6).standard_normal(8000), 8)
        counts = np.bincount(bins, minlength=8)
        assert counts.min() > 0.8 * 1000


class TestComplementarityIndex:
    def _features(self, scalar, c=4):
        return np.tile(scalar[:, None], (1, c))

    def test_duplicate_features_zero(self):
        r = rng(0)
        y = r.integers(0, 2, 2000)
        s = y + 0.3 * r.standard_normal(2000)
        f = self._features(s)
        ci = complementarity_index(f, f.copy(), y, MiEstimatorConfig(bins=4))
        assert abs(ci) < 1e-9

    def test_xor_construction_large_positive(self):
        r = rng(1)
        m = 10_000
        a = r.integers(0, 2, m)
        b = r.integers(0, 2, m)
        y = a ^ b
        fa = self._features(a + 0.01 * r.standard_normal(m))
        fb = self._features(b + 0.01 * r.standard_normal(m))
        ci = complementarity_index(fa, fb, y, MiEstimatorConfig(bins=4))
        assert ci > 0.3

    def test_joint_never_below_singles_within_tolerance(self):
        r = rng(2)
        m = 10_000
        cfg = MiEstimatorConfig(bins=4)
        for trial in range(5):
            y = r.integers(0, 2, m)
            fa = self._features(y + r.standard_normal(m))
            fb = self._features(0.5 * y + r.standard_normal(m))
            xi = quantile_bins(fa.mean(axis=1), cfg.bins)
            xj = quantile_bins(fb.mean(axis=1), cfg.bins)
            i_i = mi_discrete(xi, y, cfg, a_is_binned=True)
            i_j = mi_discrete(xj, y, cfg, a_is_binned=True)
            i_ij = mi_discrete(xi * cfg.bins + xj, y, cfg, a_is_binned=True)
            assert i_ij >= max(i_i, i_j) - 0.02

    def test_uninformative_features_undefined(self):
        r = rng(3)
        y = r.integers(0, 2, 64)
        # constant features: zero information in both branches
        f = np.ones((64, 4))
        with pytest.raises((UndefinedMetricError, ConfigError)):
            complementarity_index(f, f, y, MiEstimatorConfig(bins=2))

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            complementarity_index(np.ones((5, 2)), np.ones((6, 2)),
                                  np.zeros(5))
