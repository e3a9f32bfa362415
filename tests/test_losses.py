"""Loss terms: worked examples, reductions, and gradient identities."""

import math

import numpy as np
import pytest

from dams import losses as L
from dams.amtpn import ConfigError
from dams.data import SyntheticSpec, batch_iter, synthesize_dataset
from dams.losses import (EmptyLossError, LossConfig, NonFiniteLossError,
                         UncertaintyWeights)
from dams.model import ModelConfig
from dams.trainer import TrainConfig, build_model, train_step


def rng(seed=0):
    return np.random.default_rng(seed)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.focal_alpha_pos == 0.75 and cfg.focal_gamma == 2.0
        assert cfg.topk_fraction == 0.1 and cfg.triplet_margin == 1.0

    @pytest.mark.parametrize("kw", [{"focal_alpha_pos": 0.0},
                                    {"focal_gamma": -1.0},
                                    {"topk_fraction": 0.0},
                                    {"topk_fraction": 1.5},
                                    {"triplet_margin": -0.1}])
    def test_bad_values(self, kw):
        with pytest.raises(ConfigError):
            LossConfig(**kw)


class TestFocalLoss:
    def test_gamma_zero_is_half_bce(self):
        scores = rng(0).uniform(0.05, 0.95, (3, 10))
        pseudo = (rng(1).random((3, 10)) > 0.5).astype(float)
        mask = np.ones((3, 10))
        cfg = LossConfig(focal_alpha_pos=0.5, focal_gamma=0.0)
        loss, _ = L.focal_loss(scores, pseudo, mask, cfg)
        pt = np.where(pseudo > 0.5, scores, 1.0 - scores)
        bce = float(-np.log(pt).mean())
        assert abs(loss - 0.5 * bce) < 1e-12

    def test_perfect_predictions_near_zero(self):
        scores = np.full((1, 5), 1.0 - 1e-7)
        pseudo = np.ones((1, 5))
        loss, _ = L.focal_loss(scores, pseudo, np.ones((1, 5)), LossConfig())
        assert loss <= 1e-6

    def test_single_frame_hand_value(self):
        loss, _ = L.focal_loss(np.asarray([[0.5]]), np.asarray([[1.0]]),
                               np.ones((1, 1)),
                               LossConfig(focal_alpha_pos=0.75, focal_gamma=2.0))
        assert abs(loss - 0.75 * 0.25 * math.log(2.0)) < 1e-12

    def test_all_masked_raises(self):
        with pytest.raises(EmptyLossError):
            L.focal_loss(np.full((1, 3), 0.5), np.zeros((1, 3)),
                         np.zeros((1, 3)), LossConfig())

    def test_nonnegative_and_monotone(self):
        cfg = LossConfig()
        pseudo = np.ones((1, 1))
        mask = np.ones((1, 1))
        prev = None
        for p in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            loss, _ = L.focal_loss(np.asarray([[p]]), pseudo, mask, cfg)
            assert loss >= 0
            if prev is not None:
                assert loss < prev
            prev = loss

    def test_mask_restricts_average(self):
        scores = np.asarray([[0.5, 0.9]])
        pseudo = np.asarray([[1.0, 1.0]])
        both, _ = L.focal_loss(scores, pseudo, np.asarray([[1.0, 1.0]]),
                               LossConfig())
        first, _ = L.focal_loss(scores, pseudo, np.asarray([[1.0, 0.0]]),
                                LossConfig())
        only_first, _ = L.focal_loss(scores[:, :1], pseudo[:, :1],
                                     np.ones((1, 1)), LossConfig())
        assert abs(first - only_first) < 1e-12
        assert first > both  # the easier masked-out frame lowered the mean

    def test_gradient_matches_finite_differences(self):
        cfg = LossConfig()
        scores = rng(2).uniform(0.1, 0.9, (2, 6))
        pseudo = (rng(3).random((2, 6)) > 0.5).astype(float)
        mask = np.ones((2, 6))
        _, d = L.focal_loss(scores, pseudo, mask, cfg)
        eps = 1e-7
        for i in range(2):
            for t in range(6):
                up = scores.copy(); up[i, t] += eps
                dn = scores.copy(); dn[i, t] -= eps
                lu, _ = L.focal_loss(up, pseudo, mask, cfg)
                ld, _ = L.focal_loss(dn, pseudo, mask, cfg)
                num = (lu - ld) / (2 * eps)
                assert abs(num - d[i, t]) < 1e-6


class TestTopK:
    def test_k1_is_max(self):
        scores = np.asarray([0.9, 0.1, 0.8, 0.2, 0.7, 0, 0, 0, 0, 0])
        assert L.topk_video_score(scores, 0.1) == 0.9

    def test_rho_one_is_mean(self):
        scores = rng(0).random(17)
        assert abs(L.topk_video_score(scores, 1.0) - scores.mean()) < 1e-15

    def test_ceil_rule(self):
        assert L.topk_count(10, 0.1) == 1
        assert L.topk_count(11, 0.1) == 2
        assert L.topk_count(1, 0.1) == 1
        assert L.topk_count(20, 0.25) == 5

    def test_tie_goes_to_earlier_frame(self):
        ones = np.ones((1, 4))
        idx, = L.topk_rows(np.asarray([[0.5, 0.9, 0.9, 0.1]]), ones, 0.25)
        assert list(idx) == [1]
        idx, = L.topk_rows(np.asarray([[0.9, 0.5, 0.9, 0.1]]), ones, 0.5)
        assert sorted(idx) == [0, 2]

    def test_video_score_matches_reference(self):
        for row in tied_values((6, 40)):
            for fraction in (0.005, 0.1, 0.5, 1.0):
                top = topk_indices(row, L.topk_count(40, fraction))
                assert L.topk_video_score(row, fraction) == row[top].mean()

    def test_monotone_in_scores(self):
        scores = rng(1).random(12)
        base = L.topk_video_score(scores, 0.3)
        for i in range(12):
            bumped = scores.copy()
            bumped[i] += 0.05
            assert L.topk_video_score(bumped, 0.3) >= base


def topk_indices(values, k):
    """Reference: indices of the k largest values, ties to the earlier frame."""
    order = np.lexsort((np.arange(values.shape[0]), -values))
    return order[:k]


def topk_rows_loop(values, mask, fraction):
    """Reference: the per-row top-k that `topk_rows` replaced."""
    out = []
    for i in range(values.shape[0]):
        valid = int(mask[i].sum())
        masked = np.where(mask[i] > 0, values[i], -np.inf)
        out.append(topk_indices(masked, L.topk_count(valid, fraction)))
    return out


def anchor_loop(frame_scores, labels, mask, fraction):
    """Reference: `build_triplet`'s per-video anchor loop."""
    videos, times = [], []
    for b in np.nonzero(labels > 0.5)[0]:
        valid = int(mask[b].sum())
        if valid < 1:
            continue
        masked = np.where(mask[b] > 0, frame_scores[b], -np.inf)
        top = topk_indices(masked, L.topk_count(valid, fraction))
        videos.append(np.full(len(top), b))
        times.append(top)
    return np.concatenate(videos), np.concatenate(times)


def video_logits_loop(frame_logits, mask, fraction):
    """Reference: `train_step`'s per-video top-k mean loop."""
    video_logits = np.zeros(frame_logits.shape[0])
    for i, idx in enumerate(topk_rows_loop(frame_logits, mask, fraction)):
        video_logits[i] = frame_logits[i, idx].mean()
    return video_logits


def padded_mask(lengths, t):
    return (np.arange(t) < np.asarray(lengths)[:, None]).astype(np.float64)


def tied_values(shape):
    """Values in {-1, -0.0, 0.0, 1}: every row is full of ties."""
    values = rng(0).integers(-1, 2, shape).astype(np.float64)
    values[rng(1).random(shape) < 0.3] = -0.0
    return values


class TestTopkRows:
    """One sort over the batch gives the per-row loop's index arrays."""

    CASES = {
        "ties": (tied_values((6, 40)), padded_mask([40, 17, 1, 0, 40, 33], 40)),
        "all-tied": (np.full((3, 5), 0.25), padded_mask([5, 2, 3], 5)),
        "t1": (rng(3).standard_normal((4, 1)), padded_mask([1, 1, 0, 1], 1)),
        "wide": (rng(4).standard_normal((5, 130)) * np.exp(3 * rng(5).standard_normal((5, 130))),
                 padded_mask([130, 64, 65, 1, 100], 130)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("fraction", [0.005, 0.1, 0.5, 1.0])
    def test_matches_row_loop(self, case, fraction):
        values, mask = self.CASES[case]
        got = L.topk_rows(values, mask, fraction)
        want = topk_rows_loop(values, mask, fraction)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        if fraction == 0.005:  # k = 1 on every row
            assert all(len(g) == 1 for g in got)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("fraction", [0.005, 0.3, 1.0])
    def test_triplet_anchors_match_row_loop(self, case, fraction):
        scores, mask = self.CASES[case]
        b, t = scores.shape
        labels = (np.arange(b) % 2 == 0).astype(np.float64)
        sel = L.build_triplet(rng(6).standard_normal((b, 3, t)), scores,
                              np.zeros((b, t)), labels, mask, fraction)
        for got, want in zip(sel.anchor, anchor_loop(scores, labels, mask, fraction)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tied", [False, True])
    def test_train_step_video_logits_match_row_loop(self, monkeypatch, tied):
        records = synthesize_dataset(SyntheticSpec(
            num_videos=8, t_min=1, t_max=12, input_dim=6, seed=5))
        cfg = TrainConfig(model=ModelConfig(input_dim=6, channels=8, depth=1),
                          batch_size=8, loss=LossConfig(topk_fraction=0.3))
        batch = next(batch_iter(records, cfg.batch_size, cfg.seed, "train", 0))
        assert batch.mask.sum(axis=1).min() < batch.mask.shape[1]  # padded rows
        model, weights = build_model(cfg)
        if tied:  # every frame's logit is the head's bias
            model.head.layers[2].w.value[...] = 0.0
        seen = {}
        forward, cls_loss = model.forward, L.video_cls_loss

        def capture_forward(*args, **kwargs):
            seen["out"] = forward(*args, **kwargs)
            return seen["out"]

        def capture_cls_loss(video_logits, labels):
            seen["video_logits"] = video_logits
            return cls_loss(video_logits, labels)
        model.forward = capture_forward
        monkeypatch.setattr(L, "video_cls_loss", capture_cls_loss)
        train_step(model, weights, batch, cfg, 0)
        want = video_logits_loop(seen["out"].frame_logits, batch.mask,
                                 cfg.loss.topk_fraction)
        assert seen["video_logits"].tobytes() == want.tobytes()


class TestVideoClsLoss:
    def test_zero_logit_ln2(self):
        for label in (0.0, 1.0):
            loss, _ = L.video_cls_loss(np.zeros(1), np.asarray([label]))
            assert abs(loss - math.log(2.0)) < 1e-15

    def test_saturated_logit_tiny_loss(self):
        loss, _ = L.video_cls_loss(np.asarray([20.0]), np.asarray([1.0]))
        assert loss <= 1e-8

    def test_two_video_hand_case(self):
        loss, _ = L.video_cls_loss(np.zeros(2), np.asarray([1.0, 0.0]))
        assert abs(loss - math.log(2.0)) < 1e-15

    def test_gradient_is_sigmoid_residual(self):
        logits = np.asarray([0.5, -1.5, 3.0])
        labels = np.asarray([1.0, 0.0, 0.0])
        _, d = L.video_cls_loss(logits, labels)
        p = 1.0 / (1.0 + np.exp(-logits))
        np.testing.assert_allclose(d, (p - labels) / 3.0, atol=1e-12)


class TestTripletLoss:
    def test_satisfied_margin_zero(self):
        f = np.asarray([0.0, 0.0])
        loss, da, dp, dn = L.triplet_loss(f, f, np.asarray([5.0, 0.0]), 1.0)
        assert loss == 0.0
        assert not da.any() and not dp.any() and not dn.any()

    def test_collapsed_triplet_equals_margin(self):
        f = rng(0).standard_normal(6)
        loss, *_ = L.triplet_loss(f, f, f, 1.0)
        assert loss == 1.0

    def test_scalar_case(self):
        loss, *_ = L.triplet_loss(np.asarray([0.0]), np.asarray([1.0]),
                                  np.asarray([3.0]), 1.0)
        assert loss == 0.0

    def test_active_region_value_and_grads(self):
        fa, fp, fn = np.asarray([0.0]), np.asarray([1.0]), np.asarray([1.2])
        loss, da, dp, dn = L.triplet_loss(fa, fp, fn, 1.0)
        assert abs(loss - (1.0 - 1.44 + 1.0)) < 1e-12
        np.testing.assert_allclose(da, 2.0 * (fn - fp))
        np.testing.assert_allclose(dp, -2.0 * (fa - fp))
        np.testing.assert_allclose(dn, 2.0 * (fa - fn))


class TestBuildTriplet:
    def _embeddings(self, b, c, t, seed=0):
        return rng(seed).standard_normal((b, c, t))

    def test_all_normal_batch_absent(self):
        emb = self._embeddings(2, 4, 6)
        sel = L.build_triplet(emb, np.zeros((2, 6)), np.zeros((2, 6)),
                              np.zeros(2), np.ones((2, 6)), 0.5)
        assert sel is None

    def test_all_anomalous_batch_absent(self):
        emb = self._embeddings(2, 4, 6)
        sel = L.build_triplet(emb, np.zeros((2, 6)), np.zeros((2, 6)),
                              np.ones(2), np.ones((2, 6)), 0.5)
        assert sel is None

    def test_positive_fallback_to_anchor(self):
        emb = self._embeddings(2, 4, 6, seed=1)
        scores = rng(2).random((2, 6))
        sel = L.build_triplet(emb, scores, np.zeros((2, 6)),
                              np.asarray([1.0, 0.0]), np.ones((2, 6)), 0.5)
        assert sel.positive_frames == sel.anchor_frames
        np.testing.assert_array_equal(sel.f_p, sel.f_a)

    def test_hand_means(self):
        emb = np.zeros((2, 2, 2))
        emb[0, :, 0] = [1.0, 2.0]   # anomalous video, top frame
        emb[0, :, 1] = [5.0, 6.0]   # anomalous video, pseudo-1 frame
        emb[1, :, 0] = [3.0, 4.0]   # normal video frames
        emb[1, :, 1] = [7.0, 8.0]
        scores = np.asarray([[0.9, 0.1], [0.0, 0.0]])
        pseudo = np.asarray([[0.0, 1.0], [0.0, 0.0]])
        sel = L.build_triplet(emb, scores, pseudo, np.asarray([1.0, 0.0]),
                              np.ones((2, 2)), 0.5)
        np.testing.assert_array_equal(sel.f_a, [1.0, 2.0])
        np.testing.assert_array_equal(sel.f_p, [5.0, 6.0])
        np.testing.assert_array_equal(sel.f_n, [5.0, 6.0])  # mean of both

    def test_masked_frames_excluded(self):
        emb = self._embeddings(2, 3, 4, seed=3)
        scores = np.asarray([[0.1, 0.9, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]])
        mask = np.asarray([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        sel = L.build_triplet(emb, scores, np.zeros((2, 4)),
                              np.asarray([1.0, 0.0]), mask, 0.5)
        assert all(t < 2 for _, t in sel.anchor_frames)
        assert all(t < 2 for _, t in sel.negative_frames)

    def test_scatter_grads_distributes_mean_weight(self):
        emb = np.zeros((2, 2, 2))
        scores = np.asarray([[0.9, 0.8], [0.0, 0.0]])
        sel = L.build_triplet(emb, scores, np.zeros((2, 2)),
                              np.asarray([1.0, 0.0]), np.ones((2, 2)), 1.0)
        d = np.zeros_like(emb)
        sel.scatter_grads(np.asarray([1.0, 0.0]), np.zeros(2), np.zeros(2), d)
        # anchor spans both frames of video 0 (k = ceil(1.0*2) = 2)
        np.testing.assert_allclose(d[0, 0, :], [0.5, 0.5])


def mean_embedding_loop(embeddings, frames):
    """Reference: a running sum over the (video, frame) list."""
    acc = np.zeros(embeddings.shape[1])
    for b, t in frames:
        acc += embeddings[b, :, t]
    return acc / len(frames)


def scatter_grads_loop(sel, d_fa, d_fp, d_fn, d_embeddings):
    """Reference: one += per listed frame, sets in anchor/positive/negative order."""
    for frames, d in ((sel.anchor_frames, d_fa), (sel.positive_frames, d_fp),
                      (sel.negative_frames, d_fn)):
        w = 1.0 / len(frames)
        for b, t in frames:
            d_embeddings[b, :, t] += w * d


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTripletArrayForm:
    """Array-form means and scatters give the frame loops' bytes."""

    def _check(self, emb, scores, pseudo, labels, mask, fraction=0.5, seed=0):
        sel = L.build_triplet(emb, scores, pseudo, labels, mask, fraction)
        assert sel is not None
        for got, frames in ((sel.f_a, sel.anchor_frames),
                            (sel.f_p, sel.positive_frames),
                            (sel.f_n, sel.negative_frames)):
            assert len(set(frames)) == len(frames)
            assert_same_bytes(got, mean_embedding_loop(emb, frames))
        r = rng(seed)
        grads = [r.standard_normal(emb.shape[1]) * np.exp(3.0 * r.standard_normal(emb.shape[1]))
                 for _ in range(3)]
        # a non-zero start makes the order of the sets' additions show
        got = r.standard_normal(emb.shape)
        want = got.copy()
        sel.scatter_grads(*grads, got)
        scatter_grads_loop(sel, *grads, want)
        assert_same_bytes(got, want)
        return sel

    def test_overlapping_anchor_and_positive(self):
        r = rng(7)
        B, C, T = 6, 5, 20
        emb = r.standard_normal((B, C, T)) * np.exp(3.0 * r.standard_normal((B, C, T)))
        scores = r.random((B, T))
        pseudo = (r.random((B, T)) > 0.4).astype(np.float64)
        mask = np.ones((B, T))
        mask[1, 13:] = 0.0
        mask[4, 5:] = 0.0
        labels = np.asarray([1.0, 1.0, 0.0, 1.0, 0.0, 0.0])
        sel = self._check(emb, scores, pseudo, labels, mask)
        assert set(sel.anchor_frames) & set(sel.positive_frames)
        assert len(sel.negative_frames) > 8

    def test_one_frame_sets(self):
        r = rng(8)
        emb = r.standard_normal((2, 3, 4))
        mask = np.asarray([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        sel = self._check(emb, r.random((2, 4)), np.zeros((2, 4)),
                          np.asarray([1.0, 0.0]), mask)
        assert sel.anchor_frames == [(0, 0)] and sel.negative_frames == [(1, 2)]

    def test_negative_zero_rows(self):
        emb = np.full((3, 4, 5), -0.0)
        scores = rng(9).random((3, 5))
        pseudo = np.zeros((3, 5))
        pseudo[0, 1] = 1.0
        sel = self._check(emb, scores, pseudo, np.asarray([1.0, 0.0, 1.0]),
                          np.ones((3, 5)))
        assert not np.signbit(sel.f_n).any()  # a running sum starts at +0.0


class TestTotalLoss:
    def test_unit_variance_identity(self):
        w = UncertaintyWeights()
        bd = L.total_loss(0.5, 1.0, 0.25, w)
        expected = 0.5 * (0.5 + 1.0 + 0.25) + 3 * math.log(2.0)
        assert abs(bd.total - expected) < 1e-12

    def test_zero_losses_regularizer_only(self):
        w = UncertaintyWeights()
        w.rho.value[:] = [0.3, -0.7, 1.1]
        bd = L.total_loss(0.0, 0.0, 0.0, w)
        assert abs(bd.total - np.log1p(np.exp(w.rho.value)).sum()) < 1e-12

    def test_breakdown_identity(self):
        w = UncertaintyWeights()
        w.rho.value[:] = rng(0).uniform(-1, 1, 3)
        l = rng(1).uniform(0, 2, 3)
        bd = L.total_loss(*l, w)
        s2 = np.exp(w.rho.value)
        expected = (l / (2 * s2) + np.log1p(s2)).sum()
        assert abs(bd.total - expected) < 1e-12

    def test_weights_strictly_positive(self):
        w = UncertaintyWeights()
        w.rho.value[:] = [5.0, -5.0, 0.0]
        bd = L.total_loss(1.0, 1.0, 1.0, w)
        assert np.all(bd.weights > 0)

    def test_rho_gradient(self):
        from dams.checks import check_total_loss
        for seed in range(3):
            report = check_total_loss(seed, tolerance=1e-6)
            assert report.passed, f"seed {seed}: {report.max_rel_error}"

    def test_nonfinite_component_raises(self):
        with pytest.raises(NonFiniteLossError):
            L.total_loss(float("nan"), 0.0, 0.0, UncertaintyWeights())
        with pytest.raises(NonFiniteLossError):
            L.total_loss(0.0, float("inf"), 0.0, UncertaintyWeights())
