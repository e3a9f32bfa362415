"""Model assembly shape contracts and the offline similarity path."""

import hashlib

import numpy as np
import pytest

from dams.amtpn import ConfigError, PyramidConfig
from dams.cbam import CbamConfig
from dams.checks import SMALL_MODEL
from dams.model import (Backbone, ClipPathConfig, DamsModel,
                        DegenerateEmbeddingError, ModelConfig,
                        clip_binary_probs, clip_scores, pseudo_labels)
from dams.trainer import ABLATION_VARIANTS, TrainConfig, apply_variant

SMALL = ModelConfig(input_dim=16, channels=8, depth=1, head_hidden=4,
                    pyramid=PyramidConfig(scales=(1, 3), channels=8,
                                          reduction_ratio=2),
                    cbam=CbamConfig(reduction_ratio=2, temporal_kernel=3))


def rng(seed=0):
    return np.random.default_rng(seed)


class TestBackbone:
    def test_depth_zero_is_pure_projection(self):
        bb = Backbone(6, 4, 0, rng(0))
        x = rng(1).standard_normal((2, 6, 7))
        out = bb.forward(x, train=True)
        expected = bb.proj.forward(x)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 7, 27, 64])
    def test_length_preserved(self, t):
        bb = Backbone(6, 4, 2, rng(2))
        x = rng(3).standard_normal((2, 6, t))
        assert bb.forward(x, train=False).shape == (2, 4, t)

    def test_gradient(self):
        from dams.checks import check_backbone
        for seed in range(3):
            report = check_backbone(seed, tolerance=1e-5)
            assert report.passed, f"seed {seed}: {report.max_rel_error}"


class TestModelForward:
    def test_shape_contract(self):
        model = DamsModel(ModelConfig(input_dim=32, channels=16, depth=1),
                          rng(0))
        x = rng(1).standard_normal((2, 32, 32))
        out = model.forward(x)
        assert out.frame_logits.shape == (2, 32)
        assert out.frame_scores.shape == (2, 32)
        assert out.embeddings.shape == (2, 16, 32)
        assert out.aff_weights.shape == (2, 4)

    def test_scores_in_unit_interval(self):
        model = DamsModel(SMALL, rng(2))
        x = rng(3).standard_normal((2, 16, 12)) * 10
        out = model.forward(x)
        assert np.all(out.frame_scores > 0) and np.all(out.frame_scores < 1)

    def test_deterministic_forward(self):
        model = DamsModel(SMALL, rng(4))
        x = rng(5).standard_normal((1, 16, 9))
        a = model.forward(x).frame_logits
        b = model.forward(x).frame_logits
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("t", [1, 2, 7, 27, 64])
    def test_all_lengths(self, t):
        model = DamsModel(SMALL, rng(6))
        out = model.forward(rng(7).standard_normal((1, 16, t)))
        assert out.frame_logits.shape == (1, t)

    def test_ablation_switches_change_structure(self):
        base = DamsModel(SMALL, rng(8))
        assert base.amtpn is not None and base.cbam is not None
        import dataclasses
        off = dataclasses.replace(SMALL, use_amtpn=False, use_cbam=False)
        bare = DamsModel(off, rng(8))
        assert bare.amtpn is None and bare.cbam is None
        x = rng(9).standard_normal((1, 16, 9))
        assert bare.forward(x).frame_logits.shape == (1, 9)

    def test_use_tpp_false_forces_single_scale(self):
        import dataclasses
        cfg = dataclasses.replace(SMALL, use_tpp=False)
        assert cfg.pyramid.scales == (1,)

    def test_dropout_deterministic_under_rng(self):
        import dataclasses
        cfg = dataclasses.replace(SMALL, dropout=0.5)
        model = DamsModel(cfg, rng(10))
        x = rng(11).standard_normal((2, 16, 9))
        a = model.forward(x, train=True,
                          dropout_rng=np.random.default_rng(7)).frame_logits
        b = model.forward(x, train=True,
                          dropout_rng=np.random.default_rng(7)).frame_logits
        np.testing.assert_array_equal(a, b)

    def test_backward_skips_input_gradient(self):
        """`DamsModel.backward` returns None and leaves the parameter
        gradients of a backward that computes the projection's dx."""
        x = rng(3).standard_normal((3, 16, 9))
        grads = []
        for need_dx in (False, True):
            model = DamsModel(SMALL, rng(4))
            if need_dx:
                proj_backward = model.backbone.proj.backward
                model.backbone.proj.backward = lambda g, need_dx: proj_backward(g)
            out = model.forward(x, train=True)
            g = rng(5).standard_normal(out.frame_logits.shape)
            assert model.backward(g, rng(6).standard_normal(out.embeddings.shape)) is None
            grads.append([p.grad.tobytes() for p in model.params()])
        assert grads[0] == grads[1]

    def test_full_model_gradient(self):
        from dams.checks import check_full_model
        report = check_full_model(0, tolerance=1e-4, max_entries_per_param=3,
                                  rng=np.random.default_rng(0))
        assert report.passed, report.max_rel_error


def _sha256_lines(names):
    return hashlib.sha256("\n".join(names).encode()).hexdigest()


class TestParameterOrder:
    """`params()` order is what `grad_check` (and `dams gradcheck`) index
    into and what Adam steps through; checkpoint headers sort array names,
    so only these tests see a reordering."""

    def test_small_model_order(self):
        model = DamsModel(SMALL_MODEL, rng(0))
        names = [p.name for p in model.params()]
        assert names == [
            "backbone.proj.w", "backbone.proj.b",
            "backbone.block0.conv.w", "backbone.block0.conv.b",
            "backbone.block0.bn.gamma", "backbone.block0.bn.beta",
            "amtpn.tpp.s1.conv.w", "amtpn.tpp.s1.conv.b",
            "amtpn.tpp.s1.bn.gamma", "amtpn.tpp.s1.bn.beta",
            "amtpn.tpp.s3.conv.w", "amtpn.tpp.s3.conv.b",
            "amtpn.tpp.s3.bn.gamma", "amtpn.tpp.s3.bn.beta",
            "amtpn.aff.mlp1.w", "amtpn.aff.mlp1.b",
            "amtpn.aff.mlp2.w", "amtpn.aff.mlp2.b",
            "amtpn.aff.head.w", "amtpn.aff.head.b",
            "amtpn.aff.refine.w", "amtpn.aff.refine.b",
            "amtpn.tce.w1.w", "amtpn.tce.w1.b",
            "amtpn.tce.w2.w", "amtpn.tce.w2.b",
            "cbam.ca.mlp1.w", "cbam.ca.mlp1.b",
            "cbam.ca.mlp2.w", "cbam.ca.mlp2.b",
            "cbam.ta.conv.w", "cbam.ta.conv.b",
            "head.conv1.w", "head.conv1.b",
            "head.conv2.w", "head.conv2.b"]
        assert list(model.state_arrays())[len(names):] == [
            f"{bn}.{stat}"
            for bn in ("backbone.block0.bn", "amtpn.tpp.s1.bn", "amtpn.tpp.s3.bn")
            for stat in ("running_mean", "running_var")]

    def test_default_model_order(self):
        model = DamsModel(ModelConfig(), rng(0))
        assert len(model.params()) == 48
        assert _sha256_lines(p.name for p in model.params()) == (
            "084a6cd31fe84b44d8dfb87160f706299d8915e91e86118e2445dd8631699fb3")
        assert _sha256_lines(model.state_arrays()) == (
            "d3a5c432155c98919ceeb4b68d22622f82c87a41d5bcdcb0069213fbaa99d3fd")

    # (model, variant) -> (params() count, state_arrays() count, SHA-256 of
    # the state keys, which start with the parameter names in order)
    VARIANT_TREES = {
        ("default", "full"): (48, 60,
            "d3a5c432155c98919ceeb4b68d22622f82c87a41d5bcdcb0069213fbaa99d3fd"),
        ("default", "no_amtpn"): (20, 24,
            "650cbd60baeea01fb679bec010c7a3328c96b1d1818f04744096add7038e8f84"),
        ("default", "no_cbam"): (42, 54,
            "b56f0989d17f9d322833855d56088f6e19f21d8e97fb920e1a35d47d6757be49"),
        ("default", "no_ca"): (44, 56,
            "e70deeb2e4c091de6c134ce8dc343ba9e7f7a897d5d4881b26c0a4d46906da01"),
        ("default", "no_sa"): (46, 58,
            "b01a2822d24924d560701e9b964fb8dc3751b066abdca6fd64a43b09926ab6aa"),
        ("default", "no_aff"): (42, 54,
            "33397c97d6f51be965a4337b225133b1e80ebde0b5e33b5148f91469550c5083"),
        ("default", "no_tce"): (44, 56,
            "1fc3881b0e6219b30987883bf3d29260f6b6abace8bcd19f31eee78b1da72648"),
        ("default", "no_tpp"): (36, 42,
            "64248875379b9cd9dbd86591d1604a0874a18f3d7944046fbfb21bf1854ee812"),
        ("default", "no_l_pse"): (48, 60,
            "d3a5c432155c98919ceeb4b68d22622f82c87a41d5bcdcb0069213fbaa99d3fd"),
        ("default", "no_l_trip"): (48, 60,
            "d3a5c432155c98919ceeb4b68d22622f82c87a41d5bcdcb0069213fbaa99d3fd"),
        ("small", "full"): (36, 42,
            "faebf3eb70bf0ee5c26b55064d8d33334f3ab213f7a1d0448f71bd450a3a927d"),
        ("small", "no_amtpn"): (16, 18,
            "ac42514d2ed9b982ec87a37d534a5de9e8115df7fa9b93e41195cb8204d4929b"),
        ("small", "no_cbam"): (30, 36,
            "04b9af1433c695288aebe014951561d6cf3a78e53db457e6a04d744989acb175"),
        ("small", "no_ca"): (32, 38,
            "cb32ba107668a111491d7767dfcf26a0548e176810914f1dd0297a303c6f2d9a"),
        ("small", "no_sa"): (34, 40,
            "45ec1c6f1f5dac8bfec2db470806f1aa2c638e6f5faf8a4934a75e7fd29d9e76"),
        ("small", "no_aff"): (30, 36,
            "4cfe175efcb6ac297605ad8fb836a79f7b383ab1783e802ea190dad1a0011476"),
        ("small", "no_tce"): (32, 38,
            "99aba8d37c79a025faac312432b72e0afe2bead7a7271f125ec5de826e1e8354"),
        ("small", "no_tpp"): (32, 36,
            "c3c0194ee667e2efdca724cc74c6fc0b6eea2305ddbfc621313cb7e6379e09f2"),
        ("small", "no_l_pse"): (36, 42,
            "faebf3eb70bf0ee5c26b55064d8d33334f3ab213f7a1d0448f71bd450a3a927d"),
        ("small", "no_l_trip"): (36, 42,
            "faebf3eb70bf0ee5c26b55064d8d33334f3ab213f7a1d0448f71bd450a3a927d"),
    }

    @pytest.mark.parametrize("model_name", ["default", "small"])
    @pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
    def test_variant_tree(self, model_name, variant):
        base = {"default": ModelConfig(), "small": SMALL_MODEL}[model_name]
        cfg = apply_variant(TrainConfig(model=base), ABLATION_VARIANTS[variant])
        model = DamsModel(cfg.model, rng(0))
        names = [p.name for p in model.params()]
        state = list(model.state_arrays())
        assert state[:len(names)] == names
        assert (len(names), len(state), _sha256_lines(state)) == (
            self.VARIANT_TREES[model_name, variant])


class TestClipScores:
    def test_rows_sum_to_one(self):
        v = rng(0).standard_normal((5, 8))
        u = rng(1).standard_normal((3, 8))
        s = clip_scores(v, u, ClipPathConfig())
        assert s.shape == (5, 3)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_single_class_all_ones(self):
        s = clip_scores(rng(2).standard_normal((4, 8)),
                        rng(3).standard_normal((1, 8)), ClipPathConfig())
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_closed_form_orthogonal(self):
        # frame equals text 0 and is orthogonal to the others; temperature 1
        u = np.eye(3)
        v = np.asarray([[1.0, 0.0, 0.0]])
        s = clip_scores(v, u, ClipPathConfig(temperature=1.0))
        expected = np.e / (np.e + 2.0)
        np.testing.assert_allclose(s[0, 0], expected, atol=1e-12)

    def test_scale_invariance(self):
        v = rng(4).standard_normal((4, 8))
        u = rng(5).standard_normal((2, 8))
        a = clip_scores(v, u, ClipPathConfig())
        b = clip_scores(3.7 * v, u, ClipPathConfig())
        c = clip_scores(v, 0.2 * u, ClipPathConfig())
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a, c, atol=1e-12)

    def test_zero_norm_rejected(self):
        v = np.zeros((2, 4))
        with pytest.raises(DegenerateEmbeddingError):
            clip_scores(v, np.eye(4), ClipPathConfig())

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            clip_scores(np.ones((2, 4)), np.ones((2, 5)), ClipPathConfig())

    def test_offline_determinism(self):
        v = rng(6).standard_normal((4, 8))
        u = rng(7).standard_normal((2, 8))
        a = clip_scores(v, u, ClipPathConfig())
        b = clip_scores(v, u, ClipPathConfig())
        np.testing.assert_array_equal(a, b)


class TestClipBinaryProbs:
    def test_identical_frames_give_half(self):
        v = np.tile(rng(0).standard_normal(8), (5, 1))
        u = rng(1).standard_normal((2, 8))
        p = clip_binary_probs(v, u, ClipPathConfig())
        np.testing.assert_allclose(p, 0.5, atol=1e-12)

    def test_lambda_to_zero_collapses_to_half(self):
        v = rng(2).standard_normal((6, 8))
        u = rng(3).standard_normal((2, 8))
        p = clip_binary_probs(v, u, ClipPathConfig(scaling=1e-9))
        np.testing.assert_allclose(p, 0.5, atol=1e-6)

    def test_two_frame_scalar_case(self):
        # cosines 0.9 and 0.1, lambda 10: centered logits +/-4
        u = np.asarray([[1.0, 0.0]])
        v = np.asarray([[0.9, np.sqrt(1 - 0.81)], [0.1, np.sqrt(1 - 0.01)]])
        p = clip_binary_probs(v, u, ClipPathConfig(scaling=10.0))
        expected = 1.0 / (1.0 + np.exp(-np.asarray([4.0, -4.0])))
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_values_in_open_interval(self):
        p = clip_binary_probs(rng(4).standard_normal((10, 8)),
                              rng(5).standard_normal((3, 8)),
                              ClipPathConfig())
        assert np.all(p > 0) and np.all(p < 1)


class TestPseudoLabels:
    def test_strict_threshold(self):
        labels = pseudo_labels(np.asarray([0.2, 0.7, 0.5]), 0.5)
        np.testing.assert_array_equal(labels, [0.0, 1.0, 0.0])

    def test_threshold_near_one_all_zero(self):
        labels = pseudo_labels(rng(0).random(20), 1.0 - 1e-12)
        np.testing.assert_array_equal(labels, np.zeros(20))

    def test_monotone_in_threshold(self):
        probs = rng(1).random(50)
        prev = pseudo_labels(probs, 0.1)
        for theta in (0.3, 0.5, 0.7, 0.9):
            cur = pseudo_labels(probs, theta)
            assert np.all(cur <= prev)
            prev = cur


class TestClipPathConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            ClipPathConfig(temperature=0.0)
        with pytest.raises(ConfigError):
            ClipPathConfig(scaling=-1.0)
        with pytest.raises(ConfigError):
            ClipPathConfig(threshold=1.0)
