"""Temporal pyramid: branch semantics, fusion weights, channel gating."""

import numpy as np
import pytest

from dams import kernel
from dams.amtpn import (Aff, Amtpn, ConfigError, EmptyPyramidError,
                        PyramidConfig, Tce, Tpp)

CFG = PyramidConfig(scales=(1, 3), channels=8, reduction_ratio=2)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPyramidConfig:
    def test_defaults(self):
        cfg = PyramidConfig()
        assert cfg.scales == (1, 3, 9, 27)
        assert cfg.channels == 128 and cfg.reduction_ratio == 4

    @pytest.mark.parametrize("scales", [(2,), (1, 4), (0,), (3, 3), (9, 3)])
    def test_bad_scales_rejected(self, scales):
        with pytest.raises((ConfigError, EmptyPyramidError)):
            PyramidConfig(scales=scales)

    def test_empty_scales_rejected(self):
        with pytest.raises(EmptyPyramidError):
            PyramidConfig(scales=())

    def test_ratio_must_divide_channels(self):
        with pytest.raises(ConfigError):
            PyramidConfig(scales=(1,), channels=10, reduction_ratio=4)


class TestTpp:
    def test_branch_shapes(self):
        tpp = Tpp(CFG, rng())
        x = rng(1).standard_normal((2, 8, 13))
        branches = tpp.forward(x, train=True)
        assert len(branches) == 2
        assert all(b.shape == (2, 8, 13) for b in branches)

    def test_unit_scale_is_conv_bn_relu_of_input(self):
        # scale 1: pooling is the identity, so the branch has no pool and
        # must equal relu(bn(conv1x1(x))) computed with the same parameters
        tpp = Tpp(PyramidConfig(scales=(1,), channels=4, reduction_ratio=2), rng(2))
        x = rng(3).standard_normal((2, 4, 6))
        branch = tpp.forward(x, train=True)[0]
        layers = tpp.branches[0].layers
        assert [type(layer).__name__ for layer in layers] == [
            "Conv1d", "BatchNorm1d", "Relu"]
        conv, bn, _ = layers
        conv_out, _ = kernel.conv1d(x, conv.w.value, conv.b.value, 0)
        state = kernel.BatchNormState.create(4)
        bn_out, _ = kernel.batch_norm1d(x=conv_out, gamma=bn.gamma.value,
                                        beta=bn.beta.value, state=state,
                                        train=True)
        expected, _ = kernel.relu(bn_out)
        np.testing.assert_allclose(branch, expected, atol=1e-12)

    def test_constant_input_constant_over_time(self):
        tpp = Tpp(CFG, rng(4))
        x = np.full((2, 8, 9), 1.7)
        # train-mode BN is degenerate on constants; eval mode keeps the
        # constancy claim testable
        for b in tpp.forward(x, train=False):
            assert np.allclose(b, b[:, :, :1], atol=1e-12)

    def test_scale3_pools_before_conv(self):
        pooled, _ = kernel.avg_pool1d(np.asarray([[[2.0, 4.0, 6.0]]]), 3, padding=1)
        np.testing.assert_allclose(pooled, [[[3.0, 4.0, 5.0]]])

    @pytest.mark.parametrize("t", [1, 2, 7, 27, 64])
    def test_length_invariance(self, t):
        cfg = PyramidConfig(scales=(1, 3, 9, 27), channels=4, reduction_ratio=2)
        tpp = Tpp(cfg, rng(5))
        x = rng(6).standard_normal((1, 4, t))
        for b in tpp.forward(x, train=False):
            assert b.shape == (1, 4, t)


class TestAff:
    def test_weights_sum_to_one(self):
        aff = Aff(CFG, rng(0))
        branches = [rng(i + 1).standard_normal((3, 8, 5)) for i in range(2)]
        _, weights = aff.forward(branches)
        assert weights.shape == (3, 2)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-10)

    def test_single_branch_weight_is_one(self):
        cfg = PyramidConfig(scales=(1,), channels=8, reduction_ratio=2)
        aff = Aff(cfg, rng(1))
        branch = rng(2).standard_normal((2, 8, 5))
        fused, weights = aff.forward([branch])
        np.testing.assert_allclose(weights, 1.0, atol=1e-12)
        expected = aff.refine.forward(branch)
        np.testing.assert_allclose(fused, expected, atol=1e-12)

    def test_identical_branches_convexity(self):
        # sum_k w_k * F = F when all branches equal F, regardless of weights
        aff = Aff(CFG, rng(3))
        f = rng(4).standard_normal((2, 8, 5))
        fused, _ = aff.forward([f, f])
        expected = aff.refine.forward(f)
        np.testing.assert_allclose(fused, expected, atol=1e-12)

    def test_softmax_closed_form(self):
        out, _ = kernel.softmax(np.array([[0.0, np.log(3.0)]]), axis=1)
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_empty_branch_list_raises(self):
        aff = Aff(CFG, rng(5))
        with pytest.raises(EmptyPyramidError):
            aff.forward([])

    def test_uniform_mode_fixed_weights(self):
        aff = Aff(CFG, rng(6), adaptive=False)
        branches = [rng(7).standard_normal((2, 8, 5)) for _ in range(2)]
        _, weights = aff.forward(branches)
        np.testing.assert_array_equal(weights, np.full((2, 2), 0.5))


class TestTce:
    def test_zero_logits_halve(self):
        tce = Tce(8, 2, rng(0))
        lin2 = tce.gate.layers[3]
        lin2.w.value[...] = 0.0
        lin2.b.value[...] = 0.0
        x = rng(1).standard_normal((2, 8, 5))
        np.testing.assert_allclose(tce.forward(x), 0.5 * x, atol=1e-12)

    def test_sign_preserved(self):
        tce = Tce(8, 2, rng(2))
        x = rng(3).standard_normal((2, 8, 5))
        out = tce.forward(x)
        assert np.all(np.sign(out) == np.sign(x))

    def test_hand_scalar_chain(self):
        # C=2, r=2, T=1: gap is the input itself; unit weights, zero biases
        tce = Tce(2, 2, rng(4))
        _, lin1, _, lin2, _ = tce.gate.layers
        lin1.w.value[...] = np.ones((1, 2))
        lin1.b.value[...] = 0.0
        lin2.w.value[...] = np.ones((2, 1))
        lin2.b.value[...] = 0.0
        x = np.asarray([[[0.3], [0.4]]])
        hidden = max(0.0, 0.3 + 0.4)
        alpha = 1.0 / (1.0 + np.exp(-hidden))
        np.testing.assert_allclose(tce.forward(x), x * alpha, atol=1e-12)

    def test_gate_bounded_and_contractive(self):
        tce = Tce(8, 2, rng(5))
        x = rng(6).standard_normal((3, 8, 7)) * 10
        out = tce.forward(x)
        assert np.abs(out).max() <= np.abs(x).max()
        nonzero = x != 0
        ratio = out[nonzero] / x[nonzero]
        assert np.all(ratio > 0) and np.all(ratio < 1)

    def test_bad_ratio_raises(self):
        with pytest.raises(ConfigError):
            Tce(8, 3, rng(7))


class TestAmtpn:
    @pytest.mark.parametrize("t", [1, 2, 7, 27, 64])
    def test_shape_preservation(self, t):
        cfg = PyramidConfig(scales=(1, 3, 9, 27), channels=8, reduction_ratio=2)
        amtpn = Amtpn(cfg, rng(0))
        x = rng(1).standard_normal((2, 8, t))
        assert amtpn.forward(x, train=False).shape == (2, 8, t)

    def test_single_scale_degenerate(self):
        cfg = PyramidConfig(scales=(1,), channels=8, reduction_ratio=2)
        amtpn = Amtpn(cfg, rng(2))
        x = rng(3).standard_normal((1, 8, 6))
        out, weights = amtpn.fuse(x, train=False)
        assert out.shape == x.shape
        np.testing.assert_allclose(weights, 1.0, atol=1e-12)

    def test_gradient_full_pipeline(self):
        from dams.checks import check_amtpn
        for seed in range(3):
            report = check_amtpn(seed, tolerance=1e-5)
            assert report.passed, f"seed {seed}: {report.max_rel_error}"

    def test_dead_parameter_screen(self):
        cfg = PyramidConfig(scales=(1, 3), channels=8, reduction_ratio=2)
        amtpn = Amtpn(cfg, rng(4))
        params = amtpn.params()
        touched = {p.name: np.zeros_like(p.value, dtype=bool) for p in params}
        for i in range(10):
            for p in params:
                p.zero_grad()
            x = rng(100 + i).uniform(-1, 1, (2, 8, 12))
            out = amtpn.forward(x, train=True)
            amtpn.backward(rng(200 + i).uniform(-1, 1, out.shape))
            for p in params:
                touched[p.name] |= p.grad != 0
        total = sum(v.size for v in touched.values())
        alive = sum(int(v.sum()) for v in touched.values())
        assert alive / total >= 0.99

    def test_branch_permutation_moves_weights(self):
        # swapping the two branch inputs to AFF permutes the weight columns
        aff = Aff(CFG, rng(5))
        b1 = rng(6).standard_normal((2, 8, 5))
        b2 = rng(7).standard_normal((2, 8, 5))
        _, w12 = aff.forward([b1, b2])
        # rebuild with swapped head columns to emulate permuted parameter slots
        aff.head.w.value[...] = np.concatenate(
            [aff.head.w.value[:, 8:], aff.head.w.value[:, :8]], axis=1)[::-1]
        aff.head.b.value[...] = aff.head.b.value[::-1]
        _, w21 = aff.forward([b2, b1])
        np.testing.assert_allclose(w21, w12[:, ::-1], atol=1e-12)
