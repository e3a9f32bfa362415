"""Dual attention: gate shapes, bounds, composition order, gradients."""

import numpy as np
import pytest

from dams import kernel
from dams.amtpn import ConfigError
from dams.cbam import Cbam, CbamConfig, ChannelAttention, TemporalAttention

CFG = CbamConfig(reduction_ratio=2, temporal_kernel=3)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConfig:
    def test_defaults(self):
        cfg = CbamConfig()
        assert cfg.reduction_ratio == 4 and cfg.temporal_kernel == 7

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            CbamConfig(temporal_kernel=4)


class TestChannelAttention:
    def test_map_shape_and_bounds(self):
        ca = ChannelAttention(8, 2, rng(0))
        m = ca.forward(rng(1).standard_normal((3, 8, 5)))
        assert m.shape == (3, 8, 1)
        assert np.all(m > 0) and np.all(m < 1)

    def test_zero_mlp_gives_half(self):
        ca = ChannelAttention(8, 2, rng(2))
        lin2 = ca.mlp.layers[2]
        lin2.w.value[...] = 0.0
        lin2.b.value[...] = 0.0
        m = ca.forward(rng(3).standard_normal((2, 8, 5)))
        np.testing.assert_allclose(m, 0.5, atol=1e-12)

    def test_constant_in_time_collapses_pools(self):
        # avg and max pooling agree, so the gate is sigmoid(2 * mlp(v))
        ca = ChannelAttention(4, 2, rng(4))
        v = rng(5).standard_normal((2, 4))
        f = np.repeat(v[:, :, None], 6, axis=2)
        m = ca.forward(f)
        logits = ca.mlp.forward(v)
        expected, _ = kernel.sigmoid(2.0 * logits)
        np.testing.assert_allclose(m[:, :, 0], expected, atol=1e-12)

    def test_hand_identity_mlp(self):
        # C=2 with the MLP forced to the identity: gate = sigmoid(avg + max)
        ca = ChannelAttention(2, 1, rng(6))
        lin1, _, lin2 = ca.mlp.layers
        lin1.w.value[...] = np.eye(2)
        lin1.b.value[...] = 0.0
        lin2.w.value[...] = np.eye(2)
        lin2.b.value[...] = 0.0
        f = np.asarray([[[1.0, 3.0], [2.0, 2.0]]])  # avg [2,2], max [3,2]
        m = ca.forward(f)
        expected, _ = kernel.sigmoid(np.asarray([2.0 + 3.0, 2.0 + 2.0]))
        np.testing.assert_allclose(m[0, :, 0], expected, atol=1e-12)

    def test_bad_ratio_raises(self):
        with pytest.raises(ConfigError):
            ChannelAttention(8, 3, rng(7))


class TestTemporalAttention:
    def test_map_shape_bounds_and_length(self):
        ta = TemporalAttention(3, rng(0))
        m = ta.forward(rng(1).standard_normal((2, 8, 9)))
        assert m.shape == (2, 1, 9)
        assert np.all(m > 0) and np.all(m < 1)

    def test_zero_conv_gives_half(self):
        ta = TemporalAttention(3, rng(2))
        ta.conv.w.value[...] = 0.0
        ta.conv.b.value[...] = 0.0
        m = ta.forward(rng(3).standard_normal((2, 8, 9)))
        np.testing.assert_allclose(m, 0.5, atol=1e-12)

    def test_time_constant_input_interior_constant_map(self):
        # away from the padded borders a constant input yields a constant map
        ta = TemporalAttention(3, rng(4))
        f = np.repeat(rng(5).standard_normal((2, 8, 1)), 9, axis=2)
        m = ta.forward(f)
        interior = m[:, :, 1:-1]
        assert np.allclose(interior, interior[:, :, :1], atol=1e-12)

    def test_single_channel_mean_equals_max(self):
        # with one channel, the mean and max pooled maps coincide: the conv
        # input is that map duplicated, checked against a direct conv1d call
        ta = TemporalAttention(3, rng(6))
        f = rng(7).standard_normal((2, 1, 9))
        m = ta.forward(f)
        doubled = np.concatenate([f, f], axis=1)
        logits, _ = kernel.conv1d(doubled, ta.conv.w.value, ta.conv.b.value, 1)
        expected, _ = kernel.sigmoid(logits)
        np.testing.assert_allclose(m, expected, atol=1e-12)


class TestCbam:
    def test_shape_preserved(self):
        cbam = Cbam(8, CFG, rng(0))
        for t in (1, 2, 7, 27, 64):
            x = rng(1).standard_normal((2, 8, t))
            assert cbam.forward(x).shape == (2, 8, t)

    def test_open_gates_identity(self):
        cbam = Cbam(8, CFG, rng(2))
        for lin in (cbam.ca.mlp.layers[2], ):
            lin.w.value[...] = 0.0
            lin.b.value[...] = 40.0   # saturate the sigmoid at ~1
        cbam.ta.conv.w.value[...] = 0.0
        cbam.ta.conv.b.value[...] = 40.0
        x = rng(3).standard_normal((2, 8, 9))
        np.testing.assert_allclose(cbam.forward(x), x, atol=1e-6)

    def test_contraction_and_sign(self):
        cbam = Cbam(8, CFG, rng(4))
        x = rng(5).standard_normal((3, 8, 11)) * 4
        out = cbam.forward(x)
        assert np.abs(out).max() <= np.abs(x).max()
        assert np.all(np.sign(out) == np.sign(x))

    def test_order_is_channel_then_temporal(self):
        # asymmetric parameters distinguish the two application orders: the
        # composed output must equal the hand-applied channel-first chain
        cbam = Cbam(4, CbamConfig(reduction_ratio=2, temporal_kernel=3), rng(6))
        x = rng(7).standard_normal((2, 4, 9))
        out = cbam.forward(x)
        f1 = x * cbam.ca.forward(x)
        expected = f1 * cbam.ta.forward(f1)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        # temporal-first differs, so the order is not accidental
        m_t = cbam.ta.forward(x)
        swapped = (x * m_t)
        swapped = swapped * cbam.ca.forward(swapped)
        assert not np.allclose(out, swapped)

    def test_disabled_stages(self):
        x = rng(8).standard_normal((2, 8, 9))
        no_ca = Cbam(8, CFG, rng(9), use_ca=False)
        m = no_ca.ta.forward(x)
        np.testing.assert_allclose(no_ca.forward(x), x * m, atol=1e-12)
        no_sa = Cbam(8, CFG, rng(10), use_sa=False)
        m = no_sa.ca.forward(x)
        np.testing.assert_allclose(no_sa.forward(x), x * m, atol=1e-12)
        neither = Cbam(8, CFG, rng(11), use_ca=False, use_sa=False)
        np.testing.assert_array_equal(neither.forward(x), x)

    def test_gradient_through_both_gates(self):
        from dams.checks import check_cbam
        for seed in range(3):
            report = check_cbam(seed, tolerance=1e-5)
            assert report.passed, f"seed {seed}: {report.max_rel_error}"
