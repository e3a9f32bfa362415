"""Layer combinators: `Gate` gradients where a broadcast axis has size 1."""

import numpy as np
import pytest

from dams import kernel
from dams.amtpn import Tce
from dams.cbam import ChannelAttention, TemporalAttention
from dams.kernel import Parameter
from dams.layers import Gate

# (gate over [B, C, T], its map's shape): Tce's map is [B, C], the attention
# maps are [B, C, 1] and [B, 1, T]
GATES = {
    "channel-BC": lambda rng, c: Tce(c, 1, rng),
    "channel-BC1": lambda rng, c: Gate(ChannelAttention(c, 1, rng)),
    "temporal-B1T": lambda rng, c: Gate(TemporalAttention(3, rng)),
}


@pytest.mark.parametrize("shape", [(2, 4, 1), (2, 1, 6), (2, 1, 1)],
                         ids=["T1", "C1", "C1-T1"])
@pytest.mark.parametrize("kind", list(GATES))
def test_gate_gradcheck_with_unit_axes(kind, shape):
    rng = np.random.default_rng(3)
    gate = GATES[kind](rng, shape[1])
    x = Parameter(rng.uniform(-1.0, 1.0, shape), "x")
    r = rng.uniform(-1.0, 1.0, shape)

    def fn():
        out = gate.forward(x.value, train=True)
        x.grad += gate.backward(r)
        return (out * r).sum()
    report = kernel.grad_check(fn, gate.params() + [x], tolerance=1e-5)
    assert report.passed, report.max_rel_error
