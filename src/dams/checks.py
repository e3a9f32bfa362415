"""Module-wise finite-difference gradient verification suite.

Each check builds random inputs as Parameters, evaluates a scalar loss (a
fixed random projection of the output), runs the hand-written backward, and
compares every accumulated gradient against central differences. Shared by
`dams gradcheck` and the acceptance tests.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import kernel
from . import losses as L
from .amtpn import Aff, Amtpn, PyramidConfig, Tce, Tpp
from .cbam import Cbam, CbamConfig
from .kernel import Parameter, grad_check
from .model import Backbone, DamsModel, Head, ModelConfig
from .trainer import TrainConfig, train_step


def _p(rng, shape, name, lo=-1.0, hi=1.0):
    return Parameter(rng.uniform(lo, hi, shape), name)


def _op_check(seed, inputs, out_shape, op, op_backward, **kw):
    """Gradcheck one kernel op under the loss `sum(op(*inputs) * r)`.

    `inputs` holds one `(shape, name[, lo, hi])` per op input; they are drawn
    in order, then the projection `r` of `out_shape`. `op_backward(r, cache)`
    returns the input gradients in `inputs` order (one array for one input).
    """
    rng = np.random.default_rng(seed)
    xs = [_p(rng, *spec) for spec in inputs]
    r = rng.uniform(-1.0, 1.0, out_shape)

    def fn():
        out, cache = op(*(x.value for x in xs))
        grads = op_backward(r, cache)
        for x, g in zip(xs, grads if len(xs) > 1 else [grads]):
            x.grad += g
        return (out * r).sum()
    return grad_check(fn, xs, **kw)


SMALL_PYRAMID = PyramidConfig(scales=(1, 3), channels=8, reduction_ratio=2)
SMALL_MODEL = ModelConfig(input_dim=16, channels=8, depth=1, head_hidden=4,
                          pyramid=SMALL_PYRAMID,
                          cbam=CbamConfig(reduction_ratio=2, temporal_kernel=3))


def check_conv1d(seed, **kw):
    return _op_check(seed, [((2, 3, 8), "x"), ((4, 3, 3), "w"), ((4,), "b")],
                     (2, 4, 8), kernel.conv1d, kernel.conv1d_backward, **kw)


def check_avg_pool1d(seed, **kw):
    return _op_check(seed, [((2, 3, 9), "x")], (2, 3, 9),
                     lambda x: kernel.avg_pool1d(x, 3),
                     kernel.avg_pool1d_backward, **kw)


def check_max_pool1d(seed, **kw):
    """The temporal max pool the model runs: `max_over` the time axis."""
    return _op_check(seed, [((2, 3, 9), "x")], (2, 3),
                     lambda x: kernel.max_over(x, 2), kernel.max_over_backward, **kw)


def check_linear(seed, **kw):
    return _op_check(seed, [((3, 5), "x"), ((4, 5), "w"), ((4,), "b")], (3, 4),
                     kernel.linear, kernel.linear_backward, **kw)


def check_softmax(seed, **kw):
    return _op_check(seed, [((3, 6), "x")], (3, 6),
                     lambda x: kernel.softmax(x, 1), kernel.softmax_backward, **kw)


def check_sigmoid(seed, **kw):
    return _op_check(seed, [((3, 6), "x")], (3, 6),
                     kernel.sigmoid, kernel.sigmoid_backward, **kw)


def check_relu(seed, **kw):
    return _op_check(seed, [((3, 6), "x")], (3, 6),
                     kernel.relu, kernel.relu_backward, **kw)


def check_batch_norm1d(seed, **kw):
    state = kernel.BatchNormState.create(4)
    return _op_check(
        seed, [((2, 4, 6), "x"), ((4,), "gamma", 0.5, 1.5), ((4,), "beta")],
        (2, 4, 6), lambda x, g, b: kernel.batch_norm1d(x, g, b, state, train=True),
        kernel.batch_norm1d_backward, **kw)


def _module_check(build, shape, seed, **kw):
    rng = np.random.default_rng(seed)
    module = build(rng)
    x = _p(rng, shape, "x")
    r = rng.uniform(-1.0, 1.0, module.forward(x.value).shape)

    def fn():
        out = module.forward(x.value, train=True)
        x.grad += module.backward(r)
        return (out * r).sum()
    return grad_check(fn, module.params() + [x], **kw)


def check_tpp(seed, **kw):
    rng = np.random.default_rng(seed)
    tpp = Tpp(SMALL_PYRAMID, rng)
    x = _p(rng, (1, 8, 12), "x")
    rs = [rng.uniform(-1, 1, (1, 8, 12)) for _ in SMALL_PYRAMID.scales]

    def fn():
        branches = tpp.forward(x.value, train=True)
        x.grad += tpp.backward(rs)
        return sum((b * r).sum() for b, r in zip(branches, rs))
    return grad_check(fn, tpp.params() + [x], **kw)


def check_aff(seed, **kw):
    rng = np.random.default_rng(seed)
    aff = Aff(SMALL_PYRAMID, rng)
    xs = [_p(rng, (1, 8, 12), f"x{i}") for i in range(len(SMALL_PYRAMID.scales))]
    r = rng.uniform(-1.0, 1.0, (1, 8, 12))

    def fn():
        fused, _ = aff.forward([p.value for p in xs], train=True)
        for p, g in zip(xs, aff.backward(r)):
            p.grad += g
        return (fused * r).sum()
    return grad_check(fn, aff.params() + xs, **kw)


def check_tce(seed, **kw):
    return _module_check(lambda rng: Tce(8, 2, rng), (1, 8, 12), seed, **kw)


def check_cbam(seed, **kw):
    return _module_check(
        lambda rng: Cbam(8, CbamConfig(reduction_ratio=2, temporal_kernel=3), rng),
        (1, 8, 12), seed, **kw)


def check_backbone(seed, **kw):
    return _module_check(lambda rng: Backbone(6, 8, 1, rng), (1, 6, 12), seed, **kw)


def check_head(seed, **kw):
    return _module_check(lambda rng: Head(8, 4, rng), (2, 8, 12), seed, **kw)


def check_amtpn(seed, **kw):
    return _module_check(lambda rng: Amtpn(SMALL_PYRAMID, rng), (1, 8, 12),
                         seed, **kw)


def check_focal(seed, **kw):
    rng = np.random.default_rng(seed)
    logits = _p(rng, (2, 12), "logits", -2.0, 2.0)
    pseudo = (rng.random((2, 12)) > 0.6).astype(np.float64)
    mask = np.ones((2, 12))
    cfg = L.LossConfig()

    def fn():
        scores, sc = kernel.sigmoid(logits.value)
        loss, d_scores = L.focal_loss(scores, pseudo, mask, cfg)
        logits.grad += kernel.sigmoid_backward(d_scores, sc)
        return loss
    return grad_check(fn, [logits], **kw)


def check_topk_bce(seed, **kw):
    rng = np.random.default_rng(seed)
    logits = _p(rng, (3, 12), "logits", -2.0, 2.0)
    labels = np.array([1.0, 0.0, 1.0])
    frac = 0.25

    def fn():
        sets = L.topk_rows(logits.value, np.ones(logits.value.shape), frac)
        loss, d_v = L.video_cls_loss(L.topk_mean(logits.value, sets), labels)
        L.topk_mean_backward(d_v, sets, logits.grad)
        return loss
    return grad_check(fn, [logits], **kw)


def check_triplet(seed, **kw):
    rng = np.random.default_rng(seed)
    fa = _p(rng, (6,), "fa")
    fp = _p(rng, (6,), "fp")
    fn_ = _p(rng, (6,), "fn")

    def fn():
        loss, da, dp, dn = L.triplet_loss(fa.value, fp.value, fn_.value, 5.0)
        fa.grad += da
        fp.grad += dp
        fn_.grad += dn
        return loss
    return grad_check(fn, [fa, fp, fn_], **kw)


def check_total_loss(seed, **kw):
    rng = np.random.default_rng(seed)
    raw = _p(rng, (3,), "raw", 0.2, 1.5)  # l_i = raw_i^2 keeps components >= 0
    weights = L.UncertaintyWeights()
    weights.rho.value[:] = rng.uniform(-0.5, 0.5, 3)

    def fn():
        l = raw.value ** 2
        bd = L.total_loss(l[0], l[1], l[2], weights)
        raw.grad += bd.weights * 2.0 * raw.value
        return bd.total
    return grad_check(fn, [raw, weights.rho], **kw)


def check_full_model(seed, **kw):
    rng = np.random.default_rng(seed)
    model = DamsModel(SMALL_MODEL, np.random.default_rng([seed, 7]))
    weights = L.UncertaintyWeights()
    cfg = TrainConfig(seed=seed, model=SMALL_MODEL,
                      loss=L.LossConfig(topk_fraction=0.25))
    feats = rng.uniform(-1, 1, (2, 16, 12))
    mask = np.ones((2, 12))
    pseudo_probs = rng.random((2, 12))
    from .data import Batch
    batch = Batch(["a", "b"], feats, mask, np.array([1.0, 0.0]),
                  pseudo_probs, np.ones(2))

    def fn():
        return train_step(model, weights, batch, cfg, 0).total
    return grad_check(fn, model.params() + weights.params(), **kw)


ALL_CHECKS = {
    "conv1d": check_conv1d,
    "avg_pool1d": check_avg_pool1d,
    "max_pool1d": check_max_pool1d,
    "linear": check_linear,
    "softmax": check_softmax,
    "sigmoid": check_sigmoid,
    "relu": check_relu,
    "batch_norm1d": check_batch_norm1d,
    "tpp": check_tpp,
    "aff": check_aff,
    "tce": check_tce,
    "amtpn": check_amtpn,
    "cbam": check_cbam,
    "backbone": check_backbone,
    "head": check_head,
    "focal": check_focal,
    "topk_bce": check_topk_bce,
    "triplet": check_triplet,
    "total_loss": check_total_loss,
    "full_model": check_full_model,
}


@dataclasses.dataclass
class SuiteResult:
    name: str
    seed: int
    max_rel_error: float
    passed: bool


def run_suite(seeds=(0, 1, 2, 3, 4), tolerance=1e-4, max_entries_per_param=4):
    """Run every check across the given seeds; returns one result per pair."""
    results = []
    for name, fn in ALL_CHECKS.items():
        for seed in seeds:
            report = fn(seed, tolerance=tolerance,
                        max_entries_per_param=max_entries_per_param,
                        rng=np.random.default_rng([seed, 0xC4]))
            results.append(SuiteResult(name, seed, report.max_rel_error,
                                       report.passed))
    return results
