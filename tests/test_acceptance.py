"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

The two end-to-end criteria (5 and 6) train real models and dominate the
runtime; everything else completes in seconds. All numbers are deterministic
functions of the seeds pinned here.
"""

import math
import time

import numpy as np
import pytest

from dams import kernel
from dams.amtpn import Aff, Amtpn, PyramidConfig, Tce
from dams.cbam import Cbam, CbamConfig, ChannelAttention, TemporalAttention
from dams.checks import run_suite
from dams.data import (SyntheticSpec, read_feature_file, synthesize_dataset,
                       write_feature_file)
from dams.losses import (LossConfig, UncertaintyWeights, focal_loss,
                         topk_video_score, total_loss)
from dams.metrics import (MiEstimatorConfig, complementarity_index,
                          mi_discrete, quantile_bins, roc_auc,
                          average_precision)
from dams.model import (ClipPathConfig, ModelConfig, clip_binary_probs,
                        clip_scores, pseudo_labels)
from dams.trainer import (TrainConfig, build_model, evaluate, train)

# minutes, not seconds: `pytest -m "not slow"` runs the unit tests alone
pytestmark = pytest.mark.slow


class Criterion:
    """Collects sub-checks and emits a single PASS/FAIL verdict line."""

    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.failures = []

    def check(self, ok, label):
        if not ok:
            self.failures.append(label)

    def conclude(self):
        verdict = "FAIL" if self.failures else "PASS"
        print(f"[criterion {self.number}] {verdict} - {self.title}"
              + (f" ({'; '.join(self.failures)})" if self.failures else ""))
        assert not self.failures, (
            f"criterion {self.number} ({self.title}): {self.failures}")


def test_criterion_1_gradient_correctness():
    c = Criterion(1, "analytic gradients match central finite differences")
    t0 = time.time()
    results = run_suite(seeds=(0, 1, 2, 3, 4), tolerance=1e-4,
                        max_entries_per_param=4)
    elapsed = time.time() - t0
    names = {r.name for r in results}
    required = {"conv1d", "avg_pool1d", "max_pool1d", "linear", "softmax",
                "sigmoid", "relu", "batch_norm1d", "tpp", "aff", "tce",
                "amtpn", "cbam", "backbone", "head", "focal", "topk_bce",
                "triplet", "total_loss", "full_model"}
    c.check(required <= names, f"missing checks: {required - names}")
    for r in results:
        c.check(r.passed and r.max_rel_error <= 1e-4,
                f"{r.name} seed {r.seed}: rel err {r.max_rel_error:.2e}")
    c.check(len(results) == len(names) * 5, "expected 5 seeds per check")
    c.check(elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s")
    c.conclude()


def test_criterion_2_shape_and_normalization_invariants():
    c = Criterion(2, "shape preservation and normalization invariants")
    rng = np.random.default_rng(0)
    pyr = PyramidConfig(scales=(1, 3, 9, 27), channels=8, reduction_ratio=2)
    amtpn = Amtpn(pyr, np.random.default_rng(1))
    cbam = Cbam(8, CbamConfig(reduction_ratio=2, temporal_kernel=7),
                np.random.default_rng(2))
    for t in (1, 2, 7, 27, 64):
        x = rng.standard_normal((2, 8, t))
        c.check(amtpn.forward(x, train=False).shape == x.shape,
                f"amtpn shape at T={t}")
        c.check(cbam.forward(x).shape == x.shape, f"cbam shape at T={t}")

    aff = Aff(pyr, np.random.default_rng(3))
    branches = [rng.standard_normal((3, 8, 11)) for _ in pyr.scales]
    _, weights = aff.forward(branches)
    c.check(np.all(weights >= 0), "aff weights nonnegative")
    c.check(np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-10,
            "aff weights sum to 1 within 1e-10")

    f = rng.standard_normal((2, 8, 9))
    ca_gate = ChannelAttention(8, 2, np.random.default_rng(4)).forward(f)
    ta_gate = TemporalAttention(7, np.random.default_rng(5)).forward(f)
    tce = Tce(8, 2, np.random.default_rng(6))
    tce_gate = tce.forward(f)[f != 0] / f[f != 0]
    for name, gate in (("channel", ca_gate), ("temporal", ta_gate),
                       ("tce", tce_gate)):
        c.check(np.all(gate > 0) and np.all(gate < 1),
                f"{name} gate inside (0,1)")

    sm, _ = kernel.softmax(rng.standard_normal((40, 7)) * 20, axis=1)
    c.check(np.max(np.abs(sm.sum(axis=1) - 1.0)) <= 1e-12,
            "softmax rows sum to 1 within 1e-12")
    c.conclude()


def _brute_force_auc(scores, labels):
    pos = scores[labels > 0.5]
    neg = scores[labels <= 0.5]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _brute_force_ap(scores, labels):
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order] > 0.5
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


def test_criterion_3_metric_oracle_equivalence():
    c = Criterion(3, "AUC/AP match brute-force oracles to 1e-12")
    auc = roc_auc(np.asarray([0.1, 0.4, 0.35, 0.8]), np.asarray([0, 0, 1, 1]))
    c.check(abs(auc - 0.75) < 1e-15, "worked AUC example 0.75")
    ap = average_precision(np.asarray([0.9, 0.8, 0.7, 0.6]),
                           np.asarray([1, 0, 1, 0]))
    c.check(abs(ap - 5.0 / 6.0) < 1e-15, "worked AP example 5/6")

    r = np.random.default_rng(2024)
    worst_auc = worst_ap = 0.0
    for _ in range(200):
        m = int(r.integers(2, 1001))
        scores = np.round(r.random(m), int(r.integers(0, 3)))  # heavy ties
        labels = (r.random(m) > r.uniform(0.2, 0.8)).astype(float)
        if labels.sum() in (0, m):
            labels[0] = 1.0 - labels[0]
        worst_auc = max(worst_auc,
                        abs(roc_auc(scores, labels)
                            - _brute_force_auc(scores, labels)))
        worst_ap = max(worst_ap,
                       abs(average_precision(scores, labels)
                           - _brute_force_ap(scores, labels)))
    c.check(worst_auc < 1e-12, f"AUC max |diff| {worst_auc:.2e}")
    c.check(worst_ap < 1e-12, f"AP max |diff| {worst_ap:.2e}")
    c.conclude()


def test_criterion_4_loss_reductions():
    c = Criterion(4, "closed-form loss identities")
    r = np.random.default_rng(7)
    scores = r.uniform(0.05, 0.95, (3, 20))
    pseudo = (r.random((3, 20)) > 0.5).astype(float)
    mask = np.ones_like(scores)
    cfg = LossConfig(focal_alpha_pos=0.5, focal_gamma=0.0)
    focal, _ = focal_loss(scores, pseudo, mask, cfg)
    p_t = np.where(pseudo > 0.5, scores, 1.0 - scores)
    bce = -np.log(p_t).mean()
    c.check(abs(focal - 0.5 * bce) < 1e-12, "focal(gamma=0, alpha=.5)=BCE/2")

    v = r.random(17)
    c.check(topk_video_score(v, 1e-9) == v.max(), "k=1 equals max")
    c.check(topk_video_score(v, 1.0) == v.mean(), "rho=1 equals mean")

    losses = (0.37, 1.42, 0.05)
    w = UncertaintyWeights(init=0.0)
    w.rho.value[:] = [0.3, -0.7, 1.1]
    breakdown = total_loss(*losses, w)
    sigma2 = np.exp(w.rho.value)
    manual = sum(l / (2 * s2) + math.log1p(s2)
                 for l, s2 in zip(losses, sigma2))
    c.check(abs(breakdown.total - manual) < 1e-12,
            "uncertainty-weighted identity to 1e-12")
    w.rho.value[:] = 0.0
    unit = total_loss(*losses, w)
    c.check(abs(unit.total - (0.5 * sum(losses) + 3 * math.log(2))) < 1e-12,
            "sigma^2=1 gives sum(l)/2 + 3 ln 2")
    c.conclude()


# --- end-to-end benchmarks (minutes, fully deterministic) -------------------

CRIT5_MODEL = ModelConfig(
    input_dim=64, channels=16, depth=1,
    pyramid=PyramidConfig(scales=(1, 3, 9, 27), channels=16,
                          reduction_ratio=4),
    cbam=CbamConfig(reduction_ratio=4, temporal_kernel=7))
CRIT5_SEEDS = (0, 4, 9)


def test_criterion_5_synthetic_end_to_end_learning():
    c = Criterion(5, "synthetic end-to-end learning (median over 3 seeds)")
    t0 = time.time()
    records = synthesize_dataset(SyntheticSpec())
    val = [rec for i, rec in enumerate(records) if i % 5 == 4]
    train_recs = [rec for i, rec in enumerate(records) if i % 5 != 4]
    untrained, aucs, aps = [], [], []
    for seed in CRIT5_SEEDS:
        cfg = TrainConfig(model=CRIT5_MODEL, seed=seed, max_iterations=2000,
                          validate_every=10**9, batch_size=30)
        model, _ = build_model(cfg)
        untrained.append(evaluate(model, val).auc)
        result = train(cfg, train_recs, val)
        report = evaluate(result.model, val)
        aucs.append(report.auc)
        aps.append(report.ap)
    elapsed = time.time() - t0
    med_auc, med_ap = np.median(aucs), np.median(aps)
    med_untrained = np.median(untrained)
    c.check(0.40 <= med_untrained <= 0.60,
            f"untrained median AUC {med_untrained:.3f} outside [0.40,0.60]")
    c.check(med_auc >= 0.85, f"trained median AUC {med_auc:.3f} < 0.85")
    c.check(med_ap >= 0.60, f"trained median AP {med_ap:.3f} < 0.60")
    c.check(elapsed <= 600.0, f"runtime {elapsed:.0f}s > 10 min")
    print(f"  criterion 5 detail: untrained {med_untrained:.3f}, "
          f"AUC {med_auc:.3f}, AP {med_ap:.3f}, {elapsed:.0f}s")
    c.conclude()


CRIT6_SPEC = SyntheticSpec(num_videos=60, t_min=32, t_max=64, input_dim=16,
                           anomaly_durations=(2, 6, 18, 54), snr=0.9,
                           label_noise=0.05, seed=11)
CRIT6_MODEL = ModelConfig(
    input_dim=16, channels=8, depth=0,
    pyramid=PyramidConfig(scales=(1, 3, 9, 27), channels=8,
                          reduction_ratio=2),
    cbam=CbamConfig(reduction_ratio=2, temporal_kernel=3))
CRIT6_VARIANTS = ("no_amtpn", "no_cbam", "no_aff", "no_tce", "no_tpp",
                  "no_l_pse", "no_l_trip")
CRIT6_MODULE_VARIANTS = ("no_amtpn", "no_cbam", "no_aff", "no_tce", "no_tpp")


def test_criterion_6_ablation_direction():
    from dams.trainer import ABLATION_VARIANTS, ablate
    c = Criterion(6, "full model beats every single-switch-off variant")
    records = synthesize_dataset(CRIT6_SPEC)
    val = [rec for i, rec in enumerate(records) if i % 4 == 3]
    train_recs = [rec for i, rec in enumerate(records) if i % 4 != 3]
    cfg = TrainConfig(model=CRIT6_MODEL, max_iterations=500,
                      validate_every=10**9, batch_size=10)
    names = ("full",) + CRIT6_VARIANTS
    variants = {k: ABLATION_VARIANTS[k] for k in names}
    rows = {row["variant"]: row
            for row in ablate(cfg, train_recs, val, variants=variants,
                              seeds=(0, 1, 2, 3, 4))}
    full_auc = rows["full"]["auc"]
    for name in CRIT6_VARIANTS:
        c.check(full_auc >= rows[name]["auc"],
                f"full {full_auc:.4f} < {name} {rows[name]['auc']:.4f}")
    gaps = {name: full_auc - rows[name]["auc"]
            for name in CRIT6_MODULE_VARIANTS}
    biggest = max(gaps, key=gaps.get)
    c.check(biggest == "no_amtpn",
            f"largest module gap is {biggest}, not no_amtpn ({gaps})")
    detail = " ".join(f"{n}={rows[n]['auc']:.3f}" for n in names)
    print(f"  criterion 6 detail: {detail}")
    c.conclude()


def test_criterion_7_complementarity_index_sanity():
    c = Criterion(7, "complementarity index sanity")
    r = np.random.default_rng(0)
    y = r.integers(0, 2, 4000)
    feats = np.tile((y + 0.3 * r.standard_normal(4000))[:, None], (1, 4))
    ci_dup = complementarity_index(feats, feats.copy(), y,
                                   MiEstimatorConfig(bins=4))
    c.check(abs(ci_dup) < 1e-9, f"CI(s,s)={ci_dup:.2e} not 0 within 1e-9")

    m = 10_000
    a = r.integers(0, 2, m)
    b = r.integers(0, 2, m)
    xor = a ^ b
    fa = np.tile((a + 0.01 * r.standard_normal(m))[:, None], (1, 4))
    fb = np.tile((b + 0.01 * r.standard_normal(m))[:, None], (1, 4))
    ci_xor = complementarity_index(fa, fb, xor, MiEstimatorConfig(bins=4))
    c.check(ci_xor > 0.3, f"XOR CI {ci_xor:.3f} <= 0.3")

    cfg = MiEstimatorConfig(bins=4)
    for trial in range(5):
        yy = r.integers(0, 2, m)
        fa = yy + r.standard_normal(m)
        fb = 0.5 * yy + r.standard_normal(m)
        xi = quantile_bins(fa, cfg.bins)
        xj = quantile_bins(fb, cfg.bins)
        i_i = mi_discrete(xi, yy, cfg, a_is_binned=True)
        i_j = mi_discrete(xj, yy, cfg, a_is_binned=True)
        i_ij = mi_discrete(xi * cfg.bins + xj, yy, cfg, a_is_binned=True)
        c.check(i_ij >= max(i_i, i_j) - 0.02,
                f"trial {trial}: joint MI {i_ij:.4f} below singles")
    c.conclude()


def test_criterion_8_determinism_and_persistence(tmp_path):
    import dataclasses
    c = Criterion(8, "bit-identical runs, round-trips, and resume")
    spec = SyntheticSpec(num_videos=12, t_min=8, t_max=14, input_dim=6, seed=3)
    records = synthesize_dataset(spec)
    val = [rec for i, rec in enumerate(records) if i % 3 == 2]
    train_recs = [rec for i, rec in enumerate(records) if i % 3 != 2]
    model_cfg = ModelConfig(
        input_dim=6, channels=8, depth=1, head_hidden=4,
        pyramid=PyramidConfig(scales=(1, 3), channels=8, reduction_ratio=2),
        cbam=CbamConfig(reduction_ratio=2, temporal_kernel=3))
    cfg = TrainConfig(model=model_cfg, max_iterations=8, validate_every=4,
                      batch_size=4)

    outs = []
    for name in ("run_a", "run_b"):
        train(cfg, train_recs, val, out_dir=tmp_path / name)
        outs.append(tmp_path / name)
    for fname in ("checkpoint_final.ckpt", "checkpoint_best.ckpt",
                  "log.jsonl"):
        same = ((outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes())
        c.check(same, f"{fname} differs between identical runs")

    arr = np.random.default_rng(5).standard_normal((3, 4, 5))
    path = tmp_path / "feat.bin"
    write_feature_file(path, arr)
    first = path.read_bytes()
    back = read_feature_file(path)
    c.check(np.array_equal(arr, back) and back.dtype == np.float64,
            "feature file round-trip not bit-exact")
    write_feature_file(path, back)
    c.check(path.read_bytes() == first, "feature re-write not byte-identical")

    half_cfg = dataclasses.replace(cfg, max_iterations=4)
    train(half_cfg, train_recs, val, out_dir=tmp_path / "half")
    resumed = train(cfg, train_recs, val, out_dir=tmp_path / "resumed",
                    resume=tmp_path / "half" / "checkpoint_final.ckpt")
    full = train(cfg, train_recs, val)
    for p, q in zip(full.model.params(), resumed.model.params()):
        c.check(np.array_equal(p.value, q.value),
                f"resumed parameter {p.name} differs")
    c.conclude()


def test_criterion_9_clip_path_contract():
    c = Criterion(9, "text-similarity path contract")
    r = np.random.default_rng(1)
    frames = r.standard_normal((50, 12))
    prompts = r.standard_normal((5, 12))
    rows = clip_scores(frames, prompts, ClipPathConfig())
    c.check(np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12,
            "clip_scores rows sum to 1 within 1e-12")

    probs = r.random(200)
    prev = None
    for thr in (0.1, 0.3, 0.5, 0.7, 0.9):
        cur = pseudo_labels(probs, thr)
        if prev is not None:
            c.check(np.all(cur <= prev),
                    f"labels not monotone between thresholds {thr}")
        prev = cur

    flat = clip_binary_probs(frames, prompts, ClipPathConfig(scaling=1e-9))
    c.check(np.max(np.abs(flat - 0.5)) <= 1e-6,
            "scaling->0 does not collapse to 0.5 within 1e-6")
    c.conclude()
