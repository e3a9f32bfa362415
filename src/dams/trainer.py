"""Deterministic training loop, checkpointing, evaluation, and ablations.

Determinism contract: everything is a pure function of (seed, config,
dataset). All randomness is drawn from generators derived from the seed plus
a fixed stream tag plus the epoch or iteration index, so resuming from a
checkpoint at iteration i replays the exact byte-identical run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from pathlib import Path

import numpy as np

from . import kernel
from . import losses as L
from .amtpn import ConfigError, PyramidConfig
from .cbam import CbamConfig
from .data import (Batch, FeatureFileError, batch_iter, read_container,
                   tencrop_aggregate, write_container)
from .losses import LossConfig, NonFiniteLossError, UncertaintyWeights
from .metrics import average_precision, roc_auc
from .model import DamsModel, ModelConfig

log = logging.getLogger("dams")

CHECKPOINT_MAGIC = b"DAMSCKPT"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TrainConfig:
    max_iterations: int = 5000
    validate_every: int = 100
    batch_size: int = 30
    eval_batch_size: int = 10
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    seed: int = 0
    pseudo_threshold: float = 0.5
    use_l_pse: bool = True
    use_l_trip: bool = True
    loss: LossConfig = None
    model: ModelConfig = None

    def __post_init__(self):
        if self.max_iterations < 0 or self.validate_every < 1:
            raise ConfigError("max_iterations >= 0 and validate_every >= 1 required")
        if self.batch_size < 1 or self.eval_batch_size < 1:
            raise ConfigError("batch sizes must be positive")
        if self.learning_rate <= 0 or self.adam_eps <= 0:
            raise ConfigError("learning_rate and adam_eps must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError("Adam betas must lie in (0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if not 0.0 < self.pseudo_threshold < 1.0:
            raise ConfigError("pseudo_threshold must lie in (0, 1)")
        if self.loss is None:
            object.__setattr__(self, "loss", LossConfig())
        if self.model is None:
            object.__setattr__(self, "model", ModelConfig())


_NESTED = {
    (TrainConfig, "loss"): LossConfig,
    (TrainConfig, "model"): ModelConfig,
    (ModelConfig, "pyramid"): PyramidConfig,
    (ModelConfig, "cbam"): CbamConfig,
}
_TUPLE_FIELDS = {(PyramidConfig, "scales")}


def config_from_dict(d, cls=TrainConfig, path="config"):
    """Build a config dataclass from plain data; unknown keys are rejected."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    kwargs = {}
    for k, v in d.items():
        sub = _NESTED.get((cls, k))
        if sub is not None and v is not None:
            v = config_from_dict(v, sub, f"{path}.{k}")
        elif (cls, k) in _TUPLE_FIELDS:
            v = tuple(v)
        kwargs[k] = v
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_to_dict(cfg):
    d = dataclasses.asdict(cfg)

    def _clean(v):
        if isinstance(v, tuple):
            return [_clean(x) for x in v]
        if isinstance(v, dict):
            return {k: _clean(x) for k, x in v.items()}
        return v
    return _clean(d)


def config_hash(cfg):
    # The iteration budget is excluded so a run can be resumed with a larger
    # budget; every field that affects the parameter trajectory is hashed.
    payload = config_to_dict(cfg)
    payload.pop("max_iterations")
    payload = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names")
        self.params = list(params)
        self.lr, self.beta1, self.beta2 = lr, beta1, beta2
        self.eps, self.weight_decay = eps, weight_decay
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.value
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

def save_checkpoint(path, arrays, meta):
    """Single-file binary checkpoint; byte-deterministic for fixed content."""
    write_container(path, CHECKPOINT_MAGIC, meta, arrays)


def load_checkpoint(path):
    return read_container(path, CHECKPOINT_MAGIC)


# ---------------------------------------------------------------------------
# model assembly / state plumbing
# ---------------------------------------------------------------------------

def build_model(cfg: TrainConfig):
    rng = np.random.default_rng([cfg.seed, 0x101])
    model = DamsModel(cfg.model, rng)
    weights = UncertaintyWeights()
    return model, weights


def _all_state(model, weights, opt=None):
    """Name -> live array of everything a checkpoint holds: the model state,
    `uncertainty.rho` and, given `opt`, the Adam moments."""
    out = dict(model.state_arrays())
    out["uncertainty.rho"] = weights.rho.value
    if opt is not None:
        out.update({f"adam.m/{k}": v for k, v in opt.m.items()})
        out.update({f"adam.v/{k}": v for k, v in opt.v.items()})
    return out


def _restore_state(arrays, state, prefix=""):
    """Copy `arrays[prefix + name]` into each array of the `state` map."""
    for name, dst in state.items():
        src = arrays.get(prefix + name)
        if src is None:
            raise ConfigError(f"checkpoint is missing array {prefix + name!r}")
        if src.shape != dst.shape:
            raise FeatureFileError(f"checkpoint array {prefix + name!r} has shape "
                                   f"{src.shape}, expected {dst.shape}")
        dst[...] = src


def _meta_value(meta, key, convert):
    """`convert(meta[key])`; a missing or ill-typed entry is a format error."""
    try:
        return convert(meta[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise FeatureFileError(
            f"checkpoint meta entry {key!r} is missing or invalid") from exc


# ---------------------------------------------------------------------------
# loss assembly for one batch
# ---------------------------------------------------------------------------

def train_step(model: DamsModel, weights: UncertaintyWeights, batch: Batch,
               cfg: TrainConfig, iteration):
    """Forward, loss breakdown, and full backward for one batch."""
    drop_rng = (np.random.default_rng([cfg.seed, 0xD0, iteration])
                if cfg.model.dropout > 0 else None)
    out = model.forward(batch.features, train=True, dropout_rng=drop_rng)
    mask = batch.mask
    pseudo = (batch.pseudo_probs > cfg.pseudo_threshold).astype(np.float64)

    # frame-level pseudo supervision
    l_pse = 0.0
    d_scores = None
    mask_pse = mask * batch.has_pseudo[:, None]
    if cfg.use_l_pse and mask_pse.sum() >= 1:
        l_pse, d_scores = L.focal_loss(out.frame_scores, pseudo, mask_pse, cfg.loss)

    # video-level top-k classification on logits, sigmoid applied once after
    n = batch.features.shape[0]
    video_logits = np.zeros(n)
    topk_sets = []
    for i in range(n):
        valid = int(mask[i].sum())
        masked = np.where(mask[i] > 0, out.frame_logits[i], -np.inf)
        idx = L.topk_indices(masked, L.topk_count(valid, cfg.loss.topk_fraction))
        topk_sets.append(idx)
        video_logits[i] = out.frame_logits[i, idx].mean()
    l_cls, d_vlogits = L.video_cls_loss(video_logits, batch.labels)

    # triplet separation on penultimate embeddings
    l_trip = 0.0
    selection = None
    trip_grads = None
    if cfg.use_l_trip:
        selection = L.build_triplet(out.embeddings, out.frame_scores, pseudo,
                                    batch.labels, mask, cfg.loss.topk_fraction)
        if selection is not None:
            l_trip, d_fa, d_fp, d_fn = L.triplet_loss(
                selection.f_a, selection.f_p, selection.f_n,
                cfg.loss.triplet_margin)
            trip_grads = (d_fa, d_fp, d_fn)

    breakdown = L.total_loss(l_pse, l_cls, l_trip, weights, accumulate_grads=True)
    w_pse, w_cls, w_trip = breakdown.weights

    d_logits = np.zeros_like(out.frame_logits)
    if d_scores is not None:
        s = out.frame_scores
        d_logits += w_pse * d_scores * s * (1.0 - s)
    for i, idx in enumerate(topk_sets):
        d_logits[i, idx] += w_cls * d_vlogits[i] / len(idx)
    d_emb = None
    if trip_grads is not None:
        d_emb = np.zeros_like(out.embeddings)
        selection.scatter_grads(*(w_trip * g for g in trip_grads), d_emb)
    model.backward(d_logits, d_emb)
    return breakdown


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class EvalReport:
    auc: float
    ap: float
    per_video: list     # {"id", "scores", "gt"?}
    ablation: str = None

    def to_dict(self):
        d = {"auc": self.auc, "ap": self.ap, "per_video": self.per_video}
        if self.ablation is not None:
            d["ablation"] = self.ablation
        return d


def score_video(model: DamsModel, record):
    """Per-frame anomaly scores for one video, averaged over crops."""
    feats = np.stack(record.crops)  # [ncrops, Din, T]
    out = model.forward(feats, train=False)
    return tencrop_aggregate(list(out.frame_scores))


def evaluate(model: DamsModel, records, ablation=None) -> EvalReport:
    """Frame-level AUC/AP over every video carrying ground truth.

    Videos are scored one at a time (no cross-video padding) so border
    frames see only their own video.
    """
    per_video = []
    all_scores = []
    all_gt = []
    for rec in records:
        scores = score_video(model, rec)
        row = {"id": rec.id, "scores": [float(s) for s in scores]}
        if rec.frame_gt is not None:
            row["gt"] = [int(v) for v in rec.frame_gt]
            all_scores.append(scores)
            all_gt.append(rec.frame_gt)
        per_video.append(row)
    if not all_gt:
        raise ConfigError("evaluate: no video carries frame ground truth")
    scores = np.concatenate(all_scores)
    gt = np.concatenate(all_gt)
    return EvalReport(roc_auc(scores, gt), average_precision(scores, gt),
                      per_video, ablation)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class TrainResult:
    model: DamsModel
    weights: UncertaintyWeights
    history: list
    best_auc: float
    best_iteration: int
    final_checkpoint: str = None
    best_checkpoint: str = None


def _log_line(entry):
    return json.dumps(entry, sort_keys=True)


def train(cfg: TrainConfig, train_records, val_records=None, out_dir=None,
          resume=None) -> TrainResult:
    """Run the iteration-budgeted training protocol.

    Every `validate_every` iterations the validation split is scored (eval
    mode; parameters and optimizer untouched) and the best-AUC state is
    retained. The returned history is the exact content of log.jsonl.
    """
    model, weights = build_model(cfg)
    params = model.params() + weights.params()
    opt = Adam(params, cfg.learning_rate, cfg.beta1, cfg.beta2,
               cfg.adam_eps, cfg.weight_decay)
    cfg_hash = config_hash(cfg)

    def snapshot_state():
        return {k: v.copy() for k, v in _all_state(model, weights).items()}

    start_iter = 0
    best_auc = -math.inf
    best_iteration = -1
    best_state = None
    if resume is not None:
        arrays, meta = load_checkpoint(resume)
        if meta.get("config_hash") != cfg_hash:
            raise ConfigError("checkpoint config hash does not match the run config")
        _restore_state(arrays, _all_state(model, weights, opt))
        opt.t = _meta_value(meta, "adam_t", int)
        start_iter = _meta_value(meta, "iteration", int)
        best_auc = _meta_value(meta, "best_auc", float)
        best_iteration = _meta_value(meta, "best_iteration", int)
        if best_iteration >= 0:
            best_state = snapshot_state()
            _restore_state(arrays, best_state, "best/")

    batches_per_epoch = max(1, math.ceil(len(train_records) / cfg.batch_size))
    epoch_cache = {}

    def batch_at(it):
        epoch = it // batches_per_epoch
        if epoch not in epoch_cache:
            epoch_cache.clear()
            epoch_cache[epoch] = list(batch_iter(
                train_records, cfg.batch_size, cfg.seed, "train", epoch))
        return epoch_cache[epoch][it % batches_per_epoch]

    history = []
    for it in range(start_iter, cfg.max_iterations):
        batch = batch_at(it)
        kernel.zero_grads(params)
        try:
            breakdown = train_step(model, weights, batch, cfg, it)
        except L.EmptyLossError as exc:
            log.warning("iteration %d: degenerate batch skipped (%s)", it + 1, exc)
            continue
        except NonFiniteLossError as exc:
            raise NonFiniteLossError(f"iteration {it + 1}: {exc}") from exc
        opt.step()
        entry = {"iter": it + 1,
                 "l_pse": breakdown.l_pse, "l_cls": breakdown.l_cls,
                 "l_trip": breakdown.l_trip, "total": breakdown.total,
                 "sigma2": [float(s) for s in breakdown.sigma2]}
        if val_records is not None and (it + 1) % cfg.validate_every == 0:
            report = evaluate(model, val_records)
            entry["val_auc"] = report.auc
            entry["val_ap"] = report.ap
            if report.auc > best_auc:
                best_auc = report.auc
                best_iteration = it + 1
                best_state = snapshot_state()
        history.append(entry)
        log.info("%s", _log_line(entry))

    if best_state is None:
        best_state = snapshot_state()
        best_iteration = cfg.max_iterations
        if val_records is not None and cfg.max_iterations == 0:
            best_auc = -math.inf

    result = TrainResult(model, weights, history, best_auc, best_iteration)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        meta = {"iteration": cfg.max_iterations, "adam_t": opt.t,
                "best_auc": best_auc if math.isfinite(best_auc) else -1.0,
                "best_iteration": best_iteration,
                "config": config_to_dict(cfg), "config_hash": cfg_hash}
        arrays = _all_state(model, weights, opt)
        arrays.update({f"best/{k}": v for k, v in best_state.items()})
        final_path = out_dir / "checkpoint_final.ckpt"
        save_checkpoint(final_path, arrays, meta)
        best_path = out_dir / "checkpoint_best.ckpt"
        save_checkpoint(best_path, best_state, dict(meta, iteration=best_iteration))
        with open(out_dir / "log.jsonl", "w", encoding="utf-8") as fh:
            for entry in history:
                fh.write(_log_line(entry) + "\n")
        result.final_checkpoint = str(final_path)
        result.best_checkpoint = str(best_path)
    return result


def load_model_for_inference(path):
    """Rebuild a model (and its config) from any checkpoint file."""
    arrays, meta = load_checkpoint(path)
    cfg = config_from_dict(_meta_value(meta, "config", dict))
    model, weights = build_model(cfg)
    prefix = "" if "uncertainty.rho" in arrays else "best/"
    _restore_state(arrays, _all_state(model, weights), prefix)
    return model, cfg, meta


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------

ABLATION_VARIANTS = {
    "full": {},
    "no_amtpn": {"use_amtpn": False},
    "no_cbam": {"use_cbam": False},
    "no_ca": {"use_ca": False},
    "no_sa": {"use_sa": False},
    "no_aff": {"use_aff": False},
    "no_tce": {"use_tce": False},
    "no_tpp": {"use_tpp": False},
    "no_l_pse": {"use_l_pse": False},
    "no_l_trip": {"use_l_trip": False},
}

_LOSS_SWITCHES = {"use_l_pse", "use_l_trip"}


def apply_variant(cfg: TrainConfig, switches):
    model_over = {k: v for k, v in switches.items() if k not in _LOSS_SWITCHES}
    train_over = {k: v for k, v in switches.items() if k in _LOSS_SWITCHES}
    model_cfg = dataclasses.replace(cfg.model, **model_over) if model_over else cfg.model
    return dataclasses.replace(cfg, model=model_cfg, **train_over)


def ablate(cfg: TrainConfig, train_records, val_records, variants=None,
           seeds=(0,)):
    """Train each switch variant under identical seeds/budget; one row each."""
    if variants is None:
        variants = ABLATION_VARIANTS
    rows = []
    for name, switches in variants.items():
        aucs, aps = [], []
        for seed in seeds:
            vcfg = dataclasses.replace(apply_variant(cfg, switches), seed=seed)
            result = train(vcfg, train_records, val_records)
            report = evaluate(result.model, val_records, ablation=name)
            aucs.append(report.auc)
            aps.append(report.ap)
        rows.append({"variant": name,
                     "auc": float(np.median(aucs)),
                     "ap": float(np.median(aps)),
                     "auc_per_seed": aucs, "ap_per_seed": aps})
    return rows
