"""Deterministic training loop, checkpointing, evaluation, and ablations.

Determinism contract: everything is a pure function of (seed, config,
dataset). All randomness is drawn from generators derived from the seed plus
a fixed stream tag plus the epoch or iteration index, so resuming from a
checkpoint at iteration i replays the exact byte-identical run.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import typing
from pathlib import Path

import numpy as np

from . import kernel
from . import losses as L
from .amtpn import ConfigError
from .data import (Batch, FeatureFileError, batch_iter, read_container,
                   write_container)
from .layers import ConvBn
from .losses import LossConfig, NonFiniteLossError, UncertaintyWeights
from .metrics import UndefinedMetricError, average_precision, roc_auc
from .model import DamsModel, ModelConfig, pseudo_labels

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
        # chained bounds, so NaN fails them too
        if not (0 < self.learning_rate < math.inf and 0 < self.adam_eps < math.inf):
            raise ConfigError("learning_rate and adam_eps must be positive and finite")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError("Adam betas must lie in (0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.pseudo_threshold < 1.0:
            raise ConfigError("pseudo_threshold must lie in (0, 1)")
        if self.loss is None:
            object.__setattr__(self, "loss", LossConfig())
        if self.model is None:
            object.__setattr__(self, "model", ModelConfig())


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# annotation -> (what a value must be, its test); a float field takes an int
_FIELD_TYPES = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", _is_int),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    tuple: ("a list of integers",
            lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
}


_type_hints = functools.cache(typing.get_type_hints)


def config_from_dict(d, cls=TrainConfig, path="config"):
    """Build a config dataclass from plain data. Unknown keys and values not
    of their field's annotated type raise `ConfigError`; a nested config is
    built from its object (None keeps the default)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    hints = _type_hints(cls)
    kwargs = {}
    for k, v in d.items():
        hint = hints[k]
        if dataclasses.is_dataclass(hint):
            if v is not None:
                v = config_from_dict(v, hint, f"{path}.{k}")
        else:
            what, ok = _FIELD_TYPES[hint]
            if not ok(v):
                raise ConfigError(f"{path}.{k}: expected {what}, got {v!r}")
            if hint is tuple:
                v = tuple(v)
        kwargs[k] = v
    return cls(**kwargs)


def config_to_dict(cfg):
    # tuples stay tuples: json writes them as arrays, config_from_dict takes both
    return dataclasses.asdict(cfg)


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
            raise FeatureFileError(f"checkpoint is missing array {prefix + name!r}")
        if src.shape != dst.shape:
            raise FeatureFileError(f"checkpoint array {prefix + name!r} has shape "
                                   f"{src.shape}, expected {dst.shape}")
        dst[...] = src


def _meta_value(meta, key, kind, ok=lambda value: True):
    """`meta[key]` when it is a `kind`, not a bool, that `ok` accepts; a
    missing or invalid entry is a format error."""
    value = meta.get(key)
    if not isinstance(value, kind) or isinstance(value, bool) or not ok(value):
        raise FeatureFileError(f"checkpoint meta entry {key!r} is missing or invalid")
    return value


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
    pseudo = pseudo_labels(batch.pseudo_probs, cfg.pseudo_threshold)

    # frame-level pseudo supervision
    l_pse = 0.0
    d_scores = None
    mask_pse = mask * batch.has_pseudo[:, None]
    if cfg.use_l_pse and mask_pse.sum() >= 1:
        l_pse, d_scores = L.focal_loss(out.frame_scores, pseudo, mask_pse, cfg.loss)

    # video-level top-k classification on logits, sigmoid applied once after
    topk_sets = L.topk_rows(out.frame_logits, mask, cfg.loss.topk_fraction)
    video_logits = L.topk_mean(out.frame_logits, topk_sets)
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

    breakdown = L.total_loss(l_pse, l_cls, l_trip, weights)
    w_pse, w_cls, w_trip = breakdown.weights

    d_logits = np.zeros_like(out.frame_logits)
    if d_scores is not None:
        d_logits += kernel.sigmoid_backward(w_pse * d_scores, out.frame_scores)
    L.topk_mean_backward(w_cls * d_vlogits, topk_sets, d_logits)
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

    def to_dict(self):
        return {"auc": self.auc, "ap": self.ap, "per_video": self.per_video}


def score_videos(model: DamsModel, records, batch_size):
    """Per-frame anomaly scores of each video, averaged over its crops, in
    input order.

    Videos are taken in order of length (ties in input order), `batch_size`
    at a time. A batch stacks every crop of its videos, one zero-padded row
    each, into one eval forward whose padding mask keeps each row's scores
    on its own frames those it gets alone.
    """
    order = sorted(range(len(records)), key=lambda i: records[i].num_frames)
    batches = batch_iter([records[i] for i in order], batch_size, mode="eval")
    scores = [None] * len(records)
    for start, batch in zip(range(0, len(order), batch_size), batches):
        frame_scores = model.forward(batch.features, mask=batch.mask).frame_scores
        row = 0
        for i in order[start:start + batch_size]:
            n, t = len(records[i].crops), records[i].num_frames
            scores[i] = frame_scores[row:row + n, :t].mean(axis=0)
            row += n
    return scores


def score_video(model: DamsModel, record):
    """Per-frame anomaly scores for one video, averaged over crops."""
    return score_videos(model, [record], 1)[0]


def evaluate(model: DamsModel, records,
             batch_size=TrainConfig.eval_batch_size) -> EvalReport:
    """Frame-level AUC/AP over every video carrying ground truth.

    Videos are scored in length-sorted batches of `batch_size`
    (`score_videos`); the padding mask keeps each video's scores those it
    gets alone, up to the last bits of the gemms. With no ground truth at
    all both metrics are undefined: `UndefinedMetricError`.
    """
    per_video = []
    all_scores = []
    all_gt = []
    for rec, scores in zip(records, score_videos(model, records, batch_size)):
        row = {"id": rec.id, "scores": scores.tolist()}
        if rec.frame_gt is not None:
            row["gt"] = rec.frame_gt.astype(np.int64).tolist()
            all_scores.append(scores)
            all_gt.append(rec.frame_gt)
        per_video.append(row)
    if not all_gt:
        raise UndefinedMetricError("evaluate: no video carries frame ground truth")
    scores = np.concatenate(all_scores)
    gt = np.concatenate(all_gt)
    return EvalReport(roc_auc(scores, gt), average_precision(scores, gt),
                      per_video)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_heap_mapped():
    """On glibc, keep freed memory in the process heap for the next step.

    Every training step allocates again the arrays the previous step freed.
    By default glibc returns the free top of the heap to the system after a
    step and serves blocks above its (dynamic) mmap threshold with fresh
    mappings, so the next step takes a page fault on each page it touches
    again. Heap trimming is turned off and blocks under 32 MiB (glibc's own
    64-bit ceiling for the dynamic threshold) come from the heap. The
    setting is process-wide and made once; resident memory then stays at
    its high-water mark after training. Returns whether it was made: other
    C libraries are left as they are.
    """
    if os.name != "posix":
        return False
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return False
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(_M_TRIM_THRESHOLD, -1)
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    return True


@dataclasses.dataclass
class TrainResult:
    model: DamsModel
    weights: UncertaintyWeights
    history: list
    best_auc: float
    best_iteration: int


def _has_batch_norm(layer):
    """Whether `layer` or a layer below it is a batch norm."""
    return isinstance(layer, ConvBn) or any(map(_has_batch_norm, layer.children()))


def _log_line(entry):
    return json.dumps(entry, sort_keys=True)


def train(cfg: TrainConfig, train_records, val_records=None, out_dir=None,
          resume=None) -> TrainResult:
    """Run the iteration-budgeted training protocol.

    Every `validate_every` iterations, skipped degenerate batches included,
    the validation split is scored (eval mode; parameters and optimizer
    untouched) and the best-AUC state is retained. The returned history is
    the exact content of log.jsonl; a skipped iteration's line, written only
    when it validates, carries no loss fields.
    Training batches are collated one at a time, as each step takes them.
    The first call in a process sets the heap policy of `_keep_heap_mapped`.
    """
    if not train_records:
        raise ConfigError("train: no training videos")
    _keep_heap_mapped()
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
        opt.t, start_iter = (_meta_value(meta, key, int, lambda v: v >= 0)
                             for key in ("adam_t", "iteration"))
        # -1 in either best_* entry records that no validation pass ran
        best_auc = float(_meta_value(meta, "best_auc", (int, float),
                                     lambda v: v == -1.0 or 0.0 <= v <= 1.0))
        best_iteration = _meta_value(meta, "best_iteration", int, lambda v: v >= -1)
        # the best/ arrays are checked even when -1.0 (no validation pass
        # ran) says there is no best yet
        best_state = snapshot_state()
        _restore_state(arrays, best_state, "best/")
        if best_auc < 0.0:
            best_auc, best_iteration, best_state = -math.inf, -1, None

    # iteration i takes batch i % per_epoch of epoch i // per_epoch
    epoch, skip = divmod(start_iter, math.ceil(len(train_records) / cfg.batch_size))
    batches = itertools.islice(itertools.chain.from_iterable(
        batch_iter(train_records, cfg.batch_size, cfg.seed, "train", e)
        for e in itertools.count(epoch)), skip, None)

    history = []
    # the range comes first, so zip collates no batch past the budget
    for it, batch in zip(range(start_iter, cfg.max_iterations), batches):
        entry = {"iter": it + 1}
        B, _, T = batch.features.shape
        if B * T < 2 and _has_batch_norm(model):
            log.warning("iteration %d: degenerate batch skipped (batch norm over "
                        "B*T = %d < 2 frames)", it + 1, B * T)
        else:
            kernel.zero_grads(params)
            try:
                breakdown = train_step(model, weights, batch, cfg, it)
            except NonFiniteLossError as exc:
                raise NonFiniteLossError(f"iteration {it + 1}: {exc}") from exc
            bad = next((p for p in params if not np.isfinite(p.grad).all()), None)
            if bad is not None:
                raise NonFiniteLossError(f"iteration {it + 1}: non-finite gradient "
                                         f"of {bad.name} on videos {batch.video_ids}")
            opt.step()
            entry.update(l_pse=breakdown.l_pse, l_cls=breakdown.l_cls,
                         l_trip=breakdown.l_trip, total=breakdown.total,
                         sigma2=[float(s) for s in breakdown.sigma2])
        # a skipped iteration still validates on schedule
        if val_records is not None and (it + 1) % cfg.validate_every == 0:
            report = evaluate(model, val_records, cfg.eval_batch_size)
            entry["val_auc"] = report.auc
            entry["val_ap"] = report.ap
            if report.auc > best_auc:
                best_auc = report.auc
                best_iteration = it + 1
                best_state = snapshot_state()
        if len(entry) > 1:  # a skipped iteration that did not validate logs nothing
            history.append(entry)
            log.info("%s", _log_line(entry))

    if best_state is None:
        best_state = snapshot_state()
        best_iteration = cfg.max_iterations

    result = TrainResult(model, weights, history, best_auc, best_iteration)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # an AUC lies in [0, 1]: -1.0 records that no validation pass ran
        meta = {"iteration": cfg.max_iterations, "adam_t": opt.t,
                "best_auc": best_auc if math.isfinite(best_auc) else -1.0,
                "best_iteration": best_iteration,
                "config": config_to_dict(cfg), "config_hash": cfg_hash}
        arrays = _all_state(model, weights, opt)
        arrays.update({f"best/{k}": v for k, v in best_state.items()})
        save_checkpoint(out_dir / "checkpoint_final.ckpt", arrays, meta)
        save_checkpoint(out_dir / "checkpoint_best.ckpt", best_state,
                        dict(meta, iteration=best_iteration))
        with open(out_dir / "log.jsonl", "w", encoding="utf-8") as fh:
            for entry in history:
                fh.write(_log_line(entry) + "\n")
    return result


def load_model_for_inference(path):
    """Rebuild a model (and its config) from any checkpoint file."""
    arrays, meta = load_checkpoint(path)
    try:
        cfg = config_from_dict(_meta_value(meta, "config", dict))
    except ConfigError as exc:  # the file, not the run, is at fault
        raise FeatureFileError(f"{path}: checkpoint meta: {exc}") from exc
    model, weights = build_model(cfg)
    _restore_state(arrays, _all_state(model, weights))
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
            report = evaluate(result.model, val_records, vcfg.eval_batch_size)
            aucs.append(report.auc)
            aps.append(report.ap)
        rows.append({"variant": name,
                     "auc": float(np.median(aucs)),
                     "ap": float(np.median(aps)),
                     "auc_per_seed": aucs, "ap_per_seed": aps})
    return rows
