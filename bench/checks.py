"""Output checks, run after the timed rounds.

Each function returns a list of failure messages (empty when every check
holds). They check properties the method must have, recomputed apart from
the program; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from dams import data, trainer

from oracles import pairwise_auc, sweep_ap, uncertainty_total

METRIC_TOL = 1e-12      # program metric vs oracle, same scores
FD_STEP = 1e-6          # central-difference step
# |analytic - numeric| <= FD_ATOL + FD_RTOL * max(|analytic|, |numeric|); the
# gradients of the averaged loss are 1e-7..1e-2 and the difference quotients'
# rounding error stays below ~6e-10
FD_ATOL = 2e-9
FD_RTOL = 1e-5
FD_ENTRIES = 8
CROP_TOL = 1e-12        # batched ten-crop scoring vs one crop at a time
CSV_TOL = 5.1e-11       # the CSV prints scores with 10 decimals


def _bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _scores(model, records):
    return (np.concatenate([trainer.score_video(model, r) for r in records]),
            np.concatenate([r.frame_gt for r in records]))


# ---------------------------------------------------------------------------
# train-small / train-wide
# ---------------------------------------------------------------------------

def check_train(rounds, seed):
    fails = []
    result, cfg, out = rounds.last, rounds.cfg, rounds.out_dir
    if result is None:
        return ["no training round completed"]

    # every logged total is the uncertainty-weighted sum of its components
    with open(out / "log.jsonl", encoding="utf-8") as fh:
        log = [json.loads(line) for line in fh]
    if len(log) != cfg.max_iterations:
        fails.append(f"log has {len(log)} lines for {cfg.max_iterations} iterations")
    for entry in log:
        want = uncertainty_total((entry["l_pse"], entry["l_cls"], entry["l_trip"]),
                                 entry["sigma2"])
        if abs(entry["total"] - want) > 1e-12 * max(1.0, abs(want)):
            fails.append(f"iteration {entry['iter']}: total {entry['total']!r} "
                         f"!= recomputed {want!r}")

    # the final checkpoint reloads bit-equal to the in-memory state
    model, _, _ = trainer.load_model_for_inference(out / "checkpoint_final.ckpt")
    have, want = model.state_arrays(), result.model.state_arrays()
    if set(have) != set(want):
        fails.append("final checkpoint holds a different set of arrays")
    fails += [f"final checkpoint array {k} differs from the trained state"
              for k in sorted(set(have) & set(want)) if not _bits_equal(have[k], want[k])]
    arrays, _ = trainer.load_checkpoint(out / "checkpoint_final.ckpt")
    if not _bits_equal(arrays["uncertainty.rho"], result.weights.rho.value):
        fails.append("final checkpoint uncertainty.rho differs from the trained state")

    fails += _check_gradients(cfg, rounds.train_recs, seed)

    # training helps: brute-force AUC of the trained model beats the untrained
    scores, gt = _scores(result.model, rounds.val_recs)
    trained_auc = pairwise_auc(scores, gt)
    untrained_auc = pairwise_auc(*_scores(trainer.build_model(cfg)[0], rounds.val_recs))
    if not trained_auc > untrained_auc:
        fails.append(f"trained AUC {trained_auc:.6f} does not beat "
                     f"untrained {untrained_auc:.6f}")
    # the last iteration validated the final state, so the log's metrics
    # are the oracles' on these scores
    last = log[-1] if log else {}
    if "val_auc" not in last:
        fails.append("last iteration carries no validation metrics")
    else:
        if abs(last["val_auc"] - trained_auc) > METRIC_TOL:
            fails.append(f"logged val_auc {last['val_auc']!r} != oracle {trained_auc!r}")
        ap = sweep_ap(scores, gt)
        if abs(last["val_ap"] - ap) > METRIC_TOL:
            fails.append(f"logged val_ap {last['val_ap']!r} != oracle {ap!r}")
    return fails


def _check_gradients(cfg, train_recs, seed):
    """Finite differences of one train_step loss on a fresh model.

    The loss has kinks (relu, top-k membership, the triplet hinge). When one
    lies within a step of the entry, the central difference straddles it but
    the one-sided difference on the other side does not, so an entry passes
    when the analytic gradient matches the central, forward or backward
    difference.
    """
    model, weights = trainer.build_model(cfg)
    params = model.params() + weights.params()
    # anomalous videos come first, normal ones last: take both, so that the
    # triplet term is part of the loss
    both = train_recs[:4] + train_recs[-4:]
    batch = next(data.batch_iter(both, len(both), cfg.seed, "train", 0))
    if len(set(batch.labels)) != 2:
        return ["gradient check batch lacks a class"]

    def loss():
        for p in params:
            p.zero_grad()
        return trainer.train_step(model, weights, batch, cfg, 0).total

    base = loss()
    analytic = {p.name: p.grad.copy() for p in params}
    rng = np.random.default_rng([seed, 0xFD])
    fails = []
    for _ in range(FD_ENTRIES):
        p = params[int(rng.integers(len(params)))]
        flat = p.value.reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + FD_STEP
        up = loss()
        flat[i] = orig - FD_STEP
        down = loss()
        flat[i] = orig
        numeric = ((up - down) / (2 * FD_STEP), (up - base) / FD_STEP,
                   (base - down) / FD_STEP)
        a = float(analytic[p.name].reshape(-1)[i])
        if not any(abs(a - n) <= FD_ATOL + FD_RTOL * max(abs(a), abs(n))
                   for n in numeric):
            fails.append(f"gradient of {p.name}[{i}]: analytic {a!r}, central, "
                         f"forward and backward differences {numeric}")
    return fails


# ---------------------------------------------------------------------------
# eval-tencrop
# ---------------------------------------------------------------------------

def check_eval(rounds, seed):
    fails = []
    out = rounds.out_dir
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    records = rounds.records
    rows = report["per_video"]
    if [r["id"] for r in rows] != [r.id for r in records]:
        return ["report videos differ from the dataset's"]

    scores = np.concatenate([np.asarray(r["scores"]) for r in rows])
    gt = np.concatenate([np.asarray(r["gt"]) for r in rows])
    if any(len(r["scores"]) != rec.num_frames or r["gt"] != rec.frame_gt.tolist()
           for r, rec in zip(rows, records)):
        fails.append("report frame counts or ground truth differ from the dataset's")
    if not np.all((scores > 0.0) & (scores < 1.0)):
        fails.append("a report score lies outside (0, 1)")
    auc, ap = pairwise_auc(scores, gt), sweep_ap(scores, gt)
    if abs(report["auc"] - auc) > METRIC_TOL:
        fails.append(f"report auc {report['auc']!r} != pairwise oracle {auc!r}")
    if abs(report["ap"] - ap) > METRIC_TOL:
        fails.append(f"report ap {report['ap']!r} != sweep oracle {ap!r}")

    # one CSV row per frame, agreeing with the report
    with open(out / "scores.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    expected = [(r["id"], t, s, g) for r in rows
                for t, (s, g) in enumerate(zip(r["scores"], r["gt"]))]
    if table[0] != ["video_id", "frame", "score", "gt"] or len(table) - 1 != len(expected):
        fails.append(f"CSV has {len(table) - 1} rows for {len(expected)} frames")
    else:
        bad = [row for row, (vid, t, s, g) in zip(table[1:], expected)
               if row[0] != vid or int(row[1]) != t or int(row[3]) != g
               or abs(float(row[2]) - s) > CSV_TOL or not 0.0 < float(row[2]) < 1.0]
        if bad:
            fails.append(f"{len(bad)} CSV rows disagree with the report, first {bad[0]}")

    # eval-mode batch norm makes crops independent: the ten-crop score is
    # the mean of the crops scored one at a time
    model, _, _ = trainer.load_model_for_inference(rounds.checkpoint)
    rng = np.random.default_rng([seed, 0xC4])
    for v in rng.choice(len(records), size=3, replace=False):
        rec = records[int(v)]
        alone = np.mean([model.forward(c[None], train=False).frame_scores[0]
                         for c in rec.crops], axis=0)
        diff = float(np.max(np.abs(trainer.score_video(model, rec) - alone)))
        if diff > CROP_TOL:
            fails.append(f"{rec.id}: ten-crop score differs from per-crop mean by {diff:.3e}")
    return fails
