"""Command-line surface: synth, train, eval, score, plot, gradcheck, info.

Each error maps to one exit code and one stderr category through `ERRORS`;
success exits 0.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .amtpn import ConfigError
from .checks import run_suite
from .data import (FORMAT_VERSION, FeatureFileError, SyntheticSpec,
                   load_dataset, save_dataset, synthesize_dataset)
from .kernel import GradCheckAborted
from .losses import NonFiniteLossError
from .metrics import UndefinedMetricError
from .model import ModelConfig
from .plotting import render_score_svg
from .trainer import (ABLATION_VARIANTS, TrainConfig, apply_variant,
                      config_from_dict, config_to_dict, evaluate,
                      load_model_for_inference, score_video, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_FORMAT = 4
EXIT_NUMERIC = 5

# (exception types, exit code, stderr category): `main` prints
# `error: CATEGORY: message` and returns the code of the first matching row.
# A FeatureFileError subclass names its code, as in `format:bad-checksum`.
ERRORS = (
    ((ConfigError,), EXIT_CONFIG, "config"),
    ((json.JSONDecodeError,), EXIT_CONFIG, "config: invalid JSON"),
    ((FileNotFoundError,), EXIT_MISSING, "missing-path"),
    # also a directory given where a file belongs, or a file where a directory does
    ((FeatureFileError, IsADirectoryError, NotADirectoryError, FileExistsError),
     EXIT_FORMAT, "format"),
    ((NonFiniteLossError, GradCheckAborted, UndefinedMetricError),
     EXIT_NUMERIC, "numeric"),
)

log = logging.getLogger("dams")


def _setup_logging():
    level = os.environ.get("DAMS_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _split_train_val(records, val_fraction):
    n = len(records)
    n_val = max(1, round(val_fraction * n)) if n > 1 else 0
    val_idx = set(np.unique(np.linspace(0, n - 1, n_val).round().astype(int))) \
        if n_val else set()
    train_recs = [r for i, r in enumerate(records) if i not in val_idx]
    val_recs = [r for i, r in enumerate(records) if i in val_idx]
    return train_recs, val_recs


def _read_config(path):
    """The `TrainConfig` of a JSON file; a directory or a file that is not
    UTF-8 text is a config error, like one that is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return config_from_dict(json.load(fh))
    except (UnicodeDecodeError, IsADirectoryError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_train_config(args, records):
    if args.config is not None:
        cfg = _read_config(args.config)
    else:
        model = ModelConfig(input_dim=records[0].input_dim)
        cfg = TrainConfig(model=model)
    over = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if args.iters is not None:
        over["max_iterations"] = args.iters
    if args.batch_size is not None:
        over["batch_size"] = args.batch_size
    cfg = dataclasses.replace(cfg, **over) if over else cfg
    for name, switches in ABLATION_VARIANTS.items():
        if getattr(args, name, False):
            cfg = apply_variant(cfg, switches)
    return cfg


def _check_input_dim(cfg, records):
    """The model must read the dataset's one feature dimension."""
    if cfg.model.input_dim != records[0].input_dim:
        raise ConfigError(f"model.input_dim {cfg.model.input_dim} differs from "
                          f"the dataset's feature dimension {records[0].input_dim}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args):
    spec = SyntheticSpec(
        num_videos=args.videos, t_min=args.t_min, t_max=args.t_max,
        input_dim=args.dim, anomaly_fraction=args.anomaly_fraction,
        snr=args.snr, label_noise=args.label_noise, num_crops=args.crops,
        seed=args.seed)
    records = synthesize_dataset(spec)
    save_dataset(records, args.out)
    spec_path = Path(args.out) / "spec.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(spec), fh, sort_keys=True, indent=2)
    print(f"wrote {len(records)} videos to {args.out}")
    return EXIT_OK


def cmd_train(args):
    if Path(args.out).exists() and not Path(args.out).is_dir():
        # caught here rather than when the checkpoints are written, after training
        raise FileExistsError(f"--out {args.out}: exists and is not a directory")
    if not 0.0 <= args.val_fraction < 1.0:
        raise ConfigError(f"--val-fraction must lie in [0, 1), got {args.val_fraction}")
    records = load_dataset(args.dataset)
    cfg = _load_train_config(args, records)
    _check_input_dim(cfg, records)
    train_recs, val_recs = _split_train_val(records, args.val_fraction)
    result = train(cfg, train_recs, val_recs or None, out_dir=args.out,
                   resume=args.resume)
    if np.isfinite(result.best_auc):
        best = f"best val AUC {result.best_auc:.4f} at iteration {result.best_iteration}"
    else:
        best = "no validation pass ran"
    trained = sum("total" in entry for entry in result.history)
    print(f"trained {trained} iterations; {best}")
    return EXIT_OK


def cmd_eval(args):
    records = load_dataset(args.dataset)
    model, cfg, _ = load_model_for_inference(args.checkpoint)
    _check_input_dim(cfg, records)
    report = evaluate(model, records)
    payload = json.dumps(report.to_dict(), sort_keys=True)
    if args.out is not None:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    print(f"auc {report.auc:.6f} ap {report.ap:.6f}")
    if args.csv is not None:
        _write_score_csv(args.csv, records,
                         [row["scores"] for row in report.per_video])
    return EXIT_OK


def _write_score_csv(path, records, video_scores):
    """One row per frame; `video_scores[i]` holds the scores of `records[i]`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "frame", "score", "gt"])
        for rec, scores in zip(records, video_scores, strict=True):
            gts = ([""] * len(scores) if rec.frame_gt is None
                   else rec.frame_gt.astype(np.int64).tolist())
            writer.writerows([rec.id, t, f"{s:.10f}", gt]
                             for t, (s, gt) in enumerate(zip(scores, gts)))


def cmd_score(args):
    records = load_dataset(args.dataset)
    model, cfg, _ = load_model_for_inference(args.checkpoint)
    _check_input_dim(cfg, records)
    _write_score_csv(args.out, records,
                     [score_video(model, rec) for rec in records])
    print(f"wrote per-frame scores for {len(records)} videos to {args.out}")
    return EXIT_OK


def _read_score_csv(path):
    """{video id: {"scores", "gt"}} from a score CSV. Each video's rows form
    one block with frames 0, 1, 2, ...; a malformed file raises
    `FeatureFileError` naming `path:LINE`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise FeatureFileError(f"{path}:{line}: not UTF-8: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    rows = {}
    try:
        columns = reader.fieldnames
        if columns is not None and not ({"video_id", "frame", "score", "gt"}
                                        <= set(columns)):
            raise ValueError("needs the columns video_id, frame, score and gt")
        last = None
        for row in reader:
            if None in row.values():
                raise ValueError(f"{len(columns)} columns expected")
            vid = row["video_id"]
            if vid != last and vid in rows:
                raise ValueError(f"video {vid!r} has its rows in more than one block")
            last = vid
            entry = rows.setdefault(vid, {"scores": [], "gt": []})
            if int(row["frame"]) != len(entry["scores"]):
                raise ValueError(f"frame {row['frame']!r} of video {vid!r}, "
                                 f"expected {len(entry['scores'])}")
            score = float(row["score"])
            if not math.isfinite(score):
                raise ValueError(f"score {row['score']!r} is not finite")
            gt = int(row["gt"]) if row["gt"] != "" else 0
            if gt not in (0, 1):
                raise ValueError(f"gt {row['gt']!r} is not 0 or 1")
            entry["scores"].append(score)
            entry["gt"].append(gt)
    except (ValueError, csv.Error) as exc:
        raise FeatureFileError(f"{path}:{reader.line_num}: {exc}") from exc
    return rows


def cmd_plot(args):
    if args.max_videos < 1:
        raise ConfigError(f"--max-videos must be >= 1, got {args.max_videos}")
    rows = _read_score_csv(args.scores)
    if not rows:
        raise ConfigError(f"{args.scores}: no score rows")
    if args.video is not None:
        if args.video not in rows:
            raise ConfigError(f"video {args.video!r} not present in {args.scores}")
        selected = [args.video]
    else:
        selected = list(rows)[:args.max_videos]
    videos = [(vid, np.asarray(rows[vid]["scores"]), np.asarray(rows[vid]["gt"]))
              for vid in selected]
    Path(args.out).write_text(render_score_svg(videos), encoding="utf-8")
    print(f"wrote {len(selected)} panels to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args):
    if args.seed < 0 or args.num_seeds < 1 or args.entries < 1:
        raise ConfigError("--seed must be >= 0, --num-seeds and --entries >= 1")
    if not args.tolerance >= 0:  # NaN fails too
        raise ConfigError(f"--tolerance must be >= 0, got {args.tolerance}")
    seeds = tuple(range(args.seed, args.seed + args.num_seeds))
    results = run_suite(seeds=seeds, tolerance=args.tolerance,
                        max_entries_per_param=args.entries)
    failed = 0
    by_name = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r)
    for name, rs in by_name.items():
        worst = max(r.max_rel_error for r in rs)
        ok = all(r.passed for r in rs)
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name:14s} max rel err {worst:.3e}")
    if failed:
        raise GradCheckAborted(f"{failed} gradient checks failed")
    return EXIT_OK


def cmd_info(args):
    if args.config is not None:
        cfg = _read_config(args.config)
    else:
        cfg = TrainConfig(model=ModelConfig(input_dim=64))
    info = {"version": __version__,
            "feature_file_version": FORMAT_VERSION,
            "checkpoint_version": FORMAT_VERSION,
            "config": config_to_dict(cfg)}
    print(json.dumps(info, sort_keys=True, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    first = {}
    for _, code, category in ERRORS:
        first.setdefault(code, category)
    codes = ", ".join(f"{code} {category}" for code, category in first.items())
    parser = argparse.ArgumentParser(
        prog="dams",
        description="Multiscale temporal anomaly detection: synthetic "
                    "benchmark, training, evaluation, and diagnostics.",
        epilog=f"Exit codes: 0 ok, {codes}; an error prints `error: CATEGORY: "
               "message` on stderr. Set DAMS_LOG=error|warn|info|debug for log "
               "verbosity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic planted-anomaly dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--videos", type=int, default=200)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--t-min", type=int, default=64)
    p.add_argument("--t-max", type=int, default=128)
    p.add_argument("--anomaly-fraction", type=float, default=0.5)
    p.add_argument("--snr", type=float, default=3.0)
    p.add_argument("--label-noise", type=float, default=0.1)
    p.add_argument("--crops", type=int, default=1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON training config (strict schema)")
    p.add_argument("--seed", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--resume", help="checkpoint to continue from")
    for name in ABLATION_VARIANTS:
        if name != "full":
            switch = name.removeprefix("no_").replace("_", "-")
            p.add_argument(f"--no-{switch}", action="store_true", dest=name,
                           help=f"ablation: disable {switch}")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="frame-level AUC/AP report for a checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="also write a per-frame score CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("score", help="write per-frame anomaly scores as CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("plot", help="render score curves with gt shading as SVG")
    p.add_argument("--scores", required=True, help="CSV from `score`/`eval --csv`")
    p.add_argument("--out", required=True)
    p.add_argument("--video", help="only this video id")
    p.add_argument("--max-videos", type=int, default=8)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("gradcheck", help="module-wise finite-difference suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-seeds", type=int, default=5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--entries", type=int, default=4,
                   help="finite-differenced entries per parameter")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("info", help="print config and format versions")
    p.add_argument("--config")
    p.set_defaults(func=cmd_info)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for types, _, _ in ERRORS for t in types) as exc:
        code, category = next((code, category) for types, code, category in ERRORS
                              if isinstance(exc, types))
        if isinstance(exc, FeatureFileError) and exc.code != "format":
            category = f"format:{exc.code}"
        print(f"error: {category}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
