"""The three workloads, their set-up, timed rounds and per-layer numbers.

Every workload is a closed loop with one caller: the next round starts when
the previous one has returned. A round is a fixed amount of work: one
`trainer.train` call (train-small, train-wide) or one in-process
`dams eval --csv` (eval-tencrop). A run repeats whole rounds until its time
is up, so per-round counters and peak memory repeat from run to run.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import dataclasses
import hashlib
import io
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from dams import cli, data, trainer
from dams.amtpn import PyramidConfig
from dams.cbam import CbamConfig
from dams.model import ModelConfig

import checks
from tracer import Tracer, summarize, self_times

# the acceptance criterion-5 model
SMALL_MODEL = ModelConfig(
    input_dim=64, channels=16, depth=1,
    pyramid=PyramidConfig(scales=(1, 3, 9, 27), channels=16, reduction_ratio=4),
    cbam=CbamConfig(reduction_ratio=4, temporal_kernel=7))
# the default model (channels 128, depth 2) on the same 64-dim features
WIDE_MODEL = ModelConfig(input_dim=64)

BATCH_SIZE = 30
END_TO_END_UNITS = {"setup_s": "s", "frames_per_s": "frames/s", "peak_rss_mb": "MB"}
_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))
_LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
_LIBC.malloc_trim.restype = ctypes.c_int


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "train" | "eval"
    model: ModelConfig
    iterations: int         # training iterations per round (train) or at set-up (eval)
    validate_every: int
    setup_reps: int
    num_videos: int = 200   # SyntheticSpec.num_videos
    num_crops: int = 1      # SyntheticSpec.num_crops


WORKLOADS = {
    "train-small": Workload("train-small", "train", SMALL_MODEL,
                            iterations=12, validate_every=6, setup_reps=11),
    "train-wide": Workload("train-wide", "train", WIDE_MODEL,
                           iterations=6, validate_every=3, setup_reps=11),
    "eval-tencrop": Workload("eval-tencrop", "eval", SMALL_MODEL,
                             iterations=10, validate_every=10**9, setup_reps=7,
                             num_videos=100, num_crops=10),
}


def spec_for(w: Workload, seed):
    return data.SyntheticSpec(num_videos=w.num_videos, num_crops=w.num_crops,
                              seed=seed)


def train_config(w: Workload, seed):
    return trainer.TrainConfig(model=w.model, seed=seed,
                               max_iterations=w.iterations,
                               validate_every=w.validate_every,
                               batch_size=BATCH_SIZE)


def split_train_val(records):
    """train-*: every fifth video validates, the others train."""
    return ([r for i, r in enumerate(records) if i % 5 != 4],
            [r for i, r in enumerate(records) if i % 5 == 4])


def split_train_eval(records):
    """eval-tencrop: even videos train the set-up checkpoint, odd ones are scored."""
    return ([r for i, r in enumerate(records) if i % 2 == 0],
            [r for i, r in enumerate(records) if i % 2 == 1])


def digests(directory):
    """{relative path: sha256} of every file under `directory`."""
    directory = Path(directory)
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(directory))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def rss_mb():
    """Resident memory after returning free heap pages to the system, so that
    memory freed earlier and not yet reused does not hide growth."""
    _LIBC.malloc_trim(0)
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up: the program makes the inputs from the workload seed
# ---------------------------------------------------------------------------

def setup(w: Workload, seed, rep_dir):
    """Synthesize (and for eval, train a checkpoint); everything to disk."""
    records = data.synthesize_dataset(spec_for(w, seed))
    if w.kind == "train":
        data.save_dataset(records, rep_dir / "dataset")
        return
    train_recs, eval_recs = split_train_eval(records)
    data.save_dataset(eval_recs, rep_dir / "dataset")
    trainer.train(train_config(w, seed), train_recs, None,
                  out_dir=rep_dir / "checkpoint")


def checkpoint_path(rep_dir):
    return rep_dir / "checkpoint" / "checkpoint_best.ckpt"


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Round:
    seconds: float
    frames: int
    attempted: int
    failed: int
    skipped: int
    digests: dict
    traced: bool


class TrainRounds:
    """One round = one `trainer.train` call with validation and checkpoints."""

    def __init__(self, w: Workload, seed, dataset_dir):
        self.cfg = train_config(w, seed)
        records = data.load_dataset(dataset_dir)
        self.train_recs, self.val_recs = split_train_val(records)
        self.frames = self._valid_frames()
        self.videos_per_evaluate = len(self.val_recs)
        self.last = None
        self.out_dir = None

    def _valid_frames(self):
        """Unpadded frames over the round's iterations."""
        per_epoch = math.ceil(len(self.train_recs) / self.cfg.batch_size)
        total = 0
        for epoch in range(math.ceil(self.cfg.max_iterations / per_epoch)):
            batches = list(data.batch_iter(self.train_recs, self.cfg.batch_size,
                                           self.cfg.seed, "train", epoch))
            for it in range(epoch * per_epoch,
                            min((epoch + 1) * per_epoch, self.cfg.max_iterations)):
                total += int(batches[it - epoch * per_epoch].mask.sum())
        return total

    def run(self, out_dir):
        self.out_dir = out_dir
        start = time.perf_counter()
        try:
            result = trainer.train(self.cfg, self.train_recs, self.val_recs,
                                   out_dir=out_dir)
        except (ValueError, RuntimeError) as exc:
            print(f"round failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return time.perf_counter() - start, self.cfg.max_iterations, 0
        seconds = time.perf_counter() - start
        self.last = result
        skipped = self.cfg.max_iterations - len(result.history)
        return seconds, skipped, skipped

    def check(self, seed):
        return checks.check_train(self, seed)


class EvalRounds:
    """One round = one in-process `dams eval --dataset --checkpoint --out --csv`."""

    def __init__(self, dataset_dir, ckpt):
        self.dataset_dir = dataset_dir
        self.checkpoint = ckpt
        self.records = data.load_dataset(dataset_dir)
        self.frames = sum(r.num_frames for r in self.records)
        self.videos_per_evaluate = len(self.records)
        self.out_dir = None

    def run(self, out_dir):
        out_dir.mkdir(parents=True)
        self.out_dir = out_dir
        argv = ["eval", "--dataset", str(self.dataset_dir),
                "--checkpoint", str(self.checkpoint),
                "--out", str(out_dir / "report.json"),
                "--csv", str(out_dir / "scores.csv")]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            print(f"dams eval exited {code}", file=sys.stderr)
        return seconds, int(code != 0), 0

    def check(self, seed):
        return checks.check_eval(self, seed)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(name, seed, seconds, trace, run_dir):
    """One run: set-up, timed rounds, output checks.

    Returns (result, failure messages, rounds run); result has the keys
    correct, attempted, failed and metrics.
    """
    w = WORKLOADS[name]
    failures = []
    setup_tracer = _tracer() if trace else None
    setup_times = []
    setup_digests = []

    def set_up():
        rep_dir = run_dir / f"setup{len(setup_times)}"
        with setup_tracer or contextlib.nullcontext():
            start = time.perf_counter()
            setup(w, seed, rep_dir)
            setup_times.append(time.perf_counter() - start)
        setup_digests.append(digests(rep_dir))

    set_up()
    inputs = run_dir / "setup0"
    if w.kind == "train":
        rounds = TrainRounds(w, seed, inputs / "dataset")
        per_round_ops = w.iterations
    else:
        rounds = EvalRounds(inputs / "dataset", checkpoint_path(inputs))
        per_round_ops = 1

    # Timed rounds: untraced, or alternating traced/untraced when tracing.
    # The other set-up repetitions are spread between the rounds, so that
    # their median samples the same stretch of time as the rounds' median.
    round_tracer = _tracer() if trace else None
    done = []
    start = time.perf_counter()
    deadline = start + seconds
    while not done or time.perf_counter() < deadline or (trace and len(done) < 2):
        traced = trace and len(done) % 2 == 0
        out_dir = run_dir / f"round{len(done)}"
        with round_tracer if traced else contextlib.nullcontext():
            secs, failed, skipped = rounds.run(out_dir)
        done.append(Round(secs, rounds.frames, per_round_ops, failed, skipped,
                          digests(out_dir), traced))
        if len(done) > 1:
            shutil.rmtree(run_dir / f"round{len(done) - 2}")
        due = start + seconds * len(setup_times) / w.setup_reps
        if len(setup_times) < w.setup_reps and time.perf_counter() >= due:
            set_up()
    while len(setup_times) < w.setup_reps:
        set_up()
    peak = peak_rss_mb()

    if any(d != setup_digests[0] for d in setup_digests[1:]):
        failures.append("set-up repetitions wrote different bytes")
    if any(r.digests != done[0].digests for r in done[1:]):
        failures.append("rounds wrote different bytes")
    for rep in range(1, len(setup_times)):
        shutil.rmtree(run_dir / f"setup{rep}")
    failures += rounds.check(seed)

    result = {"correct": not failures,
              "attempted": sum(r.attempted for r in done),
              "failed": sum(r.failed for r in done)}
    plain = [r for r in done if not r.traced]
    if trace:
        # memory growth is read in one more, untimed round: returning free
        # pages to the system at each reading would slow the timed ones
        memory_tracer = Tracer("dams", probes={"trainer.evaluate": rss_mb})
        with memory_tracer:
            rounds.run(run_dir / "memory_round")
        metrics = per_layer(setup_tracer, w.setup_reps, round_tracer,
                            [r for r in done if r.traced], plain,
                            rounds.videos_per_evaluate, memory_tracer)
        round_tracer.write(run_dir / "trace.jsonl")
        setup_tracer.write(run_dir / "trace_setup.jsonl")
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "frames_per_s": statistics.median(r.frames / r.seconds for r in plain),
                  "peak_rss_mb": peak}
        metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, failures, len(done)


def _tracer():
    return Tracer("dams", meters={
        "data.read_feature_file": lambda args, kwargs: os.path.getsize(args[0]) / 1e6})


# ---------------------------------------------------------------------------
# per-layer numbers from the traced rounds
# ---------------------------------------------------------------------------

KERNEL_OPS = ("conv1d", "conv1d_backward", "avg_pool1d", "avg_pool1d_backward",
              "batch_norm1d", "batch_norm1d_backward", "linear", "linear_backward")
MODULES = ("model.Backbone", "amtpn.Tpp", "amtpn.Aff", "amtpn.Tce", "cbam.Cbam",
           "model.Head")
LOSSES_SELF = ("losses.focal_loss", "losses.video_cls_loss", "losses.topk_indices",
               "losses.build_triplet", "losses.TripletSelection.scatter_grads",
               "losses.total_loss")
MODULE_PASSES = [f"{m}.{d}" for m in MODULES for d in ("forward", "backward")]
# spans whose self time is reported besides the kernel ops; each one's self
# time excludes the time of every nested span in this set and of every
# kernel op, but keeps that of unlisted wrappers such as layers.Conv1d
ATTRIBUTED = set(MODULE_PASSES) | set(LOSSES_SELF) | {"trainer.Adam.step"}


def _attributed(name):
    return name in ATTRIBUTED or name.startswith("kernel.")


def attributed_self_times(spans):
    """Self times where a span's children are its nearest attributed descendants."""
    by_id = {s[0]: s for s in spans}

    def owner(parent):
        while parent is not None and not _attributed(by_id[parent][1]):
            parent = by_id[parent][4]
        return parent

    kept = [(sid, name, start, end, owner(parent))
            for sid, name, start, end, parent in spans if _attributed(name)]
    selfs = self_times(kept)
    out = {}
    for sid, name, *_ in kept:
        out[name] = out.get(name, 0.0) + selfs[sid]
    return out


def per_layer(setup_tracer, setup_reps, round_tracer, traced, plain,
              videos_per_evaluate, memory_tracer):
    """{metric: (value, unit)}; sums are per traced round (set-up repetition
    for the set-up layers), percentiles over every traced call."""
    n = len(traced)
    summary = summarize(round_tracer.spans)
    selfs = attributed_self_times(round_tracer.spans)
    setup_summary = summarize(setup_tracer.spans)
    empty = {"calls": 0, "total_s": 0.0, "durations": []}

    def calls(name):
        return (summary.get(name, empty)["calls"] / n, "count")

    def self_s(name):
        return (selfs.get(name, 0.0) / n, "s")

    def total_s(name):
        return (summary.get(name, empty)["total_s"] / n, "s")

    def ms(name, q):
        durations = summary.get(name, empty)["durations"]
        return (float(np.percentile(np.asarray(durations) * 1e3, q))
                if durations else 0.0, "ms")

    m = {}
    for op in KERNEL_OPS:
        m[f"kernel.{op}.self_s"] = self_s(f"kernel.{op}")
        m[f"kernel.{op}.calls"] = calls(f"kernel.{op}")
    for name in MODULE_PASSES + list(LOSSES_SELF):
        m[f"{name}.self_s"] = self_s(name)
    m["losses.topk_indices.calls"] = calls("losses.topk_indices")
    m["trainer.train.s"] = total_s("trainer.train")
    m["trainer.train_step.ms_p50"] = ms("trainer.train_step", 50)
    m["trainer.train_step.ms_p90"] = ms("trainer.train_step", 90)
    m["trainer.Adam.step.self_s"] = self_s("trainer.Adam.step")
    m["trainer.skipped_batches"] = (sum(r.skipped for r in traced) / n, "count")
    m["trainer.evaluate.s"] = total_s("trainer.evaluate")
    m["trainer.score_video.ms_p50"] = ms("trainer.score_video", 50)
    m["trainer.score_video.ms_p90"] = ms("trainer.score_video", 90)
    evaluated = summary.get("trainer.evaluate", empty)["calls"] * videos_per_evaluate
    m["trainer.score_video.calls_per_video"] = (
        summary.get("trainer.score_video", empty)["calls"] / evaluated
        if evaluated else 0.0, "calls/video")
    m["trainer.load_model_for_inference.s"] = total_s("trainer.load_model_for_inference")
    m["trainer.evaluate.rss_growth_mb"] = (
        sum(memory_tracer.probed.get("trainer.evaluate", [])), "MB")
    m["trainer.save_checkpoint.s"] = total_s("trainer.save_checkpoint")
    m["data.load_dataset.s"] = total_s("data.load_dataset")
    m["data.read_feature_file.calls"] = calls("data.read_feature_file")
    m["data.read_feature_file.mb"] = (
        round_tracer.metered.get("data.read_feature_file", 0.0) / n, "MB")
    m["data.batch_iter.s"] = total_s("data.batch_iter")
    for name in ("data.synthesize_dataset", "data.save_dataset"):
        m[f"{name}.s"] = (setup_summary.get(name, empty)["total_s"] / setup_reps, "s")
    m["metrics.roc_auc.s"] = total_s("metrics.roc_auc")
    m["metrics.average_precision.s"] = total_s("metrics.average_precision")
    base = statistics.median(r.seconds for r in plain)
    m["trace.overhead_pct"] = (
        100.0 * (statistics.median(r.seconds for r in traced) / base - 1.0), "%")
    return m
