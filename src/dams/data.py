"""Feature-file I/O, dataset descriptors, batching, and the synthetic
planted-anomaly benchmark.

Feature files ("DAMSFEAT", one array of rank 1..3) and checkpoints
("DAMSCKPT") share one binary container:

    magic 8 bytes | version u16 LE | body length u64 LE | body = JSON line
    {"arrays": [[name, shape], ...], "meta": {...}} + float64 LE payload,
    row-major in header order | crc32 of every byte before it, u32 LE

The reader checks the length, magic, version, body length against the file
size and checksum, in that order, and parses the header only after that.

Datasets on disk are a directory of feature files plus `manifest.jsonl`,
one JSON object per video with relative feature paths, a "normal" /
"anomalous" label, and optional frame ground truth and pseudo-probabilities.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import struct
import zlib
from pathlib import Path

import numpy as np

from .amtpn import ConfigError
from .kernel import frame_buffer

FORMAT_VERSION = 2
FEATURE_MAGIC = b"DAMSFEAT"
FEATURE_ARRAY = "features"
MANIFEST_NAME = "manifest.jsonl"

LABEL_NORMAL = "normal"
LABEL_ANOMALOUS = "anomalous"

_PREFIX = struct.Struct("<8sHQ")   # magic, version, body length
_CRC = struct.Struct("<I")


class FeatureFileError(ValueError):
    """Base class for format violations in feature files, checkpoints and
    manifests."""
    code = "format"


class BadMagicError(FeatureFileError):
    code = "bad-magic"


class BadVersionError(FeatureFileError):
    code = "bad-version"


class ChecksumError(FeatureFileError):
    code = "bad-checksum"


class TruncatedFileError(FeatureFileError):
    code = "truncated"


def write_container(path, magic, meta, arrays):
    """Write the name -> float64 array map `arrays` and the JSON object
    `meta` as one file; byte-deterministic for fixed content."""
    names = sorted(arrays)
    header = {"arrays": [[n, list(np.shape(arrays[n]))] for n in names], "meta": meta}
    body = b"".join([json.dumps(header, sort_keys=True).encode(), b"\n"] + [
        np.ascontiguousarray(arrays[n], dtype="<f8").tobytes() for n in names])
    blob = _PREFIX.pack(magic, FORMAT_VERSION, len(body)) + body
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(_CRC.pack(zlib.crc32(blob)))


def read_container(path, magic):
    """Read a file written by `write_container` as (arrays, meta). Every
    malformed file raises a `FeatureFileError` subclass."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except IsADirectoryError as exc:
        raise FeatureFileError(f"{path}: is a directory") from exc
    if len(blob) < _PREFIX.size + _CRC.size:
        raise TruncatedFileError(f"{path}: too short for a header")
    found, version, body_len = _PREFIX.unpack_from(blob)
    if found != magic:
        raise BadMagicError(f"{path}: bad magic {found!r}")
    if version != FORMAT_VERSION:
        raise BadVersionError(f"{path}: unsupported version {version}")
    end = _PREFIX.size + body_len
    if len(blob) != end + _CRC.size:
        raise TruncatedFileError(f"{path}: {len(blob)} bytes, expected {end + _CRC.size}")
    if zlib.crc32(memoryview(blob)[:end]) != _CRC.unpack_from(blob, end)[0]:
        raise ChecksumError(f"{path}: checksum mismatch")
    # past the checksum, only a writer that broke the layout leaves a bad header
    off = blob.find(b"\n", _PREFIX.size, end) + 1
    try:
        header = json.loads(blob[_PREFIX.size:off]) if off else None
    except ValueError as exc:
        raise FeatureFileError(f"{path}: header is not JSON: {exc}") from exc
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list)
            and all(isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                    and isinstance(e[1], list)
                    and all(type(n) is int and n >= 0 for n in e[1])
                    for e in header["arrays"])):
        raise FeatureFileError(f"{path}: malformed header")
    counts = [math.prod(shape) for _, shape in header["arrays"]]
    if (off + 8 * sum(counts) != end
            or len({name for name, _ in header["arrays"]}) != len(counts)):
        raise FeatureFileError(f"{path}: header disagrees with the payload")
    arrays = {}
    for (name, shape), n in zip(header["arrays"], counts):
        arrays[name] = np.frombuffer(blob, "<f8", n, off).astype(float).reshape(shape)
        off += 8 * n
    return arrays, header["meta"]


def _checked_feature(arrays, path):
    """The one array of a feature file: rank 1..3, no empty extent, finite."""
    tensor = arrays.get(FEATURE_ARRAY)
    if tensor is None or len(arrays) != 1:
        raise FeatureFileError(f"{path}: expected the one array {FEATURE_ARRAY!r}")
    if not 1 <= tensor.ndim <= 3 or min(tensor.shape) < 1:
        raise FeatureFileError(f"{path}: shape {tensor.shape} needs rank 1..3 "
                               "and no empty extent")
    if not np.isfinite(tensor).all():
        raise FeatureFileError(f"{path}: non-finite feature value")
    return tensor


def write_feature_file(path, tensor):
    arrays = {FEATURE_ARRAY: np.asarray(tensor, dtype=np.float64)}
    _checked_feature(arrays, path)
    write_container(path, FEATURE_MAGIC, {}, arrays)


def read_feature_file(path):
    arrays, _ = read_container(path, FEATURE_MAGIC)
    return _checked_feature(arrays, path)


# ---------------------------------------------------------------------------
# records and manifests
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class VideoRecord:
    id: str
    crops: list                      # >= 1 arrays [Din, T], shared (Din, T)
    label: str                       # LABEL_NORMAL | LABEL_ANOMALOUS
    frame_gt: np.ndarray = None      # optional binary [T]
    pseudo_probs: np.ndarray = None  # optional real [T]

    def __post_init__(self):
        if self.label not in (LABEL_NORMAL, LABEL_ANOMALOUS):
            raise ConfigError(f"bad label {self.label!r}")
        if not self.crops:
            raise ConfigError(f"{self.id}: needs at least one crop")
        shape = self.crops[0].shape
        if len(shape) != 2:
            raise ConfigError(f"{self.id}: a crop must be [Din, T], got shape {shape}")
        if any(c.shape != shape for c in self.crops):
            raise ConfigError(f"{self.id}: crops disagree on shape")
        t = shape[1]
        for name, arr in (("frame_gt", self.frame_gt),
                          ("pseudo_probs", self.pseudo_probs)):
            if arr is not None and len(arr) != t:
                raise ConfigError(f"{self.id}: {name} length {len(arr)} != T {t}")
        if self.frame_gt is not None:
            gt = np.asarray(self.frame_gt)
            if not ((gt == 0) | (gt == 1)).all():
                raise ConfigError(f"{self.id}: frame_gt values must be 0 or 1")
        if self.pseudo_probs is not None:
            p = np.asarray(self.pseudo_probs)
            if not ((p >= 0) & (p <= 1)).all():  # NaN fails both comparisons
                raise ConfigError(f"{self.id}: pseudo_probs must lie in [0, 1]")

    @property
    def is_anomalous(self):
        return self.label == LABEL_ANOMALOUS

    @property
    def num_frames(self):
        return self.crops[0].shape[1]

    @property
    def input_dim(self):
        return self.crops[0].shape[0]


def save_dataset(records, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        for rec in records:
            paths = []
            for i, crop in enumerate(rec.crops):
                rel = f"{rec.id}_crop{i}.feat"
                write_feature_file(out_dir / rel, crop)
                paths.append(rel)
            row = {"id": rec.id, "feature_files": paths, "label": rec.label}
            if rec.frame_gt is not None:
                row["frame_gt"] = rec.frame_gt.astype(np.int64).tolist()
            if rec.pseudo_probs is not None:
                row["pseudo_probs"] = rec.pseudo_probs.tolist()
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _numbers(row, key, where):
    """The optional per-frame manifest field `key` as a float64 vector, or None."""
    if key not in row:
        return None
    try:
        values = np.asarray(row[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FeatureFileError(f"{where}: {key!r} must be a list of numbers: {exc}") from exc
    if values.ndim != 1:
        raise FeatureFileError(f"{where}: {key!r} must be a list of numbers")
    return values


def load_dataset(in_dir):
    in_dir = Path(in_dir)
    manifest = in_dir / MANIFEST_NAME
    if not manifest.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {in_dir}")
    records = []
    first_line = {}  # video id -> the manifest line that named it
    with open(manifest, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{manifest}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise FeatureFileError(f"{where}: not UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FeatureFileError(f"{where}: not JSON: {exc}") from exc
            if not (isinstance(row, dict) and isinstance(row.get("id"), str)
                    and isinstance(row.get("label"), str)
                    and isinstance(row.get("feature_files"), list)
                    and all(isinstance(f, str) for f in row["feature_files"])):
                raise FeatureFileError(
                    f"{where}: a row must be an object with string 'id' "
                    "and 'label' and a list of strings 'feature_files'")
            if row["id"] in first_line:
                raise FeatureFileError(f"{where}: video id {row['id']!r} "
                                       f"repeats line {first_line[row['id']]}")
            first_line[row["id"]] = lineno
            crops = [read_feature_file(in_dir / rel) for rel in row["feature_files"]]
            frame_gt = _numbers(row, "frame_gt", where)
            pseudo_probs = _numbers(row, "pseudo_probs", where)
            try:
                records.append(VideoRecord(id=row["id"], crops=crops,
                                           label=row["label"], frame_gt=frame_gt,
                                           pseudo_probs=pseudo_probs))
            except ConfigError as exc:  # a row the record rejects is malformed
                raise FeatureFileError(f"{where}: {exc}") from exc
            if records[-1].input_dim != records[0].input_dim:
                raise FeatureFileError(
                    f"{where}: feature dimension {records[-1].input_dim} differs "
                    f"from {records[0].input_dim} of line {first_line[records[0].id]}")
    if not records:
        raise FeatureFileError(f"{manifest}: no video rows")
    return records


# ---------------------------------------------------------------------------
# synthetic benchmark
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SyntheticSpec:
    num_videos: int = 200
    t_min: int = 64
    t_max: int = 128
    input_dim: int = 64
    anomaly_fraction: float = 0.5
    anomaly_durations: tuple = (2, 6, 18, 54)
    snr: float = 3.0
    label_noise: float = 0.1
    num_crops: int = 1
    smoothing: float = 0.7   # AR(1) coefficient of the background process
    seed: int = 0

    def __post_init__(self):
        if self.num_videos < 1 or self.input_dim < 1 or self.num_crops < 1:
            raise ConfigError("num_videos/input_dim/num_crops must be positive")
        if not 1 <= self.t_min <= self.t_max:
            raise ConfigError("need 1 <= t_min <= t_max")
        if not 0.0 <= self.anomaly_fraction <= 1.0:
            raise ConfigError("anomaly_fraction must lie in [0, 1]")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ConfigError("label_noise must lie in [0, 1]")
        if not 0 <= self.snr < math.inf:  # NaN fails too
            raise ConfigError("snr must be finite and >= 0")
        if not self.anomaly_durations:
            raise ConfigError("need at least one anomaly duration")
        if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool)
                   and d >= 1 for d in self.anomaly_durations):
            raise ConfigError(f"anomaly durations must be integers >= 1, "
                              f"got {self.anomaly_durations!r}")
        if not self.smoothing < 1.0:  # NaN fails too; <= 0 means white noise
            raise ConfigError("smoothing must be < 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def anomaly_directions(spec: SyntheticSpec):
    """Unit direction per planted anomaly class, fixed by the spec seed."""
    rng = np.random.default_rng([spec.seed, 0xD1])
    dirs = rng.standard_normal((len(spec.anomaly_durations), spec.input_dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


_GROUP_FLOATS = 1 << 18   # 2 MB of float64 per time-stepping buffer


def _backgrounds(spec: SyntheticSpec):
    """(video index, its generator, its background [Din, T]) in video order.

    Each background is an AR(1)-smoothed Gaussian process with stationary
    unit marginal variance: out[0] = white[0] and, for i >= 1,
    out[i] = smoothing * out[i-1] + sqrt(1 - smoothing**2) * white[i];
    smoothing <= 0 returns the white draws unchanged.

    Video v owns the generator (seed, 0xA0, v) and draws T, then
    white = standard_normal((Din, T)); the caller then draws the rest of the
    video from the same generator. Videos never share a generator, so a
    group's white draws may all come before any of their other draws.

    Groups of videos are stepped through time together in one time-major
    buffer [T, videos, Din]. A group holds as many videos as keep that
    buffer at or under 2**18 floats (2 MB) at T = spec.t_max, and at least
    one. Each step multiplies in place and then adds, which swaps the
    addition's operands and so keeps every byte of the per-video loop.
    """
    dim = spec.input_dim
    group = max(1, _GROUP_FLOATS // (spec.t_max * dim))
    for first in range(0, spec.num_videos, group):
        videos = range(first, min(first + group, spec.num_videos))
        rngs = [np.random.default_rng([spec.seed, 0xA0, v]) for v in videos]
        whites = []
        for rng in rngs:
            t = int(rng.integers(spec.t_min, spec.t_max + 1))
            whites.append(rng.standard_normal((dim, t)))
        if spec.smoothing <= 0:
            yield from zip(videos, rngs, whites)
            continue
        lengths = [w.shape[1] for w in whites]
        steps = np.zeros((max(lengths), len(whites), dim))
        for v, (white, t) in enumerate(zip(whites, lengths)):
            steps[:t, v] = white.T
        scale = math.sqrt(1.0 - spec.smoothing ** 2)
        for i in range(1, len(steps)):
            steps[i] *= scale
            steps[i] += spec.smoothing * steps[i - 1]
        for v, (video, rng) in enumerate(zip(videos, rngs)):
            # a C-order copy: one-frame videos keep the strides (8, 8)
            yield video, rng, steps[:lengths[v], v].T.copy()


def synthesize_dataset(spec: SyntheticSpec):
    """Deterministic planted-anomaly videos.

    Normal frames follow a smoothed Gaussian background; anomalous videos
    carry 1-3 planted segments whose frames add a class direction scaled by
    snr. Pseudo-probabilities emulate offline vision-language labels: the
    frame ground truth with a label_noise flip rate, mapped into (0, 1).
    """
    dirs = anomaly_directions(spec)
    n_abn = round(spec.num_videos * spec.anomaly_fraction)
    records = []
    for v, rng, base in _backgrounds(spec):
        t = base.shape[1]
        gt = np.zeros(t)
        anomalous = v < n_abn
        if anomalous:
            for _ in range(int(rng.integers(1, 4))):
                cls = int(rng.integers(len(spec.anomaly_durations)))
                dur = min(spec.anomaly_durations[cls], t)
                start = int(rng.integers(0, t - dur + 1))
                base[:, start:start + dur] += spec.snr * dirs[cls][:, None]
                gt[start:start + dur] = 1.0
        flip = rng.random(t) < spec.label_noise
        noisy = np.where(flip, 1.0 - gt, gt)
        pseudo = np.where(noisy > 0.5,
                          rng.uniform(0.55, 0.95, t),
                          rng.uniform(0.05, 0.45, t))
        crops = [base]
        for _ in range(spec.num_crops - 1):
            crops.append(base + 0.1 * rng.standard_normal(base.shape))
        records.append(VideoRecord(
            id=f"video{v:04d}",
            crops=crops,
            label=LABEL_ANOMALOUS if anomalous else LABEL_NORMAL,
            frame_gt=gt,
            pseudo_probs=pseudo))
    return records


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Batch:
    """One row per video (its first crop) in train mode, one row per crop in
    eval mode (a video's crops in consecutive rows); every field is per row."""

    video_ids: list
    features: np.ndarray     # [B, Din, Tmax], zero-padded; channel-major
    mask: np.ndarray         # [B, Tmax], 1 on real frames
    labels: np.ndarray       # [B], 1 = anomalous
    pseudo_probs: np.ndarray # [B, Tmax], 0 outside mask / when absent
    has_pseudo: np.ndarray   # [B]


def _collate(records, every_crop=False):
    rows = [(r, crop) for r in records
            for crop in (r.crops if every_crop else r.crops[:1])]
    b = len(rows)
    din = records[0].input_dim
    tmax = max(r.num_frames for r in records)
    feats = frame_buffer(b, din, tmax, zero=True)
    mask = np.zeros((b, tmax))
    labels = np.zeros(b)
    pseudo = np.zeros((b, tmax))
    has_pseudo = np.zeros(b)
    for i, (r, crop) in enumerate(rows):
        if r.input_dim != din:
            raise ConfigError("batch mixes feature dimensions")
        t = r.num_frames
        feats[i, :, :t] = crop
        mask[i, :t] = 1.0
        labels[i] = 1.0 if r.is_anomalous else 0.0
        if r.pseudo_probs is not None:
            pseudo[i, :t] = r.pseudo_probs
            has_pseudo[i] = 1.0
    return Batch([r.id for r, _ in rows], feats, mask, labels, pseudo,
                 has_pseudo)


def _rebalance(chunks, labels):
    """Swap videos between chunks so each holds both classes when possible."""
    for ci, chunk in enumerate(chunks):
        present = {labels[i] for i in chunk}
        if len(present) > 1 or len(chunk) < 2:
            continue
        (only,) = present
        for cj, other in enumerate(chunks):
            if cj == ci:
                continue
            donors = [k for k, i in enumerate(other) if labels[i] != only]
            if len(donors) >= 2:
                k = donors[0]
                chunk[0], other[k] = other[k], chunk[0]
                break
    return chunks


def batch_iter(records, batch_size, seed=0, mode="eval", epoch=0):
    """Batches of collated videos.

    Train mode shuffles with a permutation derived from (seed, epoch) and
    rebalances so every batch contains both classes when possible, and
    collates each video's first crop; eval mode preserves input order and
    collates every crop. Fully deterministic.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"bad batch mode {mode!r}")
    idx = list(range(len(records)))
    if mode == "train":
        rng = np.random.default_rng([seed, 0xB5, epoch])
        idx = list(rng.permutation(len(records)))
        chunks = [idx[i:i + batch_size] for i in range(0, len(idx), batch_size)]
        labels = [1 if records[i].is_anomalous else 0 for i in range(len(records))]
        chunks = _rebalance(chunks, labels)
    else:
        chunks = [idx[i:i + batch_size] for i in range(0, len(idx), batch_size)]
    for chunk in chunks:
        yield _collate([records[i] for i in chunk], every_crop=mode == "eval")
