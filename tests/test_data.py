"""Feature files, manifests, the synthetic benchmark, and batching."""

import json
import math
import re
import struct
import zlib

import numpy as np
import pytest

from dams.amtpn import ConfigError
from dams.data import (LABEL_ANOMALOUS, LABEL_NORMAL, MANIFEST_NAME,
                       BadMagicError, BadVersionError, ChecksumError,
                       FeatureFileError, SyntheticSpec, TruncatedFileError,
                       VideoRecord, anomaly_directions, batch_iter,
                       load_dataset, read_feature_file, save_dataset,
                       synthesize_dataset, write_feature_file)
from dams.metrics import roc_auc
from dams.data import FORMAT_VERSION, read_container, write_container
from dams.trainer import load_checkpoint, save_checkpoint


def rng(seed=0):
    return np.random.default_rng(seed)


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        x = rng(0).standard_normal((4, 8, 16))
        path = tmp_path / "a.feat"
        write_feature_file(path, x)
        y = read_feature_file(path)
        assert np.array_equal(x, y) and y.dtype == np.float64

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4)])
    def test_all_ranks(self, tmp_path, shape):
        x = rng(1).standard_normal(shape)
        path = tmp_path / "r.feat"
        write_feature_file(path, x)
        assert np.array_equal(read_feature_file(path), x)

    def test_corrupt_payload_byte_checksum_error(self, tmp_path):
        path = tmp_path / "c.feat"
        write_feature_file(path, rng(2).standard_normal((2, 3)))
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF  # inside the payload
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            read_feature_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.feat"
        write_feature_file(path, np.ones(3))
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            read_feature_file(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.feat"
        write_feature_file(path, np.ones(3))
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(BadVersionError):
            read_feature_file(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.feat"
        write_feature_file(path, np.ones(3))
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(TruncatedFileError):
            read_feature_file(path)

    def test_empty_extent_rejected_at_write(self, tmp_path):
        with pytest.raises(FeatureFileError):
            write_feature_file(tmp_path / "e.feat", np.zeros((2, 0)))

    def test_rank_4_rejected(self, tmp_path):
        with pytest.raises(FeatureFileError):
            write_feature_file(tmp_path / "r4.feat", np.zeros((1, 1, 1, 1)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected_at_write_and_read(self, tmp_path, value):
        x = np.ones((2, 3))
        x[1, 2] = value
        path = tmp_path / "nf.feat"
        with pytest.raises(FeatureFileError, match=re.escape(f"{path}: non-finite")):
            write_feature_file(path, x)
        assert not path.exists()
        write_container(path, b"DAMSFEAT", {}, {"features": x})
        with pytest.raises(FeatureFileError, match=re.escape(f"{path}: non-finite")):
            read_feature_file(path)

    def test_byte_deterministic(self, tmp_path):
        x = rng(3).standard_normal((3, 5))
        write_feature_file(tmp_path / "1.feat", x)
        write_feature_file(tmp_path / "2.feat", x)
        assert (tmp_path / "1.feat").read_bytes() == (tmp_path / "2.feat").read_bytes()


class TestVideoRecord:
    def test_bad_label(self):
        with pytest.raises(ConfigError):
            VideoRecord("v", [np.ones((2, 3))], "weird")

    def test_crops_shape_disagreement(self):
        with pytest.raises(ConfigError):
            VideoRecord("v", [np.ones((2, 3)), np.ones((2, 4))], "normal")

    def test_gt_length_mismatch(self):
        with pytest.raises(ConfigError):
            VideoRecord("v", [np.ones((2, 3))], "normal", frame_gt=np.zeros(4))

    def test_properties(self):
        rec = VideoRecord("v", [np.ones((2, 3))], "anomalous")
        assert rec.is_anomalous and rec.num_frames == 3 and rec.input_dim == 2


def save_manifest_reference(records, out_dir):
    """The manifest rows `save_dataset` wrote with per-element conversions."""
    with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        for rec in records:
            paths = [f"{rec.id}_crop{i}.feat" for i in range(len(rec.crops))]
            row = {"id": rec.id, "feature_files": paths, "label": rec.label}
            if rec.frame_gt is not None:
                row["frame_gt"] = [int(v) for v in rec.frame_gt]
            if rec.pseudo_probs is not None:
                row["pseudo_probs"] = [float(v) for v in rec.pseudo_probs]
            fh.write(json.dumps(row, sort_keys=True) + "\n")


class TestDatasetRoundTrip:
    def test_manifest_bytes_match_per_element_rows(self, tmp_path):
        records = synthesize_dataset(SyntheticSpec(num_videos=6, t_min=1,
                                                   t_max=9, input_dim=3,
                                                   num_crops=2))
        records[1].frame_gt = None
        records[2].pseudo_probs = None
        save_dataset(records, tmp_path / "new")
        for recs, name in ((records, "old"), (load_dataset(tmp_path / "new"), "reloaded")):
            (tmp_path / name).mkdir()
            save_manifest_reference(recs, tmp_path / name)
            assert ((tmp_path / name / MANIFEST_NAME).read_bytes()
                    == (tmp_path / "new" / MANIFEST_NAME).read_bytes())

    def test_save_load(self, tmp_path):
        records = synthesize_dataset(SyntheticSpec(num_videos=6, t_min=4,
                                                   t_max=8, input_dim=5,
                                                   num_crops=2))
        save_dataset(records, tmp_path)
        loaded = load_dataset(tmp_path)
        assert len(loaded) == 6
        for a, b in zip(records, loaded):
            assert a.id == b.id and a.label == b.label
            assert len(b.crops) == 2
            for ca, cb in zip(a.crops, b.crops):
                assert np.array_equal(ca, cb)
            assert np.array_equal(a.frame_gt, b.frame_gt)
            np.testing.assert_allclose(a.pseudo_probs, b.pseudo_probs,
                                       atol=1e-15)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)


class TestSyntheticDataset:
    def test_determinism(self):
        spec = SyntheticSpec(num_videos=8, t_min=6, t_max=10, input_dim=4)
        a = synthesize_dataset(spec)
        b = synthesize_dataset(spec)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.crops[0], rb.crops[0])
            assert np.array_equal(ra.frame_gt, rb.frame_gt)
            assert np.array_equal(ra.pseudo_probs, rb.pseudo_probs)

    def test_zero_anomaly_fraction(self):
        records = synthesize_dataset(SyntheticSpec(num_videos=10, t_min=4,
                                                   t_max=6, input_dim=3,
                                                   anomaly_fraction=0.0))
        assert all(not r.is_anomalous for r in records)
        assert all(not r.frame_gt.any() for r in records)

    def test_snr_zero_detector_is_chance(self):
        # with no planted signal, projecting onto the "true" directions
        # ranks frames at chance level over repeated draws
        aucs = []
        for seed in range(10):
            spec = SyntheticSpec(num_videos=20, t_min=32, t_max=48,
                                 input_dim=8, snr=0.0, seed=seed)
            records = synthesize_dataset(spec)
            dirs = anomaly_directions(spec)
            scores, labels = [], []
            for r in records:
                proj = np.abs(dirs @ r.crops[0]).max(axis=0)
                scores.append(proj)
                labels.append(r.frame_gt)
            aucs.append(roc_auc(np.concatenate(scores), np.concatenate(labels)))
        assert abs(np.mean(aucs) - 0.5) < 0.05

    def test_default_snr_oracle_detector_strong(self):
        spec = SyntheticSpec(num_videos=40)
        records = synthesize_dataset(spec)
        dirs = anomaly_directions(spec)
        scores, labels = [], []
        for r in records:
            scores.append((dirs @ r.crops[0]).max(axis=0))
            labels.append(r.frame_gt)
        assert roc_auc(np.concatenate(scores), np.concatenate(labels)) >= 0.95

    def test_segment_count_and_durations(self):
        spec = SyntheticSpec(num_videos=30, anomaly_fraction=1.0)
        for rec in synthesize_dataset(spec):
            gt = rec.frame_gt
            edges = np.flatnonzero(np.diff(np.concatenate([[0.0], gt, [0.0]])))
            segments = edges.reshape(-1, 2)
            assert 1 <= len(segments) <= 3

    def test_pseudo_probs_track_gt_with_noise(self):
        records = synthesize_dataset(SyntheticSpec(num_videos=50))
        agree = total = 0
        for r in records:
            hard = (r.pseudo_probs > 0.5).astype(float)
            agree += (hard == r.frame_gt).sum()
            total += len(hard)
        assert 0.85 <= agree / total <= 0.95  # 10% flip rate

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(anomaly_fraction=1.5)
        with pytest.raises(ConfigError):
            SyntheticSpec(t_min=10, t_max=5)
        with pytest.raises(ConfigError):
            SyntheticSpec(snr=-1.0)
        for smoothing in (1.0, 1.5, math.nan, math.inf):
            with pytest.raises(ConfigError, match="smoothing"):
                SyntheticSpec(smoothing=smoothing)
        for smoothing in (0.0, -0.5, 0.999):  # <= 0 is white noise
            SyntheticSpec(smoothing=smoothing)
        for durations in ((0,), (-3,), (2, 0), (2.0,), (True,)):
            with pytest.raises(ConfigError, match="anomaly durations"):
                SyntheticSpec(num_videos=6, anomaly_fraction=1.0,
                              anomaly_durations=durations, seed=1)
        SyntheticSpec(anomaly_durations=(1, np.int64(3)))


def background_reference(rng, dim, t, smoothing):
    """The per-video AR(1) loop over frames that `_backgrounds` replaced."""
    white = rng.standard_normal((dim, t))
    if smoothing <= 0:
        return white
    out = np.empty_like(white)
    scale = math.sqrt(1.0 - smoothing ** 2)
    out[:, 0] = white[:, 0]
    for i in range(1, t):
        out[:, i] = smoothing * out[:, i - 1] + scale * white[:, i]
    return out


def synthesize_reference(spec):
    """`synthesize_dataset` as one video at a time, each with its own loop."""
    dirs = anomaly_directions(spec)
    n_abn = round(spec.num_videos * spec.anomaly_fraction)
    records = []
    for v in range(spec.num_videos):
        rng = np.random.default_rng([spec.seed, 0xA0, v])
        t = int(rng.integers(spec.t_min, spec.t_max + 1))
        base = background_reference(rng, spec.input_dim, t, spec.smoothing)
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
            id=f"video{v:04d}", crops=crops,
            label=LABEL_ANOMALOUS if anomalous else LABEL_NORMAL,
            frame_gt=gt, pseudo_probs=pseudo))
    return records


class TestSynthesisBytes:
    """Grouped time-stepping gives the per-video loop's bytes and strides."""

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(num_videos=1),
        SyntheticSpec(num_videos=31, seed=1),         # one short group of 32
        SyntheticSpec(num_videos=33, seed=2),         # a one-video last group
        SyntheticSpec(num_videos=70, seed=3),         # 32 + 32 + 6
        SyntheticSpec(num_videos=5, input_dim=1024, seed=4),  # groups of 2
        SyntheticSpec(num_videos=40, t_min=1, t_max=3, input_dim=5, seed=5),
        SyntheticSpec(num_videos=12, t_min=37, t_max=37, seed=6),
        SyntheticSpec(num_videos=9, smoothing=0.0, seed=7),
        SyntheticSpec(num_videos=9, smoothing=-0.5, seed=8),
        SyntheticSpec(num_videos=10, num_crops=10, seed=9),
    ], ids=["1", "31", "33", "70", "dim1024", "t_min1", "t_fixed",
            "smoothing0", "smoothing_neg", "tencrop"])
    def test_matches_per_video_loop(self, spec):
        got = synthesize_dataset(spec)
        want = synthesize_reference(spec)
        assert [(r.id, r.label) for r in got] == [(r.id, r.label) for r in want]
        for a, b in zip(got, want):
            assert a.frame_gt.tobytes() == b.frame_gt.tobytes()
            assert a.pseudo_probs.tobytes() == b.pseudo_probs.tobytes()
            assert len(a.crops) == len(b.crops)
            for ca, cb in zip(a.crops, b.crops):
                assert ca.shape == cb.shape and ca.strides == cb.strides
                assert ca.tobytes() == cb.tobytes()


class TestBatching:
    def _records(self, n=7, seed=0):
        return synthesize_dataset(SyntheticSpec(num_videos=n, t_min=4,
                                                t_max=9, input_dim=3,
                                                seed=seed))

    def test_eval_preserves_order(self):
        records = self._records()
        ids = [vid for b in batch_iter(records, 3, mode="eval")
               for vid in b.video_ids]
        assert ids == [r.id for r in records]

    def test_mask_marks_padded_tail(self):
        records = self._records()
        by_id = {r.id: r for r in records}
        for batch in batch_iter(records, 3, mode="eval"):
            for i, vid in enumerate(batch.video_ids):
                t = by_id[vid].num_frames
                assert batch.mask[i, :t].all()
                assert not batch.mask[i, t:].any()
                assert not batch.features[i, :, t:].any()

    def test_train_shuffle_reproducible(self):
        records = self._records(12)
        a = [b.video_ids for b in batch_iter(records, 4, seed=3, mode="train")]
        b = [b.video_ids for b in batch_iter(records, 4, seed=3, mode="train")]
        assert a == b
        c = [b.video_ids for b in batch_iter(records, 4, seed=4, mode="train")]
        assert a != c

    def test_epochs_reshuffle(self):
        records = self._records(12)
        a = [b.video_ids for b in batch_iter(records, 4, seed=3, mode="train",
                                             epoch=0)]
        b = [b.video_ids for b in batch_iter(records, 4, seed=3, mode="train",
                                             epoch=1)]
        assert a != b

    def test_train_batches_balanced(self):
        records = synthesize_dataset(SyntheticSpec(num_videos=20, t_min=4,
                                                   t_max=6, input_dim=3))
        for epoch in range(5):
            for batch in batch_iter(records, 5, seed=0, mode="train",
                                    epoch=epoch):
                assert 0 < batch.labels.sum() < len(batch.labels)

    def test_no_crop_mixing(self):
        records = self._records()
        by_id = {r.id: r for r in records}
        for batch in batch_iter(records, 3, mode="eval"):
            for i, vid in enumerate(batch.video_ids):
                rec = by_id[vid]
                t = rec.num_frames
                assert np.array_equal(batch.features[i, :, :t], rec.crops[0])

    def test_eval_stacks_every_crop(self):
        """Eval mode gives each crop a row, a video's crops in consecutive
        rows; train mode collates each video's first crop."""
        records = synthesize_dataset(SyntheticSpec(num_videos=5, t_min=4, t_max=9,
                                                   input_dim=3, num_crops=3))
        rows = [(b, i) for b in batch_iter(records, 2, mode="eval")
                for i in range(len(b.video_ids))]
        assert [b.video_ids[i] for b, i in rows] == [r.id for r in records
                                                     for _ in range(3)]
        for (b, i), (rec, crop) in zip(rows, [(r, c) for r in records for c in r.crops]):
            t = rec.num_frames
            assert np.array_equal(b.features[i, :, :t], crop)
            assert b.mask[i, :t].all() and not b.mask[i, t:].any()
            assert not b.features[i, :, t:].any()
        for batch in batch_iter(records, 2, mode="train"):
            assert len(batch.video_ids) == len(set(batch.video_ids))
            for i, vid in enumerate(batch.video_ids):
                rec = next(r for r in records if r.id == vid)
                assert np.array_equal(batch.features[i, :, :rec.num_frames],
                                      rec.crops[0])

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            list(batch_iter(self._records(), 2, mode="sideways"))


def _container_bytes(magic, version, body):
    """A container with a valid checksum around an arbitrary body."""
    blob = magic + struct.pack("<HQ", version, len(body)) + body
    return blob + struct.pack("<I", zlib.crc32(blob))


def _small_checkpoint(path):
    r = rng(5)
    save_checkpoint(path, {"w": r.standard_normal((2, 3)), "b": r.standard_normal(2)},
                    {"iteration": 7, "config_hash": "ab12"})


class TestContainer:
    def test_round_trip_names_shapes_meta(self, tmp_path):
        arrays = {"b": rng(0).standard_normal((2, 3)), "a": np.float64(1.5),
                  "z": np.zeros((0, 4))}
        write_container(tmp_path / "x", b"TESTMAGC", {"k": [1, "v"]}, arrays)
        loaded, meta = read_container(tmp_path / "x", b"TESTMAGC")
        assert meta == {"k": [1, "v"]} and list(loaded) == ["a", "b", "z"]
        for name, value in arrays.items():
            assert loaded[name].shape == np.shape(value)
            assert np.array_equal(loaded[name], value)

    def test_wrong_magic_for_the_kind(self, tmp_path):
        write_feature_file(tmp_path / "f.feat", np.ones(3))
        with pytest.raises(BadMagicError):
            load_checkpoint(tmp_path / "f.feat")

    def test_version_1_files_rejected(self, tmp_path):
        # the v1 layouts: a feature file with rank and extents in the
        # prefix, a checkpoint with a header length and a payload-only CRC
        payload = np.ones(3).astype("<f8").tobytes()
        feat = (b"DAMSFEAT" + struct.pack("<HBI", 1, 1, 3) + payload
                + struct.pack("<I", zlib.crc32(payload)))
        header = b'{"arrays": [["a", [3]]], "meta": {}}'
        ckpt = (b"DAMSCKPT" + struct.pack("<HQ", 1, len(header)) + header
                + payload + struct.pack("<I", zlib.crc32(payload)))
        (tmp_path / "v1.feat").write_bytes(feat)
        (tmp_path / "v1.ckpt").write_bytes(ckpt)
        with pytest.raises(BadVersionError):
            read_feature_file(tmp_path / "v1.feat")
        with pytest.raises(BadVersionError):
            load_checkpoint(tmp_path / "v1.ckpt")

    @pytest.mark.parametrize("body", [
        b'{"arrays": [], "meta": {}}',                    # no header newline
        b'{"arrays": [], "meta": \xff}\n',                # not UTF-8
        b'{"arrays": [], \n',                             # not JSON
        b'[]\n',                                          # not an object
        b'{"arrays": []}\n',                              # no meta
        b'{"arrays": [], "meta": 3}\n',                   # meta not an object
        b'{"arrays": {}, "meta": {}}\n',                  # arrays not a list
        b'{"arrays": [["a"]], "meta": {}}\n',             # entry not a pair
        b'{"arrays": [[1, [1]]], "meta": {}}\n',          # name not a string
        b'{"arrays": [["a", 1]], "meta": {}}\n',          # shape not a list
        b'{"arrays": [["a", [-1]]], "meta": {}}\n',       # negative extent
        b'{"arrays": [["a", [1.0]]], "meta": {}}\n',      # float extent
        b'{"arrays": [["a", [true]]], "meta": {}}\n',     # bool extent
        b'{"arrays": [["a", [2]]], "meta": {}}\n' + bytes(8),   # short payload
        b'{"arrays": [["a", [1]]], "meta": {}}\n' + bytes(16),  # long payload
        b'{"arrays": [["a", [1]], ["a", [1]]], "meta": {}}\n' + bytes(16),
    ])
    def test_bad_header_under_valid_checksum(self, tmp_path, body):
        path = tmp_path / "h.ckpt"
        path.write_bytes(_container_bytes(b"DAMSCKPT", FORMAT_VERSION, body))
        with pytest.raises(FeatureFileError):
            load_checkpoint(path)

    @pytest.mark.parametrize("arrays", [
        {"features": np.ones((1, 1, 1, 1))}, {"features": np.ones((2, 0))},
        {"features": np.float64(1.0)}, {"other": np.ones(3)},
        {"features": np.ones(3), "extra": np.ones(3)}])
    def test_feature_file_holds_one_array_of_rank_1_to_3(self, tmp_path, arrays):
        path = tmp_path / "odd.feat"
        write_container(path, b"DAMSFEAT", {}, arrays)
        with pytest.raises(FeatureFileError):
            read_feature_file(path)

    @pytest.mark.parametrize("kind", ["feature", "checkpoint"])
    def test_fuzz_flips_and_truncations_all_typed(self, tmp_path, kind):
        # every single-bit flip and every truncation must be rejected with a
        # FeatureFileError subclass: none accepted, none untyped
        src = tmp_path / "src"
        if kind == "feature":
            write_feature_file(src, rng(4).standard_normal((3, 5)))
            read = read_feature_file
        else:
            _small_checkpoint(src)
            read = load_checkpoint
        clean = src.read_bytes()
        r = np.random.default_rng(2024)
        path = tmp_path / "mutant"
        accepted, untyped = [], []
        for trial in range(2000):
            blob = bytearray(clean)
            if trial % 2:
                blob = blob[:int(r.integers(0, len(clean)))]
                what = f"truncated to {len(blob)}"
            else:
                bit = int(r.integers(0, 8 * len(clean)))
                blob[bit // 8] ^= 1 << (bit % 8)
                what = f"bit {bit} flipped"
            path.write_bytes(bytes(blob))
            try:
                read(path)
            except FeatureFileError:
                continue
            except Exception as exc:  # any other type is a failure, reported below
                untyped.append(f"{what}: {type(exc).__name__}")
                continue
            accepted.append(what)
        assert accepted == [] and untyped == [], (
            f"{len(accepted)} accepted, {len(untyped)} untyped: "
            f"{(accepted + untyped)[:5]}")


class TestManifestRows:
    # a valid row for the one video that save_dataset writes below
    GOOD = {"id": "v1", "feature_files": ["video0000_crop0.feat"], "label": "normal"}

    @pytest.mark.parametrize("line", [
        "{not json",
        "[1, 2]",
        json.dumps({k: v for k, v in GOOD.items() if k != "id"}),
        json.dumps(dict(GOOD, id=7)),
        json.dumps({k: v for k, v in GOOD.items() if k != "feature_files"}),
        json.dumps(dict(GOOD, feature_files="video0000_crop0.feat")),
        json.dumps(dict(GOOD, feature_files=[0])),
        json.dumps({k: v for k, v in GOOD.items() if k != "label"}),
        json.dumps(dict(GOOD, label=1)),
    ])
    def test_bad_row_is_a_format_error_with_line(self, tmp_path, line):
        save_dataset(synthesize_dataset(SyntheticSpec(num_videos=1, t_min=4,
                                                      t_max=4, input_dim=2)),
                     tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        rows = manifest.read_text() + json.dumps(self.GOOD) + "\n"
        manifest.write_text(rows)
        assert len(load_dataset(tmp_path)) == 2
        manifest.write_text(rows + "\n" + line + "\n")
        with pytest.raises(FeatureFileError, match=re.escape(f"{manifest}:4:")):
            load_dataset(tmp_path)

    def _dataset(self, tmp_path):
        save_dataset(synthesize_dataset(SyntheticSpec(num_videos=1, t_min=4,
                                                      t_max=4, input_dim=2)),
                     tmp_path)
        return tmp_path / "manifest.jsonl"

    @pytest.mark.parametrize("key", ["frame_gt", "pseudo_probs"])
    @pytest.mark.parametrize("value", ["abc", [0.0, "x"], [[0.0], [1.0, 2.0]], None, 3.0])
    def test_non_numeric_field_is_a_format_error_with_line(self, tmp_path, key,
                                                           value):
        manifest = self._dataset(tmp_path)
        manifest.write_text(manifest.read_text()
                            + json.dumps(dict(self.GOOD, **{key: value})) + "\n")
        with pytest.raises(FeatureFileError,
                           match=re.escape(f"{manifest}:2: {key!r}")):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("row", [
        dict(GOOD, frame_gt=[0, 1, 0]),          # T is 4
        dict(GOOD, pseudo_probs=[0.5] * 5),
        dict(GOOD, label="weird"),
        dict(GOOD, feature_files=[]),
        dict(GOOD, feature_files=["video0000_crop0.feat", "short.feat"]),
        dict(GOOD, frame_gt=[0, float("nan"), 1, 0]),   # frame_gt not 0/1
        dict(GOOD, frame_gt=[0, 2, 1, 0]),
        dict(GOOD, frame_gt=[0, -1, 1, 0]),
        dict(GOOD, frame_gt=[0, 0.5, 1, 0]),
    ])
    def test_record_fault_is_a_format_error_with_line(self, tmp_path, row):
        manifest = self._dataset(tmp_path)
        write_feature_file(tmp_path / "short.feat", np.zeros((2, 3)))
        manifest.write_text(manifest.read_text() + json.dumps(row) + "\n")
        with pytest.raises(FeatureFileError, match=re.escape(f"{manifest}:2: ")):
            load_dataset(tmp_path)

    def test_repeated_id_is_a_format_error_naming_both_lines(self, tmp_path):
        manifest = self._dataset(tmp_path)
        row = json.dumps(self.GOOD) + "\n"
        manifest.write_text(manifest.read_text() + row + row)
        with pytest.raises(FeatureFileError, match=re.escape(
                f"{manifest}:3: video id 'v1' repeats line 2")):
            load_dataset(tmp_path)

    def test_invalid_utf8_is_a_format_error_with_line(self, tmp_path):
        manifest = self._dataset(tmp_path)
        manifest.write_bytes(manifest.read_bytes() + b"\xff\xfe\n")
        with pytest.raises(FeatureFileError,
                           match=re.escape(f"{manifest}:2: not UTF-8")):
            load_dataset(tmp_path)
