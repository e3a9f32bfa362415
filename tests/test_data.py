"""Feature files, manifests, the synthetic benchmark, and batching."""

import json
import re
import struct
import zlib

import numpy as np
import pytest

from dams.amtpn import ConfigError
from dams.data import (BadMagicError, BadVersionError, ChecksumError,
                       FeatureFileError, SyntheticSpec, TruncatedFileError,
                       VideoRecord, anomaly_directions, batch_iter,
                       load_dataset, read_feature_file, save_dataset,
                       synthesize_dataset, tencrop_aggregate,
                       write_feature_file)
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


class TestDatasetRoundTrip:
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
        for batch in batch_iter(records, 3, mode="eval"):
            for i, rec in enumerate(batch.records):
                t = rec.num_frames
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
        for batch in batch_iter(records, 3, mode="eval"):
            for i, rec in enumerate(batch.records):
                t = rec.num_frames
                assert np.array_equal(batch.features[i, :, :t], rec.crops[0])

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            list(batch_iter(self._records(), 2, mode="sideways"))


class TestTencrop:
    def test_single_crop_identity(self):
        s = rng(0).random(7)
        np.testing.assert_array_equal(tencrop_aggregate([s]), s)

    def test_pairwise_mean(self):
        a = np.full(5, 0.2)
        b = np.full(5, 0.8)
        np.testing.assert_allclose(tencrop_aggregate([a, b]), 0.5)

    def test_permutation_invariant(self):
        crops = [rng(i).random(6) for i in range(4)]
        fwd = tencrop_aggregate(crops)
        rev = tencrop_aggregate(crops[::-1])
        np.testing.assert_allclose(fwd, rev, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            tencrop_aggregate([])


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

    def test_invalid_utf8_is_a_format_error_with_line(self, tmp_path):
        manifest = self._dataset(tmp_path)
        manifest.write_bytes(manifest.read_bytes() + b"\xff\xfe\n")
        with pytest.raises(FeatureFileError,
                           match=re.escape(f"{manifest}:2: not UTF-8")):
            load_dataset(tmp_path)
