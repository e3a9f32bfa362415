"""Training loop: determinism, checkpoints, resume, config schema, ablation
plumbing."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dams
from dams.amtpn import ConfigError, PyramidConfig
from dams.cbam import CbamConfig
from dams.data import (BadMagicError, ChecksumError, FeatureFileError,
                       SyntheticSpec, synthesize_dataset)
from dams.losses import LossConfig, NonFiniteLossError
from dams.metrics import average_precision, roc_auc
from dams.model import ClipPathConfig, ModelConfig
from dams.trainer import (ABLATION_VARIANTS, Adam, TrainConfig, apply_variant,
                          build_model, config_from_dict, config_hash,
                          config_to_dict, evaluate, load_checkpoint,
                          load_model_for_inference, save_checkpoint,
                          score_video, train)

SMALL_MODEL = ModelConfig(input_dim=6, channels=8, depth=1, head_hidden=4,
                          pyramid=PyramidConfig(scales=(1, 3), channels=8,
                                                reduction_ratio=2),
                          cbam=CbamConfig(reduction_ratio=2, temporal_kernel=3))


def small_records(n=8, seed=0):
    return synthesize_dataset(SyntheticSpec(num_videos=n, t_min=6, t_max=10,
                                            input_dim=6, seed=seed))


def small_config(**kw):
    base = dict(max_iterations=4, validate_every=2, batch_size=4,
                seed=0, model=SMALL_MODEL)
    base.update(kw)
    return TrainConfig(**base)


class TestConfigSchema:
    def test_round_trip(self):
        cfg = small_config()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_unknown_key_rejected(self):
        d = config_to_dict(small_config())
        d["learning_rte"] = 0.1
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_nested_unknown_key_rejected(self):
        d = config_to_dict(small_config())
        d["model"]["chanels"] = 16
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_json_round_trip(self):
        cfg = small_config()
        blob = json.dumps(config_to_dict(cfg))
        assert config_from_dict(json.loads(blob)) == cfg

    @pytest.mark.parametrize("kw", [{"learning_rate": 0.0},
                                    {"beta1": 1.0},
                                    {"batch_size": 0},
                                    {"pseudo_threshold": 1.0},
                                    {"weight_decay": -0.1}])
    def test_bad_values(self, kw):
        with pytest.raises(ConfigError):
            small_config(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("cls, field", [
        (TrainConfig, "learning_rate"), (TrainConfig, "adam_eps"),
        (TrainConfig, "weight_decay"), (LossConfig, "focal_gamma"),
        (LossConfig, "triplet_margin"), (SyntheticSpec, "snr"),
        (ClipPathConfig, "temperature"), (ClipPathConfig, "scaling")])
    def test_non_finite_values_rejected(self, cls, field, value):
        with pytest.raises(ConfigError, match=field):
            cls(**{field: value})

    def test_hash_sensitive_to_any_field(self):
        a = config_hash(small_config())
        b = config_hash(small_config(seed=1))
        assert a != b


class TestAdam:
    def test_single_step_matches_hand_formula(self):
        from dams.kernel import Parameter
        p = Parameter(np.asarray([1.0]), "p")
        p.grad[:] = 0.5
        opt = Adam([p], lr=0.1)
        opt.step()
        m = 0.1 * 0.5
        v = 0.001 * 0.25
        mhat = m / (1 - 0.9)
        vhat = v / (1 - 0.999)
        expected = 1.0 - 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(p.value, [expected], atol=1e-15)

    def test_duplicate_names_rejected(self):
        from dams.kernel import Parameter
        with pytest.raises(ConfigError):
            Adam([Parameter(np.zeros(1), "x"), Parameter(np.zeros(1), "x")],
                 lr=0.1)

    def test_weight_decay_pulls_to_zero(self):
        from dams.kernel import Parameter
        p = Parameter(np.asarray([1.0]), "p")
        opt = Adam([p], lr=0.01, weight_decay=0.1)
        for _ in range(50):
            p.zero_grad()
            opt.step()
        assert abs(p.value[0]) < 1.0


class TestCheckpointFormat:
    def _arrays(self):
        r = np.random.default_rng(0)
        return {"b": r.standard_normal((2, 3)), "a": r.standard_normal(4),
                "c": r.standard_normal((1, 2, 2))}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.ckpt"
        arrays = self._arrays()
        save_checkpoint(path, arrays, {"iteration": 7})
        loaded, meta = load_checkpoint(path)
        assert meta == {"iteration": 7}
        for k, v in arrays.items():
            assert np.array_equal(loaded[k], v)

    def test_byte_deterministic(self, tmp_path):
        arrays = self._arrays()
        save_checkpoint(tmp_path / "1.ckpt", arrays, {"x": 1})
        save_checkpoint(tmp_path / "2.ckpt", arrays, {"x": 1})
        assert ((tmp_path / "1.ckpt").read_bytes()
                == (tmp_path / "2.ckpt").read_bytes())

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, self._arrays(), {})
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._arrays(), {})
        blob = bytearray(path.read_bytes())
        blob[0] = 0
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)


class TestTraining:
    def test_zero_iterations_keeps_initialization(self, tmp_path):
        records = small_records()
        cfg = small_config(max_iterations=0)
        result = train(cfg, records, out_dir=tmp_path)
        fresh, _ = build_model(cfg)
        for a, b in zip(result.model.params(), fresh.params()):
            assert np.array_equal(a.value, b.value)

    def test_deterministic_runs(self, tmp_path):
        records = small_records()
        cfg = small_config()
        r1 = train(cfg, records, records[:4], out_dir=tmp_path / "a")
        r2 = train(cfg, records, records[:4], out_dir=tmp_path / "b")
        for p, q in zip(r1.model.params(), r2.model.params()):
            assert np.array_equal(p.value, q.value)
        assert ((tmp_path / "a" / "checkpoint_final.ckpt").read_bytes()
                == (tmp_path / "b" / "checkpoint_final.ckpt").read_bytes())
        assert ((tmp_path / "a" / "log.jsonl").read_bytes()
                == (tmp_path / "b" / "log.jsonl").read_bytes())

    def test_non_finite_gradient_names_iteration_parameter_videos(self,
                                                                monkeypatch):
        """A NaN gradient stops training before Adam takes it, naming the
        iteration, the first bad parameter in params() order and the batch."""
        real = dams.trainer.train_step
        seen = {}

        def poisoned(model, weights, batch, cfg, iteration):
            breakdown = real(model, weights, batch, cfg, iteration)
            if iteration == 1:
                params = model.params()
                params[5].grad.flat[-1] = np.inf
                params[3].grad.flat[0] = np.nan
                seen.update(params=params, values=[p.value.copy() for p in params],
                            message=f"iteration 2: non-finite gradient of "
                                    f"{params[3].name} on videos {batch.video_ids}")
            return breakdown

        monkeypatch.setattr(dams.trainer, "train_step", poisoned)
        with pytest.raises(NonFiniteLossError) as info:
            train(small_config(), small_records())
        assert str(info.value) == seen["message"]
        for p, before in zip(seen["params"], seen["values"]):
            assert np.array_equal(p.value, before)

    def test_loss_decreases(self):
        records = small_records(12)
        cfg = small_config(max_iterations=60, validate_every=10**9)
        result = train(cfg, records)
        first = np.mean([h["total"] for h in result.history[:5]])
        last = np.mean([h["total"] for h in result.history[-5:]])
        assert last < first

    def test_log_lines_schema(self, tmp_path):
        records = small_records()
        train(small_config(), records, records[:4], out_dir=tmp_path)
        lines = (tmp_path / "log.jsonl").read_text().splitlines()
        assert len(lines) == 4
        for i, line in enumerate(lines):
            entry = json.loads(line)
            assert {"iter", "l_pse", "l_cls", "l_trip", "total",
                    "sigma2"} <= set(entry)
            assert len(entry["sigma2"]) == 3
            if entry["iter"] % 2 == 0:
                assert "val_auc" in entry and "val_ap" in entry

    def test_skipped_iteration_validates_on_schedule(self):
        """Every batch of one one-frame video is skipped, yet iterations 2 and
        4 validate and log a line without loss fields; the first of two equal
        AUCs is the best."""
        records = synthesize_dataset(SyntheticSpec(num_videos=4, t_min=1, t_max=1,
                                                   input_dim=6))
        val = synthesize_dataset(SyntheticSpec(num_videos=2, t_min=3, t_max=3,
                                               input_dim=6, seed=1))
        assert {0.0, 1.0} <= set(np.concatenate([r.frame_gt for r in val]))
        result = train(small_config(batch_size=1), records, val)
        assert [sorted(h) for h in result.history] == [["iter", "val_ap", "val_auc"]] * 2
        assert [h["iter"] for h in result.history] == [2, 4]
        assert math.isfinite(result.best_auc) and result.best_iteration == 2

    def test_validation_does_not_mutate_state(self):
        records = small_records()
        cfg_with = small_config(validate_every=1)
        cfg_without = small_config(validate_every=10**9)
        assert config_hash(cfg_with) != config_hash(cfg_without)
        r_with = train(cfg_with, records, records[:4])
        r_without = train(cfg_without, records)
        for p, q in zip(r_with.model.params(), r_without.model.params()):
            assert np.array_equal(p.value, q.value)

    def test_resume_is_bit_identical(self, tmp_path):
        records = small_records(10)
        full_cfg = small_config(max_iterations=8)
        full = train(full_cfg, records, records[:4], out_dir=tmp_path / "full")

        # emulate an interrupted run: step the first 4 iterations manually
        # under the full config, save a checkpoint, then resume to 8
        mid_cfg = full_cfg
        from dams.trainer import Adam as _Adam, _all_state, train_step
        from dams.data import batch_iter
        model, weights = build_model(mid_cfg)
        params = model.params() + weights.params()
        opt = _Adam(params, mid_cfg.learning_rate, mid_cfg.beta1,
                    mid_cfg.beta2, mid_cfg.adam_eps)
        batches = list(batch_iter(records, mid_cfg.batch_size, mid_cfg.seed,
                                  "train", 0))
        bpe = len(batches)
        for it in range(4):
            if it % bpe == 0 and it > 0:
                batches = list(batch_iter(records, mid_cfg.batch_size,
                                          mid_cfg.seed, "train", it // bpe))
            for p in params:
                p.zero_grad()
            train_step(model, weights, batches[it % bpe], mid_cfg, it)
            opt.step()
        arrays = _all_state(model, weights, opt)
        state = dict(model.state_arrays())
        state["uncertainty.rho"] = weights.rho.value
        arrays.update({f"best/{k}": v for k, v in state.items()})
        mid_path = tmp_path / "mid.ckpt"
        save_checkpoint(mid_path, arrays,
                        {"iteration": 4, "adam_t": opt.t, "best_auc": -1.0,
                         "best_iteration": -1,
                         "config": config_to_dict(mid_cfg),
                         "config_hash": config_hash(mid_cfg)})

        resumed = train(mid_cfg, records, records[:4],
                        out_dir=tmp_path / "resumed", resume=mid_path)
        for p, q in zip(full.model.params(), resumed.model.params()):
            assert np.array_equal(p.value, q.value)

    @pytest.mark.parametrize("validate_every, split", [
        (100, 2), (2, 2), (3, 2), (2, 3), (100, 0)],
        ids=["no-validation", "validated-before-split", "validated-after-split",
             "split-between-validations", "split-at-zero"])
    def test_split_resume_writes_the_same_checkpoints(self, tmp_path,
                                                      validate_every, split):
        records = small_records(10)
        cfg = small_config(max_iterations=4, validate_every=validate_every)
        full = train(cfg, records, records[:4], out_dir=tmp_path / "full")
        train(dataclasses.replace(cfg, max_iterations=split), records,
              records[:4], out_dir=tmp_path / "first")
        resumed = train(cfg, records, records[:4], out_dir=tmp_path / "resumed",
                        resume=tmp_path / "first" / "checkpoint_final.ckpt")
        for name in ("checkpoint_final.ckpt", "checkpoint_best.ckpt"):
            assert ((tmp_path / "full" / name).read_bytes()
                    == (tmp_path / "resumed" / name).read_bytes()), name
        assert (resumed.best_auc, resumed.best_iteration) == (
            full.best_auc, full.best_iteration)
        # the resumed run's log holds only the iterations it ran
        full_log = (tmp_path / "full" / "log.jsonl").read_text().splitlines()
        resumed_log = (tmp_path / "resumed" / "log.jsonl").read_text().splitlines()
        assert resumed_log == full_log[split:]

    def test_resume_config_mismatch_rejected(self, tmp_path):
        records = small_records()
        cfg = small_config()
        train(cfg, records, out_dir=tmp_path)
        other = small_config(seed=99)
        with pytest.raises(ConfigError):
            train(other, records, resume=tmp_path / "checkpoint_final.ckpt")

    def test_best_checkpoint_tracked(self, tmp_path):
        records = small_records(10)
        cfg = small_config(max_iterations=6, validate_every=2)
        result = train(cfg, records, records[:4], out_dir=tmp_path)
        assert result.best_iteration in (2, 4, 6)
        model, _, meta = load_model_for_inference(tmp_path / "checkpoint_best.ckpt")
        report = evaluate(model, records[:4])
        assert abs(report.auc - result.best_auc) < 1e-12

    def test_inference_load_missing_array_names_it(self, tmp_path):
        train(small_config(max_iterations=2), small_records(), out_dir=tmp_path)
        arrays, meta = load_checkpoint(tmp_path / "checkpoint_best.ckpt")
        missing = sorted(arrays)[0]
        del arrays[missing]
        save_checkpoint(tmp_path / "missing.ckpt", arrays, meta)
        with pytest.raises(FeatureFileError, match=re.escape(repr(missing))):
            load_model_for_inference(tmp_path / "missing.ckpt")

    def test_no_training_video_rejected(self):
        with pytest.raises(ConfigError, match="no training videos"):
            train(small_config(), [], small_records(4))

    def test_resume_missing_best_array_names_it(self, tmp_path):
        records = small_records()
        cfg = small_config()
        train(cfg, records, out_dir=tmp_path)
        arrays, meta = load_checkpoint(tmp_path / "checkpoint_final.ckpt")
        missing = sorted(k for k in arrays if k.startswith("best/"))[0]
        del arrays[missing]
        save_checkpoint(tmp_path / "nobest.ckpt", arrays, meta)
        with pytest.raises(FeatureFileError, match=re.escape(repr(missing))):
            train(cfg, records, resume=tmp_path / "nobest.ckpt")

    @pytest.mark.parametrize("key", ["adam_t", "iteration", "best_auc",
                                     "best_iteration"])
    @pytest.mark.parametrize("value", [None, "abc", -3, 2.5, True])
    def test_resume_bad_meta_entry_names_it(self, tmp_path, key, value):
        records = small_records()
        cfg = small_config()
        train(cfg, records, out_dir=tmp_path)
        arrays, meta = load_checkpoint(tmp_path / "checkpoint_final.ckpt")
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        save_checkpoint(tmp_path / "badmeta.ckpt", arrays, meta)
        with pytest.raises(FeatureFileError, match=re.escape(repr(key))):
            train(cfg, records, resume=tmp_path / "badmeta.ckpt")

    def test_wrong_shape_array_names_it(self, tmp_path):
        records = small_records()
        cfg = small_config(max_iterations=2)
        train(cfg, records, out_dir=tmp_path)
        arrays, meta = load_checkpoint(tmp_path / "checkpoint_final.ckpt")
        name = "uncertainty.rho"
        arrays[name] = np.append(arrays[name], 0.0)
        save_checkpoint(tmp_path / "wide.ckpt", arrays, meta)
        with pytest.raises(FeatureFileError, match=re.escape(repr(name))):
            train(cfg, records, resume=tmp_path / "wide.ckpt")
        with pytest.raises(FeatureFileError, match=re.escape(repr(name))):
            load_model_for_inference(tmp_path / "wide.ckpt")

    def test_inference_load_without_config_names_it(self, tmp_path):
        save_checkpoint(tmp_path / "bare.ckpt", {"a": [1.0]}, {})
        with pytest.raises(FeatureFileError, match="'config'"):
            load_model_for_inference(tmp_path / "bare.ckpt")


# Runs in a fresh interpreter, whose heap holds only what this script made:
# one `train` call, then three steps on one criterion-5 batch (30 videos,
# T 64-128), counting the minor page faults of those steps.
FAULT_SCRIPT = """
import json, resource
from dams import data, kernel, trainer
from dams.amtpn import PyramidConfig
from dams.cbam import CbamConfig
from dams.model import ModelConfig

model = ModelConfig(input_dim=64, channels=16, depth=1,
                    pyramid=PyramidConfig(scales=(1, 3, 9, 27), channels=16,
                                          reduction_ratio=4),
                    cbam=CbamConfig(reduction_ratio=4, temporal_kernel=7))
records = data.synthesize_dataset(data.SyntheticSpec(seed=3))
cfg = trainer.TrainConfig(model=model, seed=1, max_iterations=1, batch_size=30)
result = trainer.train(cfg, records)
batch = next(data.batch_iter(records, cfg.batch_size, cfg.seed, "train", 0))
params = result.model.params() + result.weights.params()

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

before = faults()
for i in range(3):
    kernel.zero_grads(params)
    trainer.train_step(result.model, result.weights, batch, cfg, i)
print(json.dumps({"faults": faults() - before,
                  "heap_kept": trainer._keep_heap_mapped()}))
"""


class TestHeapPolicy:
    def test_steps_after_train_take_no_fresh_pages(self):
        """With the heap kept mapped, later steps reuse the pages of earlier
        ones (without it, this script took about 2 000 faults a step under
        glibc 2.36 and numpy 2.4)."""
        src = str(Path(dams.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["heap_kept"]:
            pytest.skip("the heap policy is set on glibc only")
        assert result["faults"] < 100


class TestEvaluate:
    def test_score_video_averages_crops(self):
        records = synthesize_dataset(SyntheticSpec(num_videos=2, t_min=6,
                                                   t_max=8, input_dim=6,
                                                   num_crops=3))
        model, _ = build_model(small_config())
        scores = score_video(model, records[0])
        assert scores.shape == (records[0].num_frames,)
        per_crop = [model.forward(c[None])  .frame_scores[0]
                    for c in records[0].crops]
        np.testing.assert_allclose(scores, np.mean(per_crop, axis=0),
                                   atol=1e-12)

    @pytest.mark.parametrize("batch_size", [1, 5, 12])
    def test_batched_evaluate_matches_one_video_scoring(self, batch_size):
        """Length-sorted batches of 3-crop videos of 1 to 40 frames, scored
        by a trained model: each video's scores are within 1e-12 of its crops
        run alone, the report rows come in input order, and AUC and AP are
        those of the one-video scores."""
        records = synthesize_dataset(SyntheticSpec(num_videos=12, t_min=1, t_max=40,
                                                   input_dim=6, num_crops=3, seed=2))
        model = train(small_config(max_iterations=3), small_records()).model
        report = evaluate(model, records, batch_size)
        assert [row["id"] for row in report.per_video] == [r.id for r in records]
        alone = [np.mean([model.forward(c[None]).frame_scores[0] for c in r.crops],
                         axis=0) for r in records]
        for row, want in zip(report.per_video, alone):
            np.testing.assert_allclose(row["scores"], want, rtol=0, atol=1e-12)
        scores = np.concatenate(alone)
        gt = np.concatenate([r.frame_gt for r in records])
        assert (report.auc, report.ap) == (roc_auc(scores, gt),
                                           average_precision(scores, gt))

    def test_evaluate_report_structure(self):
        records = small_records()
        model, _ = build_model(small_config())
        report = evaluate(model, records)
        assert 0.0 <= report.auc <= 1.0
        assert len(report.per_video) == len(records)
        d = report.to_dict()
        assert set(d) == {"auc", "ap", "per_video"}


MODULE_CLASSES = {"Conv1d", "Linear", "ConvBn", "AvgPool1d", "Relu",
                  "Sigmoid", "Sequential", "Gate", "Mean", "Max", "Tpp", "Aff", "Tce", "ChannelAttention",
                  "TemporalAttention", "Cbam", "Amtpn", "Backbone", "Head",
                  "DamsModel"}


def _cache_entries(model):
    """{class name: entries on its cache stacks} over every dams object
    reachable from `model` through attributes, lists and tuples."""
    entries, seen, todo = {}, set(), [model]
    while todo:
        obj = todo.pop()
        if isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif type(obj).__module__.startswith("dams.") and id(obj) not in seen:
            seen.add(id(obj))
            fields = dict(vars(obj))
            if "_caches" in fields:
                name = type(obj).__name__
                entries[name] = entries.get(name, 0) + len(fields.pop("_caches"))
            todo.extend(fields.values())
    return entries


class TestCacheStacks:
    def test_evaluate_leaves_no_cache(self):
        records = synthesize_dataset(SyntheticSpec(num_videos=6, t_min=6,
                                                   t_max=10, input_dim=6,
                                                   num_crops=10))
        model, _ = build_model(small_config())
        evaluate(model, records)
        assert _cache_entries(model) == dict.fromkeys(MODULE_CLASSES, 0)

    def test_train_with_validation_leaves_no_cache(self):
        val = synthesize_dataset(SyntheticSpec(num_videos=4, t_min=6, t_max=10,
                                               input_dim=6, num_crops=10,
                                               seed=1))
        result = train(small_config(max_iterations=5, validate_every=2),
                       small_records(), val)
        assert any("val_auc" in h for h in result.history[:-1])
        assert _cache_entries(result.model) == dict.fromkeys(MODULE_CLASSES, 0)


class TestAblationPlumbing:
    def test_variant_table_covers_switches(self):
        assert set(ABLATION_VARIANTS) == {
            "full", "no_amtpn", "no_cbam", "no_ca", "no_sa", "no_aff",
            "no_tce", "no_tpp", "no_l_pse", "no_l_trip"}

    def test_apply_variant_routes_switches(self):
        cfg = small_config()
        v = apply_variant(cfg, {"use_amtpn": False, "use_l_pse": False})
        assert not v.model.use_amtpn and not v.use_l_pse
        assert v.model.use_cbam and v.use_l_trip

    def test_full_variant_equals_plain_run(self):
        records = small_records()
        cfg = small_config()
        a = train(apply_variant(cfg, ABLATION_VARIANTS["full"]), records)
        b = train(cfg, records)
        for p, q in zip(a.model.params(), b.model.params()):
            assert np.array_equal(p.value, q.value)

    def test_loss_switch_zeroes_term(self):
        records = small_records(10)
        cfg = small_config(max_iterations=3, use_l_trip=False)
        result = train(cfg, records)
        assert all(h["l_trip"] == 0.0 for h in result.history)
