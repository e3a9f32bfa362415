"""Command-line surface: subcommands, determinism, exit codes, artifacts."""

import csv
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from dams.cli import (EXIT_CONFIG, EXIT_FORMAT, EXIT_MISSING, EXIT_NUMERIC,
                      EXIT_OK, main)
from dams.data import (FEATURE_MAGIC, load_dataset, read_feature_file,
                       write_container, write_feature_file)
from dams.metrics import average_precision, roc_auc
from dams.trainer import (ABLATION_VARIANTS, EvalReport, apply_variant,
                          config_from_dict, config_hash, load_checkpoint,
                          load_model_for_inference, save_checkpoint, score_video)

SMALL_MODEL_JSON = {
    "model": {"input_dim": 6, "channels": 8, "depth": 1, "head_hidden": 4,
              "pyramid": {"scales": [1, 3], "channels": 8,
                          "reduction_ratio": 2},
              "cbam": {"reduction_ratio": 2, "temporal_kernel": 3}},
    "max_iterations": 4, "validate_every": 2, "batch_size": 4,
}

SYNTH_ARGS = ["--videos", "8", "--dim", "6", "--t-min", "6", "--t-max", "10"]


def write_config(tmp_path, **overrides):
    cfg = dict(SMALL_MODEL_JSON)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out)] + SYNTH_ARGS) == EXIT_OK
    return out


@pytest.fixture
def trained(tmp_path, dataset):
    run = tmp_path / "run"
    cfg = write_config(tmp_path)
    assert main(["train", "--dataset", str(dataset), "--out", str(run),
                 "--config", cfg]) == EXIT_OK
    return run


class TestSynth:
    def test_deterministic_directories(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--seed", "7"]
                        + SYNTH_ARGS) == EXIT_OK
        for fa in sorted(a.iterdir()):
            fb = b / fa.name
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_writes_manifest_and_spec(self, dataset):
        assert (dataset / "manifest.jsonl").is_file()
        assert (dataset / "spec.json").is_file()

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        capsys.readouterr()
        code = main(["synth", "--out", str(tmp_path / "d"), "--seed", "-1"]
                    + SYNTH_ARGS)
        assert code == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_nan_snr_exit_code(self, tmp_path, capsys):
        capsys.readouterr()
        code = main(["synth", "--out", str(tmp_path / "d"), "--snr", "nan"]
                    + SYNTH_ARGS)
        assert code == EXIT_CONFIG
        assert "snr must be finite" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_artifacts(self, trained):
        assert (trained / "checkpoint_final.ckpt").is_file()
        assert (trained / "checkpoint_best.ckpt").is_file()
        lines = (trained / "log.jsonl").read_text().splitlines()
        assert len(lines) == SMALL_MODEL_JSON["max_iterations"]

    def test_degenerate_batch_skipped(self, tmp_path, monkeypatch, caplog):
        """A batch of one one-frame video has no batch-norm statistics: each
        is skipped with a warning before any layer records a cache, writes
        no log line, and the run exits 0."""
        from test_trainer import MODULE_CLASSES, _cache_entries

        from dams import trainer
        built = []
        build_model = trainer.build_model
        monkeypatch.setattr(trainer, "build_model",
                            lambda cfg: built.append(build_model(cfg)) or built[-1])
        ds, run = tmp_path / "ds", tmp_path / "run"
        assert main(["synth", "--out", str(ds), "--videos", "6", "--dim", "4",
                     "--t-min", "1", "--t-max", "1"]) == EXIT_OK
        assert main(["train", "--dataset", str(ds), "--out", str(run),
                     "--iters", "2", "--batch-size", "1"]) == EXIT_OK
        assert (run / "log.jsonl").read_text() == ""
        assert caplog.text.count("degenerate batch skipped") == 2
        model, _ = built[0]
        assert _cache_entries(model) == dict.fromkeys(MODULE_CLASSES, 0)

    def test_bad_config_exit_code(self, tmp_path, dataset):
        cfg = write_config(tmp_path, bogus_key=1)
        code = main(["train", "--dataset", str(dataset),
                     "--out", str(tmp_path / "r"), "--config", cfg])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("overrides, flags, message", [
        ({"model": dict(SMALL_MODEL_JSON["model"], input_dim=32)}, [],
         "model.input_dim 32 differs"),
        ({"seed": 1.5}, [], "config.seed: expected an integer"),
        ({"batch_size": True}, [], "config.batch_size: expected an integer"),
        ({"learning_rate": "fast"}, [], "config.learning_rate: expected a number"),
        ({"model": dict(SMALL_MODEL_JSON["model"], use_cbam="no")}, [],
         "config.model.use_cbam: expected a boolean"),
        ({"model": dict(SMALL_MODEL_JSON["model"],
                        pyramid={"scales": 3, "channels": 8})}, [],
         "config.model.pyramid.scales: expected a list of integers"),
        ({"model": dict(SMALL_MODEL_JSON["model"],
                        pyramid={"scales": [1, 2.5], "channels": 8})}, [],
         "config.model.pyramid.scales: expected a list of integers"),
        ({"loss": [0.5]}, [], "config.loss: expected an object"),
        ({"seed": -5}, [], "seed must be >= 0, got -5"),
        ({}, ["--seed", "-5"], "seed must be >= 0, got -5"),
        ({"learning_rate": float("nan")}, [], "learning_rate and adam_eps must be"),
        ({"learning_rate": float("inf")}, [], "learning_rate and adam_eps must be"),
        ({"loss": {"focal_gamma": float("nan")}}, [], "focal_gamma must be finite"),
        ({"model": dict(SMALL_MODEL_JSON["model"],
                        pyramid={"scales": [], "channels": 8})}, [],
         "pyramid needs at least one scale"),
        ({"model": dict(SMALL_MODEL_JSON["model"], head_hidden=-5)}, [],
         "head_hidden must be >= 0"),
    ], ids=["input-dim", "float-seed", "bool-batch-size", "string-float",
            "string-bool", "int-scales", "float-scale", "list-loss",
            "negative-seed", "negative-seed-flag", "nan-learning-rate",
            "infinite-learning-rate", "nan-focal-gamma", "empty-scales",
            "negative-head-hidden"])
    def test_config_fault_exit_code(self, tmp_path, dataset, capsys,
                                    overrides, flags, message):
        cfg = write_config(tmp_path, **overrides)
        capsys.readouterr()
        code = main(["train", "--dataset", str(dataset),
                     "--out", str(tmp_path / "r"), "--config", cfg] + flags)
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_invalid_json_exit_code(self, tmp_path, dataset):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["train", "--dataset", str(dataset),
                     "--out", str(tmp_path / "r"), "--config", str(path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["train", "info"])
    @pytest.mark.parametrize("fault", ["not-utf8", "directory"])
    def test_unreadable_config_exit_code(self, tmp_path, dataset, capsys,
                                         command, fault):
        path = tmp_path / "config.json"
        if fault == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"seed": 0, "bogus\xff": 1}')
        args = ["--config", str(path)]
        if command == "train":
            args += ["--dataset", str(dataset), "--out", str(tmp_path / "r")]
        capsys.readouterr()
        assert main([command] + args) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: config: {path}: ")

    def test_empty_manifest_exit_code(self, tmp_path, dataset, capsys):
        (dataset / "manifest.jsonl").write_text("\n")
        capsys.readouterr()
        code = main(["train", "--dataset", str(dataset),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_FORMAT
        assert capsys.readouterr().err.startswith(
            f"error: format: {dataset / 'manifest.jsonl'}: no video rows")

    @pytest.mark.parametrize("fraction, message", [
        ("2", "--val-fraction must lie in [0, 1)"),
        ("1", "--val-fraction must lie in [0, 1)"),
        ("0.95", "train: no training videos"),
    ], ids=["above-one", "one", "rounds-to-all"])
    def test_split_without_training_video_exit_code(self, tmp_path, dataset,
                                                    capsys, fraction, message):
        capsys.readouterr()
        code = main(["train", "--dataset", str(dataset), "--out",
                     str(tmp_path / "r"), "--config", write_config(tmp_path),
                     "--val-fraction", fraction])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("shape", [(6,), (2, 6, 8)], ids=["rank-1", "rank-3"])
    def test_crop_not_din_by_t_exit_code(self, tmp_path, dataset, capsys,
                                         shape):
        manifest = dataset / "manifest.jsonl"
        row = json.loads(manifest.read_text().splitlines()[1])
        write_feature_file(dataset / row["feature_files"][0], np.ones(shape))
        capsys.readouterr()
        code = main(["train", "--dataset", str(dataset),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_FORMAT
        assert f"{manifest}:2: " in capsys.readouterr().err

    def test_missing_dataset_exit_code(self, tmp_path):
        code = main(["train", "--dataset", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_MISSING

    def test_ablation_flag(self, tmp_path, dataset):
        cfg = write_config(tmp_path)
        run = tmp_path / "noamtpn"
        assert main(["train", "--dataset", str(dataset), "--out", str(run),
                     "--config", cfg, "--no-amtpn"]) == EXIT_OK
        from dams.trainer import load_checkpoint
        _, meta = load_checkpoint(run / "checkpoint_final.ckpt")
        assert meta["config"]["model"]["use_amtpn"] is False

    @pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
    def test_ablation_flag_is_its_variant(self, tmp_path, dataset, variant):
        cfg = write_config(tmp_path, max_iterations=0)
        flags = [] if variant == "full" else [
            "--" + variant.replace("_", "-")]
        run = tmp_path / "run"
        assert main(["train", "--dataset", str(dataset), "--out", str(run),
                     "--config", cfg] + flags) == EXIT_OK
        _, meta = load_checkpoint(run / "checkpoint_final.ckpt")
        want = apply_variant(config_from_dict(json.loads(Path(cfg).read_text())),
                             ABLATION_VARIANTS[variant])
        assert meta["config_hash"] == config_hash(want)


def evaluate_reference(model, records):
    """`evaluate` with its per-element row conversions."""
    per_video, all_scores, all_gt = [], [], []
    for rec in records:
        scores = score_video(model, rec)
        row = {"id": rec.id, "scores": [float(s) for s in scores]}
        if rec.frame_gt is not None:
            row["gt"] = [int(v) for v in rec.frame_gt]
            all_scores.append(scores)
            all_gt.append(rec.frame_gt)
        per_video.append(row)
    scores, gt = np.concatenate(all_scores), np.concatenate(all_gt)
    return EvalReport(roc_auc(scores, gt), average_precision(scores, gt), per_video)


def write_score_csv_reference(path, records, video_scores):
    """The score CSV written one `writerow` per frame."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "frame", "score", "gt"])
        for rec, scores in zip(records, video_scores, strict=True):
            for t, s in enumerate(scores):
                gt = "" if rec.frame_gt is None else int(rec.frame_gt[t])
                writer.writerow([rec.id, t, f"{s:.10f}", gt])


class TestEvalScorePlot:
    def test_report_and_csv_bytes_match_per_element_writers(self, tmp_path,
                                                             dataset, trained):
        manifest = dataset / "manifest.jsonl"
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        del rows[1]["frame_gt"]  # one video without ground truth
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        ckpt = trained / "checkpoint_final.ckpt"
        report, scores = tmp_path / "report.json", tmp_path / "scores.csv"
        assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                     "--out", str(report), "--csv", str(scores)]) == EXIT_OK
        records = load_dataset(dataset)
        model, _, _ = load_model_for_inference(ckpt)
        want = evaluate_reference(model, records)
        assert report.read_text() == json.dumps(want.to_dict(), sort_keys=True) + "\n"
        write_score_csv_reference(tmp_path / "want.csv", records,
                                  [row["scores"] for row in want.per_video])
        assert scores.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert main(["score", "--dataset", str(dataset), "--checkpoint", str(ckpt),
                     "--out", str(scores)]) == EXIT_OK
        write_score_csv_reference(tmp_path / "want.csv", records,
                                  [score_video(model, rec) for rec in records])
        assert scores.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_eval_report(self, tmp_path, dataset, trained):
        report = tmp_path / "report.json"
        code = main(["eval", "--dataset", str(dataset),
                     "--checkpoint", str(trained / "checkpoint_final.ckpt"),
                     "--out", str(report)])
        assert code == EXIT_OK
        d = json.loads(report.read_text())
        assert 0.0 <= d["auc"] <= 1.0 and 0.0 <= d["ap"] <= 1.0
        assert len(d["per_video"]) == 8

    def test_score_csv_columns(self, tmp_path, dataset, trained):
        out = tmp_path / "scores.csv"
        code = main(["score", "--dataset", str(dataset),
                     "--checkpoint", str(trained / "checkpoint_final.ckpt"),
                     "--out", str(out)])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"video_id", "frame", "score", "gt"}
        assert all(0.0 <= float(r["score"]) <= 1.0 for r in rows)
        assert all(r["gt"] in ("0", "1") for r in rows)

    def test_eval_csv_scores_each_video_once(self, tmp_path, dataset, trained,
                                             monkeypatch):
        import dams.cli
        import dams.trainer
        calls = []
        real = dams.trainer.score_video

        def counting(model, record):
            calls.append(record.id)
            return real(model, record)
        monkeypatch.setattr(dams.trainer, "score_video", counting)
        monkeypatch.setattr(dams.cli, "score_video", counting)
        ckpt = str(trained / "checkpoint_final.ckpt")
        eval_csv = tmp_path / "eval.csv"
        assert main(["eval", "--dataset", str(dataset), "--checkpoint", ckpt,
                     "--csv", str(eval_csv)]) == EXIT_OK
        assert calls == [rec.id for rec in load_dataset(dataset)]
        score_csv = tmp_path / "score.csv"
        assert main(["score", "--dataset", str(dataset), "--checkpoint", ckpt,
                     "--out", str(score_csv)]) == EXIT_OK
        assert eval_csv.read_bytes() == score_csv.read_bytes()

    @pytest.mark.parametrize("offset", [-10, 30])  # payload, JSON header
    def test_corrupted_checkpoint_exit_code(self, tmp_path, dataset, trained,
                                            offset):
        ckpt = trained / "checkpoint_final.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[offset] ^= 0x01
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        code = main(["eval", "--dataset", str(dataset),
                     "--checkpoint", str(bad)])
        assert code == EXIT_FORMAT

    @pytest.mark.parametrize("argv", [
        ["plot", "--scores", "WRONG", "--out", "OUT"],
        ["eval", "--dataset", "DS", "--checkpoint", "CKPT", "--out", "WRONG"],
        ["eval", "--dataset", "DS", "--checkpoint", "CKPT", "--csv", "WRONG"],
        ["score", "--dataset", "DS", "--checkpoint", "CKPT", "--out", "WRONG"],
        ["train", "--dataset", "DS", "--out", "WRONG"],
        ["synth", "--out", "WRONG"] + SYNTH_ARGS,
    ], ids=["plot-scores-dir", "eval-out-dir", "eval-csv-dir", "score-out-dir",
            "train-out-file", "synth-out-file"])
    def test_path_of_the_wrong_kind_exit_code(self, tmp_path, dataset, trained,
                                              capsys, argv):
        wrong = tmp_path / "wrong"
        if argv[0] in ("train", "synth"):
            wrong.write_text("")
        else:
            wrong.mkdir()
        paths = {"WRONG": wrong, "OUT": tmp_path / "out", "DS": dataset,
                 "CKPT": trained / "checkpoint_final.ckpt"}
        capsys.readouterr()
        assert main([str(paths.get(a, a)) for a in argv]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("error: format: ") and str(wrong) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, code", [
        ("eval", EXIT_NUMERIC), ("train", EXIT_NUMERIC), ("score", EXIT_OK)])
    def test_dataset_without_frame_gt_exit_code(self, tmp_path, dataset, trained,
                                                capsys, command, code):
        manifest = dataset / "manifest.jsonl"
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        for row in rows:
            del row["frame_gt"]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        argv = [command, "--dataset", str(dataset)]
        if command == "train":  # validates at iteration 2
            argv += ["--config", write_config(tmp_path), "--out", str(tmp_path / "r")]
        else:
            argv += ["--checkpoint", str(trained / "checkpoint_final.ckpt")]
        if command == "score":
            argv += ["--out", str(tmp_path / "scores.csv")]
        capsys.readouterr()
        assert main(argv) == code
        if code == EXIT_NUMERIC:
            assert capsys.readouterr().err.startswith(
                "error: numeric: evaluate: no video carries frame ground truth")

    def test_checkpoint_without_meta_exit_code(self, tmp_path, dataset):
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(bare, {"a": [1.0]}, {})
        code = main(["eval", "--dataset", str(dataset), "--checkpoint", str(bare)])
        assert code == EXIT_FORMAT

    @pytest.mark.parametrize("command", ["eval", "score"])
    @pytest.mark.parametrize("fault", ["float-seed", "unknown-key", "directory"])
    def test_bad_checkpoint_exit_code(self, tmp_path, dataset, trained, capsys,
                                      command, fault):
        bad = tmp_path / "bad.ckpt"
        if fault == "directory":
            bad.mkdir()
        else:  # a stored config that `config_from_dict` rejects
            arrays, meta = load_checkpoint(trained / "checkpoint_final.ckpt")
            if fault == "float-seed":
                meta["config"]["seed"] = 1.5
            else:
                meta["config"]["bogus"] = 1
            save_checkpoint(bad, arrays, meta)
        capsys.readouterr()
        code = main([command, "--dataset", str(dataset), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_FORMAT
        assert capsys.readouterr().err.startswith(f"error: format: {bad}: ")

    def test_checkpoint_missing_best_array_exit_code(self, tmp_path, dataset,
                                                     trained):
        arrays, meta = load_checkpoint(trained / "checkpoint_final.ckpt")
        best = {k: v for k, v in arrays.items() if k.startswith("best/")}
        del best[sorted(best)[0]]
        partial = tmp_path / "partial.ckpt"
        save_checkpoint(partial, best, meta)
        code = main(["eval", "--dataset", str(dataset),
                     "--checkpoint", str(partial)])
        assert code == EXIT_FORMAT

    @pytest.mark.parametrize("command", ["train", "eval", "score"])
    @pytest.mark.parametrize("fault", ["nan-feature", "inf-feature", "repeated-id",
                                       "nan-pseudo", "out-of-range-pseudo",
                                       "mixed-dim"])
    def test_dataset_fault_exit_code_names_file(self, tmp_path, dataset, trained,
                                                capsys, command, fault):
        manifest = dataset / "manifest.jsonl"
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        if fault == "repeated-id":
            rows[4]["id"] = rows[1]["id"]
            manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
            message = f"{manifest}:5: video id {rows[1]['id']!r} repeats line 2"
        elif fault.endswith("-pseudo"):
            bad = [np.nan] if fault == "nan-pseudo" else [7.0, np.inf]
            rows[3]["pseudo_probs"][:len(bad)] = bad
            manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
            message = (f"{manifest}:4: {rows[3]['id']}: "
                       "pseudo_probs must lie in [0, 1]")
        elif fault == "mixed-dim":
            path = dataset / rows[3]["feature_files"][0]
            write_container(path, FEATURE_MAGIC, {},
                            {"features": read_feature_file(path)[:5]})
            message = f"{manifest}:4: feature dimension 5 differs from 6 of line 1"
        else:
            path = dataset / rows[3]["feature_files"][0]
            x = read_feature_file(path)
            x[0, 1] = np.nan if fault == "nan-feature" else np.inf
            write_container(path, FEATURE_MAGIC, {}, {"features": x})
            message = f"{path}: non-finite feature value"
        out = tmp_path / "out"
        argv = [command, "--dataset", str(dataset), "--out", str(out)]
        if command == "train":
            argv += ["--config", write_config(tmp_path)]
        else:
            argv += ["--checkpoint", str(trained / "checkpoint_final.ckpt")]
        capsys.readouterr()
        assert main(argv) == EXIT_FORMAT
        assert capsys.readouterr().err == f"error: format: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "score"])
    def test_checkpoint_dimension_mismatch_exit_code(self, tmp_path, trained,
                                                     capsys, command):
        wide = tmp_path / "wide"
        assert main(["synth", "--out", str(wide)] + SYNTH_ARGS[:2]
                    + ["--dim", "8"] + SYNTH_ARGS[4:]) == EXIT_OK
        capsys.readouterr()
        code = main([command, "--dataset", str(wide), "--out", str(tmp_path / "out"),
                     "--checkpoint", str(trained / "checkpoint_final.ckpt")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: config: model.input_dim 6 differs from the dataset's "
            "feature dimension 8\n")
        assert not (tmp_path / "out").exists()

    def test_malformed_manifest_exit_code(self, tmp_path, dataset, trained):
        manifest = dataset / "manifest.jsonl"
        manifest.write_text(manifest.read_text() + '{"id": "ghost"}\n')
        code = main(["eval", "--dataset", str(dataset),
                     "--checkpoint", str(trained / "checkpoint_final.ckpt")])
        assert code == EXIT_FORMAT

    def test_short_frame_gt_exit_code_names_line(self, tmp_path, dataset,
                                                 trained, capsys):
        manifest = dataset / "manifest.jsonl"
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        rows[2]["frame_gt"] = rows[2]["frame_gt"][:-1]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        code = main(["eval", "--dataset", str(dataset),
                     "--checkpoint", str(trained / "checkpoint_final.ckpt")])
        assert code == EXIT_FORMAT
        assert f"{manifest}:3: " in capsys.readouterr().err

    def test_non_binary_frame_gt_exit_code_names_line(self, tmp_path, dataset,
                                                      trained, capsys):
        manifest = dataset / "manifest.jsonl"
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        rows[4]["frame_gt"][0] = float("nan")
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        code = main(["eval", "--dataset", str(dataset),
                     "--checkpoint", str(trained / "checkpoint_final.ckpt")])
        assert code == EXIT_FORMAT
        assert f"{manifest}:5: " in capsys.readouterr().err

    @pytest.mark.parametrize("blob, line", [
        (b"video_id,frame,score,gt\nv,0,0.5,0\nv,1,0.5,1\n", None),
        (b"video_id,frame,score,gt\nv,0,0.5,0\nv,1,high,1\n", 3),
        (b"video,frame,score,gt\nv,0,0.5,0\n", 1),
        (b"video_id,frame,score,gt\nv,0,0.5,0\nv,1,0.5\n", 3),
        (b"video_id,frame,score,gt\nv,0,0.5,0\nv,1,0.5,x\n", 3),
        (b"video_id,frame,score,gt\nv,0,0.5,0\nv\xff,1,0.5,1\n", 3),
        (b"video_id,frame,score,gt\nv,0,0.5,0\nv,1,nan,1\n", 3),
        (b"video_id,frame,score,gt\nv,0,0.5,0\nv,1,0.5,0\nv,2,-inf,0\n", 4),
        (b"video_id,frame,score,gt\nv,0,0.5,7\n", 2),
        (b"video_id,frame,score,gt\nv,0,0.5,0\nv,1,0.5,0\nw,0,0.5,0\nw,1,0.5,0\n"
         b"v,0,0.5,0\nv,1,0.5,0\n", 6),
        (b"video_id,frame,score,gt\nv,0,0.5,0\nv,1,0.5,0\nv,1,0.5,0\n", 4),
        (b"video_id,frame,score,gt\nv,0,0.5,0\nv,5,0.5,0\n", 3),
        (b"video_id,score,gt\nv,0.5,0\n", 1),
    ], ids=["valid", "non-numeric-score", "no-video_id", "short-row",
            "non-integer-gt", "not-utf8", "nan-score", "inf-score",
            "non-binary-gt", "split-video", "repeated-frame", "skipped-frame",
            "no-frame-column"])
    def test_plot_bad_scores_csv_exit_code_names_line(self, tmp_path, capsys,
                                                      blob, line):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(blob)
        capsys.readouterr()
        code = main(["plot", "--scores", str(scores), "--out", str(tmp_path / "p.svg")])
        if line is None:
            assert code == EXIT_OK
        else:
            assert code == EXIT_FORMAT
            assert f"{scores}:{line}: " in capsys.readouterr().err

    def test_plot_valid_svg(self, tmp_path, dataset, trained):
        scores = tmp_path / "scores.csv"
        main(["score", "--dataset", str(dataset),
              "--checkpoint", str(trained / "checkpoint_final.ckpt"),
              "--out", str(scores)])
        svg = tmp_path / "plot.svg"
        code = main(["plot", "--scores", str(scores), "--out", str(svg),
                     "--max-videos", "2"])
        assert code == EXIT_OK
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        polylines = root.findall(".//s:polyline", ns)
        assert len(polylines) == 2  # one curve per selected video
        rects = root.findall(".//s:rect", ns)
        shaded = [r for r in rects if r.get("fill") not in (None, "none")]
        assert shaded  # ground-truth regions are drawn

    def test_plot_unknown_video_exit_code(self, tmp_path, dataset, trained):
        scores = tmp_path / "scores.csv"
        main(["score", "--dataset", str(dataset),
              "--checkpoint", str(trained / "checkpoint_final.ckpt"),
              "--out", str(scores)])
        code = main(["plot", "--scores", str(scores),
                     "--out", str(tmp_path / "p.svg"), "--video", "ghost"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_plot_max_videos_out_of_range_exit_code(self, tmp_path, capsys, count):
        scores = tmp_path / "scores.csv"
        scores.write_text("video_id,frame,score,gt\na,0,0.5,1\nb,0,0.2,0\n")
        svg = tmp_path / "p.svg"
        capsys.readouterr()
        code = main(["plot", "--scores", str(scores), "--out", str(svg),
                     "--max-videos", count])
        assert code == EXIT_CONFIG
        assert "--max-videos must be >= 1" in capsys.readouterr().err
        assert not svg.exists()


class TestGradcheckInfo:
    def test_gradcheck_reduced_passes(self, capsys):
        code = main(["gradcheck", "--num-seeds", "1", "--entries", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    @pytest.mark.parametrize("args", [["--entries", "0"], ["--num-seeds", "0"],
                                      ["--seed", "-1", "--num-seeds", "1"],
                                      ["--tolerance", "-1", "--num-seeds", "1"],
                                      ["--tolerance", "nan", "--num-seeds", "1"]],
                             ids=["no-entries", "no-seeds", "negative-seed",
                                  "negative-tolerance", "nan-tolerance"])
    def test_gradcheck_flag_out_of_range_exit_code(self, capsys, args):
        code = main(["gradcheck"] + args)
        assert code == EXIT_CONFIG
        assert "PASS" not in capsys.readouterr().out

    def test_info_prints_versions(self, capsys):
        assert main(["info"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert {"version", "feature_file_version", "checkpoint_version",
                "config"} <= set(d)


class TestDeterminism:
    def test_train_twice_identical_checkpoints(self, tmp_path, dataset):
        cfg = write_config(tmp_path)
        runs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--dataset", str(dataset), "--out",
                         str(out), "--config", cfg]) == EXIT_OK
            runs.append(out)
        assert ((runs[0] / "checkpoint_final.ckpt").read_bytes()
                == (runs[1] / "checkpoint_final.ckpt").read_bytes())
        assert ((runs[0] / "log.jsonl").read_bytes()
                == (runs[1] / "log.jsonl").read_bytes())
