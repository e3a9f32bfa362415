"""Command-line surface: subcommands, determinism, artifacts. Each
`fault_test` runs a group of the exit-code rows of `test_faults.FAULTS`."""

import csv
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from test_faults import SMALL_MODEL_JSON, SYNTH_ARGS, fault_test, write_config

from dams.cli import EXIT_OK, main
from dams.data import load_dataset
from dams.metrics import average_precision, roc_auc
from dams.trainer import (ABLATION_VARIANTS, EvalReport, apply_variant,
                          config_from_dict, config_hash, load_checkpoint,
                          load_model_for_inference, score_video)


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

    test_negative_seed_exit_code = fault_test("negative-seed")
    test_nan_snr_exit_code = fault_test("nan-snr")


class TestTrain:
    def test_artifacts(self, trained):
        assert (trained / "checkpoint_final.ckpt").is_file()
        assert (trained / "checkpoint_best.ckpt").is_file()
        lines = (trained / "log.jsonl").read_text().splitlines()
        assert len(lines) == SMALL_MODEL_JSON["max_iterations"]

    def test_degenerate_batch_skipped(self, tmp_path, monkeypatch, caplog, capsys):
        """A batch of one one-frame video has no batch-norm statistics: each
        is skipped with a warning before any layer records a cache, writes
        no log line, and the run exits 0 and reports no trained iteration."""
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
        assert capsys.readouterr().out.endswith("\ntrained 0 iterations; "
                                                "no validation pass ran\n")
        assert (run / "log.jsonl").read_text() == ""
        assert caplog.text.count("degenerate batch skipped") == 2
        model, _ = built[0]
        assert _cache_entries(model) == dict.fromkeys(MODULE_CLASSES, 0)

    def test_ablation_flag(self, tmp_path, dataset):
        cfg = write_config(tmp_path)
        run = tmp_path / "noamtpn"
        assert main(["train", "--dataset", str(dataset), "--out", str(run),
                     "--config", cfg, "--no-amtpn"]) == EXIT_OK
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

    test_bad_config_exit_code = fault_test("bad-config")
    test_config_fault_exit_code = fault_test("config-fault")
    test_invalid_json_exit_code = fault_test("invalid-json")
    test_unreadable_config_exit_code = fault_test("unreadable-config")
    test_empty_manifest_exit_code = fault_test("empty-manifest")
    test_split_without_training_video_exit_code = fault_test("no-training-video")
    test_crop_not_din_by_t_exit_code = fault_test("crop-not-din-by-t")
    test_missing_dataset_exit_code = fault_test("missing-dataset")
    test_resume_fault_exit_code = fault_test("resume-fault")


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

    test_corrupted_checkpoint_exit_code = fault_test("corrupted-checkpoint")
    test_path_of_the_wrong_kind_exit_code = fault_test("path-of-the-wrong-kind")
    test_dataset_without_frame_gt_exit_code = fault_test("dataset-without-frame-gt")
    test_checkpoint_without_meta_exit_code = fault_test("checkpoint-without-meta")
    test_bad_checkpoint_exit_code = fault_test("bad-checkpoint")
    test_checkpoint_missing_best_array_exit_code = fault_test("missing-best-array")
    test_dataset_fault_exit_code_names_file = fault_test("dataset-fault")
    test_checkpoint_dimension_mismatch_exit_code = fault_test("dimension-mismatch")
    test_malformed_manifest_exit_code = fault_test("malformed-manifest")
    test_short_frame_gt_exit_code_names_line = fault_test("short-frame-gt")
    test_non_binary_frame_gt_exit_code_names_line = fault_test("non-binary-frame-gt")
    test_plot_bad_scores_csv_exit_code_names_line = fault_test("plot-bad-scores-csv")
    test_plot_unknown_video_exit_code = fault_test("plot-unknown-video")
    test_plot_max_videos_out_of_range_exit_code = fault_test("max-videos-out-of-range")

class TestGradcheckInfo:
    def test_gradcheck_reduced_passes(self, capsys):
        code = main(["gradcheck", "--num-seeds", "1", "--entries", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    test_gradcheck_flag_out_of_range_exit_code = fault_test("gradcheck-out-of-range")

    def test_info_prints_versions(self, capsys):
        assert main(["info"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert {"version", "feature_file_version", "checkpoint_version",
                "config"} <= set(d)


class TestDeterminism:
    def test_train_twice_identical_checkpoints(self, tmp_path, dataset, capsys):
        """Two runs agree; one split at iteration 2 and resumed trains 2
        iterations and writes the same final checkpoint."""
        train = ["train", "--dataset", str(dataset), "--config",
                 write_config(tmp_path)]
        runs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(train + ["--out", str(out)]) == EXIT_OK
            runs.append(out)
        assert ((runs[0] / "checkpoint_final.ckpt").read_bytes()
                == (runs[1] / "checkpoint_final.ckpt").read_bytes())
        assert ((runs[0] / "log.jsonl").read_bytes()
                == (runs[1] / "log.jsonl").read_bytes())
        split = tmp_path / "split"
        assert main(train + ["--out", str(split), "--iters", "2"]) == EXIT_OK
        capsys.readouterr()
        assert main(train + ["--out", str(split), "--resume",
                             str(split / "checkpoint_final.ckpt")]) == EXIT_OK
        assert capsys.readouterr().out.startswith("trained 2 iterations; ")
        assert ((split / "checkpoint_final.ckpt").read_bytes()
                == (runs[0] / "checkpoint_final.ckpt").read_bytes())
