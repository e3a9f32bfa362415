"""Command-line surface: subcommands, determinism, exit codes, artifacts."""

import csv
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from dams.cli import (EXIT_CONFIG, EXIT_FORMAT, EXIT_MISSING, EXIT_NUMERIC,
                      EXIT_OK, main)
from dams.data import load_dataset
from dams.trainer import save_checkpoint

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


class TestTrain:
    def test_artifacts(self, trained):
        assert (trained / "checkpoint_final.ckpt").is_file()
        assert (trained / "checkpoint_best.ckpt").is_file()
        lines = (trained / "log.jsonl").read_text().splitlines()
        assert len(lines) == SMALL_MODEL_JSON["max_iterations"]

    def test_bad_config_exit_code(self, tmp_path, dataset):
        cfg = write_config(tmp_path, bogus_key=1)
        code = main(["train", "--dataset", str(dataset),
                     "--out", str(tmp_path / "r"), "--config", cfg])
        assert code == EXIT_CONFIG

    def test_invalid_json_exit_code(self, tmp_path, dataset):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["train", "--dataset", str(dataset),
                     "--out", str(tmp_path / "r"), "--config", str(path)])
        assert code == EXIT_CONFIG

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


class TestEvalScorePlot:
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

    def test_checkpoint_without_meta_exit_code(self, tmp_path, dataset):
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(bare, {"a": [1.0]}, {})
        code = main(["eval", "--dataset", str(dataset), "--checkpoint", str(bare)])
        assert code == EXIT_FORMAT

    def test_malformed_manifest_exit_code(self, tmp_path, dataset, trained):
        manifest = dataset / "manifest.jsonl"
        manifest.write_text(manifest.read_text() + '{"id": "ghost"}\n')
        code = main(["eval", "--dataset", str(dataset),
                     "--checkpoint", str(trained / "checkpoint_final.ckpt")])
        assert code == EXIT_FORMAT

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


class TestGradcheckInfo:
    def test_gradcheck_reduced_passes(self, capsys):
        code = main(["gradcheck", "--num-seeds", "1", "--entries", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

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
