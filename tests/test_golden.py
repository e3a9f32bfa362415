"""Golden bytes: the files two small CLI pipelines write, pinned by SHA-256.

Each pipeline synthesizes a dataset, trains with validation, evaluates and
scores through `dams.cli.main`, then hashes the checkpoints, the training log,
the eval report and the score CSV. A change meant to keep every output
byte-identical must pass unchanged; a change meant to move arithmetic
rewrites `golden_digests.json` in the same commit.

Float results depend on numpy, the machine and the BLAS build, so digests are
stored per environment key; under a key with no digests the test skips and
names the key. `python tests/test_golden.py` prints the digests of the
current environment as JSON, ready to paste into `golden_digests.json`.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from dams.cli import EXIT_OK, main

DIGESTS = Path(__file__).with_name("golden_digests.json")

PIPELINES = {
    # acceptance criterion 8's 12-video spec and model, trained longer
    "crit8": {
        "synth": ["--videos", "12", "--dim", "6", "--t-min", "8",
                  "--t-max", "14", "--seed", "3"],
        "val_fraction": "0.34",
        "config": {
            "model": {"input_dim": 6, "channels": 8, "depth": 1,
                      "head_hidden": 4,
                      "pyramid": {"scales": [1, 3], "channels": 8,
                                  "reduction_ratio": 2},
                      "cbam": {"reduction_ratio": 2, "temporal_kernel": 3}},
            "max_iterations": 20, "validate_every": 5, "batch_size": 4},
    },
    # C=16, depth 1, all four scales: k=3 convs, the 27-tap pool, CBAM's k=7
    "c16_pyramid": {
        "synth": ["--videos", "12", "--dim", "8", "--t-min", "28",
                  "--t-max", "40", "--seed", "5", "--crops", "2"],
        "val_fraction": "0.34",
        "config": {
            "model": {"input_dim": 8, "channels": 16, "depth": 1,
                      "head_hidden": 8,
                      "pyramid": {"scales": [1, 3, 9, 27], "channels": 16,
                                  "reduction_ratio": 4}},
            "max_iterations": 20, "validate_every": 5, "batch_size": 4},
    },
}

FILES = ("checkpoint_final.ckpt", "checkpoint_best.ckpt", "log.jsonl",
         "report.json", "scores.csv")


def environment_key():
    """numpy version, machine, BLAS build and the CPU features numpy found."""
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    simd = ",".join(cfg["SIMD Extensions"].get("found") or [])
    return (f"numpy {np.__version__} | {platform.machine()} | "
            f"{blas.get('name')} {blas.get('version')} | simd {simd}")


def run_pipeline(name, work):
    """Run pipeline `name` under `work`; returns {file name: sha256 hex}."""
    spec = PIPELINES[name]
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    ds, run = work / "ds", work / "run"
    config = work / "config.json"
    config.write_text(json.dumps(spec["config"]))
    ckpt = str(run / "checkpoint_final.ckpt")
    for argv in (["synth", "--out", str(ds)] + spec["synth"],
                 ["train", "--dataset", str(ds), "--out", str(run),
                  "--config", str(config), "--val-fraction", spec["val_fraction"]],
                 ["eval", "--dataset", str(ds), "--checkpoint", ckpt,
                  "--out", str(run / "report.json")],
                 ["score", "--dataset", str(ds), "--checkpoint", ckpt,
                  "--out", str(run / "scores.csv")]):
        assert main(argv) == EXIT_OK, argv[0]
    return {f: hashlib.sha256((run / f).read_bytes()).hexdigest() for f in FILES}


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_golden_digests(tmp_path, name):
    key = environment_key()
    pinned = json.loads(DIGESTS.read_text()).get(key)
    if pinned is None:
        pytest.skip(f"no golden digests for environment {key!r}")
    got = run_pipeline(name, tmp_path)
    moved = sorted(f for f in FILES if got[f] != pinned[name][f])
    assert not moved, f"{name}: bytes changed in {moved}"


if __name__ == "__main__":
    import contextlib
    import tempfile
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        out = {name: run_pipeline(name, Path(tmp) / name) for name in sorted(PIPELINES)}
    json.dump({environment_key(): out}, sys.stdout, indent=2, sort_keys=True)
    print()
