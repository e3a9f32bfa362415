"""The fault table: each malformed input, file or flag of the CLI, with the
exit code and the stderr that `main` answers it with.

`FAULTS` is the one place a fault is run: `tests/test_cli.py` runs each group
of rows as the test that `fault_test` makes. The README's exit-code section
lists every row by id; `python tests/test_faults.py` prints that list.
"""

import functools
import json
import sys
import textwrap
import typing
from pathlib import Path

import numpy as np
import pytest

from dams.cli import ERRORS, EXIT_OK, main
from dams.data import FEATURE_MAGIC, read_feature_file, write_container
from dams.trainer import load_checkpoint, save_checkpoint

SMALL_MODEL_JSON = {
    "model": {"input_dim": 6, "channels": 8, "depth": 1, "head_hidden": 4,
              "pyramid": {"scales": [1, 3], "channels": 8, "reduction_ratio": 2},
              "cbam": {"reduction_ratio": 2, "temporal_kernel": 3}},
    "max_iterations": 4, "validate_every": 2, "batch_size": 4,
}

SYNTH_ARGS = ["--videos", "8", "--dim", "6", "--t-min", "6", "--t-max", "10"]

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL_MODEL_JSON, **overrides)))
    return str(path)


class Ctx:
    """The `{name}` fields of a row: the paths `tmp`, `out` and `file` (a
    setup's scratch path), the manifest's `rows` and, built on first use, the
    synthetic `dataset`, its `manifest`, the small `config` and the `ckpt`
    trained on them. The other methods are the setups a row names."""

    def __init__(self, tmp):
        self.tmp, self.out, self.file = tmp, tmp / "out", tmp / "file"

    def __getitem__(self, name):
        return getattr(self, name)

    @functools.cached_property
    def dataset(self):
        self.run("synth --out {tmp}/ds " + " ".join(SYNTH_ARGS))
        return self.tmp / "ds"

    @functools.cached_property
    def manifest(self):
        return self.dataset / "manifest.jsonl"

    @functools.cached_property
    def config(self):
        return write_config(self.tmp)

    @property
    def rows(self):
        return [json.loads(line) for line in self.manifest.read_text().splitlines()]

    @functools.cached_property
    def ckpt(self):
        self.run("train --dataset {dataset} --out {tmp}/run --config {config}")
        return self.tmp / "run" / "checkpoint_final.ckpt"

    def run(self, argv):
        assert main([arg.format_map(self) for arg in argv.split()]) == EXIT_OK

    def write(self, name, data):
        Path(self[name]).write_bytes(data)

    def mkdir(self):
        self.file.mkdir()

    def edit_config(self, overrides):
        write_config(self.tmp, **overrides)

    def edit_rows(self, edit):
        rows = self.rows
        edit(rows)
        self.manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))

    def edit_features(self, line, edit):
        """Write `edit(x)` over `x`, line `line`'s first feature file {path}."""
        self.path = self.dataset / self.rows[line - 1]["feature_files"][0]
        write_container(self.path, FEATURE_MAGIC, {},
                        {"features": edit(read_feature_file(self.path))})

    def edit_ckpt(self, edit):
        """Save the trained checkpoint, `edit(arrays, meta)` applied, as {file}."""
        arrays, meta = load_checkpoint(self.ckpt)
        edit(arrays, meta)
        self.save_ckpt(arrays, meta)

    def save_ckpt(self, arrays, meta):
        save_checkpoint(self.file, arrays, meta)

    def flip(self, offset):
        """Save the trained checkpoint, one bit at `offset` flipped, as {file}."""
        blob = bytearray(self.ckpt.read_bytes())
        blob[offset] ^= 0x01
        self.file.write_bytes(bytes(blob))


class Fault(typing.NamedTuple):
    group: str          # the rows of one test_cli test
    param: str | None   # the row's parameter id in that test
    code: int
    argv: str           # split on spaces; "{name}" fields are Ctx values
    setup: tuple = ()   # a Ctx method's name and its arguments
    checks: dict = {}   # how -> template; how is "==", "startswith" or "in" of
    #                     stderr, or "not in stdout"
    clean: bool = False  # {out} must not exist afterwards

    @property
    def id(self):
        return self.group if self.param is None else f"{self.group}[{self.param}]"


def poke(value):
    """A feature edit that sets entry [0, 1] to `value`."""
    def edit(x):
        x[0, 1] = value
        return x
    return edit


def pseudo_probs(bad):
    """Rows that replace the first pseudo-probabilities of line 4 by `bad`."""
    return ("edit_rows", lambda rows: rows[3].update(
        pseudo_probs=bad + rows[3]["pseudo_probs"][len(bad):]))


def best_only_less_one(arrays, meta):
    """Keep the best/ arrays of a checkpoint but its first."""
    best = sorted(k for k in arrays if k.startswith("best/"))
    for k in set(arrays) - set(best[1:]):
        del arrays[k]


M = SMALL_MODEL_JSON["model"]
SYNTH = "synth --out {out} " + " ".join(SYNTH_ARGS)
TRAIN = "train --dataset {dataset} --out {out}"
TRAIN_CFG = TRAIN + " --config {config}"
EVAL = "eval --dataset {dataset} --checkpoint {ckpt}"
SCORE = "score --dataset {dataset} --checkpoint {ckpt}"
PLOT = "plot --scores {file} --out {out}"
NO_FRAME_GT = ("edit_rows", lambda rows: [row.pop("frame_gt") for row in rows])
UNDEFINED = {"startswith": "error: numeric: evaluate: no video carries frame "
                          "ground truth"}
MKDIR, EMPTY = ("mkdir",), ("write", "file", b"")

CONFIG_FAULTS = {  # id: (config overrides, stderr substring)
    "input-dim": ({"model": dict(M, input_dim=32)}, "model.input_dim 32 differs"),
    "float-seed": ({"seed": 1.5}, "config.seed: expected an integer"),
    "bool-batch-size": ({"batch_size": True},
                        "config.batch_size: expected an integer"),
    "string-float": ({"learning_rate": "fast"},
                     "config.learning_rate: expected a number"),
    "string-bool": ({"model": dict(M, use_cbam="no")},
                    "config.model.use_cbam: expected a boolean"),
    "int-scales": ({"model": dict(M, pyramid={"scales": 3, "channels": 8})},
                   "config.model.pyramid.scales: expected a list of integers"),
    "float-scale": ({"model": dict(M, pyramid={"scales": [1, 2.5], "channels": 8})},
                    "config.model.pyramid.scales: expected a list of integers"),
    "list-loss": ({"loss": [0.5]}, "config.loss: expected an object"),
    "negative-seed": ({"seed": -5}, "seed must be >= 0, got -5"),
    "nan-learning-rate": ({"learning_rate": np.nan},
                          "learning_rate and adam_eps must be"),
    "infinite-learning-rate": ({"learning_rate": np.inf},
                               "learning_rate and adam_eps must be"),
    "nan-focal-gamma": ({"loss": {"focal_gamma": np.nan}},
                        "focal_gamma must be finite"),
    "empty-scales": ({"model": dict(M, pyramid={"scales": [], "channels": 8})},
                     "pyramid needs at least one scale"),
    "negative-head-hidden": ({"model": dict(M, head_hidden=-5)},
                             "head_hidden must be >= 0"),
}

DATASET_FAULTS = {  # id: (setup, stderr after "error: format: ")
    "nan-feature": (("edit_features", 4, poke(np.nan)),
                    "{path}: non-finite feature value"),
    "inf-feature": (("edit_features", 4, poke(np.inf)),
                    "{path}: non-finite feature value"),
    "repeated-id": (("edit_rows", lambda rows: rows[4].update(id=rows[1]["id"])),
                    "{manifest}:5: video id {rows[1][id]!r} repeats line 2"),
    "nan-pseudo": (pseudo_probs([np.nan]),
                   "{manifest}:4: {rows[3][id]}: pseudo_probs must lie in [0, 1]"),
    "out-of-range-pseudo": (
        pseudo_probs([7.0, np.inf]),
        "{manifest}:4: {rows[3][id]}: pseudo_probs must lie in [0, 1]"),
    "mixed-dim": (("edit_features", 4, lambda x: x[:5]),
                  "{manifest}:4: feature dimension 5 differs from 6 of line 1"),
}

HEAD = b"video_id,frame,score,gt\nv,0,0.5,0\n"
SCORE_CSVS = {  # id: (CSV bytes, the line stderr names, None for a valid file)
    "valid": (HEAD + b"v,1,0.5,1\n", None),
    "non-numeric-score": (HEAD + b"v,1,high,1\n", 3),
    "no-video_id": (b"video,frame,score,gt\nv,0,0.5,0\n", 1),
    "short-row": (HEAD + b"v,1,0.5\n", 3),
    "non-integer-gt": (HEAD + b"v,1,0.5,x\n", 3),
    "not-utf8": (HEAD + b"v\xff,1,0.5,1\n", 3),
    "nan-score": (HEAD + b"v,1,nan,1\n", 3),
    "inf-score": (HEAD + b"v,1,0.5,0\nv,2,-inf,0\n", 4),
    "non-binary-gt": (b"video_id,frame,score,gt\nv,0,0.5,7\n", 2),
    "split-video": (HEAD + b"v,1,0.5,0\nw,0,0.5,0\nw,1,0.5,0\nv,0,0.5,0\n"
                    b"v,1,0.5,0\n", 6),
    "repeated-frame": (HEAD + b"v,1,0.5,0\nv,1,0.5,0\n", 4),
    "skipped-frame": (HEAD + b"v,5,0.5,0\n", 3),
    "no-frame-column": (b"video_id,score,gt\nv,0.5,0\n", 1),
}

WRONG_KIND = {  # id: (argv that gives {file} where the other kind belongs, setup)
    "plot-scores-dir": (PLOT, MKDIR),
    "eval-out-dir": (EVAL + " --out {file}", MKDIR),
    "eval-csv-dir": (EVAL + " --csv {file}", MKDIR),
    "score-out-dir": (SCORE + " --out {file}", MKDIR),
    "train-out-file": ("train --dataset {dataset} --out {file}", EMPTY),
    "synth-out-file": (SYNTH.replace("{out}", "{file}"), EMPTY),
}

GRADCHECK_FLAGS = {"no-entries": "--entries 0", "no-seeds": "--num-seeds 0",
                   "negative-seed": "--seed -1 --num-seeds 1",
                   "negative-tolerance": "--tolerance -1 --num-seeds 1",
                   "nan-tolerance": "--tolerance nan --num-seeds 1"}

RESUME_META = {"iteration": -1, "adam_t": 2.5, "best_iteration": -2, "best_auc": 2.0}

FAULTS = [
    Fault("negative-seed", None, 2, SYNTH + " --seed -1", (),
          {"in": "seed must be >= 0"}, True),
    Fault("nan-snr", None, 2, SYNTH + " --snr nan", (),
          {"in": "snr must be finite"}, True),
    Fault("bad-config", None, 2, TRAIN_CFG, ("edit_config", {"bogus_key": 1})),
    *(Fault("config-fault", fid, 2, TRAIN_CFG, ("edit_config", over),
            {"in": message}, True) for fid, (over, message) in CONFIG_FAULTS.items()),
    Fault("config-fault", "negative-seed-flag", 2, TRAIN_CFG + " --seed -5", (),
          {"in": "seed must be >= 0, got -5"}, True),
    Fault("invalid-json", None, 2, TRAIN_CFG, ("write", "config", b"{not json")),
    *(Fault("unreadable-config", f"{fault}-{command}", 2,
            "train --config {file} --dataset {dataset} --out {out}"
            if command == "train" else "info --config {file}",
            setup, {"startswith": "error: config: {file}: "})
      for fault, setup in (
          ("not-utf8", ("write", "file", b'{"seed": 0, "bogus\xff": 1}')),
          ("directory", MKDIR))
      for command in ("train", "info")),
    Fault("empty-manifest", None, 4, TRAIN, ("write", "manifest", b"\n"),
          {"startswith": "error: format: {manifest}: no video rows"}),
    *(Fault("no-training-video", fid, 2,
            TRAIN_CFG + " --val-fraction " + fraction, (), {"in": message}, True)
      for fid, fraction, message in (
          ("above-one", "2", "--val-fraction must lie in [0, 1)"),
          ("one", "1", "--val-fraction must lie in [0, 1)"),
          ("rounds-to-all", "0.95", "train: no training videos"))),
    *(Fault("crop-not-din-by-t", fid, 4, TRAIN,
            ("edit_features", 2, lambda x, shape=shape: np.ones(shape)),
            {"in": "{manifest}:2: "})
      for fid, shape in (("rank-1", (6,)), ("rank-3", (2, 6, 8)))),
    Fault("missing-dataset", None, 3, "train --dataset {tmp}/nope --out {out}"),
    Fault("resume-fault", "config-hash", 2, TRAIN_CFG + " --resume {ckpt} --seed 1", (),
          {"==": "error: config: checkpoint config hash does not match the run "
                 "config\n"}, True),
    Fault("resume-fault", "missing-best-array", 4, TRAIN_CFG + " --resume {file}",
          ("edit_ckpt", lambda arrays, meta: arrays.pop(
              min(k for k in arrays if k.startswith("best/")))),
          {"startswith": "error: format: checkpoint is missing array 'best/"}, True),
    *(Fault("resume-fault", key.replace("_", "-"), 4, TRAIN_CFG + " --resume {file}",
            ("edit_ckpt", lambda a, meta, kv={key: value}: meta.update(kv)),
            {"==": f"error: format: checkpoint meta entry {key!r} is missing or "
                   "invalid\n"}, True)
      for key, value in RESUME_META.items()),
    *(Fault("corrupted-checkpoint", str(offset), 4,
            "eval --dataset {dataset} --checkpoint {file}", ("flip", offset))
      for offset in (-10, 30)),  # payload, JSON header
    *(Fault("path-of-the-wrong-kind", fid, 4, argv, setup,
            {"startswith": "error: format: ", "in": "{file}"}, True)
      for fid, (argv, setup) in WRONG_KIND.items()),
    Fault("dataset-without-frame-gt", "eval-5", 5, EVAL, NO_FRAME_GT, UNDEFINED),
    Fault("dataset-without-frame-gt", "train-5", 5,  # validates at iteration 2
          "train --dataset {dataset} --config {config} --out {out}", NO_FRAME_GT,
          UNDEFINED),
    Fault("dataset-without-frame-gt", "score-0", 0, SCORE + " --out {tmp}/scores.csv",
          NO_FRAME_GT),
    Fault("checkpoint-without-meta", None, 4,
          "eval --dataset {dataset} --checkpoint {file}",
          ("save_ckpt", {"a": [1.0]}, {})),
    *(Fault("bad-checkpoint", f"{fault}-{command}", 4,
            command + " --dataset {dataset} --checkpoint {file} --out {out}",
            setup, {"startswith": "error: format: {file}: "})
      for fault, setup in (
          ("float-seed", ("edit_ckpt", lambda a, m: m["config"].update(seed=1.5))),
          ("unknown-key", ("edit_ckpt", lambda a, m: m["config"].update(bogus=1))),
          ("directory", MKDIR))
      for command in ("eval", "score")),
    Fault("missing-best-array", None, 4, "eval --dataset {dataset} --checkpoint {file}",
          ("edit_ckpt", best_only_less_one)),
    *(Fault("dataset-fault", f"{fault}-{command}", 4,
            TRAIN_CFG if command == "train"
            else command + " --dataset {dataset} --out {out} --checkpoint {ckpt}",
            setup, {"==": f"error: format: {message}\n"}, True)
      for fault, (setup, message) in DATASET_FAULTS.items()
      for command in ("train", "eval", "score")),
    *(Fault("dimension-mismatch", command, 2,
            command + " --dataset {file} --out {out} --checkpoint {ckpt}",
            ("run", "synth --out {file} --videos 8 --dim 8 --t-min 6 --t-max 10"),
            {"==": "error: config: model.input_dim 6 differs from the dataset's "
                   "feature dimension 8\n"}, True)
      for command in ("eval", "score")),
    Fault("malformed-manifest", None, 4, EVAL,
          ("edit_rows", lambda rows: rows.append({"id": "ghost"}))),
    Fault("short-frame-gt", None, 4, EVAL,
          ("edit_rows", lambda rows: rows[2]["frame_gt"].pop()),
          {"in": "{manifest}:3: "}),
    Fault("non-binary-frame-gt", None, 4, EVAL,
          ("edit_rows", lambda rows: rows[4]["frame_gt"].__setitem__(0, np.nan)),
          {"in": "{manifest}:5: "}),
    *(Fault("plot-bad-scores-csv", fid, EXIT_OK if line is None else 4, PLOT,
            ("write", "file", blob),
            {} if line is None else {"in": f"{{file}}:{line}: "})
      for fid, (blob, line) in SCORE_CSVS.items()),
    Fault("plot-unknown-video", None, 2, PLOT + " --video ghost",
          ("run", SCORE + " --out {file}")),
    *(Fault("max-videos-out-of-range", count, 2, PLOT + " --max-videos " + count,
            ("write", "file", b"video_id,frame,score,gt\na,0,0.5,1\nb,0,0.2,0\n"),
            {"in": "--max-videos must be >= 1"}, True)
      for count in ("0", "-1")),
    *(Fault("gradcheck-out-of-range", fid, 2, "gradcheck " + flags, (),
            {"not in stdout": "PASS"})
      for fid, flags in GRADCHECK_FLAGS.items()),
]


def run_fault(fault, tmp_path, capsys):
    """Run one row on fresh fixtures under `tmp_path`: `main` must return the
    row's code, let no exception escape, print its stderr and write no {out}."""
    c = Ctx(tmp_path)
    for name in ("dataset", "config", "ckpt"):  # built before the setup edits them
        if f"{{{name}}}" in fault.argv:
            c[name]
    if fault.setup:
        getattr(c, fault.setup[0])(*fault.setup[1:])
    argv = [arg.format_map(c) for arg in fault.argv.split()]
    capsys.readouterr()
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{fault.id}: {type(exc).__name__} escaped main: {exc}")
    out, err = capsys.readouterr()
    assert code == fault.code, err
    for how, template in fault.checks.items():
        text = template.format_map(c)
        ok = {"==": err == text, "startswith": err.startswith(text), "in": text in err,
              "not in stdout": text not in out}[how]
        assert ok, (how, text, err)
    if fault.clean:
        assert not c.out.exists()


BOUND = set()


def fault_test(group):
    """A test, for a `test_cli` class, that runs the rows of `group` under
    their parameter ids."""
    rows = [f for f in FAULTS if f.group == group]
    BOUND.add(group)
    if rows[0].param is None:
        def test(self, tmp_path, capsys):
            run_fault(rows[0], tmp_path, capsys)
        return test

    @pytest.mark.parametrize("fault", rows, ids=[f.param for f in rows])
    def test(self, fault, tmp_path, capsys):
        run_fault(fault, tmp_path, capsys)
    return test


def readme_section():
    """The README's exit-code list: each code with its stderr category, then
    the ids of its rows by surface, the command they run."""
    categories = {EXIT_OK: "ok"}
    for _, code, category in ERRORS:
        categories.setdefault(code, category)
    lines = []
    for code, category in sorted(categories.items()):
        lines.append(f"- `{code}` {category}")
        surfaces = {}
        for f in FAULTS:
            if f.code == code:
                surfaces.setdefault(f.argv.split()[0], []).append(f"`{f.id}`")
        lines += [textwrap.fill(f"{surface}: " + ", ".join(ids), 79,
                                initial_indent="  - ", subsequent_indent="    ",
                                break_on_hyphens=False, break_long_words=False)
                  for surface, ids in surfaces.items()]
    return "\n".join(lines) + "\n"


def test_every_row_runs_once():
    import test_cli  # binds the groups
    assert BOUND == {f.group for f in FAULTS}
    assert len({f.id for f in FAULTS}) == len(FAULTS)


def test_readme_lists_every_fault():
    """The list of the README's exit-code section, from its first item to
    the next section, is the one `readme_section` prints."""
    section = README.read_text(encoding="utf-8").split("\n## Exit codes\n")[1]
    section = section.split("\n## ")[0].rstrip("\n") + "\n"
    assert section[section.index("\n- `") + 1:] == readme_section()


if __name__ == "__main__":
    sys.stdout.write(readme_section())
