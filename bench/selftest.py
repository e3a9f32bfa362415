"""Self-test of the benchmark's own pieces: span arithmetic, the tracer's
installation, the reference oracles, and agreement between the metric names
the code reports and those BENCHMARK.json declares.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np

import workloads
from oracles import pairwise_auc, sweep_ap, uncertainty_total
from tracer import Tracer, covered_length, self_times, summarize


def span(sid, name, start, end, parent=None):
    return (sid, name, start, end, parent)


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        spans = [span(0, "a", 0.0, 10.0), span(1, "b", 1.0, 4.0, 0),
                 span(2, "c", 2.0, 3.0, 1), span(3, "d", 6.0, 7.0, 0)]
        self.assertEqual(self_times(spans), {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})

    def test_overlapping_children_count_once(self):
        spans = [span(0, "a", 0.0, 10.0), span(1, "b", 1.0, 5.0, 0),
                 span(2, "c", 3.0, 6.0, 0), span(3, "d", 5.5, 7.0, 0)]
        self.assertAlmostEqual(self_times(spans)[0], 10.0 - 6.0)

    def test_child_outside_parent_is_clipped(self):
        self.assertEqual(covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0), 2.0)
        self.assertEqual(covered_length([(11.0, 12.0)], 0.0, 10.0), 0.0)

    def test_summarize_sums_per_name(self):
        spans = [span(0, "a", 0.0, 4.0), span(1, "b", 1.0, 2.0, 0),
                 span(2, "a", 5.0, 6.0)]
        row = summarize(spans)["a"]
        self.assertEqual((row["calls"], row["total_s"], row["durations"]),
                         (2, 5.0, [4.0, 1.0]))

    def test_attribution_skips_unlisted_spans(self):
        # model span -> unlisted layer wrapper -> kernel op: the wrapper's own
        # time stays with the module, the kernel op's does not
        spans = [span(0, "model.Head.forward", 0.0, 10.0),
                 span(1, "layers.Conv1d.forward", 1.0, 6.0, 0),
                 span(2, "kernel.conv1d", 2.0, 5.0, 1)]
        selfs = workloads.attributed_self_times(spans)
        self.assertEqual(selfs, {"model.Head.forward": 7.0, "kernel.conv1d": 3.0})


class TracerTest(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        from dams import cli, metrics, trainer
        original = trainer.score_video
        tracer = Tracer("dams")
        with tracer:
            self.assertIs(cli.score_video, trainer.score_video)
            self.assertIsNot(trainer.score_video, original)
            metrics.roc_auc(np.array([0.2, 0.7]), np.array([0.0, 1.0]))
        self.assertIs(trainer.score_video, original)
        self.assertIs(cli.score_video, original)
        self.assertEqual([s[1] for s in tracer.spans], ["metrics.roc_auc"])

    def test_generator_spans_cover_each_resumption(self):
        from dams import data
        records = data.synthesize_dataset(data.SyntheticSpec(num_videos=4, input_dim=2,
                                                             t_min=3, t_max=4))
        with Tracer("dams") as tracer:
            batches = list(data.batch_iter(records, 2))
        names = [s[1] for s in tracer.spans]
        # two batches plus the resumption that ends the iteration
        self.assertEqual(names.count("data.batch_iter"), 3)
        self.assertEqual(len(batches), 2)


class OracleTest(unittest.TestCase):
    def test_auc_by_hand(self):
        # pairs (pos, neg): (.9,.8) (.9,.1) (.8,.8) tie (.8,.1) -> 3.5 / 4
        self.assertEqual(pairwise_auc([0.9, 0.8, 0.8, 0.1], [1, 1, 0, 0]), 0.875)
        self.assertEqual(pairwise_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]), 0.75)
        self.assertEqual(pairwise_auc([0.5] * 4, [1, 0, 1, 0]), 0.5)

    def test_ap_by_hand(self):
        # .9 admits a positive (P 1, R 1/2); the .8 block admits one of each
        # (P 2/3, R gain 1/2); .1 admits only a negative
        self.assertAlmostEqual(sweep_ap([0.9, 0.8, 0.8, 0.1], [1, 1, 0, 0]),
                               0.5 + 1.0 / 3.0, places=15)
        self.assertAlmostEqual(sweep_ap([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]),
                               0.5 + 1.0 / 3.0, places=15)
        self.assertEqual(sweep_ap([0.5] * 4, [1, 0, 1, 0]), 0.5)

    def test_oracles_agree_with_program_on_ties(self):
        from dams.metrics import average_precision, roc_auc
        rng = np.random.default_rng(3)
        scores = rng.integers(0, 7, 300) / 7.0
        labels = (rng.random(300) < 0.3).astype(float)
        self.assertAlmostEqual(pairwise_auc(scores, labels), roc_auc(scores, labels),
                               delta=1e-12)
        self.assertAlmostEqual(sweep_ap(scores, labels),
                               average_precision(scores, labels), delta=1e-12)

    def test_uncertainty_total(self):
        self.assertAlmostEqual(uncertainty_total((1.0, 2.0, 3.0), (1.0, 1.0, 1.0)),
                               3.0 + 3.0 * math.log(2.0), places=14)
        self.assertAlmostEqual(uncertainty_total((2.0,), (4.0,)), 0.25 + math.log(5.0),
                               places=14)


class DeclaredMetricsTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        import run
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in declared["workloads"]],
                         list(run.WORKLOAD_NAMES))
        self.assertEqual(list(workloads.WORKLOADS), list(run.WORKLOAD_NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]},
                         workloads.END_TO_END_UNITS)
        fake = workloads.Round(1.0, 1, 1, 0, 0, {}, True)
        reported = workloads.per_layer(Tracer("dams"), 1, Tracer("dams"), [fake],
                                       [fake], 1, Tracer("dams"))
        self.assertEqual([(m["name"], m["unit"]) for m in declared["per_layer"]],
                         [(k, u) for k, (_, u) in reported.items()])


if __name__ == "__main__":
    unittest.main()
