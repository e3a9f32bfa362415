"""SVG score plots: ground-truth segments."""

import numpy as np
import pytest

from dams.plotting import _gt_segments


def gt_segments_loop(gt):
    """Reference: one pass over the frames, opening a segment at each frame
    above 0.5 and closing it at the next one that is not."""
    segs = []
    start = None
    for t, v in enumerate(np.asarray(gt)):
        if v > 0.5 and start is None:
            start = t
        elif v <= 0.5 and start is not None:
            segs.append((start, t))
            start = None
    if start is not None:
        segs.append((start, len(gt)))
    return segs


EDGE_CASES = [[], [0], [1], [1, 1, 1], [0, 1, 0], [1, 0, 1], [1, 1, 0, 0, 1, 1],
              [0.5, 0.51, 0.49, 1.0]]


def random_cases(n=500, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.random(rng.integers(0, 60)) < rng.random()).astype(np.float64)
            for _ in range(n)]


@pytest.mark.parametrize("gt", EDGE_CASES, ids=str)
def test_edge_cases_match_loop(gt):
    assert _gt_segments(gt) == gt_segments_loop(gt)


def test_random_cases_match_loop():
    for gt in random_cases():
        segs = _gt_segments(gt)
        assert segs == gt_segments_loop(gt)
        assert all(type(t) is int for seg in segs for t in seg)
