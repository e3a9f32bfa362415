"""Self-contained SVG rendering of per-video anomaly-score curves.

No plotting dependency: the output is plain SVG with one polyline per
video's score curve and shaded rectangles over ground-truth anomalous
segments, which keeps it diffable and easy to assert on in tests.
"""

from __future__ import annotations

import numpy as np

PANEL_W = 640
PANEL_H = 120
MARGIN = 28

CURVE_COLOR = "#e6a817"
GT_FILL = "#b8e6b8"


def _polyline_points(values, x0, y0, w, h):
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    xs = x0 + (np.arange(n) / max(1, n - 1)) * w
    ys = y0 + (1.0 - np.clip(values, 0.0, 1.0)) * h
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def _gt_segments(gt):
    """[(start, end)] of each run of anomalous (> 0.5) frames, end exclusive."""
    on = np.concatenate(([0], np.asarray(gt) > 0.5, [0])).astype(np.int8)
    edges = np.flatnonzero(np.diff(on))  # run starts and ends alternate
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def render_video_panel(video_id, scores, gt=None, x0=MARGIN, y0=MARGIN):
    """SVG fragment for one video: gt shading under the model's score curve."""
    parts = [f'<text x="{x0}" y="{y0 - 8}" font-size="12">{video_id}</text>']
    n = len(scores)
    if gt is not None and len(gt):
        step = PANEL_W / max(1, n - 1) if n > 1 else PANEL_W
        for a, b in _gt_segments(gt):
            x = x0 + a * step
            w = max(1.0, (b - a) * step)
            parts.append(f'<rect x="{x:.2f}" y="{y0}" width="{w:.2f}" '
                         f'height="{PANEL_H}" fill="{GT_FILL}"/>')
    parts.append(f'<rect x="{x0}" y="{y0}" width="{PANEL_W}" height="{PANEL_H}" '
                 'fill="none" stroke="#888"/>')
    pts = _polyline_points(scores, x0, y0, PANEL_W, PANEL_H)
    parts.append(f'<polyline points="{pts}" fill="none" '
                 f'stroke="{CURVE_COLOR}" stroke-width="1.5"><title>model</title>'
                 '</polyline>')
    return "\n".join(parts)


def render_score_svg(videos):
    """Full SVG document.

    `videos` is a list of (video_id, score array, gt) with gt an optional
    binary array.
    """
    panels = []
    y = MARGIN
    for video_id, scores, gt in videos:
        panels.append(render_video_panel(video_id, scores, gt, MARGIN, y))
        y += PANEL_H + 2 * MARGIN
    width = PANEL_W + 2 * MARGIN
    height = y
    body = "\n".join(panels)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n{body}\n</svg>\n')
