"""Terminal plotting for the experiment reports.

The paper's artifacts are figures; the reproduction's reports are text.
This module renders the three figure archetypes the paper uses as
Unicode/ASCII graphics so a benchmark run reads like the evaluation
section:

* :func:`bar_chart` — horizontal bars (Figs. 5, 14, 15, 17, 18);
* :func:`box_row` — a box-and-whisker strip (Fig. 13);
* :func:`sparkline` — a compact time series (Fig. 4);
* :func:`xy_plot` — a multi-series scatter/line plot with optional log
  y-axis (Figs. 8, 11, 12).
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence, Tuple

__all__ = ["bar_chart", "box_row", "sparkline", "xy_plot"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def bar_chart(
    values: Mapping[str, float],
    width: int = 40,
    unit: str = "",
    baseline: Optional[float] = None,
) -> str:
    """Horizontal bar chart, one row per labelled value.

    ``baseline`` draws a reference tick (e.g. 1.0 for normalised
    results) as a ``|`` in each bar.
    """
    if not values:
        raise ValueError("need at least one value")
    if width < 5:
        raise ValueError("width must be at least 5")
    top = max(max(values.values()), baseline or 0.0, 1e-12)
    label_w = max(len(k) for k in values)
    lines = []
    for label, value in values.items():
        filled = int(round(value / top * width))
        bar = "█" * filled + " " * (width - filled)
        if baseline is not None:
            tick = min(int(round(baseline / top * width)), width - 1)
            bar = bar[:tick] + "|" + bar[tick + 1 :]
        lines.append(
            f"{label:<{label_w}s} {bar} {value:.3f}{unit}"
        )
    return "\n".join(lines)


def box_row(
    minimum: float,
    q1: float,
    median: float,
    q3: float,
    maximum: float,
    lo: float,
    hi: float,
    width: int = 40,
) -> str:
    """One box-and-whisker strip scaled to the [lo, hi] range."""
    if hi <= lo:
        raise ValueError("need hi > lo")
    if not minimum <= q1 <= median <= q3 <= maximum:
        raise ValueError("box values must be ordered")

    def col(x: float) -> int:
        frac = (x - lo) / (hi - lo)
        return max(0, min(width - 1, int(round(frac * (width - 1)))))

    cells = [" "] * width
    for i in range(col(minimum), col(q1)):
        cells[i] = "-"
    for i in range(col(q1), col(q3) + 1):
        cells[i] = "="
    for i in range(col(q3) + 1, col(maximum) + 1):
        cells[i] = "-"
    cells[col(minimum)] = "|"
    cells[col(maximum)] = "|"
    cells[col(median)] = "#"
    return "".join(cells)


def sparkline(series: Sequence[float], lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Compact one-line rendering of a time series."""
    vals = [v for v in series if not math.isnan(v)]
    if not vals:
        raise ValueError("need at least one finite value")
    lo = min(vals) if lo is None else lo
    hi = max(vals) if hi is None else hi
    span = hi - lo
    out = []
    for v in series:
        if math.isnan(v):
            out.append(" ")
            continue
        if span <= 0:
            out.append(_SPARK_LEVELS[0])
            continue
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        idx = max(0, min(len(_SPARK_LEVELS) - 1, idx))
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)


def xy_plot(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    log_y: bool = False,
    markers: str = "ox+*",
) -> str:
    """Multi-series (x, y) plot on a character canvas.

    ``log_y`` uses a log10 vertical scale — the paper's Fig. 8 and
    Fig. 13 tail-latency panels are log-scale. Series are assigned
    markers in order; overlapping points show the later series' marker.
    """
    if not series:
        raise ValueError("need at least one series")
    points = [
        (x, y) for pts in series.values() for (x, y) in pts
    ]
    if not points:
        raise ValueError("series contain no points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if log_y:
        if any(y <= 0 for y in ys):
            raise ValueError("log_y requires positive y values")
        ys = [math.log10(y) for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for (name, pts), marker in zip(series.items(), markers):
        for x, y in pts:
            yy = math.log10(y) if log_y else y
            cx = int((x - x_lo) / x_span * (width - 1))
            cy = int((yy - y_lo) / y_span * (height - 1))
            canvas[height - 1 - cy][cx] = marker

    lines = ["".join(row) for row in canvas]
    legend = "  ".join(
        f"{marker}={name}"
        for (name, _pts), marker in zip(series.items(), markers)
    )
    y_label = (
        f"y: {'log10 ' if log_y else ''}[{y_lo:.3g}, {y_hi:.3g}]"
    )
    x_label = f"x: [{x_lo:.3g}, {x_hi:.3g}]"
    return "\n".join(lines + [legend + "   " + y_label + "  " + x_label])
