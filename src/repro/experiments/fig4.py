"""Fig. 4: case-study behaviour over time.

Four VMs each run one xapian instance plus four batch apps at high load.
For each LLC design the figure tracks, per 100 ms epoch:

* (a) average end-to-end query latency of the four xapian instances,
* (b) average LLC space reserved for xapian,
* (c) vulnerability to shared-cache-structure attacks.

Expected shape: all designs but Jigsaw keep latency near the deadline;
Jigsaw's latency grows over time (its starved allocation leaves xapian's
queue unstable); Adaptive/VM-Part need more space than Jumanji; Jigsaw
and Jumanji show near-zero vulnerability, Jumanji exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..model.api import run_model
from ..model.workload import make_default_workload
from .common import PAPER

__all__ = ["Fig4Result", "run", "format_table"]

CASE_STUDY_DESIGNS = ("Adaptive", "VM-Part", "Jigsaw", "Jumanji")


@dataclass
class Fig4Result:
    """Per-design time series of the case study."""

    epochs: int
    #: design -> per-epoch mean xapian latency, normalised to deadline.
    latency_series: Dict[str, List[float]] = field(default_factory=dict)
    #: design -> per-epoch mean LLC MB reserved per xapian instance.
    alloc_series: Dict[str, List[float]] = field(default_factory=dict)
    #: design -> per-epoch vulnerability (attackers per access).
    vuln_series: Dict[str, List[float]] = field(default_factory=dict)


def run(
    mix_seed: int = 0,
    epochs: int = PAPER.epochs,
    designs: Sequence[str] = CASE_STUDY_DESIGNS,
) -> Fig4Result:
    """Run the case study and collect the three time series."""
    out = Fig4Result(epochs=epochs)
    for design in designs:
        workload = make_default_workload(
            ["xapian"], mix_seed=mix_seed, load="high"
        )
        result = run_model(
            design=design, workload=workload, epochs=epochs,
            seed=mix_seed,
        )
        lat, alloc, vuln = [], [], []
        for em in result.epochs:
            tails = [
                t / result.lc_deadlines[a]
                for a, t in em.lc_tails.items()
                if not np.isnan(t)
            ]
            lat.append(float(np.mean(tails)) if tails else float("nan"))
            alloc.append(float(np.mean(list(em.lc_sizes.values()))))
            vuln.append(em.vulnerability)
        out.latency_series[design] = lat
        out.alloc_series[design] = alloc
        out.vuln_series[design] = vuln
    return out


def format_table(result: Fig4Result) -> str:
    """Render the three panels as sparklines plus summary numbers."""
    from .plotting import sparkline

    all_lat = [
        v
        for series in result.latency_series.values()
        for v in series
        if not np.isnan(v)
    ]
    lat_hi = max(all_lat) if all_lat else 1.0
    lines = ["Fig. 4 — case study over time (xapian x4, high load)"]
    lines.append(
        "(a) mean query latency / deadline, per epoch "
        f"(sparkline scale 0..{lat_hi:.1f})"
    )
    for design, series in result.latency_series.items():
        lines.append(
            f"  {design:<10s} {sparkline(series, lo=0.0, hi=lat_hi)} "
            f"last={series[-1]:.2f}"
        )
    lines.append(
        "(b) mean LLC allocation per xapian instance (MB, scale 0..3)"
    )
    for design, series in result.alloc_series.items():
        lines.append(
            f"  {design:<10s} {sparkline(series, lo=0.0, hi=3.0)} "
            f"avg={sum(series) / len(series):.2f}"
        )
    lines.append("(c) vulnerability (potential attackers per access)")
    for design, series in result.vuln_series.items():
        lines.append(
            f"  {design:<10s} {sparkline(series, lo=0.0, hi=15.0)} "
            f"avg={sum(series) / len(series):.2f}"
        )
    return "\n".join(lines)
