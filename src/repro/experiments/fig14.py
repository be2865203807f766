"""Fig. 14: vulnerability to port attacks, averaged over all experiments.

The metric is the average number of untrusted applications (apps from
other VMs) occupying the LLC bank a victim accesses, per access.
Expected shape: Adaptive = VM-Part = 15 (every untrusted app sees every
access in the 4 x 5-app workload); Jigsaw small (~0.6, a heuristic
by-product of data placement); Jumanji exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from .common import DEFAULT_DESIGNS, SweepResult

__all__ = ["Fig14Result", "format_table", "from_sweep"]


@dataclass
class Fig14Result:
    """Result container for this experiment."""
    vulnerability: Dict[str, float]


def from_sweep(
    sweep: SweepResult, designs: Sequence[str] = DEFAULT_DESIGNS
) -> Fig14Result:
    """Aggregate an existing sweep (e.g. the Fig. 13 run) into Fig. 14."""
    return Fig14Result(
        vulnerability={
            d: sweep.avg_vulnerability(d) for d in designs
        }
    )


def format_table(result: Fig14Result) -> str:
    """Render the result as the paper-style text report."""
    from .plotting import bar_chart

    return (
        "Fig. 14 — vulnerability to port attacks "
        "(potential attackers per LLC access)\n"
        + bar_chart(dict(result.vulnerability))
    )
