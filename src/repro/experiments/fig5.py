"""Fig. 5: case-study end-to-end results.

For the Fig. 2/4 case study (4 VMs x (1 xapian + 4 batch), high load),
the figure reports each design's tail latency (normalised to the
deadline), gmean batch weighted speedup (normalised to Static), and
vulnerability. Expected shape: Adaptive and VM-Part meet deadlines with
negligible speedup; Jigsaw speeds batch up but violates deadlines;
Jumanji meets deadlines, nearly matches Jigsaw's speedup, and has zero
vulnerability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..model.api import run_model
from .common import PAPER

__all__ = ["Fig5Result", "run", "format_table"]

FIG5_DESIGNS = ("Static", "Adaptive", "VM-Part", "Jigsaw", "Jumanji")


@dataclass
class Fig5Result:
    """Result container for this experiment."""
    speedup: Dict[str, float]
    worst_tail: Dict[str, float]
    vulnerability: Dict[str, float]


def run(
    mix_seed: int = 0,
    epochs: int = PAPER.epochs,
    designs: Sequence[str] = FIG5_DESIGNS,
) -> Fig5Result:
    """Run the experiment; returns its result object."""
    speedup: Dict[str, float] = {}
    worst: Dict[str, float] = {}
    vuln: Dict[str, float] = {}
    baseline = None
    for design in designs:
        outcome, _result, baseline = run_model(
            design=design, lc_workload="xapian", load="high",
            mix_seed=mix_seed, epochs=epochs, baseline_ipcs=baseline,
        )
        speedup[design] = outcome.speedup
        worst[design] = outcome.worst_tail
        vuln[design] = outcome.vulnerability
    return Fig5Result(speedup=speedup, worst_tail=worst,
                      vulnerability=vuln)


def format_table(result: Fig5Result) -> str:
    """Render the result as the paper-style text report."""
    lines = [
        "Fig. 5 — case-study end-to-end results",
        f"{'design':<12s} {'speedup':>8s} {'tail/deadline':>14s} "
        f"{'vulnerability':>14s}",
    ]
    for design in result.speedup:
        lines.append(
            f"{design:<12s} {result.speedup[design]:>8.3f} "
            f"{result.worst_tail[design]:>14.2f} "
            f"{result.vulnerability[design]:>14.2f}"
        )
    return "\n".join(lines)
