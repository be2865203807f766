"""Fig. 15: dynamic data-movement energy at high load.

Average dynamic energy split between L1, L2, LLC banks, NoC, and memory
for each design, normalised to Static. Expected shape: Jumanji and
Jigsaw reduce data-movement energy by ~13% vs Static (fewer misses from
partitioning, fewer hops from placement); Adaptive is ~flat (+0.1%) and
VM-Part slightly worse (+2.4%) due to associativity-induced misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..noc.energy import EnergyBreakdown
from .common import DEFAULT_DESIGNS, SweepResult

__all__ = ["Fig15Result", "format_table", "from_sweep"]


@dataclass
class Fig15Result:
    """Result container for this experiment."""
    energy: Dict[str, EnergyBreakdown]

    def normalized_total(self, design: str) -> float:
        """Design's total energy over Static's."""
        return self.energy[design].total / self.energy["Static"].total


def from_sweep(
    sweep: SweepResult, designs: Sequence[str] = DEFAULT_DESIGNS
) -> Fig15Result:
    """Aggregate an existing sweep into the Fig. 15 view."""
    return Fig15Result(
        energy={
            d: sweep.avg_energy(d, load="high") for d in designs
        }
    )


def format_table(result: Fig15Result) -> str:
    """Render the result as the paper-style text report."""
    lines = [
        "Fig. 15 — dynamic data-movement energy at high load "
        "(normalised to Static)",
        f"{'design':<12s} {'L1':>7s} {'L2':>7s} {'LLC':>7s} "
        f"{'NoC':>7s} {'Mem':>7s} {'total':>7s}",
    ]
    base = result.energy["Static"].total
    for design, e in result.energy.items():
        lines.append(
            f"{design:<12s} {e.l1 / base:>7.3f} {e.l2 / base:>7.3f} "
            f"{e.llc / base:>7.3f} {e.noc / base:>7.3f} "
            f"{e.mem / base:>7.3f} {e.total / base:>7.3f}"
        )
    return "\n".join(lines)
