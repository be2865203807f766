"""Fig. 16: Jumanji vs. Insecure and Ideal-Batch (sensitivity).

Gmean batch weighted speedup at high and low load for Jumanji compared
against (i) "Jumanji: Insecure" — identical but without bank isolation —
and (ii) "Jumanji: Ideal Batch" — an infeasible design that removes all
competition between LC and batch placement. Expected shape: Jumanji
within ~3% of Insecure and ~2% of Ideal Batch on average — bank
isolation is nearly free and the greedy placement is nearly ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .common import LC_WORKLOADS, PAPER, SweepResult, run_sweep

__all__ = ["Fig16Result", "run", "format_table"]

FIG16_DESIGNS = ("Static", "Jumanji", "Jumanji: Insecure",
                 "Jumanji: Ideal Batch")


@dataclass
class Fig16Result:
    """Result container for this experiment."""
    sweep: SweepResult
    lc_workloads: Sequence[str]

    def gmean(self, design: str, load: str,
              lc: Optional[str] = None) -> float:
        """Gmean speedup of a design at one load (optionally one workload)."""
        return self.sweep.gmean_speedup(design, lc, load)

    def gap_to(self, other: str, load: Optional[str] = None) -> float:
        """Jumanji's average speedup shortfall vs. ``other``."""
        loads = [load] if load else ["high", "low"]
        gaps = []
        for ld in loads:
            gaps.append(
                self.sweep.gmean_speedup(other, load=ld)
                - self.sweep.gmean_speedup("Jumanji", load=ld)
            )
        return sum(gaps) / len(gaps)


def run(
    lc_workloads: Sequence[str] = LC_WORKLOADS,
    mixes: int = PAPER.mixes,
    epochs: int = PAPER.epochs,
    jobs: Optional[int] = None,
    base_seed: int = 0,
) -> Fig16Result:
    """Run the experiment; returns its result object."""
    sweep = run_sweep(
        designs=FIG16_DESIGNS,
        lc_workloads=lc_workloads,
        loads=("high", "low"),
        mixes=mixes,
        epochs=epochs,
        jobs=jobs,
        base_seed=base_seed,
    )
    return Fig16Result(sweep=sweep, lc_workloads=lc_workloads)


def format_table(result: Fig16Result) -> str:
    """Render the result as the paper-style text report."""
    lines = ["Fig. 16 — Jumanji vs Insecure vs Ideal Batch "
             "(gmean batch speedup vs Static)"]
    for load in ("high", "low"):
        lines.append(f"--- load: {load}")
        header = f"{'workload':<10s}" + "".join(
            f"{d:>22s}" for d in FIG16_DESIGNS if d != "Static"
        )
        lines.append(header)
        for lc in result.lc_workloads:
            row = f"{lc:<10s}"
            for d in FIG16_DESIGNS:
                if d == "Static":
                    continue
                row += f"{result.gmean(d, load, lc):>22.3f}"
            lines.append(row)
    lines.append(
        f"avg gap to Insecure: {result.gap_to('Jumanji: Insecure'):.3f}; "
        f"avg gap to Ideal Batch: "
        f"{result.gap_to('Jumanji: Ideal Batch'):.3f}"
    )
    return "\n".join(lines)
