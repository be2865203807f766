"""Fig. 13: the paper's main results.

Normalised tail latency and gmean batch weighted speedup for each of the
six LC workloads (five single-app + Mixed) at high and low load, over
random batch mixes, as box-and-whisker distributions.

Expected shapes (paper Sec. VIII-B):

* Adaptive, VM-Part, and Jumanji meet tail-latency deadlines with rare
  exceptions; Jigsaw violates massively on xapian and Mixed (up to
  hundreds of times) and overprovisions masstree/silo at high load.
* Batch weighted speedup: Jumanji 11-15%, Jigsaw 11-18%, Adaptive and
  VM-Part under ~4%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .common import (
    DEFAULT_DESIGNS,
    LC_WORKLOADS,
    PAPER,
    SweepResult,
    run_sweep,
)

__all__ = ["Fig13Result", "run", "format_table"]


@dataclass
class Fig13Result:
    """Result container for this experiment."""
    sweep: SweepResult
    designs: Sequence[str]
    lc_workloads: Sequence[str]
    loads: Sequence[str]


def run(
    designs: Sequence[str] = DEFAULT_DESIGNS,
    lc_workloads: Sequence[str] = LC_WORKLOADS,
    loads: Sequence[str] = ("high", "low"),
    mixes: int = PAPER.mixes,
    epochs: int = PAPER.epochs,
    jobs: Optional[int] = None,
    base_seed: int = 0,
) -> Fig13Result:
    """Run the experiment; returns its result object."""
    sweep = run_sweep(
        designs=designs,
        lc_workloads=lc_workloads,
        loads=loads,
        mixes=mixes,
        epochs=epochs,
        jobs=jobs,
        base_seed=base_seed,
    )
    return Fig13Result(
        sweep=sweep, designs=designs, lc_workloads=lc_workloads,
        loads=loads,
    )


def format_table(result: Fig13Result) -> str:
    """Render the result as the paper-style text report."""
    from .plotting import box_row

    lines = ["Fig. 13 — main results (box stats over batch mixes)"]
    for load in result.loads:
        lines.append(f"--- load: {load}")
        lines.append(
            "normalised tail latency (tail / deadline; strip scale "
            "0..4, # = median)"
        )
        for lc in result.lc_workloads:
            lines.append(f"  {lc}:")
            for design in result.designs:
                box = result.sweep.tail_box(design, lc, load)
                strip = box_row(
                    min(box.minimum, 4.0),
                    min(box.q1, 4.0),
                    min(box.median, 4.0),
                    min(box.q3, 4.0),
                    min(box.maximum, 4.0),
                    lo=0.0,
                    hi=4.0,
                    width=32,
                )
                lines.append(f"    {design:<10s} [{strip}] {box}")
        lines.append("batch weighted speedup (vs Static)")
        for lc in result.lc_workloads:
            lines.append(f"  {lc}:")
            for design in result.designs:
                if design == "Static":
                    continue
                box = result.sweep.speedup_box(design, lc, load)
                g = result.sweep.gmean_speedup(design, lc, load)
                lines.append(
                    f"    {design:<10s} {box} gmean={g:.3f}"
                )
    for design in result.designs:
        if design == "Static":
            continue
        g = result.sweep.gmean_speedup(design)
        lines.append(f"overall gmean speedup {design}: {g:.3f}")
    return "\n".join(lines)
