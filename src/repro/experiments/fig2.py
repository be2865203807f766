"""Fig. 2: representative data placements under each LLC design.

The paper's Fig. 2 shows where the case-study workload's data lands
under Adaptive, VM-Part, Jigsaw, and Jumanji. We regenerate it as chip
maps: S-NUCA designs put every VM in every bank; Jigsaw clusters data
near threads but still mixes VMs at boundaries; Jumanji assigns every
bank to exactly one VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..core.allocation import Allocation
from ..core.designs import make_design
from ..model.workload import make_default_workload
from .chipmap import render_design_comparison

__all__ = ["Fig2Result", "run", "format_table"]

FIG2_DESIGNS = ("Adaptive", "VM-Part", "Jigsaw", "Jumanji")


@dataclass
class Fig2Result:
    """Result container for this experiment."""
    allocations: Dict[str, Allocation]
    vm_of_app: Dict[str, int]
    lc_tiles: Dict[int, str]

    def banks_shared_across_vms(self, design: str) -> int:
        """Number of banks holding data from more than one VM."""
        alloc = self.allocations[design]
        return len(alloc.violates_bank_isolation(self.vm_of_app))


def run(
    mix_seed: int = 0,
    lat_size_mb: float = 2.0,
    designs: Sequence[str] = FIG2_DESIGNS,
) -> Fig2Result:
    """Run the experiment; returns its result object."""
    workload = make_default_workload(
        ["xapian"], mix_seed=mix_seed, load="high"
    )
    ctx = workload.build_context(
        {a: lat_size_mb for a in workload.lc_apps}
    )
    allocations = {
        name: make_design(name).allocate(ctx) for name in designs
    }
    lc_tiles = {
        workload.tile_of(a): a for a in workload.lc_apps
    }
    return Fig2Result(
        allocations=allocations,
        vm_of_app=ctx.vm_of_app_map(),
        lc_tiles=lc_tiles,
    )


def format_table(result: Fig2Result) -> str:
    """Render the result as the paper-style text report."""
    header = (
        "Fig. 2 — representative data placements "
        "(4 VMs x (1 xapian + 4 batch))"
    )
    body = render_design_comparison(
        result.allocations, result.vm_of_app, result.lc_tiles
    )
    shared = ", ".join(
        f"{d}: {result.banks_shared_across_vms(d)}"
        for d in result.allocations
    )
    return f"{header}\n{body}\nbanks shared across VMs — {shared}"
