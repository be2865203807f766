"""Fig. 8: xapian's tail latency vs. its LLC allocation, +- D-NUCA.

xapian runs alone at high load with a *fixed* allocation. The red line
(S-NUCA) sets the allocation with way-partitioning striped over all
banks; the blue line (D-NUCA) reserves the same capacity in the banks
closest to xapian's core. Expected shape: tail latency explodes (orders
of magnitude) below a critical allocation; the D-NUCA curve needs less
space to meet the deadline and its worst case is far below S-NUCA's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..config import RECONFIG_INTERVAL_CYCLES, SystemConfig
from ..model.params import DEFAULT_PARAMS
from ..model.performance import lc_service_cycles, snuca_avg_rtt
from ..model.system import compute_deadline_cycles
from ..noc.mesh import MeshNoc
from ..sim.queueing import LcRequestSimulator, percentile
from ..workloads.tailbench import get_lc_profile

__all__ = ["Fig8Result", "run", "format_table", "tail_at_allocation"]

#: The sweep starts at 1 MB (one bank) — the smallest placement-relevant
#: allocation, and the regime where the paper's ~18x worst-case gap
#: between S-NUCA and D-NUCA appears.
DEFAULT_SIZES = (1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0,
                 6.0, 8.0, 12.0, 16.0, 20.0)


def _nearby_rtt(size_mb: float, config: SystemConfig, noc: MeshNoc,
                tile: int = 0) -> float:
    """Average round-trip when the allocation fills the closest banks."""
    banks = noc.banks_by_distance(tile)
    remaining = size_mb
    total = 0.0
    for bank in banks:
        if remaining <= 0:
            break
        grab = min(config.llc_bank_mb, remaining)
        total += noc.round_trip(tile, bank) * grab
        remaining -= grab
    return total / size_mb if size_mb > 0 else 0.0


def tail_at_allocation(
    lc_name: str,
    size_mb: float,
    dnuca: bool,
    config: Optional[SystemConfig] = None,
    epochs: int = 30,
    seed: int = 7,
) -> float:
    """Tail latency (cycles) of the app alone at a fixed allocation."""
    config = config if config is not None else SystemConfig()
    noc = MeshNoc(config)
    profile = get_lc_profile(lc_name)
    if dnuca:
        rtt = _nearby_rtt(max(size_mb, 1e-6), config, noc)
        # Concentrated in whole banks: full associativity.
        ways = float(config.llc_bank_ways)
    else:
        rtt = snuca_avg_rtt(0, noc)
        # Way-partitioned slice of every bank.
        ways = max(
            size_mb / config.llc_size_mb * config.llc_bank_ways, 0.0
        )
    service = lc_service_cycles(
        profile, size_mb, rtt, ways, config, DEFAULT_PARAMS
    )
    sim = LcRequestSimulator(
        qps=profile.qps.high_qps, service_cv=profile.service_cv,
        seed=seed,
    )
    latencies: List[float] = []
    for _ in range(epochs):
        res = sim.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
        latencies.extend(res.latencies_cycles)
    if not latencies:
        return float("inf")
    return percentile(latencies, 95.0)


@dataclass
class Fig8Result:
    """Result container for this experiment."""
    lc_name: str
    sizes_mb: List[float]
    deadline_cycles: float
    snuca_tails: List[float] = field(default_factory=list)
    dnuca_tails: List[float] = field(default_factory=list)

    def min_size_meeting_deadline(self, dnuca: bool) -> Optional[float]:
        """Smallest allocation whose tail is within the deadline."""
        tails = self.dnuca_tails if dnuca else self.snuca_tails
        for size, tail in zip(self.sizes_mb, tails):
            if tail <= self.deadline_cycles:
                return size
        return None

    def worst_case_ratio(self) -> float:
        """S-NUCA worst tail over D-NUCA worst tail."""
        return max(self.snuca_tails) / max(self.dnuca_tails)


def run(
    lc_name: str = "xapian",
    sizes_mb: Sequence[float] = DEFAULT_SIZES,
    epochs: int = 30,
    seed: int = 7,
) -> Fig8Result:
    """Run the experiment; returns its result object."""
    deadline = compute_deadline_cycles(lc_name)
    result = Fig8Result(
        lc_name=lc_name,
        sizes_mb=list(sizes_mb),
        deadline_cycles=deadline,
    )
    for size in sizes_mb:
        result.snuca_tails.append(
            tail_at_allocation(lc_name, size, dnuca=False,
                               epochs=epochs, seed=seed)
        )
        result.dnuca_tails.append(
            tail_at_allocation(lc_name, size, dnuca=True,
                               epochs=epochs, seed=seed)
        )
    return result


def format_table(result: Fig8Result) -> str:
    """Render the result as the paper-style text report."""
    lines = [
        f"Fig. 8 — {result.lc_name} tail latency vs. allocation "
        "(normalised to deadline)",
        f"{'MB':>6s} {'S-NUCA':>10s} {'D-NUCA':>10s}",
    ]
    for size, s, d in zip(
        result.sizes_mb, result.snuca_tails, result.dnuca_tails
    ):
        lines.append(
            f"{size:>6.2f} {s / result.deadline_cycles:>10.2f} "
            f"{d / result.deadline_cycles:>10.2f}"
        )
    s_min = result.min_size_meeting_deadline(dnuca=False)
    d_min = result.min_size_meeting_deadline(dnuca=True)
    lines.append(
        f"deadline met at: S-NUCA {s_min} MB, D-NUCA {d_min} MB; "
        f"worst-case tail ratio S/D = {result.worst_case_ratio():.1f}x"
    )
    from .plotting import xy_plot

    dl = result.deadline_cycles
    lines.append("")
    lines.append(
        xy_plot(
            {
                "S-NUCA": list(
                    zip(result.sizes_mb,
                        [t / dl for t in result.snuca_tails])
                ),
                "D-NUCA": list(
                    zip(result.sizes_mb,
                        [t / dl for t in result.dnuca_tails])
                ),
            },
            log_y=True,
            height=12,
        )
    )
    return "\n".join(lines)
