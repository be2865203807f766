"""Fig. 18: sensitivity to NoC router delay.

Jumanji's gmean batch speedup on random mixes as router delay varies
from 1 to 3 cycles. Expected shape: D-NUCA's advantage grows with NoC
latency (placing data nearby saves more), from ~9% at 1 cycle to ~15%
at 3 cycles in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..metrics.speedup import gmean, weighted_speedup
from ..model.api import run_model
from ..model.workload import make_default_workload
from ..runner import Cell, SweepRunner, register_cell_kind
from ..workloads.mixes import random_lc_mix
from .common import PAPER, run_seed

__all__ = ["Fig18Result", "run", "format_table"]

ROUTER_DELAYS = (1, 2, 3)


@dataclass
class Fig18Result:
    #: router delay -> gmean Jumanji speedup.
    """Result container for this experiment."""
    speedups: Dict[int, float]

    def is_monotonic(self) -> bool:
        """Whether speedup rises with router delay."""
        delays = sorted(self.speedups)
        values = [self.speedups[d] for d in delays]
        return all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def noc_delay_cell(
    router_delay: int,
    mix_seed: int,
    epochs: int,
    design: str = "Jumanji",
    base_seed: int = 0,
) -> Cell:
    """Cell computing one (router delay, mix) speedup of Fig. 18."""
    return Cell(
        "noc_delay",
        {
            "router_delay": router_delay,
            "mix_seed": mix_seed,
            "epochs": epochs,
            "design": design,
            "base_seed": base_seed,
        },
    )


@register_cell_kind("noc_delay")
def _noc_delay_handler(
    router_delay: int,
    mix_seed: int,
    epochs: int,
    design: str = "Jumanji",
    base_seed: int = 0,
) -> float:
    config = SystemConfig().with_router_delay(router_delay)
    seed = run_seed(base_seed, mix_seed)
    lc_apps = list(random_lc_mix(mix_seed))
    workload = make_default_workload(
        lc_apps, mix_seed=mix_seed, load="high", config=config
    )
    static = run_model(
        design="Static", workload=workload, epochs=epochs, seed=seed
    )
    target = run_model(
        design=design, workload=workload, epochs=epochs, seed=seed
    )
    return weighted_speedup(target.batch_ipcs(), static.batch_ipcs())


def run(
    router_delays: Sequence[int] = ROUTER_DELAYS,
    mixes: int = PAPER.mixes,
    epochs: int = PAPER.epochs,
    design: str = "Jumanji",
    jobs: Optional[int] = None,
    base_seed: int = 0,
) -> Fig18Result:
    """Run the experiment; returns its result object."""
    pairs = [
        (delay, mix_seed)
        for delay in router_delays
        for mix_seed in range(mixes)
    ]
    runner = SweepRunner(jobs)
    per_cell = runner.map(
        [
            noc_delay_cell(delay, mix_seed, epochs, design, base_seed)
            for delay, mix_seed in pairs
        ]
    )
    speedups: Dict[int, List[float]] = {d: [] for d in router_delays}
    for (delay, _mix_seed), speedup in zip(pairs, per_cell):
        speedups[delay].append(speedup)
    return Fig18Result(
        speedups={d: gmean(s) for d, s in speedups.items()}
    )


def format_table(result: Fig18Result) -> str:
    """Render the result as the paper-style text report."""
    lines = [
        "Fig. 18 — NoC sensitivity (Jumanji gmean speedup, mixed LC)",
        f"{'router delay':>12s} {'speedup':>9s}",
    ]
    for delay in sorted(result.speedups):
        lines.append(f"{delay:>12d} {result.speedups[delay]:>9.3f}")
    lines.append(f"monotonic increase: {result.is_monotonic()}")
    return "\n".join(lines)
