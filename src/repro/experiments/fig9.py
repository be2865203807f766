"""Fig. 9: sensitivity to the feedback controller's parameters.

The case-study workload is rerun varying one controller parameter at a
time: the target latency range, the panic threshold, and the step size.
Expected shape: gmean weighted speedup and tail latency change very
little across parameter values — Jumanji is insensitive, so one setting
works for many LC apps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..config import ControllerConfig
from ..metrics.speedup import weighted_speedup
from ..model.api import run_model
from ..model.workload import make_default_workload
from .common import PAPER

__all__ = ["Fig9Result", "PARAMETER_GRID", "run", "format_table"]

#: The parameter variations of Fig. 9 (bold = paper defaults).
PARAMETER_GRID: Dict[str, List[ControllerConfig]] = {
    "target range": [
        ControllerConfig(target_lo=0.80, target_hi=0.90),
        ControllerConfig(target_lo=0.85, target_hi=0.95),  # default
        ControllerConfig(target_lo=0.90, target_hi=1.00),
    ],
    "panic threshold": [
        ControllerConfig(panic_threshold=1.05),
        ControllerConfig(panic_threshold=1.10),  # default
        ControllerConfig(panic_threshold=1.20),
    ],
    "step size": [
        ControllerConfig(step=0.05),
        ControllerConfig(step=0.10),  # default
        ControllerConfig(step=0.20),
    ],
}


@dataclass
class Fig9Result:
    #: (group, description) -> (gmean speedup, worst normalised tail)
    """Result container for this experiment."""
    cells: Dict[Tuple[str, str], Tuple[float, float]] = field(
        default_factory=dict
    )

    def speedup_spread(self) -> float:
        """Max - min speedup across all parameter settings."""
        speeds = [s for s, _ in self.cells.values()]
        return max(speeds) - min(speeds)


def _describe(group: str, cfg: ControllerConfig) -> str:
    if group == "target range":
        return f"[{cfg.target_lo:.2f},{cfg.target_hi:.2f}]"
    if group == "panic threshold":
        return f"{cfg.panic_threshold:.2f}"
    return f"{cfg.step:.2f}"


def run(
    mix_seed: int = 0,
    epochs: int = PAPER.epochs,
    design: str = "Jumanji",
) -> Fig9Result:
    """Run the experiment; returns its result object."""
    result = Fig9Result()
    workload = make_default_workload(
        ["xapian"], mix_seed=mix_seed, load="high"
    )
    static = run_model(
        design="Static", workload=workload, epochs=epochs,
        seed=mix_seed,
    )
    baseline = static.batch_ipcs()
    for group, configs in PARAMETER_GRID.items():
        for cfg in configs:
            run_result = run_model(
                design=design,
                workload=workload,
                epochs=epochs,
                seed=mix_seed,
                controller_config=cfg,
            )
            speedup = weighted_speedup(run_result.batch_ipcs(), baseline)
            worst = max(
                run_result.lc_tail_normalized(a)
                for a in run_result.lc_deadlines
            )
            result.cells[(group, _describe(group, cfg))] = (
                speedup, worst,
            )
    return result


def format_table(result: Fig9Result) -> str:
    """Render the result as the paper-style text report."""
    lines = [
        "Fig. 9 — controller parameter sensitivity (Jumanji, xapian x4)",
        f"{'group':<16s} {'value':<14s} {'speedup':>8s} "
        f"{'worst tail':>11s}",
    ]
    for (group, desc), (speedup, tail) in result.cells.items():
        lines.append(
            f"{group:<16s} {desc:<14s} {speedup:>8.3f} {tail:>11.2f}"
        )
    lines.append(
        f"speedup spread across settings: {result.speedup_spread():.3f}"
    )
    return "\n".join(lines)
