"""Fig. 17: Jumanji's batch speedup as the number of VMs varies.

The 4 LC + 16 batch apps are regrouped into 1, 2, 4, 5, 10, or 12 VMs
(12 = one VM per LC app plus one per pair of batch apps). More VMs mean
stricter bank isolation (more, smaller partitions). Expected shape:
speedup degrades only slightly — from ~16% with one VM (no isolation
constraint) to ~13% with twelve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..metrics.speedup import gmean, weighted_speedup
from ..model.api import run_model
from ..model.workload import WorkloadSpec
from ..runner import Cell, SweepRunner, register_cell_kind
from ..workloads.mixes import (
    build_vm_configuration,
    random_batch_mix,
    random_lc_mix,
)
from .common import (
    PAPER,
    config_as_params,
    config_from_params,
    run_seed,
)

__all__ = ["Fig17Result", "VM_CONFIGS", "run", "format_table"]

#: VM counts evaluated by the paper.
VM_CONFIGS = (1, 2, 4, 5, 10, 12)


def _config_label(num_vms: int) -> str:
    if num_vms == 1:
        return "1x(4LC+16B)"
    if num_vms == 2:
        return "2x(2LC+8B)"
    if num_vms == 4:
        return "4x(1LC+4B)"
    if num_vms == 5:
        return "4x(1LC)+1x(16B)"
    if num_vms == 10:
        return "4x(1LC)+6xB"
    if num_vms == 12:
        return "4x(1LC)+8x(2B)"
    return f"{num_vms} VMs"


@dataclass
class Fig17Result:
    #: num_vms -> gmean speedup over mixes.
    """Result container for this experiment."""
    speedups: Dict[int, float]
    #: num_vms -> worst normalised LC tail over mixes.
    worst_tails: Dict[int, float]
    #: num_vms -> Jumanji epochs, summed over mixes, whose placement
    #: failed so the runtime kept the previous allocation.
    placement_failures: Dict[int, int]

    def degradation(self) -> float:
        """Speedup drop from fewest to most VMs."""
        vm_counts = sorted(self.speedups)
        return self.speedups[vm_counts[0]] - self.speedups[vm_counts[-1]]


def vm_scale_cell(
    num_vms: int,
    mix_seed: int,
    epochs: int,
    load: str = "high",
    base_seed: int = 0,
    config: Optional[Mapping[str, Any]] = None,
) -> Cell:
    """Cell computing one (vm-config, mix) point of Fig. 17."""
    return Cell(
        "vm_scale",
        {
            "num_vms": num_vms,
            "mix_seed": mix_seed,
            "epochs": epochs,
            "load": load,
            "base_seed": base_seed,
            "config": dict(config) if config is not None else None,
        },
    )


@register_cell_kind("vm_scale")
def _vm_scale_handler(
    num_vms: int,
    mix_seed: int,
    epochs: int,
    load: str = "high",
    base_seed: int = 0,
    config: Optional[Mapping[str, Any]] = None,
) -> Tuple[float, float, int]:
    system = config_from_params(config)
    system = system if system is not None else SystemConfig()
    seed = run_seed(base_seed, mix_seed)
    lc_apps = list(random_lc_mix(mix_seed))
    batch_apps = list(random_batch_mix(mix_seed))
    vms = build_vm_configuration(num_vms, lc_apps, batch_apps, system)
    workload = WorkloadSpec(config=system, vms=vms, load=load)
    static = run_model(
        design="Static", workload=workload, epochs=epochs, seed=seed
    )
    jumanji = run_model(
        design="Jumanji", workload=workload, epochs=epochs, seed=seed
    )
    speedup = weighted_speedup(
        jumanji.batch_ipcs(), static.batch_ipcs()
    )
    worst_tail = max(
        jumanji.lc_tail_normalized(a) for a in jumanji.lc_deadlines
    )
    return speedup, worst_tail, jumanji.placement_failures


def run(
    vm_configs: Sequence[int] = VM_CONFIGS,
    mixes: int = PAPER.mixes,
    epochs: int = PAPER.epochs,
    load: str = "high",
    config: Optional[SystemConfig] = None,
    jobs: Optional[int] = None,
    base_seed: int = 0,
) -> Fig17Result:
    """Run the experiment; returns its result object."""
    config = config if config is not None else SystemConfig()
    config_params = config_as_params(config)
    pairs = [
        (mix_seed, num_vms)
        for mix_seed in range(mixes)
        for num_vms in vm_configs
    ]
    runner = SweepRunner(jobs)
    results = runner.map(
        [
            vm_scale_cell(
                num_vms, mix_seed, epochs, load, base_seed, config_params
            )
            for mix_seed, num_vms in pairs
        ]
    )
    speedups: Dict[int, List[float]] = {v: [] for v in vm_configs}
    tails: Dict[int, List[float]] = {v: [] for v in vm_configs}
    failures: Dict[int, int] = {v: 0 for v in vm_configs}
    for (mix_seed, num_vms), (speedup, worst_tail, failed) in zip(
        pairs, results
    ):
        speedups[num_vms].append(speedup)
        tails[num_vms].append(worst_tail)
        failures[num_vms] += failed
    return Fig17Result(
        speedups={v: gmean(s) for v, s in speedups.items()},
        worst_tails={v: max(t) for v, t in tails.items()},
        placement_failures=failures,
    )


def format_table(result: Fig17Result) -> str:
    """Render the result as the paper-style text report."""
    lines = [
        "Fig. 17 — Jumanji batch speedup vs. number of VMs "
        "(mixed LC, high load)",
        f"{'config':<18s} {'gmean speedup':>14s} {'worst tail':>11s} "
        f"{'placement failed':>17s}",
    ]
    for num_vms in sorted(result.speedups):
        lines.append(
            f"{_config_label(num_vms):<18s} "
            f"{result.speedups[num_vms]:>14.3f} "
            f"{result.worst_tails[num_vms]:>11.2f} "
            f"{result.placement_failures[num_vms]:>17d}"
        )
    lines.append(f"degradation 1 -> 12 VMs: {result.degradation():.3f}")
    return "\n".join(lines)
