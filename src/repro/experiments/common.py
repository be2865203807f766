"""Shared harness for the paper's evaluation experiments.

Every figure in Sec. VIII is a view over the same underlying sweep:
run a set of LLC designs against workloads (an LC-app choice, a load
level, and a random batch mix), then aggregate tails, speedups,
vulnerability, and energy. This module provides that sweep plus the
box-plot statistics the paper's figures report.

Environment knobs (so benchmarks stay tractable while full paper-scale
runs remain one setting away):

* ``REPRO_MIXES``  — batch mixes per workload (paper: 40; default 6)
* ``REPRO_EPOCHS`` — 100 ms epochs per run (default 20)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..config import Engine, Settings, SystemConfig
from ..metrics.speedup import gmean, weighted_speedup
from ..model.system import RunResult, _run_design
from ..model.workload import WorkloadSpec, make_default_workload
from ..noc.energy import EnergyBreakdown
from ..runner import (
    Cell,
    SweepRunner,
    get_or_compute,
    register_cell_kind,
)
from ..workloads.mixes import random_lc_mix

__all__ = [
    "DEFAULT_DESIGNS",
    "ALL_DESIGNS",
    "LC_WORKLOADS",
    "BoxStats",
    "WorkloadOutcome",
    "SweepResult",
    "num_mixes",
    "num_epochs",
    "run_seed",
    "run_sweep",
    "cached_workload_outcome",
    "baseline_cell",
    "workload_cell",
    "config_as_params",
    "config_from_params",
    "box_stats",
]

#: The four primary designs of the paper's comparison.
DEFAULT_DESIGNS = ("Static", "Adaptive", "VM-Part", "Jigsaw", "Jumanji")

#: All designs, including the Fig. 16 sensitivity variants.
ALL_DESIGNS = DEFAULT_DESIGNS + (
    "Jumanji: Insecure",
    "Jumanji: Ideal Batch",
)

#: The six LC workloads of Fig. 13: five single-app configurations plus
#: the mixed configuration ("Mixed" draws a random LC mix per batch mix).
LC_WORKLOADS = (
    "masstree",
    "xapian",
    "img-dnn",
    "silo",
    "moses",
    "Mixed",
)


def num_mixes(default: int = 6) -> int:
    """Batch mixes per workload (``REPRO_MIXES`` env override)."""
    mixes = Settings.from_env().mixes
    return mixes if mixes is not None else default


def num_epochs(default: int = 20) -> int:
    """Epochs per run (``REPRO_EPOCHS`` env override)."""
    epochs = Settings.from_env().epochs
    return epochs if epochs is not None else default


@dataclass(frozen=True)
class BoxStats:
    """Box-and-whisker summary used by the paper's figures."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    def __str__(self) -> str:
        return (
            f"[{self.minimum:.3f} | {self.q1:.3f} {self.median:.3f} "
            f"{self.q3:.3f} | {self.maximum:.3f}]"
        )


def box_stats(values: Sequence[float]) -> BoxStats:
    """Quartiles and whiskers of a sample (whiskers = extremes)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one value")
    return BoxStats(
        minimum=float(arr.min()),
        q1=float(np.percentile(arr, 25)),
        median=float(np.percentile(arr, 50)),
        q3=float(np.percentile(arr, 75)),
        maximum=float(arr.max()),
        mean=float(arr.mean()),
    )


@dataclass
class WorkloadOutcome:
    """One (design, lc-workload, load, mix) cell of the sweep."""

    design: str
    lc_workload: str
    load: str
    mix_seed: int
    speedup: float
    lc_tails_normalized: Dict[str, float]
    vulnerability: float
    energy: EnergyBreakdown
    avg_lc_size_mb: float

    @property
    def worst_tail(self) -> float:
        """Max normalised tail over the cell's LC apps."""
        return max(self.lc_tails_normalized.values())


@dataclass
class SweepResult:
    """All outcomes of a sweep, with aggregation helpers."""

    outcomes: List[WorkloadOutcome] = field(default_factory=list)

    def select(
        self,
        design: Optional[str] = None,
        lc_workload: Optional[str] = None,
        load: Optional[str] = None,
    ) -> List[WorkloadOutcome]:
        """Outcomes filtered by design / workload / load."""
        out = self.outcomes
        if design is not None:
            out = [o for o in out if o.design == design]
        if lc_workload is not None:
            out = [o for o in out if o.lc_workload == lc_workload]
        if load is not None:
            out = [o for o in out if o.load == load]
        return out

    def speedup_box(
        self, design: str, lc_workload: Optional[str] = None,
        load: Optional[str] = None,
    ) -> BoxStats:
        """Box stats of weighted speedup over matching cells."""
        cells = self.select(design, lc_workload, load)
        return box_stats([o.speedup for o in cells])

    def gmean_speedup(
        self, design: str, lc_workload: Optional[str] = None,
        load: Optional[str] = None,
    ) -> float:
        """Gmean weighted speedup over matching cells."""
        cells = self.select(design, lc_workload, load)
        return gmean([o.speedup for o in cells])

    def tail_box(
        self, design: str, lc_workload: Optional[str] = None,
        load: Optional[str] = None,
    ) -> BoxStats:
        """Box stats of normalised tails over matching cells."""
        cells = self.select(design, lc_workload, load)
        tails = [
            t for o in cells for t in o.lc_tails_normalized.values()
        ]
        return box_stats(tails)

    def avg_vulnerability(self, design: str) -> float:
        """Mean attackers-per-access over a design's cells."""
        cells = self.select(design)
        return float(np.mean([o.vulnerability for o in cells]))

    def avg_energy(self, design: str, load: Optional[str] = None
                   ) -> EnergyBreakdown:
        """Mean per-cell energy breakdown for a design."""
        cells = self.select(design, load=load)
        if not cells:
            raise ValueError(f"no outcomes for {design!r}")
        total = EnergyBreakdown()
        for o in cells:
            total = total + o.energy
        return total.scaled(1.0 / len(cells))

    def designs(self) -> List[str]:
        """Design names present in the sweep."""
        return sorted({o.design for o in self.outcomes})


def _lc_apps_for(lc_workload: str, mix_seed: int) -> List[str]:
    if lc_workload == "Mixed":
        return list(random_lc_mix(mix_seed))
    return [lc_workload]


def run_seed(base_seed: int, mix_seed: int) -> int:
    """Simulation seed of one cell.

    ``base_seed`` (default 0 everywhere) shifts every cell's RNG streams
    together, so whole sweeps can be rerun on independent randomness;
    with the default the seed is exactly ``mix_seed``, matching the
    original serial harness.
    """
    return base_seed * 1_000_003 + mix_seed


def config_as_params(
    config: Optional[SystemConfig],
) -> Optional[Dict[str, Any]]:
    """Canonical (JSON-able) form of a system config for cell params."""
    if config is None:
        return None
    return dataclasses.asdict(config)


def config_from_params(
    params: Optional[Mapping[str, Any]],
) -> Optional[SystemConfig]:
    """Inverse of :func:`config_as_params`."""
    if params is None:
        return None
    return SystemConfig(**params)


def _run_workload(
    design: str,
    lc_workload: str,
    load: str,
    mix_seed: int,
    epochs: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    baseline_ipcs: Optional[Mapping[str, float]] = None,
    base_seed: int = 0,
    engine: str = Engine.BATCH,
    **design_kwargs,
) -> Tuple[WorkloadOutcome, RunResult, Dict[str, float]]:
    """Run one sweep cell; returns (outcome, raw result, batch IPCs).

    ``baseline_ipcs`` are the Static IPCs used to compute weighted
    speedup; when omitted a Static run is performed first (and returned
    as the third element for reuse). ``engine`` defaults to the batch
    engine (fused queueing kernel + accelerated placers); all engines
    are bit-identical, so cached sweep results are engine-agnostic.
    """
    epochs = epochs if epochs is not None else num_epochs()
    seed = run_seed(base_seed, mix_seed)
    lc_apps = _lc_apps_for(lc_workload, mix_seed)
    workload = make_default_workload(
        lc_apps, mix_seed=mix_seed, load=load, config=config
    )
    if baseline_ipcs is None:
        static = _run_design(
            "Static", workload, num_epochs=epochs, seed=seed,
            engine=engine,
        )
        baseline_ipcs = static.batch_ipcs()
    result = _run_design(
        design, workload, num_epochs=epochs, seed=seed,
        engine=engine,
        **design_kwargs,
    )
    ipcs = result.batch_ipcs()
    outcome = WorkloadOutcome(
        design=design,
        lc_workload=lc_workload,
        load=load,
        mix_seed=mix_seed,
        speedup=weighted_speedup(ipcs, baseline_ipcs),
        lc_tails_normalized={
            a: result.lc_tail_normalized(a) for a in result.lc_deadlines
        },
        vulnerability=result.avg_vulnerability(),
        energy=result.total_energy(),
        avg_lc_size_mb=result.avg_lc_size(),
    )
    return outcome, result, dict(baseline_ipcs)


# -- sweep cells (see repro.runner) ------------------------------------------


def baseline_cell(
    lc_workload: str,
    load: str,
    mix_seed: int,
    epochs: int,
    base_seed: int = 0,
    config: Optional[Mapping[str, Any]] = None,
) -> Cell:
    """Cell computing the Static baseline IPCs of one workload."""
    return Cell(
        "baseline",
        {
            "lc_workload": lc_workload,
            "load": load,
            "mix_seed": mix_seed,
            "epochs": epochs,
            "base_seed": base_seed,
            "config": dict(config) if config is not None else None,
        },
    )


def workload_cell(
    design: str,
    lc_workload: str,
    load: str,
    mix_seed: int,
    epochs: int,
    base_seed: int = 0,
    config: Optional[Mapping[str, Any]] = None,
) -> Cell:
    """Cell computing one (design, workload, load, mix) outcome."""
    return Cell(
        "workload",
        {
            "design": design,
            "lc_workload": lc_workload,
            "load": load,
            "mix_seed": mix_seed,
            "epochs": epochs,
            "base_seed": base_seed,
            "config": dict(config) if config is not None else None,
        },
    )


@register_cell_kind("baseline")
def _baseline_handler(
    lc_workload: str,
    load: str,
    mix_seed: int,
    epochs: int,
    base_seed: int = 0,
    config: Optional[Mapping[str, Any]] = None,
) -> Dict[str, float]:
    lc_apps = _lc_apps_for(lc_workload, mix_seed)
    workload = make_default_workload(
        lc_apps,
        mix_seed=mix_seed,
        load=load,
        config=config_from_params(config),
    )
    static = _run_design(
        "Static",
        workload,
        num_epochs=epochs,
        seed=run_seed(base_seed, mix_seed),
        engine=Engine.BATCH,
    )
    return static.batch_ipcs()


@register_cell_kind("workload")
def _workload_handler(
    design: str,
    lc_workload: str,
    load: str,
    mix_seed: int,
    epochs: int,
    base_seed: int = 0,
    config: Optional[Mapping[str, Any]] = None,
) -> WorkloadOutcome:
    # The Static baseline is itself a cached cell, so it is computed
    # once per workload no matter how many designs (or workers) need it.
    baseline = get_or_compute(
        baseline_cell(
            lc_workload, load, mix_seed, epochs, base_seed, config
        )
    )
    outcome, _result, _ipcs = _run_workload(
        design,
        lc_workload,
        load,
        mix_seed,
        epochs=epochs,
        config=config_from_params(config),
        baseline_ipcs=baseline,
        base_seed=base_seed,
    )
    return outcome


def cached_workload_outcome(
    design: str,
    lc_workload: str,
    load: str,
    mix_seed: int,
    epochs: Optional[int] = None,
    base_seed: int = 0,
    config: Optional[SystemConfig] = None,
) -> WorkloadOutcome:
    """One sweep cell, through the runner's result cache.

    The single-cell counterpart of :func:`run_sweep` — used by the
    ablation studies so their Static baselines and repeated design runs
    are shared with (and by) the figure sweeps.
    """
    epochs = epochs if epochs is not None else num_epochs()
    return get_or_compute(
        workload_cell(
            design,
            lc_workload,
            load,
            mix_seed,
            epochs,
            base_seed,
            config_as_params(config),
        )
    )


def run_sweep(
    designs: Sequence[str] = DEFAULT_DESIGNS,
    lc_workloads: Sequence[str] = LC_WORKLOADS,
    loads: Sequence[str] = ("high", "low"),
    mixes: Optional[int] = None,
    epochs: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    jobs: Optional[int] = None,
    base_seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> SweepResult:
    """The paper's evaluation sweep (Fig. 13 and friends).

    Cells are fanned out over :class:`repro.runner.SweepRunner`
    (``jobs`` workers, results cached on disk). The Static baseline of
    each (lc_workload, load, mix) is a cell of its own, computed once
    and shared across designs through the cache. Results are
    bit-identical for any ``jobs``.
    """
    mixes = mixes if mixes is not None else num_mixes()
    epochs = epochs if epochs is not None else num_epochs()
    runner = runner if runner is not None else SweepRunner(jobs)
    config_params = config_as_params(config)
    triples = [
        (lc_workload, load, mix_seed)
        for lc_workload in lc_workloads
        for load in loads
        for mix_seed in range(mixes)
    ]
    # Phase 1: warm the per-workload Static baselines so design cells
    # (which each need one) hit the cache instead of racing on them.
    runner.map(
        [
            baseline_cell(lc, load, mix, epochs, base_seed, config_params)
            for lc, load, mix in triples
        ]
    )
    cells = [
        workload_cell(
            design, lc, load, mix, epochs, base_seed, config_params
        )
        for lc, load, mix in triples
        for design in designs
    ]
    sweep = SweepResult()
    sweep.outcomes = list(runner.map(cells))
    return sweep
