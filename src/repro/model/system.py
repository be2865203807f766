"""Epoch-level system simulation: one design x one workload -> metrics.

A run mirrors the structure of the paper's evaluation runs. Each
100 ms epoch:

1. the runtime reconfigures the LLC (the active design's placement,
   using the feedback controller's current LC sizes);
2. each latency-critical app's request stream advances through the
   queueing simulator with a mean service time derived from its current
   allocation size and NoC proximity — completions feed the controller
   exactly as in the paper's Listing 1;
3. each batch app's IPC is evaluated under the allocation;
4. security vulnerability and data-movement energy are accounted.

This module holds what both engines share: the per-mix set-up
(:class:`SystemModel`), :class:`RunResult` and the deadlines. The
accelerated epoch loop is :class:`repro.model.batch.BatchSystemModel`;
the frozen scalar one is
:class:`repro.model.reference.ReferenceSystemModel`.

Deadlines follow the paper's methodology: the 95th-percentile latency of
the app running in isolation at high load with four LLC ways under
way-partitioning (S-NUCA).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..config import (
    RECONFIG_INTERVAL_CYCLES,
    ControllerConfig,
    Engine,
    SystemConfig,
)
from ..core.allocation import Allocation
from ..core.designs import (
    JumanjiIdealBatchDesign,
    LlcDesign,
    make_design,
)
from ..core.runtime import JumanjiRuntime, ReconfigRecord
from ..metrics.security import (
    potential_attackers_per_access_fast,  # noqa: F401  (see below)
)
from ..noc.energy import EnergyBreakdown, EnergyModel
from ..noc.mesh import MeshNoc
from ..sim.queueing import (
    LcRequestSimulator,
    percentile,
    run_epoch_batch,  # noqa: F401  (see below)
)
from ..workloads.mixes import base_app
from ..workloads.tailbench import REFERENCE_ALLOC_MB, get_lc_profile
from .params import DEFAULT_PARAMS, ModelParams
from .performance import (
    batch_perf,  # noqa: F401  (see below)
    lc_service_cycles,
    snuca_avg_rtt,
)
from .workload import WorkloadSpec

# ``run_epoch_batch``, ``potential_attackers_per_access_fast`` and
# ``batch_perf`` are not called here since the epoch loops moved to
# :mod:`repro.model.batch` and :mod:`repro.model.reference`; they stay
# importable from this module because call-site tracers
# (``bench/trace.py``) look them up here.

__all__ = [
    "EpochMetrics",
    "RunResult",
    "SystemModel",
    "compute_deadline_cycles",
]


# Bounded: the key space is (lc profile, seed, epochs, router_delay)
# and sweeps only ever use a handful of combinations, but a long-lived
# driver process sweeping router delays or seeds should not grow this
# without limit. 256 entries is two orders of magnitude above any
# current sweep's working set. ``tests/test_system_model.py`` asserts
# the bound is set.
@functools.lru_cache(maxsize=256)
def _deadline_cached(
    lc_name: str, seed: int, epochs: int, router_delay: int
) -> float:
    profile = get_lc_profile(lc_name)
    config = SystemConfig().with_router_delay(router_delay)
    noc = MeshNoc(config)
    # Isolation reference: corner tile (where LC apps run), S-NUCA
    # average distance, four ways of way-partitioned associativity —
    # the paper's deadline condition.
    rtt = snuca_avg_rtt(0, noc)
    service = lc_service_cycles(
        profile, REFERENCE_ALLOC_MB, rtt, 4.0, config, DEFAULT_PARAMS
    )
    sim = LcRequestSimulator(
        qps=profile.qps.high_qps,
        service_cv=profile.service_cv,
        seed=seed,
    )
    latencies: List[float] = []
    for _ in range(epochs):
        result = sim.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
        latencies.extend(result.latencies_cycles)
    # The deadline is the controller's reference signal, so it uses the
    # controller's own statistic: the p95 of each 21-request window,
    # averaged over the run. (The long-run p95 is burst-dominated at
    # high utilisation — a controller comparing 20-request windows to it
    # would read "below deadline" almost always and shrink relentlessly.)
    window = 21
    tails = [
        percentile(latencies[i : i + window], 95.0)
        for i in range(0, len(latencies) - window + 1, window)
    ]
    return float(np.mean(tails))


def compute_deadline_cycles(
    lc_name: str,
    seed: int = 12345,
    epochs: int = 40,
    router_delay: int = 2,
) -> float:
    """Deadline per the paper's methodology: tail latency in isolation at
    high load with four LLC ways under way-partitioning (S-NUCA)."""
    return _deadline_cached(lc_name, seed, epochs, router_delay)


@dataclass
class EpochMetrics:
    """Per-epoch observables (time series for Figs. 4a-4c)."""

    epoch: int
    lc_tails: Dict[str, float]
    lc_sizes: Dict[str, float]
    batch_ipcs: Dict[str, float]
    vulnerability: float
    energy: EnergyBreakdown


@dataclass
class RunResult:
    """Aggregated outcome of one (design, workload) run."""

    design: str
    load: str
    epochs: List[EpochMetrics]
    lc_deadlines: Dict[str, float]
    lc_all_latencies: Dict[str, List[float]]
    warmup_epochs: int
    #: Epochs whose placement failed, so the runtime kept the previous
    #: allocation (``placement_failed`` runtime events).
    placement_failures: int = 0

    def lc_tail(self, app: str, pct: float = 95.0, window: int = 21) -> float:
        """Tail latency of post-warmup requests (deadline-consistent).

        Computed as the mean of per-window p95s over 21-request windows —
        the same statistic the deadline and the feedback controller use
        (see :func:`compute_deadline_cycles`). A value of 1x the deadline
        means the app is riding exactly at its target.
        """
        lats = self.lc_all_latencies[app]
        if not lats:
            return float("inf")
        if len(lats) < window:
            return percentile(lats, pct)
        tails = [
            percentile(lats[i : i + window], pct)
            for i in range(0, len(lats) - window + 1, window)
        ]
        return float(np.mean(tails))

    def lc_tail_raw(self, app: str, pct: float = 95.0) -> float:
        """Long-run p95 over all post-warmup requests (burst-dominated)."""
        lats = self.lc_all_latencies[app]
        if not lats:
            return float("inf")
        return percentile(lats, pct)

    def lc_tail_normalized(self, app: str) -> float:
        """Tail latency over the app's deadline (>1 = violation)."""
        return self.lc_tail(app) / self.lc_deadlines[app]

    def worst_lc_violation(self) -> float:
        """Max normalised tail across LC apps."""
        return max(
            self.lc_tail_normalized(a) for a in self.lc_deadlines
        )

    def batch_ipcs(self) -> Dict[str, float]:
        """Mean post-warmup IPC per batch app."""
        measured = self.epochs[self.warmup_epochs :]
        if not measured:
            measured = self.epochs
        apps = measured[0].batch_ipcs.keys()
        return {
            a: float(np.mean([e.batch_ipcs[a] for e in measured]))
            for a in apps
        }

    def avg_vulnerability(self) -> float:
        """Mean attackers-per-access over measured epochs."""
        measured = self.epochs[self.warmup_epochs :]
        if not measured:
            measured = self.epochs
        return float(np.mean([e.vulnerability for e in measured]))

    def total_energy(self) -> EnergyBreakdown:
        """Summed data-movement energy over measured epochs."""
        total = EnergyBreakdown()
        for e in self.epochs[self.warmup_epochs :]:
            total = total + e.energy
        return total

    def avg_lc_size(self) -> float:
        """Average LC allocation (MB), over apps and measured epochs."""
        measured = self.epochs[self.warmup_epochs :]
        if not measured:
            measured = self.epochs
        sizes = [
            np.mean(list(e.lc_sizes.values())) for e in measured
            if e.lc_sizes
        ]
        return float(np.mean(sizes)) if sizes else 0.0


class _ContextBuilder:
    """A model's per-epoch placement context, as its runtime rebuilds it.

    It holds what it reads and never the model: a builder that closed
    over the model would make model and runtime a reference cycle, and
    every finished run would wait for the cycle collector.
    """

    __slots__ = ("design", "workload", "noc", "engine")

    def __init__(
        self,
        design: LlcDesign,
        workload: WorkloadSpec,
        noc: MeshNoc,
        engine: str,
    ):
        self.design = design
        self.workload = workload
        self.noc = noc
        self.engine = engine

    def __call__(self, sizes: Mapping[str, float]):
        return self.workload.build_context(
            self.lat_sizes(sizes), self.noc, engine=self.engine
        )

    def lat_sizes(
        self, controller_sizes: Mapping[str, float]
    ) -> Dict[str, float]:
        """LC sizes the placer sees.

        Feedback designs use the controller's targets; Static pins four
        ways; Jigsaw passes nothing (it is goal-oblivious).
        """
        if self.design.uses_feedback:
            return dict(controller_sizes)
        if self.design.name == "Static":
            config = self.workload.config
            four_ways_mb = config.llc_size_mb * 4 / config.llc_bank_ways
            return {a: four_ways_mb for a in self.workload.lc_apps}
        return {}


class SystemModel:
    """Runs one design against one workload for N epochs.

    This class is the accelerated engine's per-mix set-up: it runs as a
    batch of one through :class:`~repro.model.batch.BatchSystemModel`
    (numpy placer kernels, placement memoisation, curve caches, array
    metric stages). :class:`~repro.model.reference.ReferenceSystemModel`
    shares this set-up and runs the frozen scalar epoch loop instead;
    the two produce bit-identical results.
    """

    #: The engine the placement contexts are built for.
    engine = Engine.FAST
    #: The queueing simulator each LC app gets.
    sim_cls = LcRequestSimulator

    def __init__(
        self,
        design: LlcDesign,
        workload: WorkloadSpec,
        seed: int = 0,
        controller_config: Optional[ControllerConfig] = None,
        energy_model: Optional[EnergyModel] = None,
        params: Optional[ModelParams] = None,
        epoch_cycles: int = RECONFIG_INTERVAL_CYCLES,
    ):
        if epoch_cycles <= 0:
            raise ValueError("epoch_cycles must be positive")
        self.design = design
        self.workload = workload
        self.config = workload.config
        self.epoch_cycles = epoch_cycles
        self.noc = MeshNoc(self.config)
        self.params = params if params is not None else workload.params
        self.energy_model = (
            energy_model if energy_model is not None else EnergyModel()
        )
        self._context = _ContextBuilder(
            design, workload, self.noc, self.engine
        )
        self.runtime = JumanjiRuntime(
            design,
            self.config,
            context_builder=self._context,
            controller_config=controller_config,
            seed=seed,
            memoize_placement=Engine.accelerated(self.engine),
        )
        self._lc_sims: Dict[str, LcRequestSimulator] = {}
        self._deadlines: Dict[str, float] = {}
        for i, app in enumerate(workload.lc_apps):
            profile = workload.lc_profile(app)
            deadline = compute_deadline_cycles(
                base_app(app), router_delay=self.config.router_delay
            )
            self._deadlines[app] = deadline
            self.runtime.register_lc_app(app, deadline)
            self._lc_sims[app] = self.sim_cls(
                qps=workload.qps_of(app),
                service_cv=profile.service_cv,
                seed=seed * 1000 + i,
            )

    # -- run phases shared with the reference engine ----------------------

    def _run_begin(self, num_epochs: int) -> "_RunState":
        """Validate and build the accumulator state for one run."""
        if num_epochs < 1:
            raise ValueError("need at least one epoch")
        warmup = min(self.params.warmup_epochs, max(num_epochs - 1, 0))
        vm_map = {
            a: self.workload.vm_of(a)
            for vm in self.workload.vms
            for a in vm.apps
        }
        # Access intensity is a pure function of the (fixed) workload;
        # hoisted out of the epoch loop.
        intensity = {
            a: self.workload.batch_profile(a).apki
            for a in self.workload.batch_apps
        }
        intensity.update(
            {
                a: self.workload.lc_profile(a).accesses_per_query
                * self.workload.qps_of(a)
                / 1e6
                for a in self.workload.lc_apps
            }
        )
        return _RunState(
            warmup=warmup,
            vm_map=vm_map,
            intensity=intensity,
            all_latencies={a: [] for a in self.workload.lc_apps},
        )

    def _place(self) -> Tuple[ReconfigRecord, Allocation]:
        """Reconfigure placement: the runtime's record, and the
        allocation serving batch traffic (a separate one only under the
        Ideal Batch design)."""
        record = self.runtime.reconfigure()
        if isinstance(self.design, JumanjiIdealBatchDesign):
            ctx = self._context(self.runtime.lat_sizes())
            return record, self.design.allocate_batch(ctx)
        return record, record.allocation

    def _run_result(self, state: "_RunState") -> RunResult:
        """Package the accumulated epochs as a :class:`RunResult`."""
        return RunResult(
            design=self.design.name,
            load=self.workload.load,
            epochs=state.epochs,
            lc_deadlines=dict(self._deadlines),
            lc_all_latencies=state.all_latencies,
            warmup_epochs=state.warmup,
            placement_failures=sum(
                e["event"] == "placement_failed"
                for e in self.runtime.events
            ),
        )

    def run(self, num_epochs: int = 20) -> RunResult:
        """Simulate ``num_epochs`` 100 ms epochs, as a batch of one."""
        from .batch import BatchSystemModel

        return BatchSystemModel.from_models([self]).run(num_epochs)[0]


@dataclass
class _RunState:
    """Accumulators threaded through one model's epochs."""

    warmup: int
    vm_map: Dict[str, int]
    intensity: Dict[str, float]
    epochs: List[EpochMetrics] = field(default_factory=list)
    all_latencies: Dict[str, List[float]] = field(default_factory=dict)


def _run_design(
    design_name: str,
    workload: WorkloadSpec,
    num_epochs: int = 20,
    seed: int = 0,
    controller_config: Optional[ControllerConfig] = None,
    engine: str = Engine.FAST,
    **design_kwargs,
) -> RunResult:
    """Build and run one design against a workload (internal impl);
    ``engine`` picks the model class."""
    model_cls = SystemModel
    if engine == Engine.REFERENCE:
        from .reference import ReferenceSystemModel

        model_cls = ReferenceSystemModel
    design = make_design(design_name, **design_kwargs)
    model = model_cls(
        design,
        workload,
        seed=seed,
        controller_config=controller_config,
    )
    return model.run(num_epochs)
