"""Epoch-level system simulation: one design x one workload -> metrics.

The driver mirrors the structure of the paper's evaluation runs. Each
100 ms epoch:

1. the runtime reconfigures the LLC (the active design's placement,
   using the feedback controller's current LC sizes);
2. each latency-critical app's request stream advances through the
   queueing simulator with a mean service time derived from its current
   allocation size and NoC proximity — completions feed the controller
   exactly as in the paper's Listing 1;
3. each batch app's IPC is evaluated under the allocation;
4. security vulnerability and data-movement energy are accounted.

Deadlines follow the paper's methodology: the 95th-percentile latency of
the app running in isolation at high load with four LLC ways under
way-partitioning (S-NUCA).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..config import (
    CORE_FREQ_HZ,
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
from ..core.runtime import JumanjiRuntime
from ..metrics.security import (
    potential_attackers_per_access,
    potential_attackers_per_access_fast,
)
from ..metrics.speedup import weighted_speedup
from ..noc.energy import EnergyBreakdown, EnergyModel
from ..noc.mesh import MeshNoc
from ..sim.queueing import (
    LcRequestSimulator,
    percentile,
    run_epoch_batch,
)
from ..workloads.mixes import base_app
from ..workloads.tailbench import (
    LatencyCriticalProfile,
    REFERENCE_ALLOC_MB,
    get_lc_profile,
)
from .params import DEFAULT_PARAMS, ModelParams
from .performance import batch_perf, lc_service_cycles, snuca_avg_rtt
from .workload import WorkloadSpec

__all__ = [
    "EpochMetrics",
    "RunResult",
    "SystemModel",
    "compute_deadline_cycles",
    "deadline_cache_info",
]


# Bounded: the key space is (lc profile, seed, epochs, router_delay)
# and sweeps only ever use a handful of combinations, but a long-lived
# driver process sweeping router delays or seeds should not grow this
# without limit. 256 entries is two orders of magnitude above any
# current sweep's working set; the bench suite asserts the bound holds.
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


def deadline_cache_info():
    """``cache_info()`` of the deadline memo.

    The bench suite asserts the cache is bounded (``maxsize`` set) so a
    long-lived sweep driver cannot grow it without limit.
    """
    return _deadline_cached.cache_info()


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


class SystemModel:
    """Runs one design against one workload for N epochs."""

    def __init__(
        self,
        design: LlcDesign,
        workload: WorkloadSpec,
        seed: int = 0,
        controller_config: Optional[ControllerConfig] = None,
        energy_model: Optional[EnergyModel] = None,
        params: Optional[ModelParams] = None,
        epoch_cycles: int = RECONFIG_INTERVAL_CYCLES,
        engine: str = "fast",
    ):
        if epoch_cycles <= 0:
            raise ValueError("epoch_cycles must be positive")
        engine = Engine.validate(engine, source="SystemModel")
        self.design = design
        self.workload = workload
        self.config = workload.config
        self.epoch_cycles = epoch_cycles
        #: ``"fast"`` runs the vectorised epoch engine (batched queueing
        #: RNG, numpy placer kernels, placement memoisation, curve
        #: caches); ``"reference"`` runs the frozen scalar engine from
        #: :mod:`repro.model.reference` with every cache disabled. The
        #: two produce bit-identical results.
        self.engine = engine
        self.noc = MeshNoc(self.config)
        self.params = params if params is not None else workload.params
        self.energy_model = (
            energy_model if energy_model is not None else EnergyModel()
        )
        self.runtime = JumanjiRuntime(
            design,
            self.config,
            context_builder=lambda sizes: workload.build_context(
                self._effective_lat_sizes(sizes), self.noc,
                engine=self.engine,
            ),
            controller_config=controller_config,
            seed=seed,
            memoize_placement=Engine.accelerated(engine),
        )
        if engine == Engine.REFERENCE:
            from .reference import ReferenceLcRequestSimulator

            sim_cls = ReferenceLcRequestSimulator
        else:
            sim_cls = LcRequestSimulator
        self._lc_sims: Dict[str, LcRequestSimulator] = {}
        self._deadlines: Dict[str, float] = {}
        for i, app in enumerate(workload.lc_apps):
            profile = workload.lc_profile(app)
            deadline = compute_deadline_cycles(
                base_app(app), router_delay=self.config.router_delay
            )
            self._deadlines[app] = deadline
            self.runtime.register_lc_app(app, deadline)
            self._lc_sims[app] = sim_cls(
                qps=workload.qps_of(app),
                service_cv=profile.service_cv,
                seed=seed * 1000 + i,
            )
        # Identity-keyed per-allocation caches: batch IPC/rate and
        # vulnerability are pure functions of the allocation (the
        # workload is fixed per model), so epochs that install the same
        # allocation *object* — which only happens via the placement
        # memo — reuse the computed values. The reference engine builds
        # a fresh Allocation every epoch, so these never hit there.
        self._batch_cache: Optional[
            Tuple[Allocation, Dict[str, float],
                  Dict[str, Tuple[float, float, float]]]
        ] = None
        self._vuln_cache: Optional[Tuple[Allocation, float]] = None

    def _effective_lat_sizes(
        self, controller_sizes: Mapping[str, float]
    ) -> Dict[str, float]:
        """LC sizes the placer sees.

        Feedback designs use the controller's targets; Static pins four
        ways; Jigsaw passes nothing (it is goal-oblivious).
        """
        if self.design.uses_feedback:
            return dict(controller_sizes)
        if self.design.name == "Static":
            four_ways_mb = (
                self.config.llc_size_mb * 4 / self.config.llc_bank_ways
            )
            return {a: four_ways_mb for a in self.workload.lc_apps}
        return {}

    # -- per-epoch evaluation ----------------------------------------------------------

    def _lc_service(
        self, app: str, alloc: Allocation
    ) -> Tuple[float, float]:
        """Mean service cycles and LLC size for one LC app this epoch."""
        profile = self.workload.lc_profile(app)
        size = alloc.app_size(app)
        tile = self.workload.tile_of(app)
        noc_rtt = alloc.avg_noc_rtt(app, tile, self.noc)
        # Associativity penalty applies to the LC app's misses too when
        # its partition is thin (S-NUCA designs stripe it across banks).
        ways = alloc.ways_per_bank(app)
        service = lc_service_cycles(
            profile, size, noc_rtt, ways, self.config, self.params
        )
        return service, size

    def _batch_epoch(
        self, alloc: Allocation
    ) -> Tuple[Dict[str, float], Dict[str, Tuple[float, float, float]]]:
        """Batch IPCs and (accesses, misses, hops) rates for energy."""
        if (
            self._batch_cache is not None
            and self._batch_cache[0] is alloc
        ):
            _, ipcs, rates = self._batch_cache
            return dict(ipcs), dict(rates)
        ipcs: Dict[str, float] = {}
        rates: Dict[str, Tuple[float, float, float]] = {}
        overhead = self.runtime.batch_overhead_factor
        for app in self.workload.batch_apps:
            profile = self.workload.batch_profile(app)
            tile = self.workload.tile_of(app)
            perf = batch_perf(
                app, profile, tile, alloc, self.noc, self.params
            )
            ipcs[app] = perf.ipc * overhead
            # Events per cycle for the energy model.
            accesses = profile.apki * perf.ipc / 1000.0
            misses = perf.mpki_eff * perf.ipc / 1000.0
            hops = accesses * 2 * alloc.avg_noc_hops(app, tile, self.noc)
            rates[app] = (accesses, misses, hops)
        self._batch_cache = (alloc, dict(ipcs), dict(rates))
        return ipcs, rates

    def _epoch_energy(
        self,
        alloc: Allocation,
        batch_rates: Mapping[str, Tuple[float, float, float]],
        lc_latencies: Mapping[str, List[float]],
    ) -> EnergyBreakdown:
        """Dynamic energy of one epoch (batch rates + LC per-query)."""
        total = EnergyBreakdown()
        cycles = self.epoch_cycles
        for app, (acc, miss, hops) in batch_rates.items():
            profile = self.workload.batch_profile(app)
            # L1/L2 accesses estimated from instruction throughput; LLC
            # accesses already per cycle.
            ipc = acc / max(profile.apki, 1e-9) * 1000.0
            l1 = 0.3 * ipc * cycles  # ~30% of instrs touch memory
            l2 = profile.apki * 3 * ipc / 1000.0 * cycles
            total = total + self.energy_model.access_energy(
                l1, l2, acc * cycles, hops * cycles, miss * cycles
            )
        for app, lats in lc_latencies.items():
            profile = self.workload.lc_profile(app)
            queries = len(lats)
            size = (
                self.runtime.history[-1]
                .allocation.app_size(app)
                if self.runtime.history
                else REFERENCE_ALLOC_MB
            )
            tile = self.workload.tile_of(app)
            alloc_obj = self.runtime.history[-1].allocation
            hops_per_access = 2 * alloc_obj.avg_noc_hops(
                app, tile, self.noc
            )
            acc = profile.accesses_per_query * queries
            miss = profile.misses_per_query(size) * queries
            total = total + self.energy_model.access_energy(
                queries * profile.base_cycles * 0.1,
                acc * 2,
                acc,
                acc * hops_per_access,
                miss,
            )
        return total

    # -- main loop -------------------------------------------------------------------
    #
    # The epoch is split into three phases so a batch driver
    # (:mod:`repro.model.batch`) can interleave many models:
    # ``_epoch_begin`` (placement + service-time computation),
    # the LC queueing simulation (``_epoch_sim`` here; one fused
    # :func:`~repro.sim.queueing.run_epoch_batch` call across all mixes
    # in the batch engine), and ``_epoch_finish`` (feedback, tails,
    # batch IPCs, vulnerability, energy). Phase boundaries only reorder
    # operations that are independent — every per-app computation
    # sequence is unchanged, so results stay bit-identical to the
    # un-split loop.

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

    def _epoch_begin(self, epoch: int) -> "_EpochPrep":
        """Phase 1: reconfigure placement, compute LC service times."""
        record = self.runtime.reconfigure()
        alloc = record.allocation
        if isinstance(self.design, JumanjiIdealBatchDesign):
            ctx = self.workload.build_context(
                self._effective_lat_sizes(self.runtime.lat_sizes()),
                self.noc,
                engine=self.engine,
            )
            batch_alloc = self.design.allocate_batch(ctx)
        else:
            batch_alloc = alloc
        services: Dict[str, float] = {}
        sizes: Dict[str, float] = {}
        for app in self.workload.lc_apps:
            services[app], sizes[app] = self._lc_service(app, alloc)
        return _EpochPrep(
            alloc=alloc,
            batch_alloc=batch_alloc,
            services=services,
            sizes=sizes,
            memo_hit=record.memo_hit,
        )

    def _epoch_sim(self, prep: "_EpochPrep") -> Dict[str, List[float]]:
        """Phase 2: advance every LC queueing simulator by one epoch."""
        apps = self.workload.lc_apps
        if self.engine == Engine.BATCH and apps:
            results = run_epoch_batch(
                [self._lc_sims[a] for a in apps],
                self.epoch_cycles,
                [prep.services[a] for a in apps],
            )
            return {
                a: list(r.latencies_cycles)
                for a, r in zip(apps, results)
            }
        return {
            a: list(
                self._lc_sims[a]
                .run_epoch(self.epoch_cycles, prep.services[a])
                .latencies_cycles
            )
            for a in apps
        }

    def _epoch_finish(
        self,
        epoch: int,
        prep: "_EpochPrep",
        lc_lats: Dict[str, List[float]],
        state: "_RunState",
    ) -> None:
        """Phase 3: feedback, tails, batch perf, vulnerability, energy."""
        lc_tails: Dict[str, float] = {}
        for app in self.workload.lc_apps:
            lats = lc_lats[app]
            if self.design.uses_feedback:
                # Batched feedback: identical to reporting each
                # completion from an on_complete callback — the
                # controller only consumes its window at epoch
                # boundaries, and per-sample order is preserved.
                self.runtime.report_latencies(app, lats)
            lc_tails[app] = (
                percentile(lats, 95.0) if lats else float("nan")
            )
            if epoch >= state.warmup:
                state.all_latencies[app].extend(lats)
        if obs.is_enabled():
            # Deterministic for a fixed seed: the ratio comes from the
            # seeded queueing simulation, not a clock.
            for app, tail in lc_tails.items():
                deadline = self._deadlines.get(app)
                if deadline and tail == tail:  # skip NaN
                    obs.observe(
                        "model.lc_tail_vs_deadline",
                        tail / deadline,
                        edges=obs.RATIO_EDGES,
                    )
        batch_alloc = prep.batch_alloc
        ipcs, rates = self._batch_epoch(batch_alloc)
        # Vulnerability over the allocation actually serving traffic.
        if (
            self._vuln_cache is not None
            and self._vuln_cache[0] is batch_alloc
        ):
            vuln = self._vuln_cache[1]
        else:
            vuln_fn = (
                potential_attackers_per_access_fast
                if Engine.accelerated(self.engine)
                else potential_attackers_per_access
            )
            vuln = vuln_fn(batch_alloc, state.vm_map, state.intensity)
            self._vuln_cache = (batch_alloc, vuln)
        energy = self._epoch_energy(batch_alloc, rates, lc_lats)
        state.epochs.append(
            EpochMetrics(
                epoch=epoch,
                lc_tails=lc_tails,
                lc_sizes=dict(prep.sizes),
                batch_ipcs=ipcs,
                vulnerability=vuln,
                energy=energy,
            )
        )

    def _run_result(self, state: "_RunState") -> RunResult:
        """Package the accumulated epochs as a :class:`RunResult`."""
        return RunResult(
            design=self.design.name,
            load=self.workload.load,
            epochs=state.epochs,
            lc_deadlines=dict(self._deadlines),
            lc_all_latencies=state.all_latencies,
            warmup_epochs=state.warmup,
        )

    def run(self, num_epochs: int = 20) -> RunResult:
        """Simulate ``num_epochs`` 100 ms epochs."""
        state = self._run_begin(num_epochs)
        for epoch in range(num_epochs):
            with obs.span(
                "model.epoch", epoch=epoch, design=self.design.name,
            ):
                prep = self._epoch_begin(epoch)
                lc_lats = self._epoch_sim(prep)
                self._epoch_finish(epoch, prep, lc_lats, state)
        return self._run_result(state)


@dataclass
class _EpochPrep:
    """Phase-1 outputs of one epoch, pending the LC simulation."""

    alloc: Allocation
    batch_alloc: Allocation
    #: LC app -> mean service cycles at this epoch's placement.
    services: Dict[str, float]
    #: LC app -> LLC MB (reported as ``lc_sizes``).
    sizes: Dict[str, float]
    #: Whether the placement came out of the runtime's memo.
    memo_hit: bool


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
    engine: str = "fast",
    **design_kwargs,
) -> RunResult:
    """Build and run one design against a workload (internal impl)."""
    design = make_design(design_name, **design_kwargs)
    model = SystemModel(
        design,
        workload,
        seed=seed,
        controller_config=controller_config,
        engine=engine,
    )
    return model.run(num_epochs)
