"""Closed-loop, trace-fidelity Jumanji: UMONs -> placer -> VTB -> banks.

The evaluation sweeps use the analytic model; this module runs the
*whole stack* at trace fidelity on small workloads, exactly as the
hardware/software system of the paper operates:

1. cores drive synthetic traces through L1/L2 into the banked LLC;
2. per-app **UMONs** sample the LLC access stream and accumulate miss
   curves in hardware;
3. at each epoch boundary the placer (any LLC design) consumes the
   measured curves, produces an allocation, and the new **placement
   descriptors** are installed in the VTB — triggering background
   **coherence walks** that invalidate moved lines;
4. per-bank **way-partition quotas** are programmed from the
   allocation (CAT-style), and the next epoch runs under the new
   placement.

This is the integration test of record for the repository: every
substrate module participates, and the closed loop demonstrably
converges (apps' data migrates toward their cores, miss rates drop as
UMON knowledge accumulates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..cache.misscurve import MissCurve
from ..cache.umon import Umon
from ..config import SystemConfig, VmSpec
from ..core.context import AppInfo, PlacementContext
from ..core.designs import LlcDesign
from ..noc.mesh import MeshNoc
from ..vtb.vtb import DESCRIPTOR_ENTRIES, PlacementDescriptor
from ..workloads.traces import AddressTrace
from .tracesim import TraceSimulator

__all__ = ["TraceApp", "EpochStats", "ClosedLoopSimulation"]


@dataclass(frozen=True)
class TraceApp:
    """One application in the closed-loop simulation."""

    name: str
    core: int
    vm_id: int
    trace: AddressTrace
    is_lc: bool = False


@dataclass
class EpochStats:
    """Observables of one closed-loop epoch."""

    epoch: int
    miss_rates: Dict[str, float]
    avg_latency: Dict[str, float]
    avg_noc_hops: Dict[str, float]
    invalidated_lines: int
    banks_shared_across_vms: int


class ClosedLoopSimulation:
    """Drives a design with hardware-measured (UMON) miss curves."""

    def __init__(
        self,
        design: LlcDesign,
        apps: Sequence[TraceApp],
        config: Optional[SystemConfig] = None,
        bank_sets: int = 64,
        umon_sample_period: Optional[int] = None,
        lat_sizes: Optional[Mapping[str, float]] = None,
    ):
        if not apps:
            raise ValueError("need at least one app")
        self.design = design
        self.config = config if config is not None else SystemConfig()
        self.apps = list(apps)
        self.noc = MeshNoc(self.config)
        self.sim = TraceSimulator(
            config=self.config, bank_sets=bank_sets
        )
        self.bank_sets = bank_sets
        self.lat_sizes = dict(lat_sizes or {})
        self._umons: Dict[str, Umon] = {}
        self._core_app: Dict[int, str] = {}
        self._vc_of: Dict[str, int] = {}
        self.history: List[EpochStats] = []

        # Set-sampling: each monitored set stands in for one real set,
        # so the sampling period is (real LLC sets) / (monitored sets) —
        # this is what makes position-w hits mean "would hit with w
        # ways per set LLC-wide".
        umon_sets = 32
        total_sets = self.config.num_banks * bank_sets
        if umon_sample_period is None:
            umon_sample_period = max(1, total_sets // umon_sets)
        for vc_id, app in enumerate(self.apps):
            # Cold start: home bank = the app's own tile.
            descriptor = PlacementDescriptor(
                [app.core] * DESCRIPTOR_ENTRIES
            )
            self.sim.add_core(
                app.core, app.trace, vc_id, descriptor,
                partition=app.name,
            )
            self._umons[app.name] = Umon(
                num_ways=self.config.llc_bank_ways,
                num_sets=umon_sets,
                sample_period=umon_sample_period,
            )
            self._core_app[app.core] = app.name
            self._vc_of[app.name] = vc_id
        self.sim.llc_access_hook = self._on_llc_access

        # Synthesise VM specs for the placement context.
        vm_ids = sorted({a.vm_id for a in self.apps})
        self.vms = [
            VmSpec(
                vm_id=vm_id,
                cores=tuple(
                    a.core for a in self.apps if a.vm_id == vm_id
                ),
                lc_apps=tuple(
                    a.name for a in self.apps
                    if a.vm_id == vm_id and a.is_lc
                ),
                batch_apps=tuple(
                    a.name for a in self.apps
                    if a.vm_id == vm_id and not a.is_lc
                ),
            )
            for vm_id in vm_ids
        ]

    # -- hardware monitoring ---------------------------------------------------------

    def _on_llc_access(self, core_id: int, line_addr: int) -> None:
        self._umons[self._core_app[core_id]].access(line_addr)

    def _measured_curve(self, app: TraceApp) -> MissCurve:
        """The app's UMON miss curve, resampled onto the MB grid.

        With set-sampling, monitored way ``w`` models an LLC-wide
        allocation of ``w`` ways per set, i.e. a capacity of
        ``w * num_banks * bank_sets * 64 B`` — one way of the whole
        (scaled) LLC. The per-way curve is resampled onto a finer MB
        grid so bank-fraction allocations interpolate sensibly.
        """
        way_curve = self._umons[app.name].miss_curve()
        mb_per_way = (
            self.config.num_banks * self.bank_sets * 64
            / (1024.0 * 1024.0)
        )
        llc_mb = self.config.num_banks * self.scaled_bank_mb
        step = mb_per_way / 4
        points = max(int(llc_mb / step) + 2, 2)
        # Re-express in MB: stretch the way-indexed curve onto MB axis.
        values = [
            way_curve.misses_at(i * step / mb_per_way)
            for i in range(points)
        ]
        return MissCurve(values, step)

    @property
    def scaled_bank_mb(self) -> float:
        """Capacity of one simulated (scaled-down) bank in MB."""
        return (
            self.bank_sets * self.config.llc_bank_ways * 64
            / (1024.0 * 1024.0)
        )

    # -- the reconfiguration loop -------------------------------------------------------

    def _build_context(self) -> PlacementContext:
        infos: Dict[str, AppInfo] = {}
        for app in self.apps:
            umon = self._umons[app.name]
            infos[app.name] = AppInfo(
                name=app.name,
                tile=app.core,
                vm_id=app.vm_id,
                is_lc=app.is_lc,
                curve=self._measured_curve(app),
                intensity=float(max(umon.total_accesses, 1)),
            )
        # The context is built against a *scaled* LLC: same bank count,
        # smaller banks. Use a scaled config so capacity bookkeeping in
        # the placers matches the simulated banks.
        import dataclasses

        scaled = dataclasses.replace(
            self.config, llc_bank_mb=self.scaled_bank_mb
        )
        return PlacementContext(
            config=scaled,
            noc=MeshNoc(scaled),
            vms=self.vms,
            apps=infos,
            lat_sizes={
                a: min(s, scaled.llc_size_mb / 4)
                for a, s in self.lat_sizes.items()
            },
        )

    #: Fraction of descriptor entries that must change before a new
    #: placement is installed. Small allocation jitter between epochs
    #: would otherwise cause continuous coherence churn; real Jigsaw
    #: reconfigures incrementally for the same reason.
    churn_threshold: float = 0.15

    def _install(self, allocation) -> int:
        """Program descriptors and CAT quotas from an allocation."""
        invalidated = 0
        for app in self.apps:
            if allocation.app_size(app.name) <= 0:
                continue
            descriptor = allocation.descriptor_for(app.name)
            vc_id = self._vc_of[app.name]
            try:
                old = self.sim.vtb.lookup(vc_id)
            except KeyError:
                old = None
            if old is not None:
                changed = sum(
                    1
                    for a, b in zip(old.entries, descriptor.entries)
                    if a != b
                ) / len(descriptor.entries)
                if changed < self.churn_threshold:
                    continue
            invalidated += self.sim.update_placement(
                vc_id, descriptor
            )
        # Reprogram way quotas: clear, then set from the allocation.
        ways_per_mb = (
            self.config.llc_bank_ways / self.scaled_bank_mb
        )
        for bank_id, bank in enumerate(self.sim.banks):
            bank.partitioner.clear()
            budget = bank.num_ways
            for app_name, mb in sorted(
                allocation.bank_items(bank_id), key=lambda kv: -kv[1]
            ):
                if app_name in allocation.shared_batch:
                    continue
                ways = min(max(int(mb * ways_per_mb), 1), budget)
                if ways <= 0:
                    continue
                bank.partitioner.set_quota(app_name, ways)
                budget -= ways
        return invalidated

    def run_epoch(self, accesses_per_core: int = 5000) -> EpochStats:
        """One epoch: reconfigure from UMON state, then run traces."""
        ctx = self._build_context()
        allocation = self.design.allocate(ctx)
        invalidated = self._install(allocation)
        for bank in self.sim.banks:
            bank.reset_stats()
        before = {
            core: (c.llc_accesses, c.llc_hits, c.total_latency,
                   c.accesses, c.total_noc_hops)
            for core, c in self.sim.cores.items()
        }
        self.sim.run(accesses_per_core)
        miss_rates: Dict[str, float] = {}
        avg_latency: Dict[str, float] = {}
        avg_hops: Dict[str, float] = {}
        for core, c in self.sim.cores.items():
            b = before[core]
            accesses = c.llc_accesses - b[0]
            hits = c.llc_hits - b[1]
            lat = c.total_latency - b[2]
            total = c.accesses - b[3]
            hops = c.total_noc_hops - b[4]
            name = self._core_app[core]
            miss_rates[name] = (
                (accesses - hits) / accesses if accesses else 0.0
            )
            avg_latency[name] = lat / total if total else 0.0
            avg_hops[name] = hops / accesses if accesses else 0.0
        vm_map = {a.name: a.vm_id for a in self.apps}
        shared = len(allocation.violates_bank_isolation(vm_map))
        stats = EpochStats(
            epoch=len(self.history),
            miss_rates=miss_rates,
            avg_latency=avg_latency,
            avg_noc_hops=avg_hops,
            invalidated_lines=invalidated,
            banks_shared_across_vms=shared,
        )
        self.history.append(stats)
        return stats

    def run(self, epochs: int, accesses_per_core: int = 5000
            ) -> List[EpochStats]:
        """Run several epochs; returns the accumulated history."""
        for _ in range(epochs):
            self.run_epoch(accesses_per_core)
        return self.history
