"""One socket of the fleet: a Jumanji runtime under tenant churn.

:class:`FleetChip` is the per-socket half of the hierarchical loop. It
owns one long-lived :class:`~repro.core.runtime.JumanjiRuntime` (with
placement memoisation and a bounded history, since a fleet holds
hundreds of these) and replays the same per-epoch sequence as
:class:`~repro.model.system.SystemModel`'s LC path — reconfigure, then
advance each tenant's queueing simulator under the service time its
current allocation implies, feeding completions back to the controller.

:func:`tick_chips` runs that epoch for many chips at once, as the fleet
does: every chip reconfigures, one
:func:`~repro.sim.queueing.advance_epoch_rows` scan advances every
tenant's queue, then every chip takes its completions. Chips share no
state, so a chip's epoch is the same alone or in a batch;
:meth:`FleetChip.tick` is a batch of one.

Unlike ``SystemModel``, whose workload is fixed at construction, a chip
is *mutable*: tenants are admitted, released, and migrated while the
runtime (and its controller state) persists. The context builder closes
over the chip's current :class:`~repro.model.workload.WorkloadSpec`,
which is rebuilt on every churn event; the controller is told about
departures via :meth:`~repro.core.controller.FeedbackController.
unregister` so a departed tenant's ghost size never reaches the placer.

Capacity is two-dimensional, matching what the no-shared-banks
invariant actually requires: a tenant needs one core per app, and each
VM needs at least one private LLC bank, so a chip holds at most
``num_banks`` tenants regardless of spare cores.

Queueing-simulator state is the one thing that travels: on *migration*
the fleet carries the tenant's simulator (backlog and all) to the new
socket; on *chip failure* the state is lost and a rescheduled tenant
starts a fresh simulator, exactly like a real failover.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..config import (
    RECONFIG_INTERVAL_CYCLES,
    ControllerConfig,
    SystemConfig,
    VmSpec,
)
from ..core.designs import LlcDesign, make_design
from ..core.runtime import JumanjiRuntime, ReconfigRecord
from ..errors import AllocationInvalid, ConfigError
from ..model.params import DEFAULT_PARAMS
from ..model.performance import lc_service_cycles, snuca_avg_rtt
from ..model.workload import WorkloadSpec
from ..noc.mesh import MeshNoc
from ..sim.queueing import (
    LcRequestSimulator,
    advance_epoch_rows,
    percentile,
)
from ..workloads.tailbench import get_lc_profile

__all__ = [
    "FleetChip",
    "TenantVM",
    "chip_deadline_cycles",
    "small_chip_config",
    "tick_chips",
]


@functools.lru_cache(maxsize=256)
def chip_deadline_cycles(lc_name: str, config: SystemConfig) -> float:
    """Deadline for an LC app *on this chip's hardware*.

    Same methodology as
    :func:`~repro.model.system.compute_deadline_cycles` — p95 latency
    in isolation at high load with four LLC ways under way-partitioned
    S-NUCA, windowed the way the controller measures — but evaluated on
    the chip's own configuration. Fleet sockets are smaller than the
    paper's 20-core machine, so a deadline computed there (with a
    2.5 MB reference slice the small LLC cannot hold) would read as a
    permanent ~10x violation on every tenant; what SLAs promise is
    behaviour relative to the hardware the VM rented. Cached per
    (app, config): ``SystemConfig`` is frozen/hashable and a fleet uses
    one config for all chips.
    """
    profile = get_lc_profile(lc_name)
    noc = MeshNoc(config)
    rtt = snuca_avg_rtt(0, noc)
    # Four ways of each bank, chip-wide: the paper's reference slice
    # (equals REFERENCE_ALLOC_MB = 2.5 MB on the 20-bank machine).
    ref_mb = config.llc_size_mb * 4.0 / config.llc_bank_ways
    service = lc_service_cycles(
        profile, ref_mb, rtt, 4.0, config, DEFAULT_PARAMS
    )
    sim = LcRequestSimulator(
        qps=profile.qps.high_qps,
        service_cv=profile.service_cv,
        seed=12345,
    )
    latencies: List[float] = []
    for _ in range(40):
        result = sim.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
        latencies.extend(result.latencies_cycles)
    window = 21
    tails = [
        percentile(latencies[i : i + window], 95.0)
        for i in range(0, len(latencies) - window + 1, window)
    ]
    return sum(tails) / len(tails)


def small_chip_config() -> SystemConfig:
    """The fleet's default socket: a 2x2 mesh (4 cores, 4 MB LLC).

    Small enough that a 256-chip fleet ticks in seconds, while still
    exercising real placement (four banks force genuine isolation and
    proximity decisions).
    """
    return SystemConfig(
        num_cores=4, mesh_cols=2, mesh_rows=2, num_mem_ctrls=4
    )


@dataclass(frozen=True)
class TenantVM:
    """One admitted tenant: an LC app plus optional batch riders."""

    tenant_id: int
    lc_app: str
    batch_apps: Tuple[str, ...]
    arrival_epoch: int
    lifetime_epochs: int

    @property
    def cores_needed(self) -> int:
        """One core per app (LC first, then batch — VmSpec order)."""
        return 1 + len(self.batch_apps)

    @property
    def lc_instance(self) -> str:
        """Fleet-unique LC instance id (``base_app`` splits on '#')."""
        return f"{self.lc_app}#t{self.tenant_id}"

    @property
    def batch_instances(self) -> Tuple[str, ...]:
        """Fleet-unique batch instance ids."""
        return tuple(
            f"{app}#t{self.tenant_id}b{j}"
            for j, app in enumerate(self.batch_apps)
        )

    @property
    def departs_at(self) -> int:
        """First epoch the tenant is no longer resident."""
        return self.arrival_epoch + self.lifetime_epochs


class _ChipContext:
    """A chip runtime's context builder over the chip's current spec.

    It holds the spec and the mesh, never the chip: a bound method of
    the chip would make chip and runtime a reference cycle, and a
    retired chip would wait for the cycle collector.
    """

    __slots__ = ("spec", "noc")

    def __init__(self, noc: MeshNoc):
        self.spec: Optional[WorkloadSpec] = None
        self.noc = noc

    def __call__(self, sizes: Mapping[str, float]):
        # Only reached from reconfigure(), which tick() guards behind
        # a non-empty tenant set.
        assert self.spec is not None
        return self.spec.build_context(dict(sizes), self.noc)


class FleetChip:
    """One simulated socket: capacity accounting + a Jumanji runtime."""

    def __init__(
        self,
        chip_id: int,
        config: Optional[SystemConfig] = None,
        design: Union[str, LlcDesign] = "Jumanji",
        seed: int = 0,
        noc: Optional[MeshNoc] = None,
        history_limit: int = 64,
    ):
        self.chip_id = chip_id
        self.config = config if config is not None else small_chip_config()
        self.design = (
            make_design(design) if isinstance(design, str) else design
        )
        self.seed = seed
        # Mesh distance tables are pure functions of the config; the
        # fleet shares one MeshNoc across all same-config chips.
        self.noc = noc if noc is not None else MeshNoc(self.config)
        self.alive = True
        self.tenants: Dict[int, TenantVM] = {}
        self._cores: Dict[int, Tuple[int, ...]] = {}
        self._free_cores: List[int] = list(range(self.config.num_cores))
        self._sims: Dict[int, LcRequestSimulator] = {}
        self._deadlines: Dict[int, float] = {}
        self._context = _ChipContext(self.noc)
        initial_lc_mb = (
            self.config.llc_size_mb * ControllerConfig().panic_fraction
        )
        self.runtime = JumanjiRuntime(
            self.design,
            self.config,
            context_builder=self._context,
            controller_config=ControllerConfig(
                history_limit=history_limit
            ),
            initial_lc_size_mb=initial_lc_mb,
            seed=seed,
            memoize_placement=True,
        )

    # -- capacity -------------------------------------------------------------

    @property
    def free_cores(self) -> int:
        """Unassigned cores."""
        return len(self._free_cores)

    @property
    def used_cores(self) -> int:
        """Cores assigned to resident tenants."""
        return self.config.num_cores - len(self._free_cores)

    def can_admit(self, vm: TenantVM) -> bool:
        """Whether the chip has room: cores, plus one private bank per
        VM (the no-shared-banks invariant's hard floor)."""
        return (
            self.alive
            and vm.cores_needed <= self.free_cores
            and len(self.tenants) + 1 <= self.config.num_banks
        )

    # -- churn ----------------------------------------------------------------

    def admit(
        self, vm: TenantVM, sim: Optional[LcRequestSimulator] = None
    ) -> None:
        """Place a tenant on this chip.

        ``sim`` carries queueing state across a migration; omitted, a
        fresh deterministic simulator is built (new tenants, and
        failure reschedules — a dead chip's state is lost).
        """
        if not self.can_admit(vm):
            raise ConfigError(
                f"chip {self.chip_id} cannot admit tenant "
                f"{vm.tenant_id}: {self.free_cores} free cores, "
                f"{len(self.tenants)}/{self.config.num_banks} VM slots"
            )
        if vm.tenant_id in self.tenants:
            raise ConfigError(
                f"tenant {vm.tenant_id} already on chip {self.chip_id}"
            )
        cores = tuple(self._free_cores[: vm.cores_needed])
        del self._free_cores[: vm.cores_needed]
        self.tenants[vm.tenant_id] = vm
        self._cores[vm.tenant_id] = cores
        profile = get_lc_profile(vm.lc_app)
        deadline = chip_deadline_cycles(vm.lc_app, self.config)
        self._deadlines[vm.tenant_id] = deadline
        self.runtime.register_lc_app(vm.lc_instance, deadline)
        if sim is None:
            sim = LcRequestSimulator(
                qps=profile.qps_at("high"),
                service_cv=profile.service_cv,
                seed=self.seed * 1_000_003 + vm.tenant_id,
            )
        self._sims[vm.tenant_id] = sim
        self._rebuild_spec()

    def release(
        self, tenant_id: int
    ) -> Tuple[TenantVM, LcRequestSimulator]:
        """Remove a tenant (departure or migration source).

        Returns the tenant and its queueing simulator so a migration
        can carry the backlog to the destination socket.
        """
        try:
            vm = self.tenants.pop(tenant_id)
        except KeyError:
            raise KeyError(
                f"tenant {tenant_id} not on chip {self.chip_id}"
            ) from None
        cores = self._cores.pop(tenant_id)
        self._free_cores = sorted(self._free_cores + list(cores))
        sim = self._sims.pop(tenant_id)
        self._deadlines.pop(tenant_id)
        self.runtime.controller.unregister(vm.lc_instance)
        self._rebuild_spec()
        return vm, sim

    def fail(self) -> List[TenantVM]:
        """Kill the chip; returns its tenants for rescheduling.

        All per-socket state (queueing backlog, controller windows,
        placement history) dies with the hardware — rescheduled tenants
        restart cold elsewhere.
        """
        self.alive = False
        displaced = [self.tenants[t] for t in sorted(self.tenants)]
        self.tenants.clear()
        self._cores.clear()
        self._sims.clear()
        self._deadlines.clear()
        self._free_cores = list(range(self.config.num_cores))
        self._context.spec = None
        return displaced

    def _rebuild_spec(self) -> None:
        if not self.tenants:
            self._context.spec = None
            return
        vms = []
        for tid in sorted(self.tenants):
            vm = self.tenants[tid]
            vms.append(
                VmSpec(
                    vm_id=tid,
                    cores=self._cores[tid],
                    lc_apps=(vm.lc_instance,),
                    batch_apps=vm.batch_instances,
                )
            )
        self._context.spec = WorkloadSpec(
            config=self.config, vms=vms, load="high"
        )

    # -- the per-socket epoch -------------------------------------------------

    def tick(
        self,
        epoch: int,
        load_factor: float = 1.0,
        service_factor: float = 1.0,
    ) -> Dict[int, float]:
        """Run one 100 ms epoch; returns tenant -> tail/deadline ratio.

        Mirrors ``SystemModel``'s LC path: reconfigure, then advance
        each tenant's request stream at ``load_factor`` x its high-load
        QPS under the service time its current allocation implies,
        reporting completions to the feedback controller. A tenant with
        no completions this epoch reports ratio 0.0 (no evidence of
        violation). Validates the no-shared-banks invariant on every
        freshly placed allocation.

        ``service_factor`` inflates every tenant's queueing service
        time — the fleet sets it above 1.0 while the scenario's
        ``chip_slow`` fault site marks this chip as a straggler.

        This is :func:`tick_chips` on a batch of one chip.
        """
        if not self.alive:
            raise ConfigError(f"chip {self.chip_id} is dead")
        if not self.tenants:
            return {}
        (outcome,) = tick_chips([self], load_factor, [service_factor])
        if isinstance(outcome, AllocationInvalid):
            raise outcome
        return outcome

    def _prepare(
        self, load_factor: float, service_factor: float
    ) -> _EpochPlan:
        """Reconfigure, then set every tenant's queueing load: its
        simulator's QPS and its mean service time under the placement."""
        record = self.runtime.reconfigure()
        alloc = record.allocation
        spec = self._context.spec
        assert spec is not None
        tenants = sorted(self.tenants)
        services: List[float] = []
        for tid in tenants:
            app = self.tenants[tid].lc_instance
            profile = spec.lc_profile(app)
            size = alloc.app_size(app)
            tile = spec.tile_of(app)
            if alloc.app_banks(app):
                noc_rtt = alloc.avg_noc_rtt(app, tile, self.noc)
                ways = alloc.ways_per_bank(app)
            else:
                # Degraded fallback installed before this tenant
                # existed: serve at S-NUCA distance until the next
                # successful placement covers it.
                noc_rtt = snuca_avg_rtt(tile, self.noc)
                ways = float(self.config.llc_bank_ways)
            services.append(
                lc_service_cycles(
                    profile, size, noc_rtt, ways, self.config,
                    spec.params,
                )
                * service_factor
            )
            self._sims[tid].qps = max(
                spec.qps_of(app) * load_factor, 1e-6
            )
        return _EpochPlan(self, record, tenants, services)

    def _finish(
        self, plan: _EpochPlan, rows: Sequence[np.ndarray]
    ) -> Dict[int, float]:
        """Report each tenant's completions, take its tail ratio, then
        check the placement's isolation."""
        ratios: Dict[int, float] = {}
        for tid, row in zip(plan.tenants, rows):
            if self.design.uses_feedback:
                self.runtime.report_latencies(
                    self.tenants[tid].lc_instance, row
                )
            if row.size:
                ratios[tid] = percentile(row, 95.0) / self._deadlines[tid]
            else:
                ratios[tid] = 0.0
        if not plan.record.degraded:
            spec = self._context.spec
            assert spec is not None
            vm_map = {
                a: spec.vm_of(a) for v in spec.vms for a in v.apps
            }
            plan.record.allocation.validate_isolation(vm_map)
        return ratios


class _EpochPlan(NamedTuple):
    """One chip's reconfigured epoch, ready for the queueing advance."""

    chip: FleetChip
    record: ReconfigRecord
    #: Tenant ids in id order, one per simulator to advance.
    tenants: List[int]
    services: List[float]


def tick_chips(
    chips: Sequence[FleetChip],
    load_factor: float,
    service_factors: Sequence[float],
) -> List[Union[Dict[int, float], AllocationInvalid]]:
    """One epoch of many live, occupied chips, in three passes.

    1. **Prepare**, in the given order: each chip reconfigures and sets
       every tenant's QPS and mean service time.
    2. **Advance**: one :func:`~repro.sim.queueing.advance_epoch_rows`
       call moves every tenant of every prepared chip through the epoch.
    3. **Finish**, in the same order: each chip reports its tenants'
       completions to its controller, takes their p95 tail ratios and
       validates its placement's isolation.

    Chips share no state, so each chip's outcome is the one
    :meth:`FleetChip.tick` gives it alone. A chip whose reconfiguration
    raises :class:`~repro.errors.AllocationInvalid` is not advanced.
    Returns one outcome per chip: its ratios, or the
    ``AllocationInvalid`` its prepare or isolation check raised.
    """
    plans: List[Union[_EpochPlan, AllocationInvalid]] = []
    for chip, factor in zip(chips, service_factors):
        try:
            plans.append(chip._prepare(load_factor, factor))
        except AllocationInvalid as exc:
            plans.append(exc)
    ready = [p for p in plans if isinstance(p, _EpochPlan)]
    rows = advance_epoch_rows(
        [p.chip._sims[t] for p in ready for t in p.tenants],
        RECONFIG_INTERVAL_CYCLES,
        [s for p in ready for s in p.services],
    )
    outcomes: List[Union[Dict[int, float], AllocationInvalid]] = []
    start = 0
    for plan in plans:
        if isinstance(plan, AllocationInvalid):
            outcomes.append(plan)
            continue
        stop = start + len(plan.tenants)
        try:
            outcomes.append(plan.chip._finish(plan, rows[start:stop]))
        except AllocationInvalid as exc:
            outcomes.append(exc)
        start = stop
    return outcomes
