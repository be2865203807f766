"""The rack-level half of the hierarchical loop: Fleet + scheduler.

A :class:`Fleet` holds hundreds of :class:`~repro.fleet.chip.FleetChip`
sockets behind a :class:`ClusterScheduler` and runs one hierarchical
epoch loop per 100 ms tick:

1. **repairs** — chips whose MTTR elapsed rebuild a fresh
   ``FleetChip``/``JumanjiRuntime`` and rejoin the scheduler pool
   (``fleet.repairs``);
2. **failures** — rack-correlated chip deaths from the scenario's
   :class:`~repro.faults.FaultPlan`; a failed chip is ``repairing``
   when the ``chip_repair`` site granted it a repair delay, ``failed``
   for good otherwise. Displaced tenants are rescheduled cold onto
   surviving sockets, preferring chips *off* the failed racks
   (anti-affinity) and healthy over degraded ones
   (``fleet.chips_lost`` / ``fleet.vms_rescheduled``); a tenant with
   nowhere to go is dropped loudly (``fleet.vms_lost``);
3. **health** — the ``chip_slow`` site marks straggler chips
   ``degraded`` for the epoch: their queueing service times are
   inflated and the scheduler deprioritises them;
4. **departures** — tenants whose lifetime expired release their cores;
5. **admission** — Poisson churn plus flash crowds, admitted
   least-loaded-first against per-socket core/bank capacity
   (``fleet.admissions``). An arrival that does not fit is *deferred*
   into a bounded pending queue with per-tenant patience
   (``fleet.deferred``) instead of silently dropped; patience expiry
   and queue overflow are counted as ``fleet.rejections``;
6. **ticks** — every live socket runs its own Jumanji epoch under the
   diurnal load factor, in three passes over the occupied chips
   (:func:`~repro.fleet.chip.tick_chips`): *prepare* reconfigures each
   chip in id order and sets every tenant's QPS and service time;
   *advance* moves every tenant of every chip through the epoch in one
   batched queueing scan; *finish* walks the chips in id order again,
   feeding completions to each controller, taking each tenant's p95,
   and checking each placement's isolation. Tail/deadline ratios feed
   the fleet p95 histogram (``fleet.lc_tail_vs_deadline``) and the SLA
   accounting;
7. **migrations** — a tenant violating its SLA for
   ``migration_patience`` consecutive epochs is moved (queueing backlog
   and all) to the least-loaded other socket with room
   (``fleet.migrations`` / ``fleet.migration_rejected``); the socket it
   just left is excluded for one epoch so the tie-break cannot bounce
   it straight back.

Every epoch ends with an invariant audit — conservation (each admitted
tenant on exactly one live chip, registry and chips agreeing), capacity
(no chip over its core or bank budget), and the deferred-arrival ledger
(``arrivals == admissions + pending + rejections`` and ``admissions ==
resident + departures + vms_lost``) — and every fresh per-chip
placement is isolation-checked in the finish pass of step 6.
Violations are collected into the result, in chip order (and make
:attr:`FleetResult.ok` false), rather than silently dropped.

Admission, rescheduling and migration all go through
:meth:`ClusterScheduler.select`, which walks the fleet's
:class:`AdmissionIndex` (live chips per health tier, emptiest first)
instead of ranking every chip per arrival; the fleet refiles a chip in
it whenever the chip's free cores, liveness or health change.

Determinism contract: :class:`FleetResult` contains no wall-clock and
no unordered iteration — two same-seed runs serialise byte-identically
(the CLI tests gate on exactly that), and a run killed mid-way resumes
from its :class:`~repro.fleet.resilience.FleetJournal` to the same
bytes.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from .. import obs
from ..config import SystemConfig
from ..errors import AllocationInvalid, ConfigError
from ..noc.mesh import MeshNoc
from ..sim.queueing import percentile
from .chip import FleetChip, TenantVM, small_chip_config, tick_chips
from .resilience import (
    AdmissionQueue,
    FleetJournal,
    HealthTracker,
    JournalState,
    _canonical,
)
from .scenarios import Scenario, TenantSpec

__all__ = [
    "AdmissionIndex",
    "ClusterScheduler",
    "Fleet",
    "FleetEpochStats",
    "FleetResult",
    "run_fleet",
]

#: Ratios are clamped here before entering stats/histograms so a
#: blown-up queueing backlog cannot push non-finite values into the
#: canonical JSON.
RATIO_CLAMP = 1e6

#: Every fleet-level counter, in reporting order.
FLEET_COUNTERS = (
    "admissions",
    "rejections",
    "departures",
    "migrations",
    "migration_rejected",
    "sla_violations",
    "chips_lost",
    "vms_rescheduled",
    "reschedule_failed",
    "arrivals",
    "deferred",
    "vms_lost",
    "repairs",
)


class AdmissionIndex:
    """Live chips in admission order, one list per health tier.

    Each list holds ``(-free_cores, chip_id)`` keys in sorted order, so
    it runs from the emptiest chip to the fullest, ties toward the
    lowest id. A chip is in the degraded list while its health state is
    ``degraded`` and in the healthy list otherwise; dead chips are in
    neither. The owner calls :meth:`refile` after every change to a
    chip's free cores, liveness or health state (admit, release, fail,
    repair, health transition).
    """

    def __init__(
        self,
        chips: List[FleetChip],
        health: Optional[HealthTracker] = None,
    ):
        self._health = health
        #: ``(healthy, degraded)`` sorted key lists.
        self._tiers: Tuple[List[Tuple[int, int]], ...] = ([], [])
        #: chip id -> (tier, key) it is filed under.
        self._filed: Dict[int, Tuple[int, Tuple[int, int]]] = {}
        self._chips: Dict[int, FleetChip] = {}
        for chip in chips:
            self.refile(chip)

    def refile(self, chip: FleetChip) -> None:
        """File ``chip`` under its current free cores and health."""
        old = self._filed.pop(chip.chip_id, None)
        if old is not None:
            tier, key = old
            keys = self._tiers[tier]
            del keys[bisect.bisect_left(keys, key)]
            del self._chips[chip.chip_id]
        if not chip.alive:
            return
        tier = int(
            self._health is not None
            and self._health.state(chip.chip_id) == "degraded"
        )
        key = (-chip.free_cores, chip.chip_id)
        bisect.insort(self._tiers[tier], key)
        self._filed[chip.chip_id] = (tier, key)
        self._chips[chip.chip_id] = chip

    def candidates(self, degraded: bool, cores: int) -> Iterator[FleetChip]:
        """Chips of one tier with at least ``cores`` free, emptiest
        first."""
        for neg_free, chip_id in self._tiers[degraded]:
            if -neg_free < cores:
                return
            yield self._chips[chip_id]


class ClusterScheduler:
    """Health- and topology-aware least-loaded-first placement.

    Deterministic: candidates are ranked into preference tiers —
    allowed-rack healthy, allowed-rack degraded, avoided-rack healthy,
    avoided-rack degraded (rack anti-affinity binds harder than
    degradation, because correlated-failure blast radii repeat) — and
    within a tier the first chip with the strictly largest number of
    free cores wins in id order, so ties break toward the lowest chip
    id. With no health tracker or rack information every chip lands in
    the first tier and the behaviour is the original least-loaded scan.

    Each tier is walked in an :class:`AdmissionIndex`'s order and stops
    at the first chip that can admit the tenant, so an admission costs
    the chips it skips, not the fleet size.
    """

    def select(
        self,
        vm: TenantVM,
        chips: List[FleetChip],
        health: Optional[HealthTracker] = None,
        avoid_chips: FrozenSet[int] = frozenset(),
        avoid_racks: FrozenSet[int] = frozenset(),
        rack_of=None,
        index: Optional[AdmissionIndex] = None,
    ) -> Optional[FleetChip]:
        """The chip to place ``vm`` on, or ``None`` if the fleet is full.

        ``avoid_chips`` is a hard exclusion (anti-bounce); ``avoid_racks``
        (requires ``rack_of``) and health degradation are soft — the
        scheduler falls back to worse tiers when nothing better fits.
        ``index`` is the caller's up-to-date index over ``chips`` and
        ``health``; without one, a fresh index is built for this call.
        """
        if index is None:
            index = AdmissionIndex(chips, health)
        racks = rack_of is not None and bool(avoid_racks)
        for avoided in (False, True) if racks else (False,):
            for degraded in (False, True):
                for chip in index.candidates(degraded, vm.cores_needed):
                    if chip.chip_id in avoid_chips:
                        continue
                    if racks and (
                        (rack_of(chip.chip_id) in avoid_racks) != avoided
                    ):
                        continue
                    if chip.can_admit(vm):
                        return chip
        return None


@dataclass
class FleetEpochStats:
    """Fleet-level observables for one epoch (counter deltas + tails)."""

    epoch: int
    load_factor: float
    live_chips: int
    tenants: int
    admissions: int
    rejections: int
    departures: int
    migrations: int
    migration_rejected: int
    sla_violations: int
    chips_lost: int
    vms_rescheduled: int
    reschedule_failed: int
    arrivals: int
    deferred: int
    vms_lost: int
    repairs: int
    pending: int
    healthy_chips: int
    degraded_chips: int
    failed_chips: int
    repairing_chips: int
    mean_ratio: float
    p95_ratio: float


@dataclass
class FleetResult:
    """Everything one fleet run produced, JSON-canonically."""

    scenario: Dict[str, Any]
    design: str
    counters: Dict[str, int]
    epochs: List[FleetEpochStats]
    invariant_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no invariant broke anywhere in the run."""
        return not self.invariant_violations

    def canonical(self) -> Dict[str, Any]:
        """Plain-data form with deterministic content and ordering."""
        return {
            "scenario": self.scenario,
            "design": self.design,
            "counters": dict(self.counters),
            "epochs": [asdict(e) for e in self.epochs],
            "invariant_violations": list(self.invariant_violations),
            "ok": self.ok,
        }

    def to_json(self) -> str:
        """The canonical form as a stable JSON string (the byte-identity
        surface the determinism gates compare)."""
        return json.dumps(self.canonical(), sort_keys=True, indent=2)


class Fleet:
    """Hundreds of chips, one scheduler, one hierarchical epoch loop.

    Drive it either with :meth:`run` (the whole scenario in one call)
    or incrementally — :meth:`setup` once, then :meth:`step` per epoch,
    then :meth:`result` — which is how the fault tests observe tenant
    placement mid-run. Attach a
    :class:`~repro.fleet.resilience.FleetJournal` to make the run
    crash-safe (:func:`run_fleet` wires this up for ``--checkpoint``).
    """

    def __init__(
        self,
        scenario: Scenario,
        design: str = "Jumanji",
        chip_config: Optional[SystemConfig] = None,
        scheduler: Optional[ClusterScheduler] = None,
        history_limit: int = 64,
    ):
        self.scenario = scenario
        self.design_name = design
        self.history_limit = history_limit
        self._chip_config = (
            chip_config if chip_config is not None else small_chip_config()
        )
        self._noc = MeshNoc(self._chip_config)
        self._incarnations: Dict[int, int] = {
            chip_id: 0 for chip_id in range(scenario.chips)
        }
        self.chips = [
            self._build_chip(chip_id)
            for chip_id in range(scenario.chips)
        ]
        self.scheduler = (
            scheduler if scheduler is not None else ClusterScheduler()
        )
        self.health = HealthTracker(
            scenario.chips, history_limit=history_limit
        )
        #: The scheduler's view of the chips, refiled on every change.
        self._index = AdmissionIndex(self.chips, self.health)
        self.pending = AdmissionQueue(scenario.pending_limit)
        self.counters: Dict[str, int] = {c: 0 for c in FLEET_COUNTERS}
        #: tenant id -> chip id, the scheduler's source of truth.
        self.tenant_chip: Dict[int, int] = {}
        self._tenant_meta: Dict[int, TenantVM] = {}
        self._strikes: Dict[int, int] = {}
        #: tenant id -> (chip it last migrated off, migration epoch);
        #: the anti-bounce exclusion window.
        self._last_migration: Dict[int, Tuple[int, int]] = {}
        #: chip id -> epoch it rejoins the pool.
        self._repair_at: Dict[int, int] = {}
        self._repaired: set = set()
        self._next_tenant = 0
        self._epoch_stats: List[FleetEpochStats] = []
        self._violations: List[str] = []
        self._setup_done = False
        self.journal: Optional[FleetJournal] = None

    # -- chip lifecycle -------------------------------------------------------

    def _build_chip(self, chip_id: int) -> FleetChip:
        """A fresh socket (initial build, or a post-repair rebuild).

        The seed folds in the chip's incarnation count so a repaired
        chip's runtime is fresh hardware, not a replay of the machine
        that failed — while staying a pure function of the scenario.
        """
        incarnation = self._incarnations[chip_id]
        seed = (
            self.scenario.seed * 1_000_003
            + chip_id
            + incarnation * 15_485_863
        )
        return FleetChip(
            chip_id,
            config=self._chip_config,
            design=self.design_name,
            seed=seed,
            noc=self._noc,
            history_limit=self.history_limit,
        )

    @property
    def repaired_chips(self) -> List[int]:
        """Chips repaired at least once this run (sorted)."""
        return sorted(self._repaired)

    # -- counters -------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        obs.counter_inc(f"fleet.{name}", amount)

    # -- placement ------------------------------------------------------------

    def _live_chips(self) -> List[FleetChip]:
        return [c for c in self.chips if c.alive]

    def _forget_tenant(self, tenant_id: int) -> None:
        self._strikes.pop(tenant_id, None)
        self._last_migration.pop(tenant_id, None)

    def _admit_spec(self, spec: TenantSpec, epoch: int) -> bool:
        """Admit one arriving (or deferred) tenant; False = no room."""
        vm = TenantVM(
            tenant_id=self._next_tenant,
            lc_app=spec.lc_app,
            batch_apps=spec.batch_apps,
            arrival_epoch=epoch,
            lifetime_epochs=spec.lifetime_epochs,
        )
        chip = self.scheduler.select(
            vm,
            self.chips,
            health=self.health,
            rack_of=self.scenario.rack_of,
            index=self._index,
        )
        if chip is None:
            return False
        self._next_tenant += 1
        with obs.span(
            "fleet.admit", tenant=vm.tenant_id, chip=chip.chip_id
        ):
            chip.admit(vm)
        self._index.refile(chip)
        self.tenant_chip[vm.tenant_id] = chip.chip_id
        self._tenant_meta[vm.tenant_id] = vm
        self._count("admissions")
        return True

    def _offer_arrival(self, spec: TenantSpec, epoch: int) -> None:
        """One spec through admission control: place, defer, or reject."""
        self._count("arrivals")
        if self._admit_spec(spec, epoch):
            return
        entry = self.pending.offer(
            spec, epoch, self.scenario.admission_patience
        )
        if entry is None:
            # Queue full: backpressure turns into an explicit shed.
            self._count("rejections")
        else:
            self._count("deferred")

    def _run_admission(self, epoch: int) -> None:
        """Expire, retry, then take this epoch's fresh arrivals."""
        for entry in self.pending.expire(epoch):
            # Patience ran out while waiting for capacity.
            self._count("rejections")
        for entry in self.pending.drain():
            if not self._admit_spec(entry.spec, epoch):
                self.pending.requeue(entry)
        for spec in self.scenario.arrivals(epoch):
            self._offer_arrival(spec, epoch)

    def _reschedule(
        self, vm: TenantVM, avoid_racks: FrozenSet[int]
    ) -> bool:
        """Re-place a tenant displaced by a chip failure (fresh state).

        Prefers sockets *off* the racks that failed this epoch
        (anti-affinity against the correlated blast radius) and healthy
        over degraded chips, falling back when capacity is short.
        """
        chip = self.scheduler.select(
            vm,
            self.chips,
            health=self.health,
            avoid_racks=avoid_racks,
            rack_of=self.scenario.rack_of,
            index=self._index,
        )
        if chip is None:
            # Nowhere to go: the tenant is lost, loudly — vms_lost is
            # the conservation ledger's explicit account of it.
            self._tenant_meta.pop(vm.tenant_id, None)
            self._forget_tenant(vm.tenant_id)
            self._count("reschedule_failed")
            self._count("vms_lost")
            return False
        with obs.span(
            "fleet.admit",
            tenant=vm.tenant_id,
            chip=chip.chip_id,
            rescheduled=True,
        ):
            chip.admit(vm)
        self._index.refile(chip)
        self.tenant_chip[vm.tenant_id] = chip.chip_id
        self._count("vms_rescheduled")
        return True

    def _migrate(self, tenant_id: int, epoch: int) -> bool:
        """Move a persistently violating tenant to a less-loaded socket.

        The chip the tenant migrated off within the last epoch is
        excluded, so the least-loaded tie-break cannot bounce a tenant
        straight back to the socket it just fled.
        """
        src = self.chips[self.tenant_chip[tenant_id]]
        vm = self._tenant_meta[tenant_id]
        avoid = {src.chip_id}
        last = self._last_migration.get(tenant_id)
        if last is not None and epoch <= last[1] + 1:
            avoid.add(last[0])
        target = self.scheduler.select(
            vm,
            self.chips,
            health=self.health,
            avoid_chips=frozenset(avoid),
            rack_of=self.scenario.rack_of,
            index=self._index,
        )
        if target is None:
            self._count("migration_rejected")
            return False
        with obs.span(
            "fleet.migrate",
            tenant=tenant_id,
            src=src.chip_id,
            dst=target.chip_id,
        ):
            _, sim = src.release(tenant_id)
            target.admit(vm, sim=sim)
        self._index.refile(src)
        self._index.refile(target)
        self.tenant_chip[tenant_id] = target.chip_id
        self._last_migration[tenant_id] = (src.chip_id, epoch)
        self._count("migrations")
        return True

    # -- the hierarchical loop ------------------------------------------------

    def setup(self) -> None:
        """Admit the scenario's initial tenants (idempotent guard)."""
        if self._setup_done:
            raise ConfigError("fleet already set up; build a new Fleet")
        self._setup_done = True
        for spec in self.scenario.initial_tenant_specs():
            self._offer_arrival(spec, 0)

    def step(self, epoch: int) -> FleetEpochStats:
        """One fleet epoch: repairs, failures, churn, ticks, migrations."""
        if not self._setup_done:
            raise ConfigError("call setup() before step()")
        sc = self.scenario
        before = dict(self.counters)
        violations_before = len(self._violations)
        with obs.span("fleet.tick", epoch=epoch):
            # 0. Repairs whose MTTR elapsed: fresh hardware rejoins.
            for chip_id in sorted(self._repair_at):
                if self._repair_at[chip_id] > epoch:
                    continue
                del self._repair_at[chip_id]
                with obs.span(
                    "fleet.repair", chip=chip_id, epoch=epoch
                ):
                    self._incarnations[chip_id] += 1
                    self.chips[chip_id] = self._build_chip(chip_id)
                self.health.set_state(chip_id, epoch, "healthy")
                self._index.refile(self.chips[chip_id])
                self._repaired.add(chip_id)
                self._count("repairs")
            # 1. Correlated chip failures. A rack dies as one event:
            #    every failing chip is dead before any displaced
            #    tenant is re-placed, so nobody is "rescued" onto a
            #    socket that is about to fail this same epoch.
            displaced: List[TenantVM] = []
            failed_racks: set = set()
            for chip_id in sc.chip_failures(epoch):
                chip = self.chips[chip_id]
                if not chip.alive:
                    continue
                displaced.extend(chip.fail())
                failed_racks.add(sc.rack_of(chip_id))
                delay = sc.repair_delay(chip_id, epoch)
                if delay is None:
                    self.health.set_state(chip_id, epoch, "failed")
                else:
                    self._repair_at[chip_id] = epoch + delay
                    self.health.set_state(chip_id, epoch, "repairing")
                self._index.refile(chip)
                self._count("chips_lost")
            for vm in displaced:
                del self.tenant_chip[vm.tenant_id]
                self._forget_tenant(vm.tenant_id)
            # 2. Straggler marking: chip_slow inflates service times
            #    and deprioritises the chip for the rest of the epoch.
            slow = {
                chip_id
                for chip_id in sc.slow_chips(epoch)
                if self.chips[chip_id].alive
            }
            for chip in self.chips:
                if chip.alive and self.health.set_state(
                    chip.chip_id,
                    epoch,
                    "degraded" if chip.chip_id in slow else "healthy",
                ):
                    self._index.refile(chip)
            # 3. Re-place the displaced, off the failed racks when
            #    capacity allows.
            avoid_racks = frozenset(failed_racks)
            for vm in displaced:
                self._reschedule(vm, avoid_racks)
            # 4. Lifetime-expired departures.
            for tenant_id in sorted(self.tenant_chip):
                vm = self._tenant_meta[tenant_id]
                if vm.departs_at <= epoch:
                    chip = self.chips[self.tenant_chip.pop(tenant_id)]
                    chip.release(tenant_id)
                    self._index.refile(chip)
                    self._tenant_meta.pop(tenant_id)
                    self._forget_tenant(tenant_id)
                    self._count("departures")
            # 5. Admission control: expiries, deferred retries, then
            #    this epoch's Poisson arrivals (flash-boosted).
            self._run_admission(epoch)
            # 6. Per-socket Jumanji epochs under the diurnal load, as
            #    one batch: stragglers serve inflated service times.
            load = sc.load_factor(epoch)
            ratios: Dict[int, float] = {}
            ticking = [
                chip for chip in self.chips if chip.alive and chip.tenants
            ]
            factors = [
                sc.slow_service_factor if chip.chip_id in slow else 1.0
                for chip in ticking
            ]
            outcomes = tick_chips(ticking, load, factors)
            for chip, outcome in zip(ticking, outcomes):
                if isinstance(outcome, AllocationInvalid):
                    self._violations.append(
                        f"epoch {epoch}: chip {chip.chip_id} broke "
                        f"isolation: {outcome}"
                    )
                    continue
                ratios.update(outcome)
            # 7. SLA accounting + strike-driven migrations.
            for tenant_id in sorted(ratios):
                ratio = min(ratios[tenant_id], RATIO_CLAMP)
                ratios[tenant_id] = ratio
                obs.observe(
                    "fleet.lc_tail_vs_deadline",
                    ratio,
                    edges=obs.RATIO_EDGES,
                )
                if ratio > sc.sla_threshold:
                    self._count("sla_violations")
                    self._strikes[tenant_id] = (
                        self._strikes.get(tenant_id, 0) + 1
                    )
                else:
                    self._strikes[tenant_id] = 0
            for tenant_id in sorted(ratios):
                if (
                    self._strikes.get(tenant_id, 0)
                    >= sc.migration_patience
                    and tenant_id in self.tenant_chip
                ):
                    self._migrate(tenant_id, epoch)
                    self._strikes[tenant_id] = 0
        self._violations.extend(self.audit(epoch))
        values = [ratios[t] for t in sorted(ratios)]
        live = len(self._live_chips())
        health_counts = self.health.counts()
        obs.gauge_set("fleet.tenants", len(self.tenant_chip))
        obs.gauge_set("fleet.live_chips", live)
        obs.gauge_set("fleet.pending", len(self.pending))
        for state, count in health_counts.items():
            obs.gauge_set(f"fleet.{state}_chips", count)
        stats = FleetEpochStats(
            epoch=epoch,
            load_factor=load,
            live_chips=live,
            tenants=len(self.tenant_chip),
            pending=len(self.pending),
            healthy_chips=health_counts["healthy"],
            degraded_chips=health_counts["degraded"],
            failed_chips=health_counts["failed"],
            repairing_chips=health_counts["repairing"],
            mean_ratio=(sum(values) / len(values)) if values else 0.0,
            p95_ratio=percentile(values, 95.0) if values else 0.0,
            **{
                name: self.counters[name] - before[name]
                for name in FLEET_COUNTERS
            },
        )
        self._epoch_stats.append(stats)
        if self.journal is not None:
            self.journal.append_epoch(
                epoch,
                asdict(stats),
                dict(self.counters),
                self._violations[violations_before:],
            )
        return stats

    def audit(self, epoch: int) -> List[str]:
        """Check conservation, capacity, and the arrival ledger.

        Conservation: every admitted tenant is on exactly one live
        chip, and the scheduler's registry agrees with the chips' own
        books. Capacity: no chip over its core count or its one-bank-
        per-VM budget, and the pending queue inside its bound. Ledger:
        every arrival is admitted, still pending, or rejected —
        ``arrivals == admissions + pending + rejections`` — and every
        admission is resident, departed, or explicitly lost —
        ``admissions == resident + departures + vms_lost``. (Isolation
        is validated per placement in :func:`~repro.fleet.chip.tick_chips`.)
        """
        problems: List[str] = []
        seen: Dict[int, int] = {}
        for chip in self.chips:
            for tenant_id in chip.tenants:
                if not chip.alive:
                    problems.append(
                        f"epoch {epoch}: dead chip {chip.chip_id} "
                        f"still holds tenant {tenant_id}"
                    )
                if tenant_id in seen:
                    problems.append(
                        f"epoch {epoch}: tenant {tenant_id} on chips "
                        f"{seen[tenant_id]} and {chip.chip_id}"
                    )
                seen[tenant_id] = chip.chip_id
        if seen != self.tenant_chip:
            missing = sorted(set(self.tenant_chip) - set(seen))
            extra = sorted(set(seen) - set(self.tenant_chip))
            moved = sorted(
                t
                for t in set(seen) & set(self.tenant_chip)
                if seen[t] != self.tenant_chip[t]
            )
            problems.append(
                f"epoch {epoch}: registry/chip divergence "
                f"(missing={missing}, extra={extra}, moved={moved})"
            )
        for chip in self.chips:
            used = sum(
                chip.tenants[t].cores_needed for t in chip.tenants
            )
            if used != chip.used_cores:
                problems.append(
                    f"epoch {epoch}: chip {chip.chip_id} core "
                    f"accounting drift ({used} != {chip.used_cores})"
                )
            if used > chip.config.num_cores:
                problems.append(
                    f"epoch {epoch}: chip {chip.chip_id} over core "
                    f"budget ({used}/{chip.config.num_cores})"
                )
            if len(chip.tenants) > chip.config.num_banks:
                problems.append(
                    f"epoch {epoch}: chip {chip.chip_id} over bank "
                    f"budget ({len(chip.tenants)}/"
                    f"{chip.config.num_banks} VMs)"
                )
        c = self.counters
        pending = len(self.pending)
        if c["arrivals"] != c["admissions"] + pending + c["rejections"]:
            problems.append(
                f"epoch {epoch}: arrival ledger leak "
                f"(arrivals={c['arrivals']} != "
                f"admissions={c['admissions']} + pending={pending} + "
                f"rejections={c['rejections']})"
            )
        if c["admissions"] != (
            len(self.tenant_chip) + c["departures"] + c["vms_lost"]
        ):
            problems.append(
                f"epoch {epoch}: admission ledger leak "
                f"(admissions={c['admissions']} != "
                f"resident={len(self.tenant_chip)} + "
                f"departures={c['departures']} + "
                f"lost={c['vms_lost']})"
            )
        if pending > self.scenario.pending_limit:
            problems.append(
                f"epoch {epoch}: pending queue over its bound "
                f"({pending}/{self.scenario.pending_limit})"
            )
        return problems

    # -- checkpoint/resume ----------------------------------------------------

    def attach_journal(self, journal: Optional[FleetJournal]) -> None:
        """Journal every completed epoch from now on (crash safety)."""
        self.journal = journal

    def resume_from(self, state: JournalState) -> int:
        """Rebuild in-memory state by replaying journaled epochs.

        Fleet runs are deterministic in their seed, so replaying the
        recorded prefix reconstructs runtimes, queueing backlogs, and
        RNG positions exactly; every replayed epoch is *verified*
        against its journal record so code or scenario drift between
        crash and resume fails loudly (:class:`~repro.errors.
        ConfigError`) instead of silently diverging. Returns the first
        epoch still to run.
        """
        if self._setup_done:
            raise ConfigError(
                "resume_from needs a fresh fleet; build a new one"
            )
        journal, self.journal = self.journal, None
        try:
            with obs.span(
                "fleet.resume", epochs=len(state.epochs)
            ):
                self.setup()
                for record in state.epochs:
                    epoch = record["epoch"]
                    stats = self.step(epoch)
                    if _canonical(asdict(stats)) != record["stats"]:
                        raise ConfigError(
                            f"fleet journal drift at epoch {epoch}: "
                            "the journaled stats no longer match a "
                            "same-seed replay (code or scenario "
                            "changed since the crash); delete the "
                            "checkpoint to start over"
                        )
                if state.epochs:
                    last = state.epochs[-1]
                    if _canonical(dict(self.counters)) != last["counters"]:
                        raise ConfigError(
                            "fleet journal drift: cumulative counters "
                            "diverged from the journaled run; delete "
                            "the checkpoint to start over"
                        )
        finally:
            self.journal = journal
        return state.next_epoch

    def result(self) -> FleetResult:
        """The run so far as a canonical, comparable result."""
        return FleetResult(
            scenario=self.scenario.as_params(),
            design=self.design_name,
            counters=dict(self.counters),
            epochs=list(self._epoch_stats),
            invariant_violations=list(self._violations),
        )

    def run(self) -> FleetResult:
        """The whole scenario in one call."""
        self.setup()
        for epoch in range(self.scenario.epochs):
            self.step(epoch)
        return self.result()


def run_fleet(
    scenario: Scenario,
    design: str = "Jumanji",
    chip_config: Optional[SystemConfig] = None,
    checkpoint: Optional[Any] = None,
) -> FleetResult:
    """Build a fleet for ``scenario`` and run it end to end.

    With ``checkpoint`` (a path), the run is crash-safe: every
    completed epoch is journaled, and a journal left behind by a killed
    run — same scenario, same design — is resumed instead of restarted,
    producing a result byte-identical to an uninterrupted run. A
    journal for a *different* scenario or design is discarded and the
    run starts fresh.
    """
    fleet = Fleet(scenario, design=design, chip_config=chip_config)
    if checkpoint is None:
        return fleet.run()
    journal = FleetJournal(checkpoint)
    state = journal.load()
    fleet.attach_journal(journal)
    start = 0
    if (
        state is not None
        and state.scenario == _canonical(scenario.as_params())
        and state.design == design
    ):
        start = fleet.resume_from(state)
    else:
        journal.write_header(scenario.as_params(), design)
        fleet.setup()
    for epoch in range(start, scenario.epochs):
        fleet.step(epoch)
    return fleet.result()
