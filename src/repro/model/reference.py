"""Frozen scalar reference for the epoch-level analytical engine.

This module preserves the scalar implementations of the epoch engine's
hot paths exactly as they existed before the vectorised fast path
replaced them in ``repro.sim.queueing`` and the ``repro.core`` placers.
It exists for equivalence testing (the same pattern as
:mod:`repro.sim.reference` for the trace simulator): the fast path must
be bit-identical to this code — the same request latencies, the same
allocation matrices, the same controller decisions. Property tests
drive both implementations with the same seeds/contexts and compare
every observable (``tests/test_model_reference.py``, and the ragged
batch tests in ``tests/test_model_batch.py`` for every registered
design).

Two deliberate deviations from the historical code are part of the
engine change and documented in :mod:`repro.sim.queueing`:

* Variates come from buffered ``numpy.Generator`` streams (numpy draws
  are bitwise chunk-independent, so the scalar one-at-a-time
  consumption here sees the same values the fast path slices in bulk).
* Completion times follow the u-transform of the Lindley recurrence
  (``u = max(u, arrival - S); completion = u + S`` with ``S`` the
  running service-time sum), which both paths compute with the same
  IEEE operations in the same order. The golden fig12/fig13 pins were
  regenerated for the resulting new request streams.

A full scalar run is a :class:`ReferenceSystemModel` (or
``run_model(..., engine="reference")``): its contexts are built with
``engine="reference"`` (the production placer entry points then
delegate to the copies below), its LC queues are
:class:`ReferenceLcRequestSimulator` and placement memoisation is off.
Nothing here should be optimised: slow-and-obvious is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..cache.misscurve import MissCurve
from ..config import CORE_FREQ_HZ, Engine
from ..core.allocation import Allocation
from ..core.context import PlacementContext
from ..errors import LlcFull
from ..metrics.security import potential_attackers_per_access
from ..noc.energy import EnergyBreakdown
from ..noc.mesh import MeshNoc
from ..sim.queueing import LcRequestSimulator, QueueSimResult, percentile
from ..workloads.tailbench import REFERENCE_ALLOC_MB
from .performance import batch_perf, lc_service_cycles
from .reference_allocation import ReferenceAllocation
from .system import EpochMetrics, RunResult, SystemModel, _RunState

__all__ = [
    "ReferenceLcRequestSimulator",
    "ReferenceSystemModel",
    "reference_combine_curves",
    "reference_lookahead",
    "reference_jumanji_lookahead",
    "reference_lat_crit_placer",
    "reference_place_sizes_near_tiles",
    "reference_jigsaw_place",
    "reference_vm_batch_curves",
    "reference_assign_banks_to_vms",
    "reference_jumanji_placer",
]


# ---------------------------------------------------------------------------
# Queueing: scalar FCFS epoch loop
# ---------------------------------------------------------------------------


class ReferenceLcRequestSimulator(LcRequestSimulator):
    """Scalar per-request epoch loop over the shared variate streams.

    Consumes the same buffered streams as the fast path, one variate at
    a time, and resolves the u-transform recurrence request by request.
    Differentially tested to produce bit-identical results.
    """

    def run_epoch(
        self,
        duration_cycles: float,
        mean_service_cycles: float,
        qps: Optional[float] = None,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> QueueSimResult:
        if duration_cycles <= 0:
            raise ValueError("duration must be positive")
        if mean_service_cycles <= 0:
            raise ValueError("service time must be positive")
        if qps is not None:
            if qps <= 0:
                raise ValueError("qps must be positive")
            self.qps = qps
        epoch_end = self._now + duration_cycles

        # Arrivals: running sum of scaled unit exponentials from the
        # epoch's base arrival — the same left-to-right summation the
        # fast path computes with one cumsum.
        if self._next_arrival <= epoch_end:
            scale = CORE_FREQ_HZ / self.qps
            base = self._next_arrival
            offset = 0.0
            current = base
            while current <= epoch_end:
                if len(self._backlog) < self.max_backlog:
                    self._backlog.append(current)
                offset = offset + self._arrivals.next() * scale
                current = base + offset
            self._next_arrival = current

        # Serve FCFS via the u-transform: S is the running sum of
        # service times started this epoch, u the shifted start level.
        latencies: List[float] = []
        service_scale = mean_service_cycles * self.service_cv**2
        u = self._server_free_at
        cum = 0.0
        remaining: List[float] = []
        for arrival in self._backlog:
            candidate = arrival - cum
            if candidate > u:
                u = candidate
            start = u + cum
            if start >= epoch_end:
                remaining.append(arrival)
                continue
            if self._services is not None:
                service = self._services.next() * service_scale
            else:
                service = mean_service_cycles
            cum = cum + service
            completion = u + cum
            self._server_free_at = completion
            if completion > epoch_end:
                # Server stays busy with this request into the next
                # epoch; it is retried (fresh draw) next epoch.
                remaining.append(arrival)
                continue
            latency = completion - arrival
            latencies.append(latency)
            if on_complete is not None:
                on_complete(latency)
        self._backlog = remaining
        self._now = epoch_end

        utilization = self.qps * mean_service_cycles / CORE_FREQ_HZ
        return QueueSimResult(
            latencies_cycles=latencies,
            completed=len(latencies),
            mean_service_cycles=mean_service_cycles,
            utilization=utilization,
            final_queue_depth=len(self._backlog),
        )


# ---------------------------------------------------------------------------
# NoC helpers: per-call sorted()/min() as the scalar placers used
# ---------------------------------------------------------------------------


def _banks_by_distance(noc: MeshNoc, tile: int) -> List[int]:
    n = noc.config.num_banks
    return sorted(range(n), key=lambda b: (noc.hops(tile, b), b))


# ---------------------------------------------------------------------------
# Capacity division: Lookahead with the scalar tie-break loops
# ---------------------------------------------------------------------------


def _best_step_scalar(
    curve: MissCurve, current: float, budget: float, step: float
) -> Tuple[float, float]:
    max_steps = int(budget / step + 1e-9)
    best_util = -1.0
    best_delta = 0.0
    if max_steps < 1:
        return best_util, best_delta
    base = curve.misses_at(current)
    deltas = np.arange(1, max_steps + 1, dtype=float) * step
    utils = (base - curve.misses_at_many(current + deltas)) / deltas
    for k, util in enumerate(utils.tolist()):
        if util > best_util + 1e-15:
            best_util = util
            best_delta = float(deltas[k])
    return best_util, best_delta


def reference_lookahead(
    curves: Mapping[str, MissCurve],
    capacity: float,
    step: float,
    minimums: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """UCP Lookahead with the scalar per-candidate tie-break loop."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if step <= 0:
        raise ValueError("step must be positive")
    if not curves:
        raise ValueError("need at least one curve")
    sizes: Dict[str, float] = {a: 0.0 for a in curves}
    if minimums:
        for app, floor in minimums.items():
            if app not in sizes:
                raise ValueError(f"minimum for unknown app {app!r}")
            if floor < 0:
                raise ValueError("minimum must be non-negative")
            sizes[app] = floor
    remaining = capacity - sum(sizes.values())
    if remaining < -1e-9:
        raise ValueError("minimums exceed capacity")

    while remaining >= step - 1e-12:
        best_app = None
        best_util = -1.0
        best_delta = 0.0
        for app, curve in curves.items():
            util, delta = _best_step_scalar(
                curve, sizes[app], remaining, step
            )
            if delta > 0 and util > best_util + 1e-15:
                best_util = util
                best_app = app
                best_delta = delta
        if best_app is None:
            break
        if best_util <= 0:
            share = remaining / len(sizes)
            for app in sizes:
                sizes[app] += share
            remaining = 0.0
            break
        sizes[best_app] += best_delta
        remaining -= best_delta
    if remaining > 1e-12 and sizes:
        steepest = max(
            curves,
            key=lambda a: curves[a].marginal_utility(sizes[a], step),
        )
        sizes[steepest] += remaining
    return sizes


def reference_jumanji_lookahead(
    vm_curves: Mapping[int, MissCurve],
    lat_allocs: Mapping[int, float],
    num_banks: int,
    bank_mb: float,
) -> Dict[int, float]:
    """Bank-granular lookahead with the scalar tie-break loop."""
    if num_banks < 1:
        raise ValueError("need at least one bank")
    if bank_mb <= 0:
        raise ValueError("bank size must be positive")
    vms = sorted(vm_curves)
    if sorted(lat_allocs) != vms and any(
        vm not in vm_curves for vm in lat_allocs
    ):
        raise ValueError("lat_allocs refers to unknown VMs")
    min_banks: Dict[int, int] = {}
    for vm in vms:
        lat = lat_allocs.get(vm, 0.0)
        if lat < 0:
            raise ValueError("negative LC reservation")
        min_banks[vm] = max(1, math.ceil(lat / bank_mb - 1e-9))
    total_min = sum(min_banks.values())
    if total_min > num_banks:
        raise ValueError(
            f"LC reservations need {total_min} banks; only {num_banks}"
        )

    banks_of: Dict[int, int] = dict(min_banks)
    remaining = num_banks - total_min

    def batch_mb(vm: int, banks: int) -> float:
        return banks * bank_mb - lat_allocs.get(vm, 0.0)

    while remaining > 0:
        best_vm = None
        best_util = -1.0
        best_banks = 0
        deltas = np.arange(1, remaining + 1, dtype=float) * bank_mb
        for vm in vms:
            cur = batch_mb(vm, banks_of[vm])
            curve = vm_curves[vm]
            base = curve.misses_at(cur)
            utils = (base - curve.misses_at_many(cur + deltas)) / deltas
            for k, util in enumerate(utils.tolist(), start=1):
                if util > best_util + 1e-15:
                    best_util = util
                    best_vm = vm
                    best_banks = k
        if best_vm is None or best_util <= 0:
            i = 0
            while remaining > 0:
                banks_of[vms[i % len(vms)]] += 1
                remaining -= 1
                i += 1
            break
        banks_of[best_vm] += best_banks
        remaining -= best_banks

    return {vm: batch_mb(vm, banks_of[vm]) for vm in vms}


# ---------------------------------------------------------------------------
# Curve combination: greedy sweep with the scalar inner loops
# ---------------------------------------------------------------------------


def reference_combine_curves(curves: Sequence[MissCurve]) -> MissCurve:
    """Whirlpool-style combination, scalar and uncached."""
    curve_list = list(curves)
    if not curve_list:
        raise ValueError("need at least one curve")
    step = curve_list[0].step
    if any(c.step != step for c in curve_list):
        raise ValueError("all curves must share the same step")
    num_points = max(c.num_points for c in curve_list)

    n_apps = len(curve_list)
    allocs = [0.0] * n_apps
    combined = np.empty(num_points, dtype=float)
    combined[0] = sum(c.misses_at(0.0) for c in curve_list)
    granted = 0
    while granted < num_points - 1:
        remaining = num_points - 1 - granted
        best_app = -1
        best_util = -1.0
        best_k = 1
        deltas = np.arange(1, remaining + 1, dtype=float) * step
        for i, curve in enumerate(curve_list):
            base = curve.misses_at(allocs[i])
            utils = (
                base - curve.misses_at_many(allocs[i] + deltas)
            ) / deltas
            for k, util in enumerate(utils.tolist(), start=1):
                if util > best_util + 1e-15:
                    best_util = util
                    best_app = i
                    best_k = k
        if best_app < 0 or best_util <= 0:
            combined[granted + 1 :] = combined[granted]
            break
        for _ in range(best_k):
            allocs[best_app] += step
            granted += 1
            combined[granted] = sum(
                c.misses_at(a) for c, a in zip(curve_list, allocs)
            )
    return MissCurve(combined, step)


# ---------------------------------------------------------------------------
# Placers: scalar loops over sorted()/min() bank orderings
# ---------------------------------------------------------------------------


def reference_lat_crit_placer(
    ctx: PlacementContext,
    allocation: Optional[ReferenceAllocation] = None,
    bank_affinity: Optional[Mapping[str, int]] = None,
    isolate_vms: bool = False,
) -> ReferenceAllocation:
    """Greedy closest-bank LC placement (paper Listing 2), scalar."""
    alloc = (
        allocation
        if allocation is not None
        else ReferenceAllocation(ctx.config, partition_mode="per-app")
    )
    bank_vm: dict = {}
    if isolate_vms:
        for bank in range(ctx.config.num_banks):
            for resident in alloc.apps_in_bank(bank):
                bank_vm[bank] = ctx.vm_of(resident)
    for app in ctx.lc_apps:
        target = ctx.lat_size(app)
        if target <= 0:
            continue
        if target > ctx.config.llc_size_mb:
            raise LlcFull(
                f"{app}: target {target} MB exceeds LLC capacity"
            )
        tile = (
            bank_affinity[app]
            if bank_affinity is not None and app in bank_affinity
            else ctx.tile_of(app)
        )
        vm_id = ctx.vm_of(app)
        preferred = _banks_by_distance(ctx.noc, tile)
        remaining = target
        for bank in preferred:
            if remaining <= 1e-12:
                break
            if isolate_vms and bank_vm.get(bank, vm_id) != vm_id:
                continue
            grab = min(alloc.bank_free(bank), remaining)
            if grab > 0:
                alloc.add(bank, app, grab)
                remaining -= grab
                if isolate_vms:
                    bank_vm[bank] = vm_id
        if remaining > 1e-9:
            raise LlcFull(
                f"could not place {remaining:.3f} MB for {app}: LLC full"
            )
    return alloc


def reference_place_sizes_near_tiles(
    sizes: Mapping[str, float],
    tiles: Mapping[str, int],
    ctx: PlacementContext,
    allocation: ReferenceAllocation,
    allowed_banks: Optional[Sequence[int]] = None,
) -> ReferenceAllocation:
    """Round-robin proximity placement, rescanning banks each round."""
    chunk = ctx.config.llc_bank_mb * 0.25
    remaining: Dict[str, float] = {
        a: s for a, s in sizes.items() if s > 0
    }
    bank_filter = (
        set(allowed_banks) if allowed_banks is not None else None
    )
    preferred: Dict[str, List[int]] = {}
    for app in remaining:
        banks = _banks_by_distance(ctx.noc, tiles[app])
        if bank_filter is not None:
            banks = [b for b in banks if b in bank_filter]
        if not banks:
            raise ValueError(f"no allowed banks for {app!r}")
        preferred[app] = banks

    total_remaining = sum(remaining.values())
    capacity = sum(
        allocation.bank_free(b)
        for b in (
            bank_filter
            if bank_filter is not None
            else range(ctx.config.num_banks)
        )
    )
    if total_remaining > capacity + 1e-6:
        raise ValueError(
            f"cannot place {total_remaining:.3f} MB into "
            f"{capacity:.3f} MB of free space"
        )

    while remaining:
        placed_any = False
        for app in sorted(
            remaining, key=lambda a: (-remaining[a], a)
        ):
            want = min(chunk, remaining[app])
            for bank in preferred[app]:
                free = allocation.bank_free(bank)
                if free <= 1e-12:
                    continue
                grab = min(free, want)
                allocation.add(bank, app, grab)
                remaining[app] -= grab
                placed_any = True
                break
            if remaining[app] <= 1e-9:
                del remaining[app]
        if not placed_any and remaining:
            raise ValueError(
                "placement stalled with "
                f"{sum(remaining.values()):.3f} MB unplaced"
            )
    return allocation


def reference_jigsaw_place(
    ctx: PlacementContext,
    apps: Optional[Sequence[str]] = None,
    allowed_banks: Optional[Sequence[int]] = None,
    allocation: Optional[ReferenceAllocation] = None,
    capacity_mb: Optional[float] = None,
    step_mb: float = 0.125,
) -> ReferenceAllocation:
    """Jigsaw (capacity division + proximity placement), scalar."""
    app_names = list(apps) if apps is not None else sorted(ctx.apps)
    if not app_names:
        return (
            allocation
            if allocation is not None
            else ReferenceAllocation(ctx.config, partition_mode="per-app")
        )
    alloc = (
        allocation
        if allocation is not None
        else ReferenceAllocation(ctx.config, partition_mode="per-app")
    )
    banks = (
        list(allowed_banks)
        if allowed_banks is not None
        else list(range(ctx.config.num_banks))
    )
    if capacity_mb is None:
        capacity_mb = sum(alloc.bank_free(b) for b in banks)
    if capacity_mb < -1e-9:
        raise ValueError("negative capacity")

    curves = {a: ctx.apps[a].curve for a in app_names}
    sizes = reference_lookahead(curves, capacity_mb, step_mb)
    tiles = {a: ctx.apps[a].tile for a in app_names}
    return reference_place_sizes_near_tiles(
        sizes, tiles, ctx, alloc, allowed_banks=banks
    )


def reference_vm_batch_curves(
    ctx: PlacementContext,
) -> Dict[int, MissCurve]:
    """Per-VM combined batch curves, recombined from scratch."""
    curves: Dict[int, MissCurve] = {}
    sample = next(iter(ctx.apps.values())).curve
    for vm in ctx.vms:
        batch = [ctx.apps[a].curve for a in vm.batch_apps]
        if batch:
            curves[vm.vm_id] = reference_combine_curves(batch)
        else:
            curves[vm.vm_id] = MissCurve.flat(
                0.0, sample.num_points, sample.step
            )
    return curves


def reference_assign_banks_to_vms(
    ctx: PlacementContext,
    alloc: ReferenceAllocation,
    banks_needed: Mapping[int, int],
) -> Dict[int, List[int]]:
    """Round-robin whole-bank assignment with per-pick min() scans."""
    owner: Dict[int, int] = {}
    for bank in range(ctx.config.num_banks):
        apps_here = alloc.apps_in_bank(bank)
        vms_here = {ctx.vm_of(a) for a in apps_here}
        if len(vms_here) > 1:
            raise ValueError(
                f"LC placement put {sorted(vms_here)} in bank {bank}; "
                "isolation impossible"
            )
        if vms_here:
            owner[bank] = next(iter(vms_here))

    banks_of: Dict[int, List[int]] = {
        vm.vm_id: [] for vm in ctx.vms
    }
    for bank, vm_id in owner.items():
        banks_of[vm_id].append(bank)

    free = [b for b in range(ctx.config.num_banks) if b not in owner]
    order = sorted(banks_of, key=lambda v: v)
    while free:
        progressed = False
        for vm_id in order:
            if len(banks_of[vm_id]) >= banks_needed.get(vm_id, 0):
                continue
            if not free:
                break
            centroid = ctx.vm_centroid(ctx.vm_by_id(vm_id))
            pick = min(
                free, key=lambda b: (ctx.noc.hops(centroid, b), b)
            )
            free.remove(pick)
            banks_of[vm_id].append(pick)
            progressed = True
        if not progressed:
            for i, bank in enumerate(sorted(free)):
                banks_of[order[i % len(order)]].append(bank)
            free = []
    return banks_of


def reference_jumanji_placer(
    ctx: PlacementContext,
    step_mb: float = 0.125,
    enforce_isolation: bool = True,
) -> ReferenceAllocation:
    """The JumanjiPlacer (paper Listing 3), fully scalar."""
    alloc = reference_lat_crit_placer(ctx, isolate_vms=enforce_isolation)

    if not enforce_isolation:
        batch = ctx.batch_apps
        if batch:
            reference_jigsaw_place(
                ctx, apps=batch, allocation=alloc, step_mb=step_mb
            )
        return alloc

    lat_allocs = {
        vm.vm_id: sum(ctx.lat_size(a) for a in vm.lc_apps)
        for vm in ctx.vms
    }
    curves = reference_vm_batch_curves(ctx)
    batch_mb = reference_jumanji_lookahead(
        curves,
        lat_allocs,
        num_banks=ctx.config.num_banks,
        bank_mb=ctx.config.llc_bank_mb,
    )
    banks_needed = {
        vm_id: int(
            round(
                (batch_mb[vm_id] + lat_allocs.get(vm_id, 0.0))
                / ctx.config.llc_bank_mb
            )
        )
        for vm_id in batch_mb
    }
    banks_of = reference_assign_banks_to_vms(ctx, alloc, banks_needed)

    for vm in ctx.vms:
        banks = banks_of[vm.vm_id]
        if not vm.batch_apps or not banks:
            continue
        capacity = sum(alloc.bank_free(b) for b in banks)
        reference_jigsaw_place(
            ctx,
            apps=list(vm.batch_apps),
            allowed_banks=banks,
            allocation=alloc,
            capacity_mb=capacity,
            step_mb=step_mb,
        )
    violations = alloc.violates_bank_isolation(ctx.vm_of_app_map())
    if violations:
        raise AssertionError(
            f"bank isolation violated in banks {violations}"
        )
    return alloc


# ---------------------------------------------------------------------------
# System model: the scalar epoch loop
# ---------------------------------------------------------------------------


class ReferenceSystemModel(SystemModel):
    """:class:`~repro.model.system.SystemModel` on the scalar engine.

    The set-up (runtime, deadlines, simulators), placement and result
    packaging are inherited. Contexts are built for the reference
    placers, placement memoisation is off (both follow from ``engine``),
    and each LC app's queue is a :class:`ReferenceLcRequestSimulator`.
    The epoch loop below runs placement (``_place``), service times
    (``_epoch_begin``), the LC queueing simulation (``_epoch_sim``) and
    feedback plus metrics (``_epoch_finish``), one app at a time. The
    accelerated engine (:mod:`repro.model.batch`) runs the same phases
    as array stages across a batch of models and is differentially
    tested against this loop.
    """

    engine = Engine.REFERENCE
    sim_cls = ReferenceLcRequestSimulator

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

    def _epoch_begin(self, epoch: int) -> "_EpochPrep":
        """Phase 1: reconfigure placement, compute LC service times."""
        record, batch_alloc = self._place()
        alloc = record.allocation
        services: Dict[str, float] = {}
        sizes: Dict[str, float] = {}
        for app in self.workload.lc_apps:
            services[app], sizes[app] = self._lc_service(app, alloc)
        return _EpochPrep(
            alloc=alloc,
            batch_alloc=batch_alloc,
            services=services,
            sizes=sizes,
        )

    def _epoch_sim(self, prep: "_EpochPrep") -> Dict[str, List[float]]:
        """Phase 2: advance every LC queueing simulator by one epoch."""
        apps = self.workload.lc_apps
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
        state: _RunState,
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
        vuln = potential_attackers_per_access(
            batch_alloc, state.vm_map, state.intensity
        )
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

    def run(self, num_epochs: int = 20) -> RunResult:
        """Simulate ``num_epochs`` 100 ms epochs with the scalar loop."""
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
