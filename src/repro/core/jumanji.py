"""JumanjiPlacer: the paper's core contribution (Listing 3).

The placement runs every 100 ms and has three tiers:

1. :func:`~repro.core.latcrit.lat_crit_placer` reserves space for
   latency-critical apps in their nearest banks (deadlines).
2. :func:`~repro.core.lookahead.jumanji_lookahead` divides the remaining
   capacity among VMs at bank granularity, and whole banks are assigned
   to VMs round-robin by NoC proximity (security: untrusted VMs never
   share a bank).
3. Jigsaw's placement algorithm runs *within* each VM's banks to
   minimise on-chip data movement for its batch apps.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from .. import obs
from ..cache.misscurve import MissCurve, combine_curves
from .allocation import Allocation
from .context import PlacementContext
from .jigsaw import jigsaw_place
from .latcrit import lat_crit_placer
from .lookahead import jumanji_lookahead

__all__ = ["jumanji_placer", "vm_batch_curves", "assign_banks_to_vms"]


def vm_batch_curves(ctx: PlacementContext) -> Dict[int, MissCurve]:
    """Combined batch miss curve per VM (Whirlpool-style combination).

    VMs with no batch apps get a flat zero curve so the bank-granular
    lookahead still covers them. The combination itself is content-memoised
    in :func:`~repro.cache.misscurve.combine_curves`, so static workloads
    recombine for free every epoch.
    """
    if ctx.engine == "reference":
        from ..model.reference import reference_vm_batch_curves

        return reference_vm_batch_curves(ctx)
    curves: Dict[int, MissCurve] = {}
    sample = next(iter(ctx.apps.values())).curve
    for vm in ctx.vms:
        batch = [ctx.apps[a].curve for a in vm.batch_apps]
        if batch:
            curves[vm.vm_id] = combine_curves(batch)
        else:
            curves[vm.vm_id] = MissCurve.flat(
                0.0, sample.num_points, sample.step
            )
    return curves


def assign_banks_to_vms(
    ctx: PlacementContext,
    alloc: Allocation,
    banks_needed: Mapping[int, int],
) -> Dict[int, List[int]]:
    """Assign whole banks to VMs, honouring LC pre-placements.

    Banks already holding a VM's LC data belong to that VM. Remaining
    banks are assigned round-robin: each VM in turn takes the closest
    free bank to its centroid (paper: "letting each VM take the closest
    remaining bank"). Raises if LC placements already violate isolation
    (LatCritPlacer places LC apps far apart, so in practice they do not
    collide until the LLC is badly over-subscribed).

    Fast path: VM centroids are hoisted out of the pick loop (they
    depend only on the immutable VM layout) and each "closest free
    bank" pick is an argmin over a precomputed ``hops * num_banks +
    bank`` key row from the NoC hop matrix — the integer key encodes
    the scalar reference's ``(hops, bank)`` tie-break exactly.
    """
    if ctx.engine == "reference":
        from ..model.reference import reference_assign_banks_to_vms

        return reference_assign_banks_to_vms(ctx, alloc, banks_needed)
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

    num_banks = ctx.config.num_banks
    free_mask = np.ones(num_banks, dtype=bool)
    free_mask[list(owner)] = False
    free_count = int(free_mask.sum())
    order = sorted(banks_of, key=lambda v: v)
    # (hops, bank-id) tie-break folded into one integer key per VM.
    hops = ctx.noc.hop_matrix
    bank_ids = np.arange(num_banks, dtype=np.int64)
    pick_keys = {
        vm_id: hops[ctx.vm_centroid(ctx.vm_by_id(vm_id)), :num_banks]
        * num_banks
        + bank_ids
        for vm_id in order
    }
    taken = np.iinfo(np.int64).max
    # Round-robin over VMs that still need banks.
    while free_count:
        progressed = False
        for vm_id in order:
            if len(banks_of[vm_id]) >= banks_needed.get(vm_id, 0):
                continue
            if not free_count:
                break
            keys = pick_keys[vm_id]
            pick = int(np.argmin(np.where(free_mask, keys, taken)))
            free_mask[pick] = False
            free_count -= 1
            banks_of[vm_id].append(pick)
            progressed = True
        if not progressed:
            # Everyone is satisfied; hand leftovers round-robin so every
            # bank has exactly one owner.
            for i, bank in enumerate(np.flatnonzero(free_mask).tolist()):
                banks_of[order[i % len(order)]].append(int(bank))
            free_count = 0
    return banks_of


def jumanji_placer(
    ctx: PlacementContext,
    step_mb: float = 0.125,
    enforce_isolation: bool = True,
) -> Allocation:
    """The JumanjiPlacer (paper Listing 3).

    With ``enforce_isolation=False`` this becomes the paper's
    "Jumanji: Insecure" sensitivity design: LC reservations and nearby
    placement are kept, but batch capacity is divided per *app* over all
    remaining banks, so VMs may share banks.
    """
    with obs.span(
        "placer.jumanji",
        engine=ctx.engine,
        isolation=enforce_isolation,
    ):
        if ctx.engine == "reference":
            from ..model.reference import reference_jumanji_placer

            return reference_jumanji_placer(
                ctx, step_mb=step_mb,
                enforce_isolation=enforce_isolation,
            )
        return _jumanji_fast(ctx, step_mb, enforce_isolation)


def _jumanji_fast(
    ctx: PlacementContext,
    step_mb: float,
    enforce_isolation: bool,
) -> Allocation:
    """The fast-engine implementation (see :func:`jumanji_placer`)."""
    # (1) Reserve and place latency-critical allocations.
    alloc = lat_crit_placer(ctx, isolate_vms=enforce_isolation)

    if not enforce_isolation:
        batch = ctx.batch_apps
        if batch:
            jigsaw_place(ctx, apps=batch, allocation=alloc,
                         step_mb=step_mb)
        return alloc

    # (2) Bank-granular capacity division among VMs.
    lat_allocs = {
        vm.vm_id: sum(ctx.lat_size(a) for a in vm.lc_apps)
        for vm in ctx.vms
    }
    curves = vm_batch_curves(ctx)
    batch_mb = jumanji_lookahead(
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
    banks_of = assign_banks_to_vms(ctx, alloc, banks_needed)

    # The round-robin assignment may shift a VM's bank count away from
    # the lookahead target when LC placements pin banks; recompute each
    # VM's batch capacity from the banks it actually owns.
    # (3) Optimise batch placement within each VM with Jigsaw.
    for vm in ctx.vms:
        banks = banks_of[vm.vm_id]
        if not vm.batch_apps or not banks:
            continue
        capacity = sum(alloc.bank_free(b) for b in banks)
        jigsaw_place(
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
