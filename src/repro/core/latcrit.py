"""LatCritPlacer: greedy nearby placement of LC allocations (Listing 2).

Once the feedback controller has decided *how much* LLC each latency-
critical application needs, LatCritPlacer decides *where*: it sorts the
banks by NoC distance from each LC app's core and grabs space in the
closest banks until the target is placed. Placing LC data first (before
batch placement) guarantees batch apps cannot claim that space, which is
how Jumanji prioritises deadlines over data movement.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .. import obs
from ..errors import LlcFull
from .allocation import Allocation
from .context import PlacementContext

__all__ = ["lat_crit_placer"]


def lat_crit_placer(
    ctx: PlacementContext,
    allocation: Optional[Allocation] = None,
    bank_affinity: Optional[Mapping[str, int]] = None,
    isolate_vms: bool = False,
) -> Allocation:
    """Greedy closest-bank placement of LC allocations (paper Listing 2).

    ``ctx.lat_sizes`` gives each LC app's target MB (set by feedback).
    LC apps are processed in VM order; each takes space from its nearest
    banks first (``sortBanksByDistance``), spilling to farther banks when
    a bank fills. ``bank_affinity`` optionally overrides the tile an
    app's distance is measured from (used by the Ideal-Batch design).
    With ``isolate_vms`` (Jumanji), an LC app never takes space in a bank
    already holding another VM's data — spilling allocations must not
    break the bank-isolation guarantee.

    Returns the allocation with only LC space placed; batch placement
    runs afterwards (Jigsaw within VM banks for Jumanji, or other
    strategies for the baseline designs).
    """
    with obs.span(
        "placer.latcrit", engine=ctx.engine, lc_apps=len(ctx.lc_apps)
    ):
        if ctx.engine == "reference":
            from ..model.reference import reference_lat_crit_placer

            return reference_lat_crit_placer(
                ctx,
                allocation=allocation,
                bank_affinity=bank_affinity,
                isolate_vms=isolate_vms,
            )
        return _lat_crit_fast(ctx, allocation, bank_affinity, isolate_vms)


def _lat_crit_fast(
    ctx: PlacementContext,
    allocation: Optional[Allocation],
    bank_affinity: Optional[Mapping[str, int]],
    isolate_vms: bool,
) -> Allocation:
    """The fast-engine implementation (see :func:`lat_crit_placer`)."""
    alloc = allocation if allocation is not None else (
        ctx.new_allocation(partition_mode="per-app")
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
        preferred = ctx.noc.banks_by_distance(tile)
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
