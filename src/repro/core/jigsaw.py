"""Jigsaw's data-placement algorithm (Beckmann & Sanchez, PACT 2013).

Jigsaw minimises data movement in two phases:

1. **Capacity division** — Lookahead over all apps' miss curves decides
   how much LLC each app gets (off-chip data movement).
2. **Placement** — each app's allocation is placed in banks as close to
   its thread as possible (on-chip data movement). When multiple apps
   prefer the same bank, space is granted in proximity-ordered rounds so
   nearby apps split contended banks instead of one app monopolising
   them.

Used in three places: as the *Jigsaw* baseline design (over all apps,
the whole LLC — oblivious to deadlines and VMs), as the inner batch
placer of JumanjiPlacer (within one VM's banks), and by the Ideal-Batch
sensitivity design.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from .allocation import Allocation
from .context import PlacementContext
from .lookahead import lookahead

__all__ = ["jigsaw_place", "place_sizes_near_tiles"]

#: Granularity of one placement round, in fractions of a bank. Smaller
#: chunks interleave contended banks more fairly at more algorithm steps.
_CHUNK_FRACTION = 0.25


def place_sizes_near_tiles(
    sizes: Mapping[str, float],
    tiles: Mapping[str, int],
    ctx: PlacementContext,
    allocation: Allocation,
    allowed_banks: Optional[Sequence[int]] = None,
) -> Allocation:
    """Place per-app sizes into banks near each app's tile.

    Round-robin greedy: in each round every app (ordered by remaining
    size, largest first, for determinism) claims up to a chunk of its
    remaining allocation in the nearest allowed bank with free space.
    Capacity already committed in ``allocation`` (e.g. LC reservations)
    is respected.

    Fast path: bank preference orders come from the NoC's cached
    hop-matrix argsort, and each app keeps a monotone scan cursor into
    its order — bank free space only ever decreases during placement,
    so banks found exhausted are never rescanned (amortised O(banks)
    per app instead of O(banks * rounds)). Free space is still read
    through ``allocation.bank_free`` so the granted amounts are
    bit-identical to the scalar reference, which rescans from the
    front every round.
    """
    if ctx.engine == "reference":
        from ..model.reference import reference_place_sizes_near_tiles

        return reference_place_sizes_near_tiles(
            sizes, tiles, ctx, allocation, allowed_banks=allowed_banks
        )
    chunk = ctx.config.llc_bank_mb * _CHUNK_FRACTION
    remaining: Dict[str, float] = {
        a: s for a, s in sizes.items() if s > 0
    }
    bank_filter = (
        set(allowed_banks) if allowed_banks is not None else None
    )
    preferred: Dict[str, List[int]] = {}
    for app in remaining:
        banks = ctx.noc.banks_by_distance(tiles[app])
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

    cursor: Dict[str, int] = {a: 0 for a in remaining}
    while remaining:
        placed_any = False
        for app in sorted(
            remaining, key=lambda a: (-remaining[a], a)
        ):
            want = min(chunk, remaining[app])
            banks = preferred[app]
            i = cursor[app]
            while i < len(banks):
                free = allocation.bank_free(banks[i])
                if free <= 1e-12:
                    # Permanently full for the rest of this placement:
                    # advance the cursor past it.
                    i += 1
                    continue
                grab = min(free, want)
                allocation.add(banks[i], app, grab)
                remaining[app] -= grab
                placed_any = True
                break
            cursor[app] = i
            if remaining[app] <= 1e-9:
                del remaining[app]
        if not placed_any and remaining:
            raise ValueError(
                "placement stalled with "
                f"{sum(remaining.values()):.3f} MB unplaced"
            )
    return allocation


def jigsaw_place(
    ctx: PlacementContext,
    apps: Optional[Sequence[str]] = None,
    allowed_banks: Optional[Sequence[int]] = None,
    allocation: Optional[Allocation] = None,
    capacity_mb: Optional[float] = None,
    step_mb: float = 0.125,
) -> Allocation:
    """Run Jigsaw over ``apps`` within ``allowed_banks``.

    Defaults reproduce the Jigsaw baseline: all apps, all banks, whole
    LLC. JumanjiPlacer calls it per VM with that VM's banks and leftover
    batch capacity. Capacity division uses Lookahead over the apps' miss
    curves; placement is proximity-greedy.
    """
    if ctx.engine == "reference":
        from ..model.reference import reference_jigsaw_place

        return reference_jigsaw_place(
            ctx,
            apps=apps,
            allowed_banks=allowed_banks,
            allocation=allocation,
            capacity_mb=capacity_mb,
            step_mb=step_mb,
        )
    app_names = list(apps) if apps is not None else sorted(ctx.apps)
    if not app_names:
        return allocation if allocation is not None else (
            ctx.new_allocation(partition_mode="per-app")
        )
    alloc = allocation if allocation is not None else (
        ctx.new_allocation(partition_mode="per-app")
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
    sizes = lookahead(curves, capacity_mb, step_mb)
    tiles = {a: ctx.apps[a].tile for a in app_names}
    return place_sizes_near_tiles(
        sizes, tiles, ctx, alloc, allowed_banks=banks
    )
