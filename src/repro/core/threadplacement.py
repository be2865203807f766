"""Latency-critical thread placement (paper Sec. V-B).

"Jumanji runs multiple latency-critical applications together on the
same multicore system and places them as far apart as possible to
minimize LLC contention. A better mapping may be possible [8], but that
is outside the scope of this work."

This module implements both halves of that sentence:

* :func:`spread_lc_threads` — the shipped policy: a greedy max-min
  dispersion that places each LC thread on the tile maximising its
  distance to already-placed LC threads (corners first);
* :func:`contention_aware_lc_threads` — the "better mapping" the paper
  defers to future work: dispersion weighted by each app's expected LLC
  reservation, so big consumers get more exclusive nearby banks.

The thread-placement benchmark shows why dispersion matters: adjacent
LC threads compete for the same closest banks, pushing reservations
farther out.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..config import SystemConfig
from ..noc.mesh import MeshNoc

__all__ = [
    "spread_lc_threads",
    "contention_aware_lc_threads",
    "placement_contention",
]


def spread_lc_threads(
    apps: Sequence[str],
    config: Optional[SystemConfig] = None,
    occupied: Sequence[int] = (),
) -> Dict[str, int]:
    """Greedy max-min dispersion of LC threads over the mesh.

    The first app takes a corner; each subsequent app takes the free
    tile maximising its minimum distance to already-placed LC threads
    (ties broken toward corners, then tile id). With four apps on the
    default mesh this reproduces the paper's corner assignment.
    """
    config = config if config is not None else SystemConfig()
    noc = MeshNoc(config)
    if len(apps) > config.num_cores - len(occupied):
        raise ValueError("more LC apps than free tiles")
    free = [
        t for t in range(config.num_cores) if t not in set(occupied)
    ]
    placed: Dict[str, int] = {}

    def corner_distance(tile: int) -> int:
        c, r = config.tile_coords(tile)
        return min(c, config.mesh_cols - 1 - c) + min(
            r, config.mesh_rows - 1 - r
        )

    for app in apps:
        if not placed:
            pick = min(free, key=lambda t: (corner_distance(t), t))
        else:
            pick = max(
                free,
                key=lambda t: (
                    min(
                        noc.hops(t, p) for p in placed.values()
                    ),
                    -corner_distance(t),
                    -t,
                ),
            )
        placed[app] = pick
        free.remove(pick)
    return placed


def contention_aware_lc_threads(
    app_sizes_mb: Mapping[str, float],
    config: Optional[SystemConfig] = None,
    occupied: Sequence[int] = (),
) -> Dict[str, int]:
    """Size-weighted dispersion (the paper's deferred 'better mapping').

    Apps expected to reserve more LLC need more nearby banks to
    themselves, so they are placed first (largest first) and the
    dispersion objective weights distance by the *sum of sizes* of each
    pair — two big reservations repel each other more than two small
    ones.
    """
    config = config if config is not None else SystemConfig()
    noc = MeshNoc(config)
    order = sorted(
        app_sizes_mb, key=lambda a: (-app_sizes_mb[a], a)
    )
    free = [
        t for t in range(config.num_cores) if t not in set(occupied)
    ]
    if len(order) > len(free):
        raise ValueError("more LC apps than free tiles")
    placed: Dict[str, int] = {}

    def corner_distance(tile: int) -> int:
        c, r = config.tile_coords(tile)
        return min(c, config.mesh_cols - 1 - c) + min(
            r, config.mesh_rows - 1 - r
        )

    for app in order:
        if not placed:
            pick = min(free, key=lambda t: (corner_distance(t), t))
        else:
            def weighted_min(t: int) -> float:
                return min(
                    noc.hops(t, tile)
                    * (app_sizes_mb[app] + app_sizes_mb[other])
                    for other, tile in placed.items()
                )

            pick = max(
                free,
                key=lambda t: (weighted_min(t), -corner_distance(t),
                               -t),
            )
        placed[app] = pick
        free.remove(pick)
    return placed


def placement_contention(
    placement: Mapping[str, int],
    app_sizes_mb: Mapping[str, float],
    config: Optional[SystemConfig] = None,
) -> float:
    """How much LC reservations would compete for the same banks.

    For each app, count the banks within its "reservation radius" (the
    hops needed to cover its size in the closest banks); contention is
    the total pairwise overlap of those bank sets, size-weighted.
    Lower is better; zero means every app's nearby reservation region
    is exclusive.
    """
    config = config if config is not None else SystemConfig()
    noc = MeshNoc(config)
    regions: Dict[str, set] = {}
    for app, tile in placement.items():
        size = app_sizes_mb.get(app, 0.0)
        banks_needed = max(1, int(size / config.llc_bank_mb + 0.999))
        regions[app] = set(
            noc.banks_by_distance(tile)[:banks_needed]
        )
    apps = sorted(regions)
    contention = 0.0
    for i, a in enumerate(apps):
        for b in apps[i + 1 :]:
            overlap = len(regions[a] & regions[b])
            contention += overlap * (
                app_sizes_mb.get(a, 0.0) + app_sizes_mb.get(b, 0.0)
            )
    return contention
