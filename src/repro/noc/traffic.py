"""NoC traffic accounting and contention estimation.

The base mesh model uses uncontended per-hop latencies (Table II); the
paper models "modest NoC congestion" via the 2-cycle router delay and
sweeps it in Fig. 18. This module goes one level deeper: given an
allocation and per-app access rates, it accumulates flit traffic on
every directed mesh link along X-Y routes and estimates queueing-aware
link latencies with an M/D/1-style inflation. It is used to check that
the evaluation's operating points stay in the low-utilisation regime
where the fixed-latency model is sound, and to study what happens when
they do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..config import SystemConfig
from .mesh import MeshNoc

__all__ = ["LinkLoad", "NocTrafficModel"]

#: A directed link is (from_tile, to_tile) for adjacent tiles.
Link = Tuple[int, int]


@dataclass
class LinkLoad:
    """Utilisation summary for one directed link."""

    link: Link
    flits_per_cycle: float

    @property
    def utilization(self) -> float:
        # One flit per cycle per link is the mesh's capacity.
        """Link utilisation in [0, 1), capped below saturation."""
        return min(self.flits_per_cycle, 0.999)


class NocTrafficModel:
    """Accumulates X-Y-routed traffic onto directed mesh links."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.noc = MeshNoc(config)
        self._load: Dict[Link, float] = {}

    # -- routing ---------------------------------------------------------------------

    def route(self, src: int, dst: int) -> List[Link]:
        """The X-Y route from ``src`` to ``dst`` as directed links."""
        links: List[Link] = []
        cols = self.config.mesh_cols
        sc, sr = self.config.tile_coords(src)
        dc, dr = self.config.tile_coords(dst)
        tile = src
        # X first.
        step = 1 if dc > sc else -1
        for _ in range(abs(dc - sc)):
            nxt = tile + step
            links.append((tile, nxt))
            tile = nxt
        # Then Y.
        step = cols if dr > sr else -cols
        for _ in range(abs(dr - sr)):
            nxt = tile + step
            links.append((tile, nxt))
            tile = nxt
        return links

    # -- accumulation -----------------------------------------------------------------

    def add_flow(
        self, src: int, dst: int, flits_per_cycle: float
    ) -> None:
        """Add a traffic flow along the X-Y route."""
        if flits_per_cycle < 0:
            raise ValueError("flow must be non-negative")
        for link in self.route(src, dst):
            self._load[link] = (
                self._load.get(link, 0.0) + flits_per_cycle
            )

    def add_allocation_traffic(
        self,
        alloc,
        tiles: Mapping[str, int],
        accesses_per_cycle: Mapping[str, float],
        flits_per_access: float = 5.0,
    ) -> None:
        """Accumulate the request+data traffic an allocation implies.

        Each app's accesses are spread over its banks in proportion to
        its allocation (what proportional descriptors do); each access
        moves ~``flits_per_access`` flits (a request flit out, a 64 B
        line = 4 flits of 128 bits back).
        """
        for app, rate in accesses_per_cycle.items():
            if rate < 0:
                raise ValueError("negative access rate")
            size = alloc.app_size(app)
            if size <= 0 or rate == 0:
                continue
            tile = tiles[app]
            for bank in alloc.app_banks(app):
                frac = alloc.get(bank, app) / size
                flow = rate * frac * flits_per_access
                if bank != tile:
                    self.add_flow(tile, bank, flow / 2)
                    self.add_flow(bank, tile, flow / 2)

    # -- queries -----------------------------------------------------------------------

    def link_loads(self) -> List[LinkLoad]:
        """Per-link load summaries, sorted by link."""
        return [
            LinkLoad(link=k, flits_per_cycle=v)
            for k, v in sorted(self._load.items())
        ]

    def max_utilization(self) -> float:
        """The most-loaded link's utilisation (0 when idle)."""
        if not self._load:
            return 0.0
        return max(
            LinkLoad(k, v).utilization for k, v in self._load.items()
        )

    def contended_latency(self, src: int, dst: int) -> float:
        """Route latency with M/D/1-style per-link queueing inflation.

        Each hop's link delay is inflated by ``1/(1 - u)`` where ``u``
        is that link's utilisation; router delays are unchanged. At the
        evaluation's operating points this stays within a few percent
        of the uncontended latency, validating the fixed-latency model.
        """
        route = self.route(src, dst)
        if not route:
            return 0.0
        total = float(self.config.router_delay)  # source router
        for link in route:
            u = LinkLoad(
                link, self._load.get(link, 0.0)
            ).utilization
            total += self.config.router_delay
            total += self.config.link_delay / (1.0 - u)
        return total

    def reset(self) -> None:
        """Clear all accumulated link loads."""
        self._load.clear()
