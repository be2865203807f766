"""Vantage partitioning (Sanchez & Kozyrakis, ISCA 2011).

Jigsaw's original evaluation used Vantage partitioning and LRU inside
each bank; the paper's evaluation swaps in way-partitioning and DRRIP
"to better reflect production systems" (Sec. IV-A). We implement both so
the swap is an experiment, not an assumption.

Vantage partitions by *size targets* rather than ways: the cache is
split into a large **managed region** and a small **unmanaged region**
(a few percent of capacity). Insertions go to the managed region tagged
with their partition; when a partition exceeds its target, its lines
are demoted with increasing *aperture* (probability of eviction when
scanned), so partition sizes track targets closely without constraining
which ways a partition may use — i.e. no associativity loss, and many
more partitions than ways.

This model captures Vantage's behavioural contract (size tracking,
full associativity, bounded interference) with a simplified demotion
mechanism: on each fill the replacement scan considers candidates from
over-target partitions first, choosing within a partition by LRU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["VantageBank"]


@dataclass
class _Line:
    addr: int
    partition: object
    stamp: int


class VantageBank:
    """A fully associative bank model under Vantage partitioning.

    Full associativity is the point of Vantage (partitions are not
    pinned to ways), so the model tracks the bank as one pool of
    ``capacity_lines`` lines. ``unmanaged_fraction`` of capacity is the
    unmanaged region that absorbs churn.
    """

    def __init__(
        self,
        capacity_lines: int,
        unmanaged_fraction: float = 0.05,
        latency: int = 13,
    ):
        if capacity_lines < 1:
            raise ValueError("capacity must be at least one line")
        if not 0.0 <= unmanaged_fraction < 0.5:
            raise ValueError("unmanaged fraction must be in [0, 0.5)")
        self.capacity_lines = capacity_lines
        self.unmanaged_lines = int(capacity_lines * unmanaged_fraction)
        self.managed_lines = capacity_lines - self.unmanaged_lines
        self.latency = latency
        self._lines: Dict[int, _Line] = {}
        self._targets: Dict[object, int] = {}
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.demotions = 0

    # -- configuration ---------------------------------------------------------------

    def set_target(self, partition: object, lines: int) -> None:
        """Set a partition's size target (in lines).

        Targets may be any granularity — Vantage's advantage over
        way-partitioning. The sum of targets must fit in the managed
        region.
        """
        if lines < 0:
            raise ValueError("target must be non-negative")
        new_total = (
            sum(self._targets.values())
            - self._targets.get(partition, 0)
            + lines
        )
        if new_total > self.managed_lines:
            raise ValueError(
                f"targets total {new_total} lines exceed managed "
                f"region of {self.managed_lines}"
            )
        if lines == 0:
            self._targets.pop(partition, None)
        else:
            self._targets[partition] = lines

    def target(self, partition: object) -> int:
        """The partition's size target in lines (0 if unset)."""
        return self._targets.get(partition, 0)

    def occupancy(self, partition: object) -> int:
        """Lines currently held by the partition."""
        return sum(
            1 for line in self._lines.values()
            if line.partition == partition
        )

    # -- the access path ---------------------------------------------------------------

    def _overflow(self, partition: object) -> int:
        """Lines above target (candidates for demotion)."""
        return self.occupancy(partition) - self.target(partition)

    def _choose_victim(self, filler: object) -> int:
        """Pick the address to evict for a fill by ``filler``.

        Priority order, mirroring Vantage's aperture mechanism:
        (1) the most over-target partition's LRU line — demotion keeps
        partitions at their targets; (2) if nobody is over target (the
        unmanaged region absorbed the churn), the globally LRU line of
        the filler itself, else the global LRU.
        """
        over: List[Tuple[int, object]] = [
            (self._overflow(p), p)
            for p in set(
                line.partition for line in self._lines.values()
            )
        ]
        over.sort(key=lambda t: (-t[0], str(t[1])))
        if over and over[0][0] > 0:
            victim_partition = over[0][1]
            self.demotions += 1
            return min(
                (
                    line for line in self._lines.values()
                    if line.partition == victim_partition
                ),
                key=lambda line: line.stamp,
            ).addr
        own = [
            line for line in self._lines.values()
            if line.partition == filler
        ]
        pool = own if own else list(self._lines.values())
        return min(pool, key=lambda line: line.stamp).addr

    def access(self, line_addr: int, partition: object = None) -> bool:
        """Access a line; returns True on hit. Fills on miss."""
        self._clock += 1
        line = self._lines.get(line_addr)
        if line is not None:
            line.stamp = self._clock
            self.hits += 1
            return True
        self.misses += 1
        if len(self._lines) >= self.capacity_lines:
            victim = self._choose_victim(partition)
            del self._lines[victim]
        self._lines[line_addr] = _Line(
            addr=line_addr, partition=partition, stamp=self._clock
        )
        return False

    def contains(self, line_addr: int) -> bool:
        """Whether the bank currently holds ``line_addr``."""
        return line_addr in self._lines

    def resident_partitions(self) -> set:
        """Partitions with at least one resident line."""
        return {
            line.partition for line in self._lines.values()
            if line.partition is not None
        }

    def invalidate_partition(self, partition: object) -> int:
        """Drop all of a partition's lines; returns the count."""
        addrs = [
            a for a, line in self._lines.items()
            if line.partition == partition
        ]
        for a in addrs:
            del self._lines[a]
        return len(addrs)
