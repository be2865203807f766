"""Trace-driven simulation of the full cache hierarchy.

Drives per-core L1/L2 private caches, the VTB, the banked LLC, the mesh
NoC, and memory with synthetic address traces. This is the high-fidelity
layer: it exercises the same code paths a ZSim-style simulator would
(lookup L1 -> L2 -> hash through the placement descriptor -> bank access
with port arbitration -> memory on miss) and is used to validate the
analytic layer and to run the microarchitectural experiments.

Fast path
---------
:meth:`TraceSimulator.run` processes traces in *chunks* of round-robin
rounds instead of one access at a time, while remaining bit-identical to
the original per-access loop (the frozen copy lives in
``repro.sim.reference`` and the equivalence is property- and
golden-tested):

1. each core's chunk of addresses is filtered through its L1/L2 in one
   batched pass (:meth:`PrivateCache.access_block`);
2. the surviving LLC accesses are mapped to banks with one vectorized
   splitmix64 pass over the whole chunk
   (:func:`repro.vtb.vtb.hash_lines`);
3. per-access clocks are reconstructed arithmetically (the access of the
   j-th core in round r happens at ``base + r * num_cores + j``), the
   per-core streams are merged into global clock order with one argsort,
   and the merged stream drives the banks' array-backed access kernel;
4. NoC round-trips, hop counts, and memory latencies come from tables
   precomputed per (core, bank) pair rather than per-access mesh walks.

The scalar :meth:`TraceSimulator._access_one` is kept (and used by the
reference tests); ``llc_access_hook`` fires in exactly the original
global order. The one caveat of chunking: a hook that *mutates*
placement (VTB descriptors or quotas) mid-run would see its effect
delayed to the next chunk — no production hook does (UMONs only
observe); reconfiguration happens between :meth:`run` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.bank import CacheBank
from ..config import LINE_BYTES, SystemConfig
from ..noc.mesh import MeshNoc
from ..vtb.vtb import DESCRIPTOR_ENTRIES, PlacementDescriptor, Vtb, hash_lines
from ..workloads.traces import AddressTrace

__all__ = ["PrivateCache", "CoreContext", "TraceSimulator", "TraceStats"]

#: Target number of trace accesses (across all cores) per batched chunk.
#: Large enough to amortise the numpy per-chunk overhead, small enough to
#: keep the working set of per-chunk arrays cache-resident.
CHUNK_ACCESSES = 8192


class PrivateCache:
    """A private (L1 or L2) set-associative cache with LRU replacement.

    Private caches need no partitioning or port model; they exist so the
    LLC sees a realistically filtered access stream.

    LRU order is tracked with per-set insertion-ordered dicts (the
    move-to-end idiom): a hit deletes and reinserts the line so the
    oldest entry is always the least recently used, and a miss on a full
    set evicts ``next(iter(d))``. This is exactly the most-recent-first
    list model of the original implementation (the frozen copy in
    ``repro.sim.reference``) with O(1) hit detection and eviction
    instead of O(ways) list scans.
    """

    def __init__(self, size_kb: int, ways: int, latency: int):
        if size_kb < 1 or ways < 1:
            raise ValueError("cache must have positive size and ways")
        num_lines = size_kb * 1024 // LINE_BYTES
        if num_lines % ways != 0:
            raise ValueError("size must be divisible by ways")
        self.num_sets = num_lines // ways
        self.ways = ways
        self.latency = latency
        # Per-set insertion-ordered line set (values unused); the first
        # key is the LRU line.
        self._lru: List[Dict[int, None]] = [
            {} for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def access(self, line_addr: int) -> bool:
        """Access a line; returns True on hit. Fills on miss."""
        d = self._lru[line_addr % self.num_sets]
        if line_addr in d:
            del d[line_addr]  # move to most-recent (reinsert at end)
            d[line_addr] = None
            self.hits += 1
            return True
        self.misses += 1
        if len(d) >= self.ways:
            del d[next(iter(d))]
        d[line_addr] = None
        return False

    def access_block(self, lines: Sequence[int]) -> List[int]:
        """Batched :meth:`access`; returns the indices that missed.

        Processes ``lines`` in order and returns the positions (indices
        into ``lines``) of the misses, preserving order — the filtered
        stream the next cache level sees.
        """
        miss_idx: List[int] = []
        append = miss_idx.append
        sets = self._lru
        num_sets = self.num_sets
        ways = self.ways
        for i, line in enumerate(lines):
            d = sets[line % num_sets]
            if line in d:
                del d[line]
                d[line] = None
            else:
                append(i)
                if len(d) >= ways:
                    del d[next(iter(d))]
                d[line] = None
        self.hits += len(lines) - len(miss_idx)
        self.misses += len(miss_idx)
        return miss_idx

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present (inclusive-LLC back-invalidation)."""
        d = self._lru[line_addr % self.num_sets]
        if line_addr in d:
            del d[line_addr]
            return True
        return False

    def flush(self) -> None:
        """Drop all lines."""
        for d in self._lru:
            d.clear()


@dataclass
class CoreContext:
    """One simulated core: its private caches, VC id, and partition.

    ``page_table`` optionally maps the app's pages to *multiple* VCs
    (Whirlpool-style data classification); when absent, all the app's
    data lives in the single ``vc_id``.
    """

    core_id: int
    trace: AddressTrace
    vc_id: int
    partition: object
    l1: PrivateCache
    l2: PrivateCache
    page_table: object = None
    instructions_per_access: float = 2.0
    accesses: int = 0
    llc_accesses: int = 0
    llc_hits: int = 0
    total_latency: int = 0
    total_noc_hops: int = 0
    mem_accesses: int = 0


@dataclass
class TraceStats:
    """Aggregated per-core results of a trace-driven run."""

    accesses: int
    llc_accesses: int
    llc_hits: int
    llc_misses: int
    mem_accesses: int
    avg_latency: float
    avg_noc_hops: float

    @property
    def llc_miss_rate(self) -> float:
        """LLC misses over LLC accesses (0 when no accesses)."""
        if self.llc_accesses == 0:
            return 0.0
        return self.llc_misses / self.llc_accesses


class TraceSimulator:
    """Drives cores round-robin through the full hierarchy.

    The simulator owns one :class:`CacheBank` per tile, a shared
    :class:`Vtb` (descriptor updates apply system-wide, as software
    rewrites every core's VTB identically), and the mesh NoC for
    latency/hop accounting. Time advances one "slot" per core access,
    which serialises bank-port contention realistically enough for
    validation purposes (the dedicated attack simulator models ports with
    full timing).
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        policy: str = "drrip",
        bank_sets: Optional[int] = None,
    ):
        self.config = config if config is not None else SystemConfig()
        self.noc = MeshNoc(self.config)
        sets = bank_sets if bank_sets is not None else self.config.bank_sets
        self.banks: List[CacheBank] = [
            CacheBank(
                num_sets=sets,
                num_ways=self.config.llc_bank_ways,
                latency=self.config.llc_bank_latency,
                num_ports=self.config.llc_bank_ports,
                policy=policy,
            )
            for _ in range(self.config.num_banks)
        ]
        self.vtb = Vtb()
        self.cores: Dict[int, CoreContext] = {}
        self._clock = 0
        #: Optional hook invoked as ``hook(core_id, line_addr)`` on every
        #: LLC access — where UMON hardware taps the stream.
        self.llc_access_hook = None
        # Precomputed NoC tables: round-trip latency and doubled hop
        # count per (requester tile, bank tile), plus the per-bank
        # memory-access extras (nearest controller round trip + DRAM).
        nb = self.config.num_banks
        nc = self.config.num_cores
        noc = self.noc
        self._rtt: List[List[int]] = [
            [noc.round_trip(c, b) for b in range(nb)] for c in range(nc)
        ]
        self._hops2: List[List[int]] = [
            [2 * noc.hops(c, b) for b in range(nb)] for c in range(nc)
        ]
        mem_tiles = [noc.nearest_mem_tile(b) for b in range(nb)]
        self._mem_extra: List[int] = [
            self.config.mem_latency + noc.round_trip(b, mem_tiles[b])
            for b in range(nb)
        ]
        self._mem_hops2: List[int] = [
            2 * noc.hops(b, mem_tiles[b]) for b in range(nb)
        ]

    # -- setup -----------------------------------------------------------------

    def add_core(
        self,
        core_id: int,
        trace: AddressTrace,
        vc_id: int,
        descriptor: PlacementDescriptor,
        partition: object = None,
        page_table: object = None,
    ) -> CoreContext:
        """Attach a trace to a core with a VC placement.

        ``page_table`` (a :class:`~repro.vtb.vtb.PageTable`) routes the
        app's pages to per-page VCs; additional VC descriptors must be
        installed with :meth:`install_vc`.
        """
        if not 0 <= core_id < self.config.num_cores:
            raise ValueError(f"core {core_id} out of range")
        if core_id in self.cores:
            raise ValueError(f"core {core_id} already configured")
        self.vtb.install(vc_id, descriptor)
        ctx = CoreContext(
            core_id=core_id,
            trace=trace,
            vc_id=vc_id,
            partition=partition if partition is not None else vc_id,
            page_table=page_table,
            l1=PrivateCache(
                self.config.l1_size_kb,
                self.config.l1_ways,
                self.config.l1_latency,
            ),
            l2=PrivateCache(
                self.config.l2_size_kb,
                self.config.l2_ways,
                self.config.l2_latency,
            ),
        )
        self.cores[core_id] = ctx
        return ctx

    def set_partition_quota(
        self, bank: int, partition: object, ways: int
    ) -> None:
        """Program CAT-style quotas on one bank."""
        self.banks[bank].partitioner.set_quota(partition, ways)

    def install_vc(
        self, vc_id: int, descriptor: PlacementDescriptor
    ) -> None:
        """Install an extra VC descriptor (per-page classification)."""
        self.vtb.install(vc_id, descriptor)

    def update_placement(
        self, vc_id: int, descriptor: PlacementDescriptor
    ) -> int:
        """Install a new descriptor; performs the coherence walk.

        Returns the number of LLC lines invalidated across the banks that
        lost descriptor entries (paper Sec. IV-A "Coherence").
        """
        partition = None
        for ctx in self.cores.values():
            if ctx.vc_id == vc_id:
                partition = ctx.partition
                break
        dirty_banks = self.vtb.update(vc_id, descriptor)
        invalidated = 0
        for b in dirty_banks:
            invalidated += self.banks[b].invalidate_partition(partition)
        return invalidated

    # -- execution -------------------------------------------------------------

    def _access_one(self, ctx: CoreContext) -> None:
        """Scalar single-access path (the chunked :meth:`run` is
        bit-identical to iterating this)."""
        line = ctx.trace.next_line()
        ctx.accesses += 1
        latency = self.config.l1_latency
        if not ctx.l1.access(line):
            latency += self.config.l2_latency
            if not ctx.l2.access(line):
                if self.llc_access_hook is not None:
                    self.llc_access_hook(ctx.core_id, line)
                vc_id = ctx.vc_id
                if ctx.page_table is not None:
                    try:
                        vc_id = ctx.page_table.vc_of_address(line << 6)
                    except KeyError:
                        pass  # unmapped pages use the default VC
                bank_id = self.vtb.bank_for(vc_id, line)
                bank = self.banks[bank_id]
                hops = self.noc.hops(ctx.core_id, bank_id)
                noc_rtt = self.noc.round_trip(ctx.core_id, bank_id)
                result = bank.access(
                    line, partition=ctx.partition, now=self._clock
                )
                ctx.llc_accesses += 1
                ctx.total_noc_hops += 2 * hops
                # Port queueing is not charged here: cores are closed
                # loops (one outstanding miss), so per-core issue rates
                # cannot oversubscribe a port the way this simulator's
                # simplified one-slot-per-access clock would suggest.
                # The dedicated event-driven model in repro.sim.attack
                # owns port-contention timing.
                latency += noc_rtt + bank.latency
                if result.hit:
                    ctx.llc_hits += 1
                else:
                    ctx.mem_accesses += 1
                    mem_tile = self.noc.nearest_mem_tile(bank_id)
                    latency += (
                        self.config.mem_latency
                        + self.noc.round_trip(bank_id, mem_tile)
                    )
                    ctx.total_noc_hops += 2 * self.noc.hops(
                        bank_id, mem_tile
                    )
        ctx.total_latency += latency
        self._clock += 1

    def _bank_ids(self, ctx: CoreContext, lines: List[int]) -> List[int]:
        """Bank id for each line of one core's LLC stream (batched)."""
        if ctx.page_table is None:
            return self.vtb.lookup(ctx.vc_id).bank_for_lines(lines)
        # Per-page VCs: resolve the VC per line (dict lookups), sharing
        # one vectorized hash pass across all descriptors.
        try:
            idxs = (
                hash_lines(lines) % np.uint64(DESCRIPTOR_ENTRIES)
            ).tolist()
        except OverflowError:
            idxs = None
        vc_of_address = ctx.page_table.vc_of_address
        lookup = self.vtb.lookup
        default_vc = ctx.vc_id
        entries_of: Dict[int, Tuple[int, ...]] = {}
        out: List[int] = []
        for i, line in enumerate(lines):
            try:
                vc = vc_of_address(line << 6)
            except KeyError:
                vc = default_vc  # unmapped pages use the default VC
            entries = entries_of.get(vc)
            if entries is None:
                entries = lookup(vc).entries
                entries_of[vc] = entries
            if idxs is None:
                out.append(lookup(vc).bank_for(line))
            else:
                out.append(entries[idxs[i]])
        return out

    def _run_chunk(self, order: List[int], rounds: int) -> None:
        """Simulate ``rounds`` round-robin rounds as one batched chunk."""
        cfg = self.config
        num_cores = len(order)
        base = self._clock
        now_parts: List[np.ndarray] = []
        flat_lines: List[int] = []
        flat_banks: List[int] = []
        flat_cores: List[int] = []
        for j, core_id in enumerate(order):
            ctx = self.cores[core_id]
            lines = ctx.trace.lines(rounds)
            ctx.accesses += rounds
            l1_miss = ctx.l1.access_block(lines)
            l1_lines = [lines[i] for i in l1_miss]
            l2_miss = ctx.l2.access_block(l1_lines)
            ctx.total_latency += (
                rounds * cfg.l1_latency + len(l1_lines) * cfg.l2_latency
            )
            if not l2_miss:
                continue
            llc_lines = [l1_lines[i] for i in l2_miss]
            # The access of core position j in round r happens at global
            # clock base + r*num_cores + j (one slot per core access).
            llc_rounds = np.fromiter(
                (l1_miss[i] for i in l2_miss),
                dtype=np.int64,
                count=len(l2_miss),
            )
            now_parts.append(base + llc_rounds * num_cores + j)
            flat_lines.extend(llc_lines)
            flat_banks.extend(self._bank_ids(ctx, llc_lines))
            flat_cores.extend([core_id] * len(llc_lines))
        self._clock = base + rounds * num_cores
        if not now_parts:
            return
        all_now = np.concatenate(now_parts)
        merge_order = np.argsort(all_now).tolist()
        now_list = all_now.tolist()
        # Merged global-clock-order replay against the banks.
        hook = self.llc_access_hook
        banks = self.banks
        rtt = self._rtt
        hops2 = self._hops2
        mem_extra = self._mem_extra
        mem_hops2 = self._mem_hops2
        nc = self.config.num_cores
        partition_of: List[object] = [None] * nc
        # Per-core accumulators: llc accesses, hits, mem, latency, hops.
        acc: List[List[int]] = [None] * nc  # type: ignore[list-item]
        for cid, ctx in self.cores.items():
            partition_of[cid] = ctx.partition
            acc[cid] = [0, 0, 0, 0, 0]
        for k in merge_order:
            core = flat_cores[k]
            line = flat_lines[k]
            b = flat_banks[k]
            if hook is not None:
                hook(core, line)
            bank = banks[b]
            hit = bank._access_core(line, partition_of[core], now_list[k])[0]
            a = acc[core]
            a[0] += 1
            a[3] += rtt[core][b] + bank.latency
            a[4] += hops2[core][b]
            if hit:
                a[1] += 1
            else:
                a[2] += 1
                a[3] += mem_extra[b]
                a[4] += mem_hops2[b]
        for cid, ctx in self.cores.items():
            llc, hits, mem, lat, hops = acc[cid]
            ctx.llc_accesses += llc
            ctx.llc_hits += hits
            ctx.mem_accesses += mem
            ctx.total_latency += lat
            ctx.total_noc_hops += hops

    def run(self, accesses_per_core: int) -> Dict[int, TraceStats]:
        """Interleave ``accesses_per_core`` accesses from every core."""
        if accesses_per_core < 1:
            raise ValueError("need at least one access per core")
        order = sorted(self.cores)
        if not order:
            return self.stats()
        chunk_rounds = max(1, CHUNK_ACCESSES // len(order))
        remaining = accesses_per_core
        while remaining:
            rounds = min(chunk_rounds, remaining)
            self._run_chunk(order, rounds)
            remaining -= rounds
        return self.stats()

    def stats(self) -> Dict[int, TraceStats]:
        """Per-core statistics so far."""
        out = {}
        for core_id, ctx in self.cores.items():
            misses = ctx.llc_accesses - ctx.llc_hits
            out[core_id] = TraceStats(
                accesses=ctx.accesses,
                llc_accesses=ctx.llc_accesses,
                llc_hits=ctx.llc_hits,
                llc_misses=misses,
                mem_accesses=ctx.mem_accesses,
                avg_latency=(
                    ctx.total_latency / ctx.accesses if ctx.accesses else 0.0
                ),
                avg_noc_hops=(
                    ctx.total_noc_hops / ctx.llc_accesses
                    if ctx.llc_accesses
                    else 0.0
                ),
            )
        return out

    def bank_residents(self) -> Dict[int, set]:
        """Partitions resident in each bank (for security inspection)."""
        return {
            b: bank.resident_partitions()
            for b, bank in enumerate(self.banks)
        }
