"""Frozen scalar reference for the trace-driven simulator.

This module preserves the original per-access, list-based implementation
of the private caches, the LLC bank, and the trace-driven core loop
exactly as it existed before the array-backed fast path replaced it in
``repro.sim.tracesim`` / ``repro.cache.bank``. It exists for
equivalence testing: the fast path must be access-for-access
bit-identical to this code — same hits, misses, evictions, port waits,
NoC hops, and ``TraceStats``. Property tests drive both
implementations with the same streams and compare every observable
(``tests/test_fastpath_equivalence.py``), and the golden fixture in
``tests/golden_tracesim.json`` was generated from this reference.

Nothing here should be optimised: slow-and-obvious is the point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..cache.partition import WayPartitioner
from ..cache.replacement import (
    BrripPolicy,
    DrripPolicy,
    LruPolicy,
    ReplacementPolicy,
    SrripPolicy,
)
from ..config import LINE_BYTES, SystemConfig
from ..noc.mesh import MeshNoc
from ..vtb.vtb import Vtb

__all__ = [
    "ReferencePrivateCache",
    "ReferenceCacheBank",
    "ReferenceTraceSimulator",
    "reference_make_policy",
]


class _ReferenceRripVictimMixin:
    """The seed's RRIP victim selection: the literal aging loop.

    The production :class:`~repro.cache.replacement._RripBase` replaced
    this with its (equivalent) closed form; the reference keeps the
    original iteration so the baseline is a true seed snapshot in both
    behaviour and cost. State layout is inherited unchanged, so the two
    are interchangeable access-for-access.
    """

    def victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        self._check_set(set_idx)
        if not candidates:
            raise ValueError("no eviction candidates")
        rrpvs = self._rrpv[set_idx]
        while True:
            for way in candidates:
                if rrpvs[way] >= self.rrpv_max:
                    return way
            for way in candidates:
                rrpvs[way] += 1


class _ReferenceSrripPolicy(_ReferenceRripVictimMixin, SrripPolicy):
    pass


class _ReferenceBrripPolicy(_ReferenceRripVictimMixin, BrripPolicy):
    pass


class _ReferenceDrripPolicy(_ReferenceRripVictimMixin, DrripPolicy):
    """Seed DRRIP: role and insertion decided by string compares.

    The production policy precomputes a per-set role-code table; the
    seed recomputed ``set_idx % leader_period`` and compared role
    strings on every miss and fill. Same decisions, original cost.
    """

    def set_role(self, set_idx: int) -> str:
        phase = set_idx % self.leader_period
        if phase == 0:
            return "srrip"
        if phase == self.leader_period // 2:
            return "brrip"
        return "follower"

    @property
    def follower_policy(self) -> str:
        msb = 1 << (self.psel_bits - 1)
        return "brrip" if self.psel & msb else "srrip"

    def on_miss(self, set_idx: int) -> None:
        self._check_set(set_idx)
        role = self.set_role(set_idx)
        if role == "srrip" and self.psel < self.psel_max:
            self.psel += 1
        elif role == "brrip" and self.psel > 0:
            self.psel -= 1

    def _policy_for_set(self, set_idx: int) -> str:
        role = self.set_role(set_idx)
        if role == "follower":
            return self.follower_policy
        return role

    def _insertion_rrpv(self, set_idx: int) -> int:
        if self._policy_for_set(set_idx) == "srrip":
            return self.rrpv_max - 1
        self._brrip_throttle += 1
        if self._brrip_throttle % BrripPolicy.THROTTLE == 0:
            return self.rrpv_max - 1
        return self.rrpv_max


_REFERENCE_POLICIES = {
    "lru": LruPolicy,
    "srrip": _ReferenceSrripPolicy,
    "brrip": _ReferenceBrripPolicy,
    "drrip": _ReferenceDrripPolicy,
}


def reference_make_policy(
    name: str, num_sets: int, num_ways: int, **kwargs
) -> ReplacementPolicy:
    """Seed-snapshot policies (aging-loop RRIP victim) by name."""
    try:
        cls = _REFERENCE_POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from "
            f"{sorted(_REFERENCE_POLICIES)}"
        ) from None
    return cls(num_sets, num_ways, **kwargs)


class ReferencePrivateCache:
    """The seed's private (L1/L2) cache: per-set Python-list LRU."""

    def __init__(self, size_kb: int, ways: int, latency: int):
        if size_kb < 1 or ways < 1:
            raise ValueError("cache must have positive size and ways")
        num_lines = size_kb * 1024 // LINE_BYTES
        if num_lines % ways != 0:
            raise ValueError("size must be divisible by ways")
        self.num_sets = num_lines // ways
        self.ways = ways
        self.latency = latency
        # Per-set LRU order, most recent first.
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, line_addr: int) -> bool:
        """Access a line; returns True on hit. Fills on miss."""
        s = self._sets[line_addr % self.num_sets]
        try:
            s.remove(line_addr)
            s.insert(0, line_addr)
            self.hits += 1
            return True
        except ValueError:
            self.misses += 1
            if len(s) >= self.ways:
                s.pop()
            s.insert(0, line_addr)
            return False

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present (inclusive-LLC back-invalidation)."""
        s = self._sets[line_addr % self.num_sets]
        try:
            s.remove(line_addr)
            return True
        except ValueError:
            return False

    def flush(self) -> None:
        """Drop all lines."""
        for s in self._sets:
            s.clear()


class ReferenceCacheBank:
    """The seed's LLC bank: per-set Python lists, per-access scans."""

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        latency: int = 13,
        num_ports: int = 1,
        policy: str = "drrip",
    ):
        if num_sets < 1 or num_ways < 1:
            raise ValueError("need at least one set and one way")
        if num_ports < 1:
            raise ValueError("bank needs at least one port")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.latency = latency
        self.num_ports = num_ports
        self.policy: ReplacementPolicy = reference_make_policy(
            policy, num_sets, num_ways
        )
        self.partitioner = WayPartitioner(num_ways)
        self._tags: List[List[Optional[int]]] = [
            [None] * num_ways for _ in range(num_sets)
        ]
        self._owners: List[List[Optional[object]]] = [
            [None] * num_ways for _ in range(num_sets)
        ]
        self._port_free: List[int] = [0] * num_ports
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.port_conflicts = 0
        self.total_port_wait = 0

    def set_index(self, line_addr: int) -> int:
        """Set index of a line address within this bank."""
        return line_addr % self.num_sets

    def _acquire_port(self, now: int) -> Tuple[int, int]:
        idx = min(range(self.num_ports), key=lambda i: self._port_free[i])
        start = max(now, self._port_free[idx])
        wait = start - now
        self._port_free[idx] = start + self.latency
        if wait > 0:
            self.port_conflicts += 1
            self.total_port_wait += wait
        return wait, start

    def _find(self, set_idx: int, line_addr: int) -> Optional[int]:
        tags = self._tags[set_idx]
        for way in range(self.num_ways):
            if tags[way] == line_addr:
                return way
        return None

    def _eviction_candidates(
        self, set_idx: int, partition: object
    ) -> List[int]:
        owners = self._owners[set_idx]
        tags = self._tags[set_idx]
        invalid = [w for w in range(self.num_ways) if tags[w] is None]
        owner_count = sum(1 for o in owners if o == partition)
        candidates = [
            w
            for w in range(self.num_ways)
            if tags[w] is not None
            and self.partitioner.can_evict(partition, owners[w], owner_count)
        ]
        if invalid:
            quota = self.partitioner.quota(partition)
            if quota == 0 or owner_count < quota:
                return invalid
        if candidates:
            return candidates
        own = [w for w in range(self.num_ways) if owners[w] == partition]
        if own:
            return own
        return invalid if invalid else list(range(self.num_ways))

    def access(self, line_addr: int, partition: object = None, now: int = 0):
        """Perform one access; returns hit/miss plus port-timing info."""
        from ..cache.bank import AccessResult

        port_wait, start = self._acquire_port(now)
        set_idx = self.set_index(line_addr)
        way = self._find(set_idx, line_addr)
        if way is not None:
            self.hits += 1
            self.policy.on_hit(set_idx, way)
            return AccessResult(
                hit=True,
                set_idx=set_idx,
                way=way,
                evicted_owner=None,
                port_wait=port_wait,
                finish_time=start + self.latency,
            )
        self.misses += 1
        self.policy.on_miss(set_idx)
        candidates = self._eviction_candidates(set_idx, partition)
        evicted_owner: Optional[object] = None
        invalid = [w for w in candidates if self._tags[set_idx][w] is None]
        if invalid:
            victim = invalid[0]
        else:
            victim = self.policy.victim(set_idx, candidates)
            evicted_owner = self._owners[set_idx][victim]
            self.evictions += 1
        self._tags[set_idx][victim] = line_addr
        self._owners[set_idx][victim] = partition
        self.policy.on_fill(set_idx, victim)
        return AccessResult(
            hit=False,
            set_idx=set_idx,
            way=victim,
            evicted_owner=evicted_owner,
            port_wait=port_wait,
            finish_time=start + self.latency,
        )

    def contains(self, line_addr: int) -> bool:
        """Whether the bank currently holds ``line_addr``."""
        return self._find(self.set_index(line_addr), line_addr) is not None

    def occupancy(self, partition: object) -> int:
        """Number of lines currently owned by ``partition`` (full scan)."""
        return sum(
            1
            for owners in self._owners
            for o in owners
            if o == partition
        )

    def resident_partitions(self) -> set:
        """All partitions with at least one line in the bank (full scan)."""
        return {
            o for owners in self._owners for o in owners if o is not None
        }

    def invalidate_partition(self, partition: object) -> int:
        """Invalidate all lines of ``partition``; returns the count."""
        count = 0
        for set_idx in range(self.num_sets):
            for way in range(self.num_ways):
                if self._owners[set_idx][way] == partition:
                    self._tags[set_idx][way] = None
                    self._owners[set_idx][way] = None
                    count += 1
        return count

    def flush(self) -> int:
        """Invalidate the whole bank; returns lines invalidated."""
        count = 0
        for set_idx in range(self.num_sets):
            for way in range(self.num_ways):
                if self._tags[set_idx][way] is not None:
                    count += 1
                self._tags[set_idx][way] = None
                self._owners[set_idx][way] = None
        return count

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction/port counters (content kept)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.port_conflicts = 0
        self.total_port_wait = 0


class ReferenceTraceSimulator:
    """The seed's per-access round-robin core loop over the hierarchy.

    API-compatible with :class:`repro.sim.tracesim.TraceSimulator` (same
    ``add_core`` / ``run`` / ``stats`` surface, same ``TraceStats``), but
    every access walks the scalar L1 -> L2 -> VTB -> bank path one at a
    time, exactly as the seed did.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        policy: str = "drrip",
        bank_sets: Optional[int] = None,
    ):
        from .tracesim import CoreContext

        self._core_context_cls = CoreContext
        self.config = config if config is not None else SystemConfig()
        self.noc = MeshNoc(self.config)
        sets = bank_sets if bank_sets is not None else self.config.bank_sets
        self.banks: List[ReferenceCacheBank] = [
            ReferenceCacheBank(
                num_sets=sets,
                num_ways=self.config.llc_bank_ways,
                latency=self.config.llc_bank_latency,
                num_ports=self.config.llc_bank_ports,
                policy=policy,
            )
            for _ in range(self.config.num_banks)
        ]
        self.vtb = Vtb()
        self.cores: Dict[int, object] = {}
        self._clock = 0
        self.llc_access_hook = None

    def add_core(
        self,
        core_id: int,
        trace,
        vc_id: int,
        descriptor,
        partition: object = None,
        page_table: object = None,
    ):
        """Attach a trace to a core with a VC placement."""
        if not 0 <= core_id < self.config.num_cores:
            raise ValueError(f"core {core_id} out of range")
        if core_id in self.cores:
            raise ValueError(f"core {core_id} already configured")
        self.vtb.install(vc_id, descriptor)
        ctx = self._core_context_cls(
            core_id=core_id,
            trace=trace,
            vc_id=vc_id,
            partition=partition if partition is not None else vc_id,
            page_table=page_table,
            l1=ReferencePrivateCache(
                self.config.l1_size_kb,
                self.config.l1_ways,
                self.config.l1_latency,
            ),
            l2=ReferencePrivateCache(
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

    def install_vc(self, vc_id: int, descriptor) -> None:
        """Install an extra VC descriptor (per-page classification)."""
        self.vtb.install(vc_id, descriptor)

    def update_placement(self, vc_id: int, descriptor) -> int:
        """Install a new descriptor; performs the coherence walk."""
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

    def _access_one(self, ctx) -> None:
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

    def run(self, accesses_per_core: int):
        """Interleave ``accesses_per_core`` accesses from every core."""
        if accesses_per_core < 1:
            raise ValueError("need at least one access per core")
        order = sorted(self.cores)
        for _ in range(accesses_per_core):
            for core_id in order:
                self._access_one(self.cores[core_id])
        return self.stats()

    def stats(self):
        """Per-core statistics so far."""
        from .tracesim import TraceStats

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
