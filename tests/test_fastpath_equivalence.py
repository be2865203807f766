"""Property tests: the array-backed fast path is bit-identical to the
frozen scalar reference (``repro.sim.reference``).

The fast path (``repro.cache.bank``, ``repro.sim.tracesim``) must be
access-for-access equivalent to the seed implementation it replaced:
same hits, misses, evictions, eviction victims, port waits, and
aggregate ``TraceStats``. Hypothesis drives both with the same random
seeded streams and compares every observable.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.bank import CacheBank
from repro.config import SystemConfig
from repro.sim.reference import (
    ReferenceCacheBank,
    ReferencePrivateCache,
    ReferenceTraceSimulator,
)
from repro.sim.tracesim import PrivateCache, TraceSimulator
from repro.vtb.vtb import DESCRIPTOR_ENTRIES, PlacementDescriptor
from repro.workloads.traces import trace_from_spec


class TestPrivateCacheEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        ways=st.sampled_from([2, 4, 8]),
        accesses=st.integers(50, 600),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_access_matches_reference(
        self, seed, ways, accesses
    ):
        fast = PrivateCache(32, ways, 3)
        ref = ReferencePrivateCache(32, ways, 3)
        rng = random.Random(seed)
        lines = [
            rng.randrange(fast.num_sets * ways * 3)
            for _ in range(accesses)
        ]
        # Feed the fast path in random-sized batches (the simulator
        # chunks), the reference one access at a time.
        pos = 0
        while pos < len(lines):
            size = rng.randrange(1, 64)
            block = lines[pos : pos + size]
            miss_idx = set(fast.access_block(block))
            for i, line in enumerate(block):
                assert ref.access(line) == (i not in miss_idx)
            pos += size
        assert (fast.hits, fast.misses) == (ref.hits, ref.misses)
        # Residency must agree too (same lines cached, same LRU order
        # up to representation).
        for line in lines:
            assert fast.invalidate(line) == ref.invalidate(line)


class TestCacheBankEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from(["lru", "srrip", "brrip", "drrip"]),
        num_ports=st.sampled_from([1, 2]),
        quota_split=st.sampled_from([None, (2, 4), (4, 0), (1, 2)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_accesses_match_reference(
        self, seed, policy, num_ports, quota_split
    ):
        num_sets, num_ways = 16, 8
        fast = CacheBank(
            num_sets, num_ways, num_ports=num_ports, policy=policy
        )
        ref = ReferenceCacheBank(
            num_sets, num_ways, num_ports=num_ports, policy=policy
        )
        if quota_split is not None:
            for bank in (fast, ref):
                bank.partitioner.set_quota("A", quota_split[0])
                bank.partitioner.set_quota("B", quota_split[1])
        partitions = [None, "A", "B"]
        rng = random.Random(seed)
        for now in range(800):
            line = rng.randrange(num_sets * 5)
            part = partitions[rng.randrange(3)]
            res_fast = fast.access(line, part, now=now)
            res_ref = ref.access(line, part, now=now)
            assert res_fast == res_ref
        assert fast._tags == ref._tags
        assert fast._owners == ref._owners
        assert (fast.hits, fast.misses, fast.evictions) == (
            ref.hits, ref.misses, ref.evictions,
        )
        assert (fast.port_conflicts, fast.total_port_wait) == (
            ref.port_conflicts, ref.total_port_wait,
        )
        for part in partitions:
            assert fast.occupancy(part) == ref.occupancy(part)
        assert (
            fast.resident_partitions() == ref.resident_partitions()
        )
        assert fast.counters_match_scan()


def _trace_spec(core: int, seed: int):
    kind = (seed + core) % 3
    if kind == 0:
        return {
            "kind": "zipf", "num_lines": 2000, "alpha": 0.9,
            "seed": seed * 100 + core, "base_line": core << 32,
        }
    if kind == 1:
        return {
            "kind": "working_set", "working_set_lines": 1500,
            "seed": seed * 100 + core, "base_line": core << 32,
        }
    return {
        "kind": "streaming", "footprint_lines": 2500,
        "base_line": core << 32,
    }


class TestSimulatorEquivalence:
    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig(),
            SystemConfig(
                num_cores=4, mesh_cols=2, mesh_rows=2, num_mem_ctrls=4
            ),
        ],
        ids=["default", "mesh2x2"],
    )
    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(40, 400),
    )
    @settings(max_examples=10, deadline=None)
    def test_trace_stats_match_reference(self, config, seed, rounds):
        sims = []
        for cls in (TraceSimulator, ReferenceTraceSimulator):
            sim = cls(config, bank_sets=64)
            for core in range(min(6, config.num_cores)):
                banks = [
                    (core * 3 + off) % config.num_banks
                    for off in range(3)
                ]
                entries = [
                    banks[i % len(banks)]
                    for i in range(DESCRIPTOR_ENTRIES)
                ]
                sim.add_core(
                    core,
                    trace_from_spec(_trace_spec(core, seed)),
                    vc_id=core,
                    descriptor=PlacementDescriptor(entries),
                    partition=f"app{core}",
                )
            sim.run(rounds)
            sims.append(sim)
        fast, ref = sims
        assert fast.stats() == ref.stats()
        for fast_bank, ref_bank in zip(fast.banks, ref.banks):
            assert fast_bank._tags == ref_bank._tags
            assert fast_bank._owners == ref_bank._owners
            assert (fast_bank.hits, fast_bank.misses) == (
                ref_bank.hits, ref_bank.misses,
            )
        assert fast.bank_residents() == ref.bank_residents()
