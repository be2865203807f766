"""Analytic batch performance model.

Batch applications enter the evaluation through an additive CPI model:

    CPI = CPI_base
        + APKI/1000 * stall_frac * (bank_latency + avg NoC round-trip)
        + MPKI_eff/1000 * miss_penalty

where ``MPKI_eff`` inflates the profile's miss curve by the associativity
penalty when the app is way-partitioned with few ways per bank, and
``miss_penalty`` is the memory latency plus bank-to-controller NoC time,
deflated by memory-level parallelism. This captures the three effects
the paper's results hinge on: allocation size (miss curve), placement
proximity (NoC term), and partitioning mechanism (associativity).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemConfig
from ..core.allocation import Allocation
from ..noc.mesh import MeshNoc
from ..workloads.spec import BatchAppProfile
from .params import DEFAULT_PARAMS, ModelParams

__all__ = [
    "BatchPerf",
    "batch_perf",
    "estimate_ipc",
    "snuca_avg_rtt",
    "lc_service_cycles",
]


@dataclass(frozen=True)
class BatchPerf:
    """Per-app outputs of the batch model for one epoch."""

    app: str
    ipc: float
    size_mb: float
    mpki_eff: float
    noc_rtt: float
    ways_per_bank: float
    llc_apki: float

    @property
    def cpi(self) -> float:
        """Cycles per instruction (1 / IPC)."""
        return 1.0 / self.ipc


def snuca_avg_rtt(tile: int, noc: MeshNoc) -> float:
    """Average round-trip to data striped over every bank (S-NUCA)."""
    n = noc.config.num_banks
    return sum(noc.round_trip(tile, b) for b in range(n)) / n


def _miss_penalty(
    tile: int, noc: MeshNoc, config: SystemConfig, params: ModelParams
) -> float:
    """Effective stall per LLC miss: memory latency + NoC, over MLP."""
    mem_rtt = noc.mem_latency_from(tile)
    return (config.mem_latency + mem_rtt) / params.mlp


def batch_perf(
    app: str,
    profile: BatchAppProfile,
    tile: int,
    alloc: Allocation,
    noc: MeshNoc,
    params: ModelParams = DEFAULT_PARAMS,
) -> BatchPerf:
    """Evaluate one batch app's IPC under an allocation."""
    config = alloc.config
    size = alloc.app_size(app)
    noc_rtt = alloc.avg_noc_rtt(app, tile, noc)
    partitioned = (
        alloc.partition_mode in ("per-app", "per-vm")
        and app not in alloc.shared_batch
    )
    if partitioned:
        ways = alloc.ways_per_bank(app)
        penalty = params.assoc_penalty(ways, config.llc_bank_ways)
    else:
        ways = config.llc_bank_ways
        penalty = params.sharing_penalty
    mpki_eff = profile.mpki(size) * penalty
    llc_time = (
        profile.apki
        / 1000.0
        * params.llc_stall_fraction
        * (config.llc_bank_latency + noc_rtt)
    )
    mem_time = mpki_eff / 1000.0 * _miss_penalty(tile, noc, config, params)
    cpi = profile.cpi_base + llc_time + mem_time
    return BatchPerf(
        app=app,
        ipc=1.0 / cpi,
        size_mb=size,
        mpki_eff=mpki_eff,
        noc_rtt=noc_rtt,
        ways_per_bank=ways,
        llc_apki=profile.apki,
    )


def lc_service_cycles(
    profile,
    size_mb: float,
    noc_rtt: float,
    ways: float,
    config: SystemConfig,
    params: ModelParams = DEFAULT_PARAMS,
) -> float:
    """Mean LC per-request service time under the full model.

    Extends the profile's calibration-level service model with the
    associativity penalty of thin way-partitions. Used identically by
    the deadline computation (the paper's 4-way reference condition) and
    the epoch simulation, so "meeting the deadline" is self-consistent.
    """
    if size_mb < 0 or noc_rtt < 0:
        raise ValueError("size and noc_rtt must be non-negative")
    penalty = params.assoc_penalty(ways, config.llc_bank_ways)
    misses = profile.misses_per_query(size_mb) * penalty
    from ..workloads.tailbench import (
        BANK_LATENCY_CYCLES,
        MISS_PENALTY_CYCLES,
    )

    return (
        profile.base_cycles
        + profile.accesses_per_query * (BANK_LATENCY_CYCLES + noc_rtt)
        + misses * MISS_PENALTY_CYCLES
    )


def estimate_ipc(
    profile: BatchAppProfile,
    size_mb: float,
    noc_rtt: float,
    config: SystemConfig,
    params: ModelParams = DEFAULT_PARAMS,
    mem_noc_rtt: float = 16.0,
) -> float:
    """Standalone IPC estimate (no allocation object).

    Used to convert MPKI curves into misses-per-kilocycle curves for the
    placement algorithms (they need commensurable miss *rates*) and for
    quick what-if queries.
    """
    if size_mb < 0:
        raise ValueError("size must be non-negative")
    mpki = profile.mpki(size_mb)
    llc_time = (
        profile.apki
        / 1000.0
        * params.llc_stall_fraction
        * (config.llc_bank_latency + noc_rtt)
    )
    mem_time = mpki / 1000.0 * (
        (config.mem_latency + mem_noc_rtt) / params.mlp
    )
    return 1.0 / (profile.cpi_base + llc_time + mem_time)
