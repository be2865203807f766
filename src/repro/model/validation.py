"""Cross-validation between the trace-driven and analytic layers.

The evaluation sweeps run on the analytic model (`repro.model`); the
microarchitectural experiments run on the trace-driven simulator
(`repro.sim.tracesim`). This module closes the loop between them:

* :func:`measure_umon_curve` — drive a synthetic trace through a UMON
  and return the measured miss curve, the way Jumanji's hardware
  profiles applications;
* :func:`umon_matches_trace` — check that the UMON-predicted miss rate
  at a given allocation matches what a real cache of that size observes
  on the same trace;
* :func:`placement_agreement` — run the same placement through the
  trace simulator and the analytic model and compare the ordering of
  per-app miss rates.

These checks are what justify using the analytic layer for the 40-mix
sweeps (DESIGN.md Sec. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..cache.misscurve import MissCurve
from ..cache.umon import Umon
from ..config import SystemConfig
from ..sim.tracesim import TraceSimulator
from ..vtb.vtb import DESCRIPTOR_ENTRIES, PlacementDescriptor
from ..workloads.traces import AddressTrace

__all__ = [
    "measure_umon_curve",
    "umon_matches_trace",
    "placement_agreement",
    "ValidationReport",
]


def measure_umon_curve(
    trace: AddressTrace,
    accesses: int,
    num_ways: int = 32,
    num_sets: int = 64,
    sample_period: int = 1,
) -> MissCurve:
    """Profile a trace with a UMON; returns the measured miss curve.

    The curve's unit is misses per ``accesses`` (scaled by sampling).
    ``step`` is one monitored way's worth of the modelled bank:
    ``num_sets * LINE_BYTES`` bytes.
    """
    if accesses < 1:
        raise ValueError("need at least one access")
    umon = Umon(
        num_ways=num_ways,
        num_sets=num_sets,
        sample_period=sample_period,
    )
    for _ in range(accesses):
        umon.access(trace.next_line())
    return umon.miss_curve()


def _simulate_fixed_cache(
    trace: AddressTrace,
    accesses: int,
    cache_lines: int,
    ways: int = 32,
) -> float:
    """Miss rate of a raw LRU cache of ``cache_lines`` on the stream.

    A bare :class:`CacheBank` sees the same unfiltered stream the UMON
    samples — the apples-to-apples comparison. (Inside the full
    hierarchy, L1/L2 absorb the hot head of the stream, so LLC-level
    miss rates are *not* comparable to a monitor of the raw stream.)
    """
    from ..cache.bank import CacheBank

    sets = max(1, cache_lines // ways)
    bank = CacheBank(
        num_sets=sets, num_ways=ways, latency=1, policy="lru"
    )
    misses = 0
    for i in range(accesses):
        if not bank.access(trace.next_line(), now=i).hit:
            misses += 1
    return misses / accesses


@dataclass
class ValidationReport:
    """Outcome of one UMON-vs-trace comparison."""

    umon_miss_fraction: float
    trace_miss_rate: float

    @property
    def absolute_error(self) -> float:
        """Absolute gap between predicted and measured miss rates."""
        return abs(self.umon_miss_fraction - self.trace_miss_rate)


def umon_matches_trace(
    make_trace,
    accesses: int = 30_000,
    allocation_ways: int = 16,
    num_sets: int = 64,
) -> ValidationReport:
    """Compare UMON-predicted and trace-measured miss rates.

    ``make_trace`` is a zero-argument factory returning *fresh,
    identically seeded* traces (the two measurements must see the same
    stream). The UMON predicts the miss fraction at
    ``allocation_ways`` monitored ways; a raw LRU cache of the same
    capacity measures the true miss rate on the same stream. Agreement
    validates the sampled monitor.
    """
    umon_curve = measure_umon_curve(
        make_trace(), accesses, num_ways=32, num_sets=num_sets
    )
    predicted = (
        umon_curve.misses_at(float(allocation_ways))
        / max(umon_curve.misses_at(0.0), 1e-12)
    )
    measured = _simulate_fixed_cache(
        make_trace(), accesses, allocation_ways * num_sets
    )
    return ValidationReport(
        umon_miss_fraction=predicted, trace_miss_rate=measured
    )


def placement_agreement(
    traces: Dict[str, AddressTrace],
    placements: Dict[str, Sequence[int]],
    accesses_per_core: int = 20_000,
    config: Optional[SystemConfig] = None,
) -> Dict[str, float]:
    """Run apps with given bank placements; return per-app miss rates.

    Used by tests to confirm the trace-driven layer reproduces the
    analytic layer's central monotonicity: more banks (capacity) mean
    lower miss rates, and placement controls which banks fill.
    """
    config = config if config is not None else SystemConfig()
    sim = TraceSimulator(config=config, bank_sets=64)
    for core, (app, trace) in enumerate(sorted(traces.items())):
        banks = list(placements[app])
        if not banks:
            raise ValueError(f"{app!r} needs at least one bank")
        entries = [
            banks[i % len(banks)] for i in range(DESCRIPTOR_ENTRIES)
        ]
        sim.add_core(
            core, trace, core, PlacementDescriptor(entries),
            partition=app,
        )
    sim.run(accesses_per_core)
    out = {}
    for core, (app, _trace) in enumerate(sorted(traces.items())):
        out[app] = sim.stats()[core].llc_miss_rate
    return out
