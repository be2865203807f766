"""Fig. 12: performance leakage through shared replacement state.

img-dnn runs with a *fixed* 2.5 MB LLC partition alongside many batch
mixes under DRRIP. Way-partitioning protects its data, but set-dueling's
shared PSEL counter lets the co-runners flip the bank's insertion policy
and change img-dnn's miss rate — so its tail latency varies with the
co-runner mix despite the fixed partition (red line). Reserving the two
closest banks exclusively (Jumanji-style bank isolation, blue line)
makes the tail flat and ~20% lower.

The experiment has two stages: the trace-driven DRRIP bank simulation
measures the victim's miss rate against each mix (`repro.sim.attack`),
and the queueing model translates miss rates into tail latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..config import RECONFIG_INTERVAL_CYCLES, SystemConfig
from ..model.performance import snuca_avg_rtt
from ..noc.mesh import MeshNoc
from ..sim.attack import run_leakage_experiment
from ..sim.queueing import LcRequestSimulator, percentile
from ..workloads.tailbench import (
    MISS_PENALTY_CYCLES,
    get_lc_profile,
)

__all__ = ["Fig12Result", "run", "format_table"]


@dataclass
class Fig12Result:
    """Result container for this experiment."""
    num_mixes: int
    #: Tail latency per mix, normalised to running alone, sorted
    #: best-to-worst: the shared-bank (S-NUCA partition) configuration.
    shared_tails: List[float] = field(default_factory=list)
    #: Same, with the victim isolated in its own banks (D-NUCA).
    isolated_tails: List[float] = field(default_factory=list)
    shared_miss_rates: List[float] = field(default_factory=list)
    isolated_miss_rates: List[float] = field(default_factory=list)

    @property
    def shared_spread(self) -> float:
        """Max - min normalised tail across shared-bank mixes."""
        return max(self.shared_tails) - min(self.shared_tails)

    @property
    def isolated_spread(self) -> float:
        """Max - min normalised tail across isolated mixes."""
        return max(self.isolated_tails) - min(self.isolated_tails)


def _tail_for_miss_rate(
    miss_rate: float,
    base_miss_rate: float,
    dnuca: bool,
    config: SystemConfig,
    seed: int,
    epochs: int = 12,
) -> float:
    """Queueing tail for img-dnn with a leakage-scaled miss rate."""
    profile = get_lc_profile("img-dnn")
    noc = MeshNoc(config)
    rtt = 4.0 if dnuca else snuca_avg_rtt(0, noc)
    scale = miss_rate / max(base_miss_rate, 1e-9)
    misses = profile.misses_per_query(2.5) * scale
    service = (
        profile.base_cycles
        + profile.accesses_per_query * (config.llc_bank_latency + rtt)
        + misses * MISS_PENALTY_CYCLES
    )
    sim = LcRequestSimulator(
        qps=profile.qps.high_qps, service_cv=profile.service_cv,
        seed=seed,
    )
    lats: List[float] = []
    for _ in range(epochs):
        res = sim.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
        lats.extend(res.latencies_cycles)
    return percentile(lats, 95.0) if lats else float("inf")


def run(
    num_mixes: int = 12,
    accesses: int = 20_000,
    config: Optional[SystemConfig] = None,
    seed: int = 3,
    jobs: Optional[int] = None,
) -> Fig12Result:
    """Run the experiment; returns its result object.

    The (independent) DRRIP bank simulations — one cell per mix per
    bank configuration — run through the sweep runner (``jobs``
    workers) and its result cache; results do not depend on ``jobs``.
    """
    config = config if config is not None else SystemConfig()
    shared = run_leakage_experiment(
        num_mixes=num_mixes, accesses=accesses, shared_bank=True,
        seed=seed, jobs=jobs,
    )
    isolated = run_leakage_experiment(
        num_mixes=num_mixes, accesses=accesses, shared_bank=False,
        seed=seed, jobs=jobs,
    )
    result = Fig12Result(num_mixes=num_mixes)
    result.shared_miss_rates = [r.victim_miss_rate for r in shared]
    result.isolated_miss_rates = [r.victim_miss_rate for r in isolated]
    # Normalise tails to the victim running alone (isolated, min rate).
    base_rate = min(result.isolated_miss_rates)
    alone_tail = _tail_for_miss_rate(
        base_rate, base_rate, dnuca=False, config=config, seed=seed
    )
    shared_tails = [
        _tail_for_miss_rate(r, base_rate, dnuca=False, config=config,
                            seed=seed)
        / alone_tail
        for r in result.shared_miss_rates
    ]
    isolated_tails = [
        _tail_for_miss_rate(r, base_rate, dnuca=True, config=config,
                            seed=seed)
        / alone_tail
        for r in result.isolated_miss_rates
    ]
    result.shared_tails = sorted(shared_tails)
    result.isolated_tails = sorted(isolated_tails)
    return result


def format_table(result: Fig12Result) -> str:
    """Render the result as the paper-style text report."""
    lines = [
        "Fig. 12 — img-dnn tail latency across batch mixes, fixed "
        "2.5 MB partition (normalised to running alone)",
        f"{'mix rank':>8s} {'shared bank':>12s} {'isolated':>10s}",
    ]
    for i, (s, iso) in enumerate(
        zip(result.shared_tails, result.isolated_tails)
    ):
        lines.append(f"{i:>8d} {s:>12.3f} {iso:>10.3f}")
    lines.append(
        f"spread: shared {result.shared_spread:.3f} vs isolated "
        f"{result.isolated_spread:.3f}"
    )
    return "\n".join(lines)
