"""Side studies: the design-choice ablations of DESIGN.md §5, and two
results the paper states only in text.

Each ablation measures one mechanism with and without it: the panic
boost, LC proximity (Jumanji vs Adaptive), bank-granular isolation
(Jumanji vs "Jumanji: Insecure"), Jigsaw placement inside each VM's
banks (vs striping), and convex-hull miss curves (vs raw LRU curves).
Of the trade algorithm the paper says "trades were very rare and
yielded little speedup" (Secs. V-D, VIII-C); of the reconfiguration
interval, "More frequent reconfigurations do not improve results"
(Sec. IV-B). Every study runs a fixed case-study workload, whatever
the sweep scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..cache.misscurve import MissCurve
from ..config import RECONFIG_INTERVAL_CYCLES, ControllerConfig
from ..core.allocation import Allocation
from ..core.designs import make_design
from ..core.jumanji import jumanji_placer
from ..core.lookahead import lookahead
from ..core.trading import trade_placement
from ..metrics.speedup import weighted_speedup
from ..model.api import run_model
from ..model.system import SystemModel
from ..model.workload import make_default_workload
from ..workloads.mixes import base_app
from ..workloads.tailbench import get_lc_profile
from .common import cached_workload_outcome

__all__ = [
    "Pair", "TradingResult", "ReconfigResult",
    "run_panic_boost", "run_lc_proximity", "run_bank_granularity",
    "run_inner_placement", "run_convex_hull", "run_trading",
    "run_reconfig_interval", "isolation_cost", "format_trading",
    "format_reconfig_interval",
]


@dataclass(frozen=True)
class Pair:
    """One measurement with the studied mechanism and without it."""

    with_it: Any
    without: Any


def run_panic_boost() -> Pair:
    """Worst normalised LC tail with and without the panic boost: without
    it, queueing spikes linger."""
    workload = make_default_workload(["xapian"], mix_seed=1, load="high")

    def worst(panic_threshold: float) -> float:
        return run_model(
            design="Jumanji", workload=workload, epochs=20, seed=2,
            controller_config=ControllerConfig(
                panic_threshold=panic_threshold
            ),
        ).worst_lc_violation()

    # A threshold of 50x the deadline never fires.
    return Pair(worst(1.10), worst(50.0))


def _outcome_pair(other: str, epochs: int) -> Pair:
    # Sweep cells (Jumanji's, then the ablated design's): the Static
    # baseline is cached and shared with the figure sweeps.
    return Pair(
        cached_workload_outcome("Jumanji", "xapian", "high", 0, epochs),
        cached_workload_outcome(other, "xapian", "high", 0, epochs),
    )


def run_lc_proximity() -> Pair:
    """Jumanji vs Adaptive: the same tails from less LC capacity when it
    sits in the closest banks (the D-NUCA advantage)."""
    return _outcome_pair("Adaptive", epochs=20)


def run_bank_granularity() -> Pair:
    """Jumanji vs 'Jumanji: Insecure': what bank-granular VM isolation
    costs in speedup (paper Fig. 16)."""
    return _outcome_pair("Jumanji: Insecure", epochs=15)


def isolation_cost(result: Pair) -> float:
    """Speedup 'Jumanji: Insecure' gains over bank-isolated Jumanji."""
    return result.without.speedup - result.with_it.speedup


def run_inner_placement() -> Pair:
    """Mean batch NoC RTT (cycles) with Jigsaw placing inside each VM's
    banks, and with each app striped uniformly across them instead."""
    workload = make_default_workload(["xapian"], mix_seed=0, load="high")
    ctx = workload.build_context({a: 2.0 for a in workload.lc_apps})
    alloc = jumanji_placer(ctx)
    apps = [a for a in ctx.batch_apps if alloc.app_size(a) > 0]
    vm_map = ctx.vm_of_app_map()
    vm_banks: Dict[str, set] = {}
    for bank in range(ctx.config.num_banks):
        for app in alloc.apps_in_bank(bank):
            vm_banks.setdefault(vm_map[app], set()).add(bank)
    striped = Allocation(ctx.config)
    for app in apps:
        size = alloc.app_size(app)
        banks = sorted(vm_banks[vm_map[app]])
        for b in banks:
            striped.add(b, app, min(size / len(banks), striped.bank_free(b)))

    def mean_rtt(placed) -> float:
        rtts = [placed.avg_noc_rtt(a, ctx.tile_of(a), ctx.noc) for a in apps]
        return sum(rtts) / len(rtts)

    return Pair(mean_rtt(alloc), mean_rtt(striped))


def run_convex_hull() -> Pair:
    """Total true misses of Lookahead's choice over hulled and over raw
    curves: the hull (the paper's DRRIP approximation) removes the
    cliffs Lookahead would otherwise over-allocate into."""
    curves = {
        "cliff": MissCurve([10.0, 10.0, 10.0, 9.9, 1.0, 1.0, 1.0]),
        "drip": MissCurve([8.0, 6.5, 5.0, 3.5, 2.0, 1.5, 1.0]),
    }
    hulls = {k: c.convex_hull() for k, c in curves.items()}

    def total_misses(sizes: Dict[str, float]) -> float:
        return sum(curves[k].misses_at(v) for k, v in sizes.items())

    return Pair(
        total_misses(lookahead(hulls, 4.0, 1.0)),
        total_misses(lookahead(curves, 4.0, 1.0)),
    )


@dataclass(frozen=True)
class TradingResult:
    """Trades applied over all mixes, and each mix's batch RTT gain."""

    total_trades: int
    #: Per mix: mean batch NoC RTT before minus after trading (cycles).
    rtt_gains: List[float]

    @property
    def mean_gain(self) -> float:
        """Mean batch RTT gain over the mixes (cycles)."""
        return sum(self.rtt_gains) / len(self.rtt_gains)


def run_trading(mixes: int = 6) -> TradingResult:
    """Trade on Jumanji's placement of ``mixes`` case-study mixes."""
    total_trades = 0
    rtt_gains = []
    for mix_seed in range(mixes):
        workload = make_default_workload(
            ["xapian"], mix_seed=mix_seed, load="high"
        )
        ctx = workload.build_context({a: 2.0 for a in workload.lc_apps})
        alloc = jumanji_placer(ctx)

        def mean_batch_rtt() -> float:
            rtts = [
                alloc.avg_noc_rtt(a, ctx.tile_of(a), ctx.noc)
                for a in ctx.batch_apps
                if alloc.app_size(a) > 0
            ]
            return sum(rtts) / len(rtts)

        before = mean_batch_rtt()
        profiles = {
            a: get_lc_profile(base_app(a)) for a in workload.lc_apps
        }
        _alloc, applied = trade_placement(ctx, alloc, profiles)
        total_trades += applied
        rtt_gains.append(before - mean_batch_rtt())
    return TradingResult(total_trades, rtt_gains)


def format_trading(result: TradingResult) -> str:
    return (
        f"Trade algorithm over {len(result.rtt_gains)} mixes: "
        f"{result.total_trades} trades applied; mean batch RTT gain "
        f"{result.mean_gain:.2f} cycles "
        "(paper: trades are very rare and yield little speedup)"
    )


#: Interval label -> divisor of the paper's 100 ms epoch.
INTERVALS = (("50ms", 2), ("100ms", 1), ("200ms", 0.5))


@dataclass(frozen=True)
class ReconfigResult:
    """Interval label -> (weighted speedup, worst normalised tail)."""

    cells: Dict[str, Tuple[float, float]]

    def speedup_spread(self) -> float:
        """Largest minus smallest speedup over the intervals."""
        speeds = [s for s, _t in self.cells.values()]
        return max(speeds) - min(speeds)


def run_reconfig_interval(epochs: int = 15) -> ReconfigResult:
    """Jumanji at each interval over ``epochs`` 100 ms epochs of time."""
    workload = make_default_workload(["xapian"], mix_seed=0, load="high")
    base = SystemModel(make_design("Static"), workload, seed=1).run(
        epochs
    ).batch_ipcs()
    total = epochs * RECONFIG_INTERVAL_CYCLES
    cells = {}
    for label, divisor in INTERVALS:
        cycles = int(RECONFIG_INTERVAL_CYCLES / divisor)
        result = SystemModel(
            make_design("Jumanji"), workload, seed=1, epoch_cycles=cycles,
        ).run(max(int(total / cycles), 4))
        cells[label] = (
            weighted_speedup(result.batch_ipcs(), base),
            max(result.lc_tail_normalized(a) for a in result.lc_deadlines),
        )
    return ReconfigResult(cells)


def format_reconfig_interval(result: ReconfigResult) -> str:
    lines = ["Reconfiguration-interval sensitivity (Jumanji)"]
    for label, (speedup, tail) in result.cells.items():
        lines.append(
            f"  {label:>6s}: speedup={speedup:.3f} worst tail={tail:.2f}"
        )
    lines.append(
        f"speedup spread: {result.speedup_spread():.3f} "
        "(paper: more frequent reconfigurations do not improve results)"
    )
    return "\n".join(lines)
