"""The trade algorithm: batch/latency-critical allocation exchange.

The paper explored "a more sophisticated (and significantly more
complicated) algorithm that trades cache space between batch and
latency-critical applications after placing batch data, moving batch
data closer while compensating latency-critical applications"
(Sec. V-D) and reports a *negative result*: "trades were very rare and
yielded little speedup" because trades must never penalise
latency-critical apps (Sec. VIII-C).

This module implements that algorithm so the negative result can be
reproduced (see :mod:`repro.experiments.studies`). A *trade* moves some of
a latency-critical app's reservation from a close bank to a farther one,
freeing the close bank for a batch app that values proximity, while
growing the LC allocation by enough *extra capacity* that its service
time does not increase:

    service = ... + apq * (bank_lat + rtt) + mpq(size) * penalty

Moving ``delta`` MB from RTT ``r0`` to RTT ``r1 > r0`` increases the LC
app's average access time; the compensation grows ``size`` until the
mpq() reduction cancels it. Trades are accepted only when the batch
proximity gain exceeds the capacity cost — which, as the paper found, is
rarely the case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from ..workloads.tailbench import (
    BANK_LATENCY_CYCLES,
    LatencyCriticalProfile,
    MISS_PENALTY_CYCLES,
)
from .allocation import Allocation
from .context import PlacementContext

__all__ = ["Trade", "find_trades", "apply_trades", "trade_placement"]


@dataclass(frozen=True)
class Trade:
    """One candidate exchange between an LC app and a batch app."""

    lc_app: str
    batch_app: str
    bank_from: int  # close bank the LC app vacates
    bank_to: int  # farther bank the LC data moves to
    moved_mb: float
    compensation_mb: float  # extra LC capacity to keep service flat
    batch_gain_cycles: float  # batch RTT improvement x moved capacity

    @property
    def net_cost_mb(self) -> float:
        """Extra LLC capacity consumed by the trade."""
        return self.compensation_mb


def _compensation_mb(
    profile: LatencyCriticalProfile,
    size_mb: float,
    moved_mb: float,
    rtt_from: float,
    rtt_to: float,
    max_extra_mb: float = 4.0,
) -> Optional[float]:
    """Extra capacity keeping the LC app's mean service time flat.

    Moving ``moved_mb`` of the allocation from ``rtt_from`` to
    ``rtt_to`` adds ``apq * (rtt_to - rtt_from) * moved_frac`` cycles.
    We grow the allocation until the miss reduction cancels it; returns
    ``None`` when no achievable growth compensates (the curve is too
    flat — the common case, which is why trades are rare).
    """
    if moved_mb <= 0 or size_mb <= 0:
        return None
    moved_frac = moved_mb / size_mb
    added_cycles = (
        profile.accesses_per_query * (rtt_to - rtt_from) * moved_frac
    )
    if added_cycles <= 0:
        return 0.0
    base_misses = profile.misses_per_query(size_mb)
    step = 0.125
    extra = 0.0
    while extra < max_extra_mb:
        extra += step
        saved = (
            base_misses - profile.misses_per_query(size_mb + extra)
        ) * MISS_PENALTY_CYCLES
        if saved >= added_cycles:
            return extra
    return None


def find_trades(
    ctx: PlacementContext,
    alloc: Allocation,
    lc_profiles: Mapping[str, LatencyCriticalProfile],
    max_trades: int = 8,
    chunk_mb: float = 0.25,
) -> List[Trade]:
    """Enumerate beneficial trades under the no-LC-penalty constraint.

    For each LC app occupying a bank that some same-VM batch app would
    prefer (the batch app's data sits farther from its core than that
    bank), evaluate moving one chunk of LC data to the nearest bank with
    free space and compensating with extra capacity. A trade qualifies
    only if (i) compensation exists, (ii) free capacity covers both the
    relocation and the compensation, and (iii) the batch proximity gain
    exceeds the opportunity cost of the compensation capacity.
    """
    trades: List[Trade] = []
    vm_map = ctx.vm_of_app_map()
    for lc_app in ctx.lc_apps:
        if len(trades) >= max_trades:
            break
        profile = lc_profiles.get(lc_app)
        if profile is None:
            continue
        size = alloc.app_size(lc_app)
        if size <= chunk_mb:
            continue
        lc_tile = ctx.tile_of(lc_app)
        for bank_from in alloc.app_banks(lc_app):
            moved = min(chunk_mb, alloc.get(bank_from, lc_app))
            # Candidate batch beneficiaries: same VM, currently farther
            # from this bank than their average placement.
            vm_id = vm_map[lc_app]
            beneficiaries = [
                b for b in ctx.batch_apps
                if vm_map[b] == vm_id and alloc.app_size(b) > 0
            ]
            if not beneficiaries:
                continue
            best_batch = None
            best_gain = 0.0
            for batch_app in beneficiaries:
                b_tile = ctx.tile_of(batch_app)
                current_rtt = alloc.avg_noc_rtt(batch_app, b_tile,
                                                ctx.noc)
                new_rtt = ctx.noc.round_trip(b_tile, bank_from)
                gain = (current_rtt - new_rtt) * moved
                if gain > best_gain:
                    best_gain = gain
                    best_batch = batch_app
            if best_batch is None:
                continue
            # Where would the LC chunk go? The nearest bank (to the LC
            # app) with free space, same VM ownership.
            candidates = [
                b for b in ctx.noc.banks_by_distance(lc_tile)
                if b != bank_from and alloc.bank_free(b) >= moved
                and all(
                    vm_map[a] == vm_id for a in alloc.apps_in_bank(b)
                )
            ]
            if not candidates:
                continue
            bank_to = candidates[0]
            rtt_from = ctx.noc.round_trip(lc_tile, bank_from)
            rtt_to = ctx.noc.round_trip(lc_tile, bank_to)
            compensation = _compensation_mb(
                profile, size, moved, rtt_from, rtt_to
            )
            if compensation is None:
                continue
            free_after = alloc.bank_free(bank_to) - moved
            spare = free_after + sum(
                alloc.bank_free(b)
                for b in alloc.app_banks(lc_app)
                if b not in (bank_from, bank_to)
            )
            if compensation > spare:
                continue
            # Opportunity cost: the compensation capacity could have
            # served batch apps directly; approximate its value by the
            # VM batch curve's marginal utility at current size.
            batch_value = best_gain
            cost = compensation * BANK_LATENCY_CYCLES
            if batch_value <= cost:
                continue
            trades.append(
                Trade(
                    lc_app=lc_app,
                    batch_app=best_batch,
                    bank_from=bank_from,
                    bank_to=bank_to,
                    moved_mb=moved,
                    compensation_mb=compensation,
                    batch_gain_cycles=best_gain,
                )
            )
            if len(trades) >= max_trades:
                break
    return trades


def apply_trades(
    ctx: PlacementContext, alloc: Allocation, trades: List[Trade]
) -> int:
    """Apply trades to an allocation; returns how many succeeded.

    Each trade is re-validated against the current allocation state
    (earlier trades may have consumed the space it needed).
    """
    applied = 0
    for trade in trades:
        current = alloc.get(trade.bank_from, trade.lc_app)
        if current < trade.moved_mb - 1e-9:
            continue
        if alloc.bank_free(trade.bank_to) < trade.moved_mb:
            continue
        # Move the LC chunk.
        alloc.remove(trade.bank_from, trade.lc_app, trade.moved_mb)
        alloc.add(trade.bank_to, trade.lc_app, trade.moved_mb)
        # Hand the vacated space to the batch beneficiary.
        alloc.add(trade.bank_from, trade.batch_app, trade.moved_mb)
        # Grow the LC allocation by the compensation where space exists.
        remaining = trade.compensation_mb
        for bank in ctx.noc.banks_by_distance(
            ctx.tile_of(trade.lc_app)
        ):
            if remaining <= 1e-9:
                break
            grab = min(alloc.bank_free(bank), remaining)
            if grab > 0:
                alloc.add(bank, trade.lc_app, grab)
                remaining -= grab
        applied += 1
    return applied


def trade_placement(
    ctx: PlacementContext,
    alloc: Allocation,
    lc_profiles: Mapping[str, LatencyCriticalProfile],
) -> Tuple[Allocation, int]:
    """Run the full trade pass over a finished placement.

    Returns the (mutated) allocation and the number of trades applied.
    The paper's finding — reproduced by the trading benchmark — is that
    this number is almost always zero or tiny, because the
    no-LC-penalty constraint eliminates nearly all candidate trades.
    """
    trades = find_trades(ctx, alloc, lc_profiles)
    applied = apply_trades(ctx, alloc, trades)
    return alloc, applied
