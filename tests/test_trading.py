"""Tests for the trade algorithm — including the paper's negative result."""

import pytest

from repro.core.jumanji import jumanji_placer
from repro.core.trading import apply_trades, find_trades, trade_placement
from repro.model.workload import make_default_workload
from repro.workloads.mixes import base_app
from repro.workloads.tailbench import get_lc_profile


@pytest.fixture
def placed():
    workload = make_default_workload(["xapian"], mix_seed=0,
                                     load="high")
    ctx = workload.build_context({a: 2.0 for a in workload.lc_apps})
    alloc = jumanji_placer(ctx)
    profiles = {
        a: get_lc_profile(base_app(a)) for a in workload.lc_apps
    }
    return ctx, alloc, profiles


class TestFindTrades:
    def test_trades_are_rare(self, placed):
        """The paper's finding (Sec. VIII-C): the no-LC-penalty
        constraint makes beneficial trades very rare."""
        ctx, alloc, profiles = placed
        trades = find_trades(ctx, alloc, profiles)
        assert len(trades) <= 2

    def test_trade_structure_is_sound(self, placed):
        ctx, alloc, profiles = placed
        for trade in find_trades(ctx, alloc, profiles):
            assert trade.moved_mb > 0
            assert trade.compensation_mb >= 0
            assert trade.bank_from != trade.bank_to
            assert trade.batch_gain_cycles > 0
            # Same-VM constraint.
            vm = ctx.vm_of_app_map()
            assert vm[trade.lc_app] == vm[trade.batch_app]


class TestApplyTrades:
    def test_apply_preserves_capacity_invariants(self, placed):
        ctx, alloc, profiles = placed
        trades = find_trades(ctx, alloc, profiles)
        apply_trades(ctx, alloc, trades)
        alloc.validate()

    def test_apply_never_shrinks_lc_total(self, placed):
        ctx, alloc, profiles = placed
        before = {a: alloc.app_size(a) for a in ctx.lc_apps}
        trades = find_trades(ctx, alloc, profiles)
        apply_trades(ctx, alloc, trades)
        for app in ctx.lc_apps:
            assert alloc.app_size(app) >= before[app] - 1e-9

    def test_stale_trades_skipped(self, placed):
        ctx, alloc, profiles = placed
        trades = find_trades(ctx, alloc, profiles)
        if not trades:
            pytest.skip("no trades on this workload (expected)")
        # Apply twice: the second application must not double-move.
        apply_trades(ctx, alloc, trades)
        before = alloc.total_used()
        applied_again = apply_trades(ctx, alloc, trades)
        assert alloc.total_used() >= before  # only additions possible
        alloc.validate()


class TestTradePlacement:
    def test_end_to_end_negative_result(self, placed):
        """The full pass applies at most a couple of trades and leaves
        batch speedup essentially unchanged — the reason the paper
        ships the simple LatCritPlacer."""
        ctx, alloc, profiles = placed
        before_rtt = {
            a: alloc.avg_noc_rtt(a, ctx.tile_of(a), ctx.noc)
            for a in ctx.batch_apps if alloc.app_size(a) > 0
        }
        _alloc, applied = trade_placement(ctx, alloc, profiles)
        assert applied <= 2
        after_rtt = {
            a: alloc.avg_noc_rtt(a, ctx.tile_of(a), ctx.noc)
            for a in before_rtt
        }
        mean_before = sum(before_rtt.values()) / len(before_rtt)
        mean_after = sum(after_rtt.values()) / len(after_rtt)
        # Improvement, if any, is marginal.
        assert mean_after <= mean_before + 1e-9
        assert mean_before - mean_after < 2.0


class TestForcedTrade:
    """One trade applied by hand: the accelerated engine's dense
    allocation must stay equal to the reference engine's oracle, bank
    totals included (the trade takes space back from a bank and then
    grants the freed space to a batch app)."""

    def test_fast_matches_reference_after_a_trade(self):
        import dataclasses

        from repro.core.latcrit import lat_crit_placer
        from repro.core.trading import Trade

        workload = make_default_workload(["xapian"], mix_seed=0)
        fast_ctx = workload.build_context(
            {a: 2.0 for a in workload.lc_apps}
        )
        ref_ctx = dataclasses.replace(fast_ctx, engine="reference")
        fast = lat_crit_placer(fast_ctx)
        ref = lat_crit_placer(ref_ctx)
        assert type(fast) is not type(ref)
        lc_app = fast_ctx.lc_apps[0]
        vm = fast_ctx.vm_of(lc_app)
        batch_app = next(
            a for a in fast_ctx.batch_apps if fast_ctx.vm_of(a) == vm
        )
        bank_from = fast.app_banks(lc_app)[0]
        bank_to = next(
            b for b in fast_ctx.noc.banks_by_distance(
                fast_ctx.tile_of(lc_app)
            )
            if not fast.apps_in_bank(b)
        )
        trade = Trade(
            lc_app=lc_app,
            batch_app=batch_app,
            bank_from=bank_from,
            bank_to=bank_to,
            moved_mb=0.3,
            compensation_mb=0.2,
            batch_gain_cycles=1.0,
        )
        assert apply_trades(fast_ctx, fast, [trade]) == 1
        assert apply_trades(ref_ctx, ref, [trade]) == 1
        banks = range(fast_ctx.config.num_banks)
        assert [fast.bank_used(b) for b in banks] == [
            ref.bank_used(b) for b in banks
        ]
        for app in fast_ctx.apps:
            assert fast.app_size(app) == ref.app_size(app)
        assert fast.allocs == ref.allocs
        assert fast.get(bank_from, batch_app) == 0.3
        fast.validate()
        ref.validate()
