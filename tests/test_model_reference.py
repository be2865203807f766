"""Differential tests: vectorised epoch engine vs frozen scalar reference.

The fast engine (vectorised queueing, numpy placer kernels, placement
memoisation) must be bit-identical to the scalar reference frozen in
``repro.model.reference`` — same latencies, same allocations, same
``RunResult``. These tests pin that contract at every layer:

* the queueing simulator's per-epoch recurrence (arrivals, starts,
  completions, backlog handling);
* the placers on seeded random contexts, including ``allowed_banks``
  filters and zero-size requests (Hypothesis);
* placement memoisation semantics (static contexts hit, any real size
  change misses);
* a small end-to-end :class:`~repro.model.system.SystemModel` run
  against :class:`~repro.model.reference.ReferenceSystemModel`.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RECONFIG_INTERVAL_CYCLES
from repro.core.designs import make_design
from repro.core.jigsaw import place_sizes_near_tiles
from repro.core.jumanji import jumanji_placer
from repro.errors import ConfigError
from repro.model.api import run_model
from repro.model.reference import (
    ReferenceLcRequestSimulator,
    ReferenceSystemModel,
    reference_jumanji_placer,
    reference_place_sizes_near_tiles,
)
from repro.model.system import SystemModel
from repro.model.workload import make_default_workload
from repro.sim.queueing import LcRequestSimulator

from .helpers import canonical_run, sim_state, synthetic_context
from .test_placer_properties import random_context

seeds = st.integers(min_value=0, max_value=10**6)

EPOCH = RECONFIG_INTERVAL_CYCLES


# -- queueing ---------------------------------------------------------------


def _run_pair(qps, cv, seed, schedule, max_backlog=None):
    """Run the same epoch schedule through both simulators."""
    kwargs = {}
    if max_backlog is not None:
        kwargs["max_backlog"] = max_backlog
    fast = LcRequestSimulator(
        qps=qps, service_cv=cv, seed=seed, **kwargs
    )
    ref = ReferenceLcRequestSimulator(
        qps=qps, service_cv=cv, seed=seed, **kwargs
    )
    for epoch_cycles, service in schedule:
        rf = fast.run_epoch(epoch_cycles, service)
        rr = ref.run_epoch(epoch_cycles, service)
        assert rf == rr
        assert sim_state(fast)[:4] == sim_state(ref)[:4]
    return fast, ref


class TestQueueingEquivalence:
    @given(
        seeds,
        st.floats(min_value=200.0, max_value=3000.0),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.05, max_value=1.5),
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_loads_bit_identical(self, seed, qps, cv):
        service = 2.66e9 / qps * 0.7  # ~70% utilisation
        _run_pair(qps, cv, seed, [(EPOCH, service)] * 4)

    def test_overload_bit_identical(self):
        # Far more arrivals than the server can drain: the backlog
        # carries work across epochs in both engines.
        _run_pair(5000.0, 1.0, 3, [(EPOCH, 2.66e9 / 800.0)] * 4)

    def test_deterministic_service_cv_zero(self):
        _run_pair(1000.0, 0.0, 11, [(EPOCH, 2.0e6)] * 5)

    def test_service_change_mid_run(self):
        # The service mean changes every epoch (as the allocation does
        # in the system model); RNG stream positions must stay aligned.
        schedule = [
            (EPOCH, 2.66e9 / 1000.0 * (0.5 + 0.2 * i)) for i in range(6)
        ]
        _run_pair(900.0, 1.2, 7, schedule)

    def test_backlog_cap_bit_identical(self):
        _run_pair(
            5000.0, 1.0, 5, [(EPOCH, 2.66e9 / 500.0)] * 3,
            max_backlog=50,
        )

    def test_reset_reseed_matches(self):
        fast, ref = _run_pair(800.0, 1.0, 9, [(EPOCH, 2.0e6)] * 2)
        fast.reset(seed=21)
        ref.reset(seed=21)
        rf = fast.run_epoch(EPOCH, 2.0e6)
        rr = ref.run_epoch(EPOCH, 2.0e6)
        assert rf.latencies_cycles == rr.latencies_cycles


# -- placers ----------------------------------------------------------------


def _ref_ctx(ctx):
    return dataclasses.replace(ctx, engine="reference")


class TestPlacerEquivalence:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_jumanji_placer_matches_reference(self, seed):
        ctx = random_context(seed)
        fast = jumanji_placer(ctx)
        ref = jumanji_placer(_ref_ctx(ctx))
        assert fast.allocs == ref.allocs

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_reference_dispatch_is_the_frozen_module(self, seed):
        # engine="reference" must route to repro.model.reference, not
        # merely produce equal output by accident.
        ctx = _ref_ctx(random_context(seed))
        assert (
            jumanji_placer(ctx).allocs
            == reference_jumanji_placer(ctx).allocs
        )

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_place_sizes_near_tiles_matches_reference(self, seed):
        rng = random.Random(seed)
        ctx = random_context(seed)
        apps = sorted(ctx.apps)
        # Random sizes including explicit zero-size requests (the
        # "place nothing" edge path must not consume banks or raise).
        sizes = {
            a: rng.choice([0.0, rng.uniform(0.1, 2.0)]) for a in apps
        }
        tiles = {a: ctx.apps[a].tile for a in apps}
        from repro.core.allocation import Allocation

        fast = place_sizes_near_tiles(
            sizes, tiles, ctx, Allocation(ctx.config)
        )
        ref = reference_place_sizes_near_tiles(
            sizes, tiles, _ref_ctx(ctx), Allocation(ctx.config)
        )
        assert fast.allocs == ref.allocs
        for a, s in sizes.items():
            assert fast.app_size(a) == pytest.approx(s, abs=1e-9)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_place_sizes_with_bank_filter_matches_reference(self, seed):
        rng = random.Random(seed)
        ctx = random_context(seed)
        apps = sorted(ctx.apps)[:3]
        allowed = rng.sample(
            range(ctx.config.num_banks), rng.randint(4, 12)
        )
        cap = len(allowed) * ctx.config.llc_bank_mb
        sizes = {
            a: rng.uniform(0.0, cap / (2 * len(apps))) for a in apps
        }
        tiles = {a: ctx.apps[a].tile for a in apps}
        from repro.core.allocation import Allocation

        fast = place_sizes_near_tiles(
            sizes, tiles, ctx, Allocation(ctx.config),
            allowed_banks=allowed,
        )
        ref = reference_place_sizes_near_tiles(
            sizes, tiles, _ref_ctx(ctx), Allocation(ctx.config),
            allowed_banks=allowed,
        )
        assert fast.allocs == ref.allocs
        # The filter is honoured: nothing lands outside allowed banks.
        for bank in fast.allocs:
            assert bank in set(allowed)


# -- placement memoisation ---------------------------------------------------


def _model(design_name, model_cls=SystemModel):
    workload = make_default_workload(["xapian"], mix_seed=1)
    return model_cls(make_design(design_name), workload, seed=2)


class TestPlacementMemoisation:
    def test_static_design_places_once(self):
        model = _model("Static")
        model.run(6)
        runtime = model.runtime
        # Static never changes sizes or tiles: one miss, then all hits.
        assert runtime.memo_misses == 1
        assert runtime.memo_hits == 5
        records = list(runtime.history)
        assert [r.memo_hit for r in records] == [False] + [True] * 5
        # Memo-hit epochs reuse the identical allocation object and
        # skip the coherence walk entirely.
        first = records[0].allocation
        for r in records[1:]:
            assert r.allocation is first
            assert r.invalidated_lines == 0

    def test_memo_never_fires_across_a_real_size_change(self):
        model = _model("Jumanji")
        model.run(8)
        runtime = model.runtime
        sizes_seen = [
            tuple(sorted(r.lat_sizes.items())) for r in runtime.history
        ]
        for prev, rec in zip(runtime.history, list(runtime.history)[1:]):
            if rec.memo_hit:
                # A hit is only legal when the sizing the placer saw is
                # identical to an earlier epoch's.
                key = tuple(sorted(rec.lat_sizes.items()))
                earlier = sizes_seen[: rec.epoch]
                assert key in earlier
            if (
                tuple(sorted(rec.lat_sizes.items()))
                not in sizes_seen[: rec.epoch]
            ):
                assert not rec.memo_hit

    def test_reference_engine_disables_memoisation(self):
        model = _model("Static", ReferenceSystemModel)
        model.run(4)
        assert model.runtime.memo_hits == 0
        assert model.runtime.memo_misses == 0
        assert all(not r.memo_hit for r in model.runtime.history)

    def test_memoisation_off_by_default_on_runtime(self):
        from repro.config import SystemConfig
        from repro.core.runtime import JumanjiRuntime

        ctx = synthetic_context({f"lc{v}": 0.5 for v in range(4)})
        runtime = JumanjiRuntime(
            make_design("Static"),
            SystemConfig(),
            context_builder=lambda sizes: ctx,
        )
        runtime.reconfigure()
        runtime.reconfigure()
        assert runtime.memo_hits == 0
        assert all(not r.memo_hit for r in runtime.history)


# -- end to end --------------------------------------------------------------


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("design", ["Static", "Jigsaw", "Jumanji"])
    def test_system_model_fast_matches_reference(self, design):
        fast = _model(design).run(5)
        ref = _model(design, ReferenceSystemModel).run(5)
        assert canonical_run(fast) == canonical_run(ref)

    def test_unknown_engine_rejected(self):
        workload = make_default_workload(["xapian"], mix_seed=1)
        with pytest.raises(ConfigError, match="engine"):
            run_model(design="Static", workload=workload, engine="scalar")
