"""Degraded-mode runtime tests: telemetry sanitization, placer
fallback, the bounded history ring, and the security invariant under
injected chaos."""

import math

import pytest

from repro.config import ControllerConfig, SystemConfig
from repro.core.controller import FeedbackController
from repro.core.designs import make_design
from repro.core.runtime import JumanjiRuntime
from repro.errors import PlacementFailed, TelemetryInvalid
from repro.faults import FaultPlan
from repro.model.workload import make_default_workload


def make_runtime(**kwargs):
    workload = make_default_workload(["xapian"], mix_seed=0, load="high")
    design = make_design("Jumanji")
    runtime = JumanjiRuntime(
        design,
        workload.config,
        context_builder=lambda sizes: workload.build_context(sizes),
        **kwargs,
    )
    for app in workload.lc_apps:
        runtime.register_lc_app(app, deadline_cycles=1e7)
    return runtime, workload


class TestTelemetrySanitization:
    def test_controller_rejects_garbage_samples(self):
        controller = FeedbackController(SystemConfig())
        controller.register("lc", 1e7)
        for bad in (math.nan, math.inf, -1.0, "fast", None):
            with pytest.raises(TelemetryInvalid):
                controller.force_update("lc", bad)

    def test_telemetry_invalid_is_a_value_error(self):
        controller = FeedbackController(SystemConfig())
        controller.register("lc", 1e7)
        with pytest.raises(ValueError):
            controller.request_completed("lc", -5.0)

    def test_runtime_drops_bad_tails_and_holds_sizes(self):
        runtime, workload = make_runtime()
        app = workload.lc_apps[0]
        runtime.report_tail(app, 2e7)  # valid: panic/grow
        good = runtime.lat_sizes()[app]
        for bad in (math.nan, -3.0, math.inf, "slow"):
            runtime.report_tail(app, bad)
        assert runtime.lat_sizes()[app] == good
        drops = [
            e for e in runtime.events
            if e["event"] == "telemetry_invalid"
        ]
        assert len(drops) == 4
        assert drops[0]["app"] == app

    def test_runtime_drops_bad_latencies(self):
        runtime, workload = make_runtime()
        app = workload.lc_apps[0]
        runtime.report_latency(app, math.nan)
        runtime.report_latency(app, -1.0)
        assert sum(
            1 for e in runtime.events
            if e["event"] == "telemetry_invalid"
        ) == 2
        # The window never saw the garbage: valid traffic still works.
        for _ in range(25):
            runtime.report_latency(app, 1e5)
        runtime.reconfigure()
        assert runtime.lat_sizes()[app] > 0

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bulk_report_drops_exactly_the_bad_samples(self, bad, as_array):
        import numpy as np

        samples = [1e5, 2e5, bad, 3e5] * 8
        bulk, workload = make_runtime(memoize_placement=True)
        single, _ = make_runtime(memoize_placement=True)
        app = workload.lc_apps[0]
        bulk.report_latencies(
            app, np.array(samples) if as_array else samples
        )
        for latency in samples:
            single.report_latency(app, latency)
        assert list(bulk.events) == list(single.events)
        assert len(bulk.events) == 8
        assert list(bulk.controller.decisions) == list(
            single.controller.decisions
        )
        assert bulk.controller._windows[app] == single.controller._windows[app]


class _ExplodingDesign:
    """Succeeds for ``good_epochs`` allocations, then raises."""

    name = "Exploding"
    uses_feedback = True

    def __init__(self, inner, good_epochs):
        self._inner = inner
        self._good = good_epochs
        self._calls = 0

    def allocate(self, ctx):
        self._calls += 1
        if self._calls > self._good:
            raise RuntimeError("placer exploded")
        return self._inner.allocate(ctx)


class TestPlacerFallback:
    def _runtime_with(self, good_epochs):
        workload = make_default_workload(
            ["xapian"], mix_seed=0, load="high"
        )
        design = _ExplodingDesign(make_design("Jumanji"), good_epochs)
        runtime = JumanjiRuntime(
            design,
            workload.config,
            context_builder=lambda sizes: workload.build_context(sizes),
        )
        for app in workload.lc_apps:
            runtime.register_lc_app(app, deadline_cycles=1e7)
        return runtime, workload

    def test_falls_back_to_previous_validated_allocation(self):
        runtime, workload = self._runtime_with(good_epochs=1)
        first = runtime.reconfigure()
        assert not first.degraded
        second = runtime.reconfigure()
        assert second.degraded
        assert second.allocation is first.allocation
        assert second.lat_sizes == first.lat_sizes
        assert any(
            e["event"] == "placement_failed" for e in runtime.events
        )
        # The fallback still satisfies the security invariant.
        vm_map = {
            a: workload.vm_of(a)
            for vm in workload.vms
            for a in vm.apps
        }
        assert second.allocation.violates_bank_isolation(vm_map) == []

    def test_no_prior_allocation_propagates(self):
        runtime, _ = self._runtime_with(good_epochs=0)
        with pytest.raises(PlacementFailed) as info:
            runtime.reconfigure()
        assert info.value.epoch == 0

    def test_recovers_when_placer_heals(self):
        runtime, _ = self._runtime_with(good_epochs=1)
        runtime.reconfigure()
        runtime.reconfigure()  # degraded
        runtime.design._good = 10**9  # placer healed
        third = runtime.reconfigure()
        assert not third.degraded


class TestLlcSaturation:
    """LC targets that outgrow the LLC are held, not failed."""

    def _drive(self, runtime, workload, factor, epochs):
        records = []
        for _ in range(epochs):
            for app in workload.lc_apps:
                runtime.report_tail(app, factor * 1e7)
            records.append(runtime.reconfigure())
        return records

    @staticmethod
    def _held(prev, rec):
        """A tail over target grows every app, so a held epoch is one
        where some app did not grow."""
        return any(
            size <= prev.lat_sizes[app]
            for app, size in rec.lat_sizes.items()
        )

    def test_held_at_last_placed_sizes_without_degrading(self):
        runtime, workload = make_runtime()
        # A tail just over target: every app grows 10% per epoch until
        # the four targets no longer fit the 20 MB LLC.
        records = self._drive(runtime, workload, 1.0, 40)
        assert not any(r.degraded for r in records)
        assert not any(
            e["event"] == "placement_failed" for e in runtime.events
        )
        held = [
            i for i in range(1, len(records))
            if self._held(records[i - 1], records[i])
        ]
        assert held, "targets never outgrew the LLC"
        for prev, rec in zip(records[held[0] - 1:], records[held[0]:]):
            rec.allocation.validate()
            for app, size in rec.lat_sizes.items():
                assert size <= prev.lat_sizes[app]
        # Anti-windup: the controller targets are the placed sizes.
        assert runtime.lat_sizes() == records[-1].lat_sizes

    def test_shrinks_from_the_held_sizes(self):
        runtime, workload = make_runtime()
        records = self._drive(runtime, workload, 1.0, 40)
        assert self._held(records[-2], records[-1])
        held = records[-1].lat_sizes
        (calm,) = self._drive(runtime, workload, 0.5, 1)
        assert not calm.degraded
        for app, size in calm.lat_sizes.items():
            assert size == pytest.approx(held[app] * 0.9)

    def test_latcrit_raises_llc_full_in_both_engines(self):
        from repro.core.latcrit import lat_crit_placer
        from repro.errors import LlcFull

        workload = make_default_workload(
            ["xapian"], mix_seed=0, load="high"
        )
        sizes = {app: 6.0 for app in workload.lc_apps}
        for engine in ("fast", "reference"):
            ctx = workload.build_context(sizes, engine=engine)
            with pytest.raises(LlcFull, match="LLC full"):
                lat_crit_placer(ctx, isolate_vms=True)


class TestHistoryRing:
    """Satellite: bounded reconfiguration history."""

    def test_default_keeps_all(self):
        runtime, _ = make_runtime()
        for _ in range(5):
            runtime.reconfigure()
        assert [r.epoch for r in runtime.history] == list(range(5))

    def test_ring_caps_length(self):
        runtime, _ = make_runtime(
            controller_config=ControllerConfig(history_limit=3)
        )
        for _ in range(8):
            runtime.reconfigure()
        assert len(runtime.history) == 3
        assert [r.epoch for r in runtime.history] == [5, 6, 7]
        assert runtime.last_record.epoch == 7

    def test_fallback_survives_tiny_ring(self):
        workload = make_default_workload(
            ["xapian"], mix_seed=0, load="high"
        )
        design = _ExplodingDesign(make_design("Jumanji"), 1)
        runtime = JumanjiRuntime(
            design,
            workload.config,
            context_builder=lambda sizes: workload.build_context(sizes),
            controller_config=ControllerConfig(history_limit=1),
        )
        for app in workload.lc_apps:
            runtime.register_lc_app(app, deadline_cycles=1e7)
        first = runtime.reconfigure()
        second = runtime.reconfigure()
        assert second.degraded
        assert second.allocation is first.allocation

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            ControllerConfig(history_limit=0)


class TestChaosDrill:
    def test_security_invariant_survives_degraded_epochs(self):
        from repro.chaos import run_degraded_runtime

        result = run_degraded_runtime(
            epochs=12,
            plan=FaultPlan(
                seed=7,
                telemetry_nan=0.25,
                telemetry_negative=0.2,
                telemetry_drop=0.2,
                cell_error=0.3,
            ).as_params(),
        )
        assert result["isolation_ok"]
        assert result["shared_bank_epochs"] == []
        # The plan actually bit: degraded epochs and dropped samples.
        assert result["degraded_epochs"]
        assert result["telemetry_events"] > 0

    def test_drill_is_deterministic(self):
        from repro.chaos import run_degraded_runtime

        plan = FaultPlan(seed=3, telemetry_nan=0.3).as_params()
        a = run_degraded_runtime(epochs=6, plan=plan)
        b = run_degraded_runtime(epochs=6, plan=plan)
        assert a == b

    def test_clean_drill_never_degrades(self):
        from repro.chaos import run_degraded_runtime

        result = run_degraded_runtime(epochs=4, plan=None)
        assert result["isolation_ok"]
        assert result["degraded_epochs"] == []
        assert result["telemetry_events"] == 0
