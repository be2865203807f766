"""Tests for the tail-latency feedback controller (paper Listing 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ControllerConfig, SystemConfig
from repro.core.controller import FeedbackController


def make_controller(**kwargs):
    return FeedbackController(SystemConfig(), **kwargs)


class TestRegistration:
    def test_register_sets_initial_size(self):
        ctrl = make_controller(initial_size_mb=2.5)
        ctrl.register("app", deadline=1e6)
        assert ctrl.size_of("app") == 2.5
        assert ctrl.deadline_of("app") == 1e6

    def test_unregistered_app_raises(self):
        ctrl = make_controller()
        with pytest.raises(KeyError):
            ctrl.size_of("ghost")
        with pytest.raises(KeyError):
            ctrl.request_completed("ghost", 100.0)

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError):
            make_controller().register("a", deadline=0)

    def test_panic_size_is_eighth_of_llc(self):
        ctrl = make_controller()
        assert ctrl.panic_size_mb == pytest.approx(2.5)

    def test_registered_listing(self):
        ctrl = make_controller()
        ctrl.register("b", 1.0)
        ctrl.register("a", 1.0)
        assert ctrl.registered() == ["a", "b"]


class TestWindowing:
    def test_no_decision_until_window_fills(self):
        ctrl = make_controller()
        ctrl.register("a", deadline=100.0)
        cfg = ctrl.config
        for _ in range(cfg.configuration_interval):
            assert ctrl.request_completed("a", 50.0) is None
        decision = ctrl.request_completed("a", 50.0)
        assert decision is not None

    def test_window_clears_after_decision(self):
        ctrl = make_controller()
        ctrl.register("a", deadline=100.0)
        for _ in range(21):
            ctrl.request_completed("a", 50.0)
        # Window restarted: next 20 give no decision.
        for _ in range(20):
            assert ctrl.request_completed("a", 50.0) is None

    def test_negative_latency_rejected(self):
        ctrl = make_controller()
        ctrl.register("a", deadline=100.0)
        with pytest.raises(ValueError):
            ctrl.request_completed("a", -1.0)


class TestDecisions:
    def _decide(self, tail, deadline=100.0, **kwargs):
        ctrl = make_controller(**kwargs)
        ctrl.register("a", deadline=deadline)
        return ctrl, ctrl.force_update("a", tail)

    def test_shrink_when_comfortably_below(self):
        ctrl, decision = self._decide(tail=50.0)
        assert decision.action == "shrink"
        assert decision.new_size_mb == pytest.approx(2.5 * 0.9)

    def test_hold_inside_band(self):
        ctrl, decision = self._decide(tail=90.0)
        assert decision.action == "hold"
        assert decision.new_size_mb == decision.old_size_mb

    def test_grow_above_band(self):
        ctrl, decision = self._decide(tail=100.0)
        assert decision.action == "grow"
        assert decision.new_size_mb == pytest.approx(2.5 * 1.1)

    def test_panic_boosts_to_safe_size(self):
        ctrl, decision = self._decide(tail=150.0, initial_size_mb=1.0)
        assert decision.action == "panic"
        assert decision.new_size_mb == pytest.approx(2.5)

    def test_panic_never_shrinks(self):
        ctrl, decision = self._decide(tail=150.0, initial_size_mb=4.0)
        assert decision.new_size_mb == 4.0

    def test_size_clamped_to_min(self):
        ctrl = make_controller(
            initial_size_mb=0.3, min_size_mb=0.29
        )
        ctrl.register("a", deadline=100.0)
        for _ in range(10):
            ctrl.force_update("a", 10.0)
            ctrl.epoch_boundary()
        assert ctrl.size_of("a") == pytest.approx(0.29)

    def test_size_clamped_to_llc(self):
        ctrl = make_controller(initial_size_mb=19.0)
        ctrl.register("a", deadline=100.0)
        for _ in range(10):
            ctrl.force_update("a", 100.0)
            ctrl.epoch_boundary()
        assert ctrl.size_of("a") <= 20.0

    def test_decision_log(self):
        ctrl, _ = self._decide(tail=50.0)
        assert len(ctrl.decisions) == 1
        assert ctrl.decisions[0].app == "a"


class TestEpochGating:
    def test_one_resize_per_epoch(self):
        ctrl = make_controller()
        ctrl.register("a", deadline=100.0)
        first = ctrl.force_update("a", 50.0)
        second = ctrl.force_update("a", 50.0)
        assert first.action == "shrink"
        assert second.action == "hold"

    def test_epoch_boundary_reenables(self):
        ctrl = make_controller()
        ctrl.register("a", deadline=100.0)
        ctrl.force_update("a", 50.0)
        ctrl.epoch_boundary()
        decision = ctrl.force_update("a", 50.0)
        assert decision.action == "shrink"

    def test_panic_bypasses_gating(self):
        ctrl = make_controller(initial_size_mb=1.0)
        ctrl.register("a", deadline=100.0)
        ctrl.force_update("a", 50.0)  # shrink, gate engaged
        decision = ctrl.force_update("a", 500.0)
        assert decision.action == "panic"

    def test_gating_is_per_app(self):
        ctrl = make_controller()
        ctrl.register("a", deadline=100.0)
        ctrl.register("b", deadline=100.0)
        ctrl.force_update("a", 50.0)
        decision = ctrl.force_update("b", 50.0)
        assert decision.action == "shrink"


class TestClosedLoopConvergence:
    def test_converges_into_target_band(self):
        """Drive the controller with a monotone tail(size) model; it
        should settle where tail is inside [0.85, 0.95] x deadline."""
        ctrl = make_controller(initial_size_mb=8.0)
        deadline = 100.0
        ctrl.register("a", deadline=deadline)

        def tail_for(size_mb: float) -> float:
            return 200.0 / (size_mb + 0.5)

        for _ in range(60):
            ctrl.epoch_boundary()
            ctrl.force_update("a", tail_for(ctrl.size_of("a")))
        final_tail = tail_for(ctrl.size_of("a"))
        assert 0.80 * deadline <= final_tail <= 1.0 * deadline

    def test_recovers_from_load_spike(self):
        ctrl = make_controller(initial_size_mb=2.0)
        ctrl.register("a", deadline=100.0)
        ctrl.force_update("a", 90.0)  # steady
        ctrl.epoch_boundary()
        decision = ctrl.force_update("a", 400.0)  # spike
        assert decision.action == "panic"
        assert ctrl.size_of("a") >= 2.5


class TestBulkIngest:
    """``ingest_completed`` (windows cut and sorted in bulk) against
    per-sample ``request_completed``."""

    @given(
        batches=st.lists(
            st.lists(
                st.floats(0.0, 400.0, allow_nan=False), max_size=90
            ),
            max_size=8,
        ),
        interval=st.integers(0, 30),
        pct=st.sampled_from([50.0, 90.0, 95.0, 99.0, 100.0]),
        as_array=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bulk_matches_per_sample(self, batches, interval, pct, as_array):
        config = ControllerConfig(
            configuration_interval=interval, percentile=pct
        )
        bulk = make_controller(config=config)
        single = make_controller(config=config)
        for ctrl in (bulk, single):
            ctrl.register("a", deadline=100.0)
        for k, batch in enumerate(batches):
            if k % 3 == 2:
                # Epoch boundaries re-arm the one-resize-per-epoch
                # throttle, which the decisions depend on.
                bulk.epoch_boundary()
                single.epoch_boundary()
            bulk.ingest_completed(
                "a", np.asarray(batch, dtype=float) if as_array else batch
            )
            for latency in batch:
                single.request_completed("a", latency)
            assert list(bulk.decisions) == list(single.decisions)
            assert bulk.sizes() == single.sizes()
            assert bulk._windows["a"] == single._windows["a"]
            assert all(type(v) is float for v in bulk._windows["a"])
