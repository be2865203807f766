"""Tests for the LC request queueing simulator."""

import pytest

from repro.config import CORE_FREQ_HZ, RECONFIG_INTERVAL_CYCLES
from repro.errors import ConfigError
from repro.sim.engine import EventQueue
from repro.sim.queueing import LcRequestSimulator, percentile


class TestPercentile:
    def test_simple(self):
        data = list(range(1, 101))
        assert percentile(data, 95) == 95
        assert percentile(data, 100) == 100

    def test_single_value(self):
        # A single sample is every percentile of itself, including the
        # pct=100 boundary.
        assert percentile([42.0], 95) == 42.0
        assert percentile([42.0], 100) == 42.0
        assert percentile([42.0], 0.001) == 42.0

    def test_pct_100_is_the_maximum(self):
        assert percentile([2.0, 9.0, 4.0], 100) == 9.0

    def test_unsorted_input(self):
        assert percentile([5, 1, 3], 100) == 5

    def test_empty_rejected(self):
        # ConfigError (a ValueError subclass), so callers can both
        # catch the structured error and keep broad ValueError guards.
        with pytest.raises(ConfigError):
            percentile([], 95)
        with pytest.raises(ValueError):
            percentile([], 95)

    def test_bad_pct_rejected(self):
        with pytest.raises(ConfigError):
            percentile([1.0], 0)
        with pytest.raises(ConfigError):
            percentile([1.0], 101)


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        order = []
        q.schedule(10, lambda: order.append("b"))
        q.schedule(5, lambda: order.append("a"))
        q.run()
        assert order == ["a", "b"]

    def test_ties_break_by_schedule_order(self):
        q = EventQueue()
        order = []
        q.schedule(5, lambda: order.append(1))
        q.schedule(5, lambda: order.append(2))
        q.run()
        assert order == [1, 2]

    def test_until_limit(self):
        q = EventQueue()
        fired = []
        q.schedule(5, lambda: fired.append(5))
        q.schedule(50, lambda: fired.append(50))
        q.run(until=10)
        assert fired == [5]
        assert q.now == 10
        assert len(q) == 1

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule(5, lambda: q.schedule(1, lambda: None))
        with pytest.raises(ValueError):
            q.run()

    def test_schedule_in(self):
        q = EventQueue()
        fired = []
        q.schedule_in(7, lambda: fired.append(q.now))
        q.run()
        assert fired == [7.0]


class TestQueueSim:
    def test_stable_queue_has_bounded_latency(self):
        sim = LcRequestSimulator(qps=500, service_cv=0.2, seed=1)
        # Utilisation ~ 0.4.
        service = 0.4 * CORE_FREQ_HZ / 500
        result = sim.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
        assert result.completed > 20
        assert result.utilization == pytest.approx(0.4)
        # p95 within a few service times of the mean.
        assert result.tail_cycles() < 6 * service

    def test_overloaded_queue_grows(self):
        sim = LcRequestSimulator(qps=500, service_cv=0.2, seed=1)
        service = 1.5 * CORE_FREQ_HZ / 500  # utilisation 1.5
        depths = []
        for _ in range(5):
            sim.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
            depths.append(sim.queue_depth)
        assert depths[-1] > depths[0]
        assert depths[-1] > 10

    def test_latency_grows_over_time_when_unstable(self):
        """Fig. 4a's Jigsaw behaviour: unstable queues make tails grow
        epoch over epoch."""
        sim = LcRequestSimulator(qps=500, service_cv=0.2, seed=2)
        service = 1.3 * CORE_FREQ_HZ / 500
        first = sim.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
        for _ in range(3):
            last = sim.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
        assert last.mean_cycles() > first.mean_cycles()

    def test_backlog_carries_across_epochs(self):
        sim = LcRequestSimulator(qps=500, service_cv=0.0, seed=3)
        heavy = 2.0 * CORE_FREQ_HZ / 500
        sim.run_epoch(RECONFIG_INTERVAL_CYCLES, heavy)
        backlog = sim.queue_depth
        assert backlog > 0
        # Next epoch with fast service drains it.
        light = 0.1 * CORE_FREQ_HZ / 500
        sim.run_epoch(RECONFIG_INTERVAL_CYCLES, light)
        assert sim.queue_depth < backlog

    def test_latency_includes_queueing(self):
        sim = LcRequestSimulator(qps=2000, service_cv=0.0, seed=4)
        service = 0.9 * CORE_FREQ_HZ / 2000
        result = sim.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
        # At 90% utilisation with deterministic service, some requests
        # must have queued: max latency > service time.
        assert max(result.latencies_cycles) > service * 1.5

    def test_deterministic_with_seed(self):
        a = LcRequestSimulator(qps=300, seed=9)
        b = LcRequestSimulator(qps=300, seed=9)
        service = 0.5 * CORE_FREQ_HZ / 300
        ra = a.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
        rb = b.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
        assert ra.latencies_cycles == rb.latencies_cycles

    def test_qps_change_mid_stream(self):
        # A new rate applies from the next epoch's arrivals on.
        sim = LcRequestSimulator(qps=100, seed=6)
        slow = sim.run_epoch(RECONFIG_INTERVAL_CYCLES, 1e5)
        sim.qps = 1000
        fast = sim.run_epoch(RECONFIG_INTERVAL_CYCLES, 1e5)
        assert fast.completed > 5 * slow.completed

    def test_reset(self):
        sim = LcRequestSimulator(qps=500, seed=7)
        sim.run_epoch(RECONFIG_INTERVAL_CYCLES, 1e6)
        sim.reset(seed=7)
        assert sim.queue_depth == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LcRequestSimulator(qps=0)
        sim = LcRequestSimulator(qps=10)
        with pytest.raises(ValueError):
            sim.run_epoch(0, 100.0)
        with pytest.raises(ValueError):
            sim.run_epoch(100, 0.0)

    def test_service_cv_zero_is_deterministic_service(self):
        sim = LcRequestSimulator(qps=50, service_cv=0.0, seed=8)
        # cv=0 draws no service variates at all; every request takes
        # exactly the mean, so under an always-busy server completions
        # are spaced exactly one service time apart.
        assert sim._services is None
        service = 2.0 * CORE_FREQ_HZ / 50  # heavy overload
        result = sim.run_epoch(RECONFIG_INTERVAL_CYCLES, service)
        lats = result.latencies_cycles
        assert len(lats) >= 2
        # Every latency is at least one service time (up to FP rounding
        # in the arrival-time cumsum).
        assert all(l >= service * (1 - 1e-12) for l in lats)
