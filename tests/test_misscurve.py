"""Tests for miss curves: evaluation, hulls, and combination."""

import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import misscurve
from repro.cache.misscurve import _SCAN_HEADROOM, MissCurve, combine_curves
from repro.model.api import run_model
from repro.model.workload import make_default_workload
from repro.workloads.mixes import random_lc_mix


def make_curve(values, step=1.0):
    return MissCurve(values, step)


class TestConstruction:
    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            MissCurve([1.0])

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            MissCurve([2.0, 1.0], step=-1)

    def test_rejects_negative_misses(self):
        with pytest.raises(ValueError):
            MissCurve([1.0, -0.5])

    def test_clamps_non_monotone_input(self):
        curve = MissCurve([5.0, 6.0, 3.0])
        assert curve.values[1] <= curve.values[0]

    def test_equality(self):
        a = MissCurve([3.0, 1.0], 0.5)
        b = MissCurve([3.0, 1.0], 0.5)
        c = MissCurve([3.0, 1.0], 1.0)
        assert a == b
        assert a != c

    def test_flat_constructor(self):
        curve = MissCurve.flat(4.0, 5, 0.25)
        assert curve.num_points == 5
        assert all(v == 4.0 for v in curve.values)

    def test_from_samples(self):
        curve = MissCurve.from_samples(
            [0.0, 2.0, 4.0], [10.0, 6.0, 2.0], num_points=5, step=1.0
        )
        assert curve.misses_at(0) == 10.0
        assert curve.misses_at(1) == pytest.approx(8.0)
        assert curve.misses_at(4) == pytest.approx(2.0)

    def test_values_read_only(self):
        curve = MissCurve([2.0, 1.0])
        with pytest.raises(ValueError):
            curve.values[0] = 99.0


class TestEvaluation:
    def test_exact_points(self):
        curve = make_curve([10.0, 6.0, 3.0, 1.0])
        for i, v in enumerate([10.0, 6.0, 3.0, 1.0]):
            assert curve.misses_at(float(i)) == v

    def test_interpolation(self):
        curve = make_curve([10.0, 6.0])
        assert curve.misses_at(0.5) == pytest.approx(8.0)

    def test_saturates_beyond_range(self):
        curve = make_curve([10.0, 6.0, 3.0])
        assert curve.misses_at(100.0) == 3.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_curve([2.0, 1.0]).misses_at(-0.1)

    def test_step_scaling(self):
        curve = make_curve([10.0, 6.0], step=0.5)
        assert curve.max_size == 0.5
        assert curve.misses_at(0.25) == pytest.approx(8.0)

    def test_marginal_utility(self):
        curve = make_curve([10.0, 6.0, 5.0])
        assert curve.marginal_utility(0.0, 1.0) == pytest.approx(4.0)
        assert curve.marginal_utility(1.0, 1.0) == pytest.approx(1.0)

    def test_marginal_utility_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            make_curve([2.0, 1.0]).marginal_utility(0.0, 0.0)


class TestMissesAtManyEdges:
    """``misses_at_many`` at the edges of its input domain."""

    CURVE = MissCurve([8.0, 5.0, 3.0, 2.0, 1.5], 0.5)

    def test_empty_input(self):
        out = self.CURVE.misses_at_many([])
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_all_saturated(self):
        # inf's int cast is invalid too; its slot is overwritten anyway.
        with np.errstate(invalid="ignore"):
            out = self.CURVE.misses_at_many([2.0, 2.5, 100.0, np.inf])
        assert out.tolist() == [1.5, 1.5, 1.5, 1.5]

    def test_exactly_at_last_sample(self):
        edge = (self.CURVE.num_points - 1) * self.CURVE.step
        out = self.CURVE.misses_at_many([edge, np.nextafter(edge, 0.0)])
        assert out[0] == self.CURVE.values[-1]
        assert out[0] == self.CURVE.misses_at(edge)
        assert out[1] == self.CURVE.misses_at(float(np.nextafter(edge, 0)))

    def test_negative_size_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.CURVE.misses_at_many([0.5, -1e-9])
        with pytest.raises(ValueError, match="non-negative"):
            self.CURVE.misses_at_many([np.nan, -1.0])

    def test_nan_size_gives_nan(self):
        # NaN passes the sign check (NaN < 0 is False) and interpolates
        # to NaN; the other elements are unaffected.
        with np.errstate(invalid="ignore"):
            out = self.CURVE.misses_at_many([np.nan, 0.5, 0.75])
        assert np.isnan(out[0])
        assert out[1:].tolist() == [5.0, 4.0]


class TestConvexHull:
    def test_convex_input_unchanged(self):
        values = [16.0, 8.0, 4.0, 2.0, 1.0]
        curve = make_curve(values)
        hull = curve.convex_hull()
        np.testing.assert_allclose(hull.values, values)

    def test_cliff_is_bridged(self):
        # Flat then cliff: hull should be the straight line.
        curve = make_curve([10.0, 10.0, 10.0, 0.0])
        hull = curve.convex_hull()
        np.testing.assert_allclose(
            hull.values, [10.0, 20 / 3, 10 / 3, 0.0], atol=1e-9
        )

    def test_hull_below_curve(self):
        curve = make_curve([20.0, 19.0, 18.0, 2.0, 1.0])
        hull = curve.convex_hull()
        assert all(
            h <= v + 1e-12 for h, v in zip(hull.values, curve.values)
        )

    def test_hull_is_convex(self):
        curve = make_curve([30.0, 29.0, 25.0, 5.0, 4.0, 4.0])
        hull = curve.convex_hull().values
        diffs = np.diff(hull)
        # Slopes non-decreasing for a convex (non-increasing) curve.
        assert all(b >= a - 1e-9 for a, b in zip(diffs, diffs[1:]))

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=3,
            max_size=24,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_hull_properties_random(self, values):
        curve = make_curve(values)
        hull = curve.convex_hull()
        # Same endpoints.
        assert hull.values[0] == pytest.approx(curve.values[0])
        assert hull.values[-1] == pytest.approx(curve.values[-1])
        # Never above the (monotone-clamped) curve.
        assert all(
            h <= v + 1e-9 for h, v in zip(hull.values, curve.values)
        )
        # Convexity of slopes.
        diffs = np.diff(hull.values)
        assert all(b >= a - 1e-6 for a, b in zip(diffs, diffs[1:]))


class TestTransforms:
    def test_scaled(self):
        curve = make_curve([4.0, 2.0]).scaled(0.5)
        np.testing.assert_allclose(curve.values, [2.0, 1.0])

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            make_curve([4.0, 2.0]).scaled(-1.0)

    def test_resampled(self):
        curve = make_curve([10.0, 6.0, 2.0])
        fine = curve.resampled(5, 0.5)
        assert fine.misses_at(1.0) == pytest.approx(6.0)
        assert fine.misses_at(0.5) == pytest.approx(8.0)


class TestCombineCurves:
    def test_single_curve_identity(self):
        curve = make_curve([10.0, 6.0, 3.0, 1.0])
        combined = combine_curves([curve])
        np.testing.assert_allclose(combined.values, curve.values)

    def test_two_flat_curves(self):
        a = MissCurve.flat(5.0, 4)
        b = MissCurve.flat(3.0, 4)
        combined = combine_curves([a, b])
        assert combined.misses_at(0) == pytest.approx(8.0)
        assert combined.misses_at(3) == pytest.approx(8.0)

    def test_combined_at_zero_is_sum(self):
        a = make_curve([10.0, 2.0, 1.0])
        b = make_curve([7.0, 6.0, 1.0])
        combined = combine_curves([a, b])
        assert combined.misses_at(0) == pytest.approx(17.0)

    def test_combination_sees_through_cliffs(self):
        # Two pure cliffs at 3 units each: a greedy without lookahead
        # would flatline; the combined curve must fall at 3 and 6.
        cliff = [10.0, 10.0, 10.0, 0.0, 0.0, 0.0, 0.0]
        combined = combine_curves([make_curve(cliff)] * 2)
        assert combined.misses_at(3) == pytest.approx(10.0)
        assert combined.misses_at(6) == pytest.approx(0.0)

    def test_rejects_mismatched_steps(self):
        with pytest.raises(ValueError):
            combine_curves(
                [make_curve([2.0, 1.0], 1.0), make_curve([2.0, 1.0], 0.5)]
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            combine_curves([])

    def test_monotone_result(self):
        a = make_curve([9.0, 9.0, 1.0, 1.0])
        b = make_curve([5.0, 2.0, 2.0, 0.0])
        combined = combine_curves([a, b])
        vals = combined.values
        assert all(x >= y - 1e-9 for x, y in zip(vals, vals[1:]))

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=50.0),
                min_size=4,
                max_size=10,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_combined_never_beats_sum_of_best(self, curve_values):
        curves = [make_curve(v) for v in curve_values]
        n = max(c.num_points for c in curves)
        combined = combine_curves(curves)
        # At full allocation the combined misses cannot be below the sum
        # of each curve's absolute minimum.
        floor = sum(min(c.values) for c in curves)
        assert combined.values[-1] >= floor - 1e-6
        # At zero allocation it equals the sum of zero-size misses.
        top = sum(c.misses_at(0.0) for c in curves)
        assert combined.misses_at(0.0) == pytest.approx(top)


# --------------------------------------------------------------------------
# MissCurve.best_horizon: the memoised horizon scan against a frozen oracle
# --------------------------------------------------------------------------


def _oracle_chain_argbest(utils, best_util, eps=1e-15):
    """The placers' vectorised tie-break chain, frozen as the oracle."""
    if utils.size == 0:
        return best_util, -1
    running = np.maximum.accumulate(utils)
    prev = np.empty_like(running)
    prev[0] = -np.inf
    prev[1:] = running[:-1]
    best_idx = -1
    for i in np.flatnonzero(utils > prev).tolist():
        util = float(utils[i])
        if util > best_util + eps:
            best_util = util
            best_idx = i
    return best_util, best_idx


def _oracle_utils(curve, start, step, max_steps):
    """Unmemoised horizon row: the expression the placers inlined."""
    deltas = np.arange(1, max_steps + 1, dtype=float) * step
    return (
        curve.misses_at(start) - curve.misses_at_many(start + deltas)
    ) / deltas


def _oracle(curve, start, step, max_steps, best_util):
    if max_steps < 1:
        return best_util, -1
    utils = _oracle_utils(curve, start, step, max_steps)
    return _oracle_chain_argbest(utils, best_util)


@st.composite
def _shaped_curves(draw):
    """Random monotone, flat, cliff and early-saturating curves."""
    n = draw(st.integers(min_value=2, max_value=40))
    step = draw(st.sampled_from([0.125, 0.25, 0.5, 1.0]))
    kind = draw(st.sampled_from(["monotone", "flat", "cliff", "saturated"]))
    level = st.floats(min_value=0.0, max_value=50.0)
    if kind == "monotone":
        values = sorted(draw(st.lists(level, min_size=n, max_size=n)),
                        reverse=True)
    elif kind == "flat":
        values = [draw(level)] * n
    elif kind == "cliff":
        at = draw(st.integers(min_value=1, max_value=n - 1))
        high, low = draw(level), draw(level)
        values = [max(high, low)] * at + [min(high, low)] * (n - at)
    else:
        knee = draw(st.integers(min_value=1, max_value=n - 1))
        top = draw(level)
        values = [top * (1 - i / knee) for i in range(knee)]
        values += [0.0] * (n - knee)
    return MissCurve(values, step)


@st.composite
def _scan_cases(draw):
    curve = draw(_shaped_curves())
    step = curve.step * draw(st.sampled_from([1.0, 0.5, 2.0, 1.5, 3.7]))
    bank_mb = draw(st.sampled_from([0.5, 1.0, 2.0]))
    lat = draw(st.floats(min_value=0.0, max_value=bank_mb * 0.99))
    start = draw(st.sampled_from([
        0.0,
        curve.step * draw(st.integers(0, curve.num_points - 1)),
        # Jumanji's off-grid batch starts: whole banks minus an LC share.
        max(draw(st.integers(1, 4)) * bank_mb - lat, 0.0),
        curve.max_size,
        curve.max_size + draw(st.sampled_from([step, 0.3, 10.0])),
    ]))
    longest = draw(st.integers(min_value=1, max_value=60))
    pattern = draw(st.sampled_from(
        ["shrinking", "growing", "repeated", "one", "random"]
    ))
    if pattern == "shrinking":
        steps = list(range(longest, 0, -max(1, longest // 5)))
    elif pattern == "growing":
        steps = list(range(1, longest + 1, max(1, longest // 5)))
    elif pattern == "repeated":
        steps = [longest] * 3
    elif pattern == "one":
        steps = [1, 1]
    else:
        steps = draw(st.lists(st.integers(1, 60), min_size=1, max_size=6))
    return curve, start, step, steps


class _YieldingDict(dict):
    def __delitem__(self, key):
        time.sleep(0)
        super().__delitem__(key)


def _store_bound(curve):
    return curve.num_points + _SCAN_HEADROOM


@pytest.fixture
def scans(monkeypatch):
    """Every ``(curve, start, step)`` that ``_scan_horizon`` scans."""
    seen = []
    real = MissCurve._scan_horizon

    def counted(curve, start, step, n):
        seen.append((curve.fingerprint, start, step))
        return real(curve, start, step, n)

    monkeypatch.setattr(MissCurve, "_scan_horizon", counted)
    return seen


class TestBestHorizon:
    @given(_scan_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_unmemoised_scan(self, case, data):
        curve, start, step, steps = case
        for max_steps in steps:
            utils = _oracle_utils(curve, start, step, max_steps)
            running = np.maximum.accumulate(utils)
            records = [0] + [
                k for k in range(1, max_steps) if utils[k] > running[k - 1]
            ]
            near = float(utils[data.draw(st.sampled_from(records))])
            incoming = data.draw(st.sampled_from([
                -1.0, 0.0, near, near - 1e-15, near - 5e-16,
                np.nextafter(near - 1e-15, np.inf),
                np.nextafter(near - 1e-15, -np.inf),
            ]))
            expected = _oracle(curve, start, step, max_steps, incoming)
            got = curve.best_horizon(start, step, max_steps, incoming)
            assert got == expected
            assert type(got[1]) is int

    def test_best_delta_is_the_scan_delta(self):
        curve = MissCurve([9.0, 9.0, 9.0, 1.0, 0.5], 0.25)
        util, idx = curve.best_horizon(0.0, 0.25, 4)
        deltas = np.arange(1, 5, dtype=float) * 0.25
        assert (idx + 1) * 0.25 == float(deltas[idx])
        assert (util, idx) == _oracle(curve, 0.0, 0.25, 4, -1.0)

    def test_other_step_at_a_stored_start(self):
        curve = MissCurve([9.0, 9.0, 4.0, 3.5, 1.0, 0.5, 0.0], 0.5)
        for step, max_steps in [(0.5, 6), (1.0, 3), (0.5, 2), (1.0, 1)]:
            assert curve.best_horizon(0.5, step, max_steps) == _oracle(
                curve, 0.5, step, max_steps, -1.0
            )

    def test_no_horizon_keeps_incoming_best(self):
        curve = MissCurve([3.0, 1.0])
        assert curve.best_horizon(0.0, 1.0, 0, 0.5) == (0.5, -1)

    def test_negative_start_raises(self):
        curve = MissCurve([3.0, 2.0, 1.0])
        curve.best_horizon(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            curve.best_horizon(-0.5, 1.0, 2)

    def test_short_scan_serves_a_longer_request(self, scans):
        curve = MissCurve(np.linspace(40.0, 0.0, 64) ** 2 / 40.0, 0.5)
        for max_steps in (1, 5, 40, curve.num_points - 3):
            assert curve.best_horizon(1.5, 0.5, max_steps) == _oracle(
                curve, 1.5, 0.5, max_steps, -1.0
            )
        assert len(scans) == 1

    def test_store_keeps_every_grid_start(self, scans):
        curve = MissCurve(np.linspace(40.0, 0.0, 64) ** 2 / 40.0, 0.5)
        grid = [0.5 * i for i in range(curve.num_points)]
        for _ in range(3):
            for start in grid:
                curve.best_horizon(start, 0.5, 8)
        assert len(scans) == curve.num_points

    def test_store_is_bounded_and_exact_after_eviction(self):
        curve = MissCurve(np.linspace(40.0, 0.0, 64) ** 2 / 40.0, 0.5)
        bound = _store_bound(curve)
        starts = [0.5 * i + 0.1 for i in range(3 * bound)]
        for start in starts:
            curve.best_horizon(start, 0.5, 20)
            assert len(curve._scans) <= bound
        assert len(curve._scans) == bound
        for start in starts:
            assert curve.best_horizon(start, 0.5, 20) == _oracle(
                curve, start, 0.5, 20, -1.0
            )

    def test_concurrent_scans_of_one_curve(self):
        curve = MissCurve(np.linspace(40.0, 0.0, 64) ** 2 / 40.0, 0.5)
        # A store that yields the GIL inside every eviction, so an
        # unserialised evict-and-insert would race on the same key.
        curve._scans = _YieldingDict()
        starts = [0.25 * i for i in range(4 * _store_bound(curve))]
        expected = {
            (s, m): _oracle(curve, s, 0.5, m, -1.0)
            for s in starts for m in (5, 30)
        }
        barrier = threading.Barrier(4, timeout=60)
        errors = []
        results = [[] for _ in range(4)]

        def work(t):
            try:
                barrier.wait()
                for _ in range(20):
                    for s in starts[t::2] + starts[::-3]:
                        for m in (30, 5):
                            got = curve.best_horizon(s, 0.5, m)
                            results[t].append(got == expected[(s, m)])
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(r and all(r) for r in results)
        assert len(curve._scans) <= _store_bound(curve)


class _YieldingOrderedDict(OrderedDict):
    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0)
        return value


class TestCombineCache:
    def test_concurrent_hits_and_evictions(self, monkeypatch):
        # A cache that yields the GIL between a hit's lookup and its
        # move to the end, and holds fewer entries than the keys in
        # play, so an unserialised eviction lands in that gap.
        monkeypatch.setattr(misscurve, "_COMBINE_CACHE",
                            _YieldingOrderedDict())
        monkeypatch.setattr(misscurve, "_COMBINE_CACHE_MAX", 4)
        groups = [
            [MissCurve(np.linspace(10.0 + i, 0.0, 8)),
             MissCurve([6.0, 6.0, 6.0, 1.0, 0.5, 0.5, 0.5, 0.0 + i / 20])]
            for i in range(12)
        ]
        expected = [combine_curves(g).values.tolist() for g in groups]
        barrier = threading.Barrier(4, timeout=60)
        errors = []
        results = [[] for _ in range(4)]

        def work(t):
            try:
                barrier.wait()
                for _ in range(30):
                    for i in list(range(t, 12)) + list(range(t)):
                        got = combine_curves(groups[i]).values.tolist()
                        results[t].append(got == expected[i])
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(r and all(r) for r in results)
        assert len(misscurve._COMBINE_CACHE) <= 4


def _mix(seed):
    return make_default_workload(
        list(random_lc_mix(seed)), mix_seed=seed, load="high"
    )


class TestScanCountOnModelRounds:
    """The placers' scans of a static workload are paid once.

    The same two mixes run twice through VM-Part (UCP Lookahead over VM
    curves) and Jumanji (``combine_curves`` and JumanjiLookahead) on
    the 20-bank chip. Every curve of the second pass is a curve of the
    first, so the second pass must replay every scan the first made.
    """

    def test_second_pass_rescans_nothing(self, scans):
        seeds = [7101, 7102]

        def one_pass():
            for design in ("VM-Part", "Jumanji"):
                run_model(design=design, workloads=[_mix(s) for s in seeds],
                          seeds=seeds, epochs=3)

        one_pass()
        first = set(scans)
        assert first
        del scans[:]
        one_pass()
        assert not first & set(scans)
