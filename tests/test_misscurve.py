"""Tests for miss curves: evaluation, hulls, and combination."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.misscurve import MissCurve, combine_curves


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
