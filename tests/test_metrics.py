"""Tests for evaluation metrics: speedup, gmean, vulnerability."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.allocation import Allocation
from repro.metrics.security import (
    bank_sharing_matrix,
    potential_attackers_per_access,
    potential_attackers_per_access_fast,
)
from repro.metrics.speedup import gmean, normalize, weighted_speedup


class TestWeightedSpeedup:
    def test_identity(self):
        ipcs = {"a": 1.0, "b": 0.5}
        assert weighted_speedup(ipcs, ipcs) == pytest.approx(1.0)

    def test_uniform_scaling(self):
        base = {"a": 1.0, "b": 0.5}
        fast = {"a": 1.2, "b": 0.6}
        assert weighted_speedup(fast, base) == pytest.approx(1.2)

    def test_mean_of_ratios(self):
        base = {"a": 1.0, "b": 1.0}
        mixed = {"a": 2.0, "b": 1.0}
        assert weighted_speedup(mixed, base) == pytest.approx(1.5)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup({"a": 1.0}, {"b": 1.0})

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup({"a": 1.0}, {"a": 0.0})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup({}, {})


class TestGmean:
    def test_single(self):
        assert gmean([4.0]) == pytest.approx(4.0)

    def test_pair(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            gmean([1.0, 0.0])
        with pytest.raises(ValueError):
            gmean([])

    @given(st.lists(
        st.floats(min_value=0.1, max_value=10.0), min_size=1,
        max_size=20,
    ))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_extremes(self, values):
        g = gmean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9


class TestNormalize:
    def test_ratio(self):
        out = normalize({"a": 2.0}, {"a": 4.0})
        assert out["a"] == pytest.approx(0.5)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            normalize({"a": 1.0}, {})


class TestVulnerability:
    def make_alloc(self):
        return Allocation(SystemConfig())

    def test_isolated_vms_zero(self):
        alloc = self.make_alloc()
        alloc.add(0, "a", 0.5)
        alloc.add(1, "b", 0.5)
        vm = {"a": 0, "b": 1}
        assert potential_attackers_per_access(alloc, vm) == 0.0

    def test_shared_bank_counts_other_vm_apps(self):
        alloc = self.make_alloc()
        alloc.add(0, "a", 0.5)
        alloc.add(0, "b", 0.5)
        vm = {"a": 0, "b": 1}
        # Each app sees one attacker in its only bank.
        assert potential_attackers_per_access(alloc, vm) == pytest.approx(
            1.0
        )

    def test_same_vm_apps_are_trusted(self):
        alloc = self.make_alloc()
        alloc.add(0, "a", 0.5)
        alloc.add(0, "b", 0.5)
        vm = {"a": 0, "b": 0}
        assert potential_attackers_per_access(alloc, vm) == 0.0

    def test_snuca_full_exposure(self):
        """All 20 apps of 4 VMs striped everywhere: 15 attackers."""
        alloc = self.make_alloc()
        vm = {}
        for i in range(20):
            app = f"app{i}"
            vm[app] = i // 5
            for bank in range(20):
                alloc.add(bank, app, 0.05)
        assert potential_attackers_per_access(alloc, vm) == pytest.approx(
            15.0
        )

    def test_weighted_by_bank_fraction(self):
        alloc = self.make_alloc()
        # Victim has 75% of its data in a clean bank, 25% exposed.
        alloc.add(0, "victim", 0.75)
        alloc.add(1, "victim", 0.25)
        alloc.add(1, "spy", 0.5)
        vm = {"victim": 0, "spy": 1}
        v = potential_attackers_per_access(alloc, vm)
        # victim: 0.25 exposure; spy: 1.0 (victim in its bank).
        assert v == pytest.approx((0.25 + 1.0) / 2)

    def test_access_weights(self):
        alloc = self.make_alloc()
        alloc.add(0, "victim", 0.5)
        alloc.add(0, "spy", 0.5)
        alloc.add(1, "quiet", 1.0)
        vm = {"victim": 0, "spy": 1, "quiet": 2}
        weighted = potential_attackers_per_access(
            alloc, vm, access_weights={"victim": 10.0, "spy": 0.0,
                                       "quiet": 0.0}
        )
        assert weighted == pytest.approx(1.0)

    def test_empty_allocation(self):
        assert potential_attackers_per_access(
            self.make_alloc(), {}
        ) == 0.0

    def test_bank_sharing_matrix(self):
        alloc = self.make_alloc()
        alloc.add(0, "a", 0.2)
        alloc.add(0, "b", 0.2)
        alloc.add(2, "c", 0.2)
        vm = {"a": 0, "b": 1, "c": 0}
        matrix = bank_sharing_matrix(alloc, vm)
        assert matrix == {0: 2, 2: 1}


@st.composite
def _alloc_and_layout(draw):
    """An allocation over some of a workload's apps (some granted
    nothing, some emptied by a remove, some left just below zero by a
    remove within its 1e-9 MB tolerance), the workload's VM map, and
    its access weights (``None``: uniform)."""
    n_apps = draw(st.integers(1, 8))
    apps = [f"app{k}" for k in range(n_apps)]
    vm = {a: draw(st.integers(0, 3)) for a in apps}
    alloc = Allocation(SystemConfig())
    for _ in range(draw(st.integers(0, 14))):
        app = draw(st.sampled_from(apps))
        bank = draw(st.integers(0, 19))
        mb = draw(st.sampled_from([0.05, 0.125, 0.25, 0.3]))
        if alloc.bank_free(bank) >= mb:
            alloc.add(bank, app, mb)
            if draw(st.booleans()) and draw(st.booleans()):
                overshoot = draw(st.sampled_from([0.0, 5e-10]))
                alloc.remove(bank, app, alloc.get(bank, app) + overshoot)
    weights = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {a: st.sampled_from([0.0, 0.5, 1.0, 3.0]) for a in apps}
            ),
        )
    )
    return alloc, vm, weights


class TestBatchedVulnerability:
    @given(st.lists(_alloc_and_layout(), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_per_allocation(self, cases):
        got = potential_attackers_per_access_fast(
            [c[0] for c in cases], [c[1] for c in cases],
            [c[2] for c in cases],
        )
        want = [potential_attackers_per_access(*c) for c in cases]
        assert got == want
