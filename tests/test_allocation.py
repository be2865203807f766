"""Tests for the allocation matrix.

Every behaviour test class runs twice: as written, on the dense
:class:`~repro.core.allocation.Allocation`, and through a ``...Reference``
subclass at the bottom, on the dict-of-dicts oracle
:class:`~repro.model.reference_allocation.ReferenceAllocation`.
``TestDenseMatchesOracle`` then drives both with random operation
sequences and requires ``==`` answers to every query.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.allocation import (
    Allocation,
    AllocationInvalid,
    stacked_app_terms,
)
from repro.model.reference_allocation import ReferenceAllocation
from repro.noc.mesh import MeshNoc


@pytest.fixture
def alloc(request):
    return request.cls.IMPL(SystemConfig())


def plant(alloc, bank, entries):
    """Write raw ``app -> MB`` entries into ``bank``, bypassing
    ``add()``'s checks, so ``validate()`` has something to catch."""
    if isinstance(alloc, ReferenceAllocation):
        alloc.allocs[bank] = dict(entries)
    else:
        for app, mb in entries.items():
            alloc._put(bank, app, mb)


@pytest.fixture
def noc():
    return MeshNoc(SystemConfig())


class TestBasics:
    IMPL = Allocation

    def test_empty(self, alloc):
        assert alloc.app_size("x") == 0.0
        assert alloc.apps() == []
        assert alloc.total_used() == 0.0

    def test_add_accumulates(self, alloc):
        alloc.add(0, "x", 0.25)
        alloc.add(0, "x", 0.25)
        assert alloc.allocs[0]["x"] == pytest.approx(0.5)
        assert alloc.app_size("x") == pytest.approx(0.5)

    def test_add_zero_is_noop(self, alloc):
        alloc.add(0, "x", 0.0)
        assert alloc.apps() == []

    def test_bank_capacity_enforced(self, alloc):
        alloc.add(0, "x", 1.0)
        with pytest.raises(ValueError):
            alloc.add(0, "y", 0.1)

    def test_bank_bounds(self, alloc):
        with pytest.raises(ValueError):
            alloc.add(99, "x", 0.1)
        with pytest.raises(ValueError):
            alloc.add(0, "x", -0.1)

    def test_bank_used_free(self, alloc):
        alloc.add(3, "x", 0.7)
        assert alloc.bank_used(3) == pytest.approx(0.7)
        assert alloc.bank_free(3) == pytest.approx(0.3)

    def test_app_banks_sorted(self, alloc):
        alloc.add(5, "x", 0.1)
        alloc.add(2, "x", 0.1)
        assert alloc.app_banks("x") == [2, 5]

    def test_apps_in_bank(self, alloc):
        alloc.add(0, "b", 0.1)
        alloc.add(0, "a", 0.1)
        assert alloc.apps_in_bank(0) == ["a", "b"]

    def test_partition_mode_validated(self):
        with pytest.raises(ValueError):
            self.IMPL(SystemConfig(), partition_mode="bogus")

    def test_validate_passes_for_legal(self, alloc):
        alloc.add(0, "x", 1.0)
        alloc.validate()


class TestNocDerived:
    IMPL = Allocation

    def test_local_allocation_zero_rtt(self, alloc, noc):
        alloc.add(0, "x", 1.0)
        assert alloc.avg_noc_rtt("x", 0, noc) == 0.0
        assert alloc.avg_noc_hops("x", 0, noc) == 0.0

    def test_weighted_by_fraction(self, alloc, noc):
        alloc.add(0, "x", 0.5)
        alloc.add(1, "x", 0.5)
        expected = 0.5 * noc.round_trip(0, 1)
        assert alloc.avg_noc_rtt("x", 0, noc) == pytest.approx(expected)

    def test_empty_app_uses_snuca_average(self, alloc, noc):
        rtt = alloc.avg_noc_rtt("ghost", 0, noc)
        snuca = sum(
            noc.round_trip(0, b) for b in range(20)
        ) / 20
        assert rtt == pytest.approx(snuca)

    def test_far_allocation_costs_more(self, alloc, noc):
        near = self.IMPL(SystemConfig())
        near.add(0, "x", 1.0)
        far = self.IMPL(SystemConfig())
        far.add(19, "x", 1.0)
        assert far.avg_noc_rtt("x", 0, noc) > near.avg_noc_rtt(
            "x", 0, noc
        )


class TestWaysPerBank:
    IMPL = Allocation

    def test_full_bank_is_full_ways(self, alloc):
        alloc.add(0, "x", 1.0)
        assert alloc.ways_per_bank("x") == pytest.approx(32.0)

    def test_striped_thin_partition(self, alloc):
        for bank in range(20):
            alloc.add(bank, "x", 0.125)
        assert alloc.ways_per_bank("x") == pytest.approx(4.0)

    def test_zero_for_empty(self, alloc):
        assert alloc.ways_per_bank("x") == 0.0

    def test_partition_groups_combine(self, alloc):
        alloc.add(0, "a", 0.25)
        alloc.add(0, "b", 0.25)
        alloc.partition_groups["a"] = "vm0"
        alloc.partition_groups["b"] = "vm0"
        # Each app sees the group's combined 0.5 MB -> 16 ways.
        assert alloc.ways_per_bank("a") == pytest.approx(16.0)

    def test_ungrouped_apps_see_own_ways(self, alloc):
        alloc.add(0, "a", 0.25)
        alloc.add(0, "b", 0.25)
        assert alloc.ways_per_bank("a") == pytest.approx(8.0)


class TestSecurityViews:
    IMPL = Allocation

    def test_bank_vms(self, alloc):
        alloc.add(0, "a", 0.2)
        alloc.add(0, "b", 0.2)
        alloc.add(1, "c", 0.2)
        vm_map = {"a": 0, "b": 1, "c": 1}
        assert alloc.bank_vms(vm_map) == {0: {0, 1}, 1: {1}}

    def test_isolation_violations(self, alloc):
        alloc.add(0, "a", 0.2)
        alloc.add(0, "b", 0.2)
        vm_map = {"a": 0, "b": 1}
        assert alloc.violates_bank_isolation(vm_map) == [0]

    def test_no_violation_when_same_vm(self, alloc):
        alloc.add(0, "a", 0.2)
        alloc.add(0, "b", 0.2)
        vm_map = {"a": 0, "b": 0}
        assert alloc.violates_bank_isolation(vm_map) == []


class TestValidationFailures:
    """validate()/add() raise AllocationInvalid naming the culprit."""

    IMPL = Allocation

    def test_add_out_of_range_names_bank_and_app(self, alloc):
        with pytest.raises(AllocationInvalid) as info:
            alloc.add(99, "x", 0.1)
        assert info.value.bank == 99
        assert info.value.app == "x"

    def test_add_over_commit_names_bank_and_app(self, alloc):
        alloc.add(0, "x", 1.0)
        with pytest.raises(AllocationInvalid) as info:
            alloc.add(0, "y", 0.1)
        assert info.value.bank == 0
        assert info.value.app == "y"

    def test_validate_detects_negative_entry(self, alloc):
        plant(alloc, 2, {"x": -0.5})
        with pytest.raises(AllocationInvalid) as info:
            alloc.validate()
        assert info.value.bank == 2
        assert info.value.app == "x"

    def test_validate_detects_out_of_range_bank(self, alloc):
        plant(alloc, 99, {"x": 0.5})
        with pytest.raises(AllocationInvalid) as info:
            alloc.validate()
        assert info.value.bank == 99

    def test_validate_detects_over_commit(self, alloc):
        plant(alloc, 1, {"x": 0.8, "y": 0.8})
        with pytest.raises(AllocationInvalid) as info:
            alloc.validate()
        assert info.value.bank == 1
        assert info.value.app in ("x", "y")

    def test_allocation_invalid_is_a_value_error(self, alloc):
        plant(alloc, 1, {"x": 2.0})
        with pytest.raises(ValueError):
            alloc.validate()

    def test_validate_isolation_names_bank_and_vms(self, alloc):
        alloc.add(4, "a", 0.2)
        alloc.add(4, "b", 0.2)
        vm_map = {"a": 0, "b": 1}
        with pytest.raises(AllocationInvalid) as info:
            alloc.validate_isolation(vm_map)
        assert info.value.bank == 4
        assert info.value.vms == (0, 1)

    def test_validate_isolation_passes_for_isolated(self, alloc):
        alloc.add(0, "a", 0.2)
        alloc.add(1, "b", 0.2)
        alloc.validate_isolation({"a": 0, "b": 1})


class TestDescriptors:
    IMPL = Allocation

    def test_descriptor_matches_allocation(self, alloc):
        alloc.add(0, "x", 0.75)
        alloc.add(1, "x", 0.25)
        desc = alloc.descriptor_for("x")
        assert desc.fraction_in(0) == pytest.approx(0.75, abs=0.01)
        assert desc.fraction_in(1) == pytest.approx(0.25, abs=0.01)

    def test_descriptor_for_empty_rejected(self, alloc):
        with pytest.raises(ValueError):
            alloc.descriptor_for("ghost")


class TestRemove:
    IMPL = Allocation

    def test_remove_keeps_bank_total_current(self, alloc):
        # A trade moving part of an LC chunk out of a bank, then a
        # batch app taking the freed space.
        alloc.add(0, "lc", 0.75)
        alloc.remove(0, "lc", 0.25)
        alloc.add(0, "b", 0.25)
        assert alloc.bank_used(0) == 0.75
        assert alloc.app_size("lc") == 0.5
        alloc.validate()

    def test_emptied_entry_keeps_its_place(self, alloc):
        alloc.add(0, "a", 0.25)
        alloc.add(0, "b", 0.25)
        alloc.remove(0, "a", 0.25)
        assert alloc.bank_items(0) == [("a", 0.0), ("b", 0.25)]
        assert alloc.apps_in_bank(0) == ["b"]
        assert alloc.apps() == ["b"]

    def test_remove_more_than_held_rejected(self, alloc):
        alloc.add(0, "a", 0.25)
        with pytest.raises(AllocationInvalid) as info:
            alloc.remove(0, "a", 0.5)
        assert (info.value.bank, info.value.app) == (0, "a")
        with pytest.raises(AllocationInvalid):
            alloc.remove(1, "a", 0.1)
        with pytest.raises(AllocationInvalid):
            alloc.remove(0, "ghost", 0.1)


class TestReadApi:
    IMPL = Allocation

    def test_get_and_bank_items_follow_grant_order(self, alloc):
        alloc.add(3, "b", 0.25)
        alloc.add(3, "a", 0.5)
        alloc.add(3, "b", 0.125)
        assert alloc.bank_items(3) == [("b", 0.375), ("a", 0.5)]
        assert alloc.get(3, "a") == 0.5
        assert alloc.get(3, "ghost") == 0.0
        assert alloc.get(4, "a") == 0.0
        assert alloc.bank_items(4) == []

    def test_app_grants_in_first_touch_order(self, alloc):
        alloc.add(7, "y", 0.25)
        alloc.add(2, "x", 0.5)
        alloc.add(7, "x", 0.25)
        assert alloc.app_grants("x") == [(7, 0.25), (2, 0.5)]
        assert alloc.app_banks("x") == [2, 7]
        assert alloc.app_grants("ghost") == []

    def test_untouched_sums_are_int_zero(self, alloc):
        assert type(alloc.bank_used(5)) is int
        assert type(alloc.app_size("x")) is int
        alloc.add(0, "y", 0.5)
        assert type(alloc.app_size("x")) is float


class TestBasicsReference(TestBasics):
    IMPL = ReferenceAllocation


class TestNocDerivedReference(TestNocDerived):
    IMPL = ReferenceAllocation


class TestWaysPerBankReference(TestWaysPerBank):
    IMPL = ReferenceAllocation


class TestSecurityViewsReference(TestSecurityViews):
    IMPL = ReferenceAllocation


class TestValidationFailuresReference(TestValidationFailures):
    IMPL = ReferenceAllocation


class TestDescriptorsReference(TestDescriptors):
    IMPL = ReferenceAllocation


class TestRemoveReference(TestRemove):
    IMPL = ReferenceAllocation


class TestReadApiReference(TestReadApi):
    IMPL = ReferenceAllocation


# -- dense matrix vs dict oracle ----------------------------------------------

_APPS = ("a", "b", "c", "d", "e")
_NUM_BANKS = SystemConfig().num_banks
_mb = st.one_of(
    st.sampled_from([0.0, 0.125, 0.25, 0.1, 1 / 3]),
    st.floats(min_value=0.0, max_value=0.4, allow_nan=False),
)
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, _NUM_BANKS - 1),
            st.sampled_from(_APPS),
            _mb,
        ),
        st.tuples(
            st.just("stripe"),
            st.sampled_from(_APPS),
            st.lists(_mb, min_size=_NUM_BANKS, max_size=_NUM_BANKS),
        ),
        st.tuples(
            st.just("stripes"),
            st.lists(st.sampled_from(_APPS), max_size=4),
            st.lists(
                st.lists(_mb, min_size=_NUM_BANKS, max_size=_NUM_BANKS),
                min_size=4,
                max_size=4,
            ),
        ),
        st.tuples(
            st.just("remove"),
            st.integers(0, _NUM_BANKS - 1),
            st.sampled_from(_APPS),
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),
            st.sampled_from([0.0, 5e-10, 1e-9]),
        ),
        st.tuples(
            st.just("group"),
            st.sampled_from(_APPS),
            st.sampled_from(["vm0", "vm1"]),
        ),
    ),
    max_size=40,
)


def _apply(alloc, op):
    """Run one operation; returns the error it raised, if any."""
    try:
        if op[0] == "add":
            alloc.add(op[1], op[2], op[3])
        elif op[0] == "stripe":
            alloc.add_stripe(op[1], op[2])
        elif op[0] == "stripes":
            alloc.add_stripes(op[1], op[2][: len(op[1])])
        elif op[0] == "remove":
            # None, half, all or twice what the entry holds, plus
            # nothing or an overshoot within the 1e-9 tolerance, which
            # leaves the cell just below zero.
            alloc.remove(
                op[1], op[2], alloc.get(op[1], op[2]) * op[3] + op[4]
            )
        else:
            alloc.partition_groups[op[1]] = op[2]
    except AllocationInvalid as exc:
        return (str(exc), exc.bank, exc.app)
    return None


def _outcome(call):
    """``(type, value)`` of a query, or the ValueError it raised."""
    try:
        value = call()
    except ValueError as exc:
        return ("raised", type(exc), str(exc))
    return (type(value), value)


def _answers(alloc, noc):
    """Every query, over every bank, every app and a few tiles."""
    vm_of = {a: i % 3 for i, a in enumerate(_APPS)}
    out = {
        "allocs": alloc.allocs,
        "apps": alloc.apps(),
        "total_used": _outcome(alloc.total_used),
        "bank_free_all": alloc.bank_free_all(),
        "bank_vms": alloc.bank_vms(vm_of),
        "violations": alloc.violates_bank_isolation(vm_of),
        "validate": _outcome(alloc.validate),
    }
    for bank in range(_NUM_BANKS):
        out["used", bank] = _outcome(lambda: alloc.bank_used(bank))
        out["free", bank] = alloc.bank_free(bank)
        out["items", bank] = alloc.bank_items(bank)
        out["in_bank", bank] = alloc.apps_in_bank(bank)
        for app in _APPS:
            out["get", bank, app] = alloc.get(bank, app)
    for app in _APPS:
        out["size", app] = _outcome(lambda: alloc.app_size(app))
        out["banks", app] = alloc.app_banks(app)
        out["grants", app] = alloc.app_grants(app)
        out["ways", app] = _outcome(lambda: alloc.ways_per_bank(app))
        out["desc", app] = _outcome(lambda: alloc.descriptor_for(app))
        for tile in (0, 7, 19):
            out["rtt", app, tile] = _outcome(
                lambda: alloc.avg_noc_rtt(app, tile, noc)
            )
            out["hops", app, tile] = _outcome(
                lambda: alloc.avg_noc_hops(app, tile, noc)
            )
    return out


class TestDenseMatchesOracle:
    """Random operation sequences give ``==`` answers on both classes:
    same values, same int-vs-float types, same errors."""

    @given(_ops)
    @settings(max_examples=150, deadline=None)
    def test_every_query_agrees(self, ops):
        config = SystemConfig()
        noc = MeshNoc(config)
        dense = Allocation(config, partition_mode="per-vm")
        oracle = ReferenceAllocation(config, partition_mode="per-vm")
        for op in ops:
            assert _apply(dense, op) == _apply(oracle, op)
        assert _answers(dense, noc) == _answers(oracle, noc)

    @given(_ops)
    @settings(max_examples=50, deadline=None)
    def test_every_intermediate_state_agrees(self, ops):
        config = SystemConfig()
        noc = MeshNoc(config)
        dense = Allocation(config)
        oracle = ReferenceAllocation(config)
        for op in ops:
            _apply(dense, op)
            _apply(oracle, op)
            assert dense.allocs == oracle.allocs
            for bank in range(_NUM_BANKS):
                assert dense.bank_used(bank) == oracle.bank_used(bank)
            for app in _APPS:
                assert dense.app_size(app) == oracle.app_size(app)
                assert dense.ways_per_bank(app) == oracle.ways_per_bank(
                    app
                )
                assert dense.avg_noc_rtt(
                    app, 3, noc
                ) == oracle.avg_noc_rtt(app, 3, noc)

    @given(st.lists(_ops, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_stacked_terms_and_bank_matrix_match_the_oracle(self, runs):
        # Several allocations stacked in one call, each asked about
        # every app (some never granted space, one unknown) from its
        # own tiles, answer what the oracle's one-app queries do.
        config = SystemConfig()
        noc = MeshNoc(config)
        pairs, snuca = noc.distance_tables
        apps = _APPS + ("ghost",)
        requests, want, tiles = [], [], []
        for k, ops in enumerate(runs):
            dense = Allocation(config, partition_mode="per-vm")
            oracle = ReferenceAllocation(config, partition_mode="per-vm")
            for op in ops:
                _apply(dense, op)
                _apply(oracle, op)
            requests.append((dense, apps))
            for i, app in enumerate(apps):
                tile = (3 * i + k) % config.num_cores
                tiles.append(tile)
                want.append((
                    oracle.app_size(app),
                    oracle.ways_per_bank(app),
                    oracle.avg_noc_rtt(app, tile, noc),
                    oracle.avg_noc_hops(app, tile, noc),
                ))
            mb, sizes = dense.bank_matrix(apps)
            assert mb.tolist() == [
                [oracle.get(b, a) for b in range(_NUM_BANKS)] for a in apps
            ]
            assert sizes.tolist() == [
                float(oracle.app_size(a)) for a in apps
            ]
        sizes, ways, rtt, hops = stacked_app_terms(
            requests,
            pairs[:, tiles, : config.num_banks],
            snuca[:, tiles],
        )
        got = list(zip(sizes, ways.tolist(), rtt.tolist(), hops.tolist()))
        assert got == want
        assert [type(s) for s in sizes] == [type(w[0]) for w in want]

    def test_cell_left_below_zero_by_a_remove(self):
        # Removing up to 1e-9 MB more than a cell holds is allowed and
        # leaves it slightly negative. The oracle's weighted sums skip
        # that cell but its app_size counts it.
        config = SystemConfig()
        noc = MeshNoc(config)
        dense = Allocation(config, partition_mode="per-vm")
        oracle = ReferenceAllocation(config, partition_mode="per-vm")
        for alloc in (dense, oracle):
            alloc.partition_groups.update(a="vm0", b="vm0")
            alloc.add(2, "a", 0.3)
            alloc.add(5, "a", 0.25)
            alloc.add(9, "a", 1 / 3)
            alloc.add(5, "b", 0.125)
            alloc.remove(5, "a", 0.25 + 8e-10)
        assert dense.get(5, "a") < 0
        assert _answers(dense, noc) == _answers(oracle, noc)

    def test_group_sums_follow_the_oracle_set_order(self):
        # Six group members with values whose float sum depends on the
        # order they are added in: both classes must walk the members
        # in ``partition_groups`` insertion order, never hash order.
        config = SystemConfig()
        dense = Allocation(config, partition_mode="per-vm")
        oracle = ReferenceAllocation(config, partition_mode="per-vm")
        members = ["m0", "m1", "m2", "m3", "m4", "m5"]
        values = [0.1, 0.2, 1 / 3, 1 / 7, 0.07, 1 / 11]
        for alloc in (dense, oracle):
            for k, app in enumerate(members):
                alloc.partition_groups[app] = "vm0"
                alloc.add_stripe(app, [
                    values[(k + b) % 6] * (0.8 + b / 97)
                    for b in range(config.num_banks)
                ])
        ways_per_mb = config.llc_bank_ways / config.llc_bank_mb
        for app in members:
            assert dense.ways_per_bank(app) == oracle.ways_per_bank(app)
            size = oracle.app_size(app)
            expected = 0.0
            for bank_map in oracle.allocs.values():
                group_mb = 0
                for member in members:
                    group_mb += bank_map.get(member, 0.0)
                expected += group_mb * ways_per_mb * (bank_map[app] / size)
            assert oracle.ways_per_bank(app) == expected
