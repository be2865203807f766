"""Tests for virtual caches, placement descriptors, and the VTB."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.vtb.vtb import (
    DESCRIPTOR_ENTRIES,
    PageTable,
    PlacementDescriptor,
    VirtualCache,
    Vtb,
    descriptor_from_allocation,
)


class TestPlacementDescriptor:
    def test_requires_128_entries(self):
        with pytest.raises(ValueError):
            PlacementDescriptor([0] * 64)

    def test_rejects_negative_banks(self):
        with pytest.raises(ValueError):
            PlacementDescriptor([-1] * DESCRIPTOR_ENTRIES)

    def test_single_bank_routes_everything_there(self):
        desc = PlacementDescriptor([5] * DESCRIPTOR_ENTRIES)
        for addr in range(0, 10_000, 97):
            assert desc.bank_for(addr) == 5

    def test_banks_listing(self):
        entries = [1] * 64 + [3] * 64
        desc = PlacementDescriptor(entries)
        assert desc.banks() == (1, 3)

    def test_fraction_in(self):
        entries = [1] * 32 + [2] * 96
        desc = PlacementDescriptor(entries)
        assert desc.fraction_in(1) == pytest.approx(0.25)
        assert desc.fraction_in(2) == pytest.approx(0.75)
        assert desc.fraction_in(9) == 0.0

    def test_deterministic_hash(self):
        desc = PlacementDescriptor(
            list(range(4)) * (DESCRIPTOR_ENTRIES // 4)
        )
        assert desc.bank_for(0xDEAD) == desc.bank_for(0xDEAD)

    def test_equality(self):
        a = PlacementDescriptor([0] * DESCRIPTOR_ENTRIES)
        b = PlacementDescriptor([0] * DESCRIPTOR_ENTRIES)
        assert a == b


class TestDescriptorFromAllocation:
    def test_proportions_respected(self):
        desc = descriptor_from_allocation({0: 1.0, 1: 3.0})
        assert desc.fraction_in(0) == pytest.approx(0.25, abs=0.01)
        assert desc.fraction_in(1) == pytest.approx(0.75, abs=0.01)

    def test_single_bank(self):
        desc = descriptor_from_allocation({7: 0.5})
        assert desc.banks() == (7,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            descriptor_from_allocation({})
        with pytest.raises(ValueError):
            descriptor_from_allocation({0: 0.0})

    def test_hash_spread_tracks_fractions(self):
        desc = descriptor_from_allocation({0: 1.0, 1: 1.0})
        counts = {0: 0, 1: 0}
        for addr in range(5000):
            counts[desc.bank_for(addr * 64)] += 1
        ratio = counts[0] / (counts[0] + counts[1])
        assert 0.4 < ratio < 0.6

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=19),
            st.floats(min_value=0.01, max_value=5.0),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_always_fills_descriptor(self, alloc):
        desc = descriptor_from_allocation(alloc)
        assert len(desc.entries) == DESCRIPTOR_ENTRIES
        assert set(desc.banks()) <= set(alloc)
        # Entry shares approximate allocation shares within rounding.
        total = sum(alloc.values())
        for bank, mb in alloc.items():
            expected = mb / total
            actual = desc.fraction_in(bank)
            assert abs(actual - expected) <= 1.0 / 64


def _interleave_loop(counts):
    """The original pass-by-pass round-robin: each pass appends, in
    bank order, every bank with entries left."""
    entries = []
    remaining = {b: c for b, c in counts.items() if c > 0}
    order = sorted(remaining)
    while len(entries) < DESCRIPTOR_ENTRIES:
        for b in order:
            if remaining[b] > 0:
                entries.append(b)
                remaining[b] -= 1
    return entries[:DESCRIPTOR_ENTRIES]


class TestDescriptorInterleave:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=63),
            st.one_of(
                st.floats(min_value=1e-6, max_value=5.0),
                st.sampled_from([0.0, 0.125, 0.25, 1 / 3]),
            ),
            min_size=1,
            max_size=40,
        ).filter(lambda a: any(v > 0 for v in a.values()))
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_pass_by_pass_loop(self, alloc):
        desc = descriptor_from_allocation(alloc)
        counts = {b: desc.entries.count(b) for b in alloc}
        assert list(desc.entries) == _interleave_loop(counts)


class TestVtb:
    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            Vtb().lookup(3)

    def test_install_and_lookup(self):
        vtb = Vtb()
        desc = PlacementDescriptor([2] * DESCRIPTOR_ENTRIES)
        vtb.install(1, desc)
        assert vtb.lookup(1) is desc
        assert vtb.bank_for(1, 0x40) == 2

    def test_update_reports_vacated_banks(self):
        vtb = Vtb()
        vtb.install(1, PlacementDescriptor([2] * DESCRIPTOR_ENTRIES))
        dirty = vtb.update(
            1, PlacementDescriptor([3] * DESCRIPTOR_ENTRIES)
        )
        assert dirty == (2,)

    def test_update_no_change_no_dirty(self):
        vtb = Vtb()
        desc = PlacementDescriptor([2] * DESCRIPTOR_ENTRIES)
        vtb.install(1, desc)
        assert vtb.update(1, desc) == ()

    def test_first_update_without_install(self):
        vtb = Vtb()
        dirty = vtb.update(
            9, PlacementDescriptor([0] * DESCRIPTOR_ENTRIES)
        )
        assert dirty == ()

    def test_partial_move(self):
        vtb = Vtb()
        half = [0] * 64 + [1] * 64
        vtb.install(1, PlacementDescriptor(half))
        moved = [0] * 64 + [2] * 64
        dirty = vtb.update(1, PlacementDescriptor(moved))
        assert dirty == (1,)

    def test_vc_ids(self):
        vtb = Vtb()
        vtb.install(4, PlacementDescriptor([0] * DESCRIPTOR_ENTRIES))
        vtb.install(1, PlacementDescriptor([0] * DESCRIPTOR_ENTRIES))
        assert vtb.vc_ids() == (1, 4)


class TestPageTable:
    def test_page_of(self):
        pt = PageTable(page_bits=12)
        assert pt.page_of(0x0) == 0
        assert pt.page_of(0xFFF) == 0
        assert pt.page_of(0x1000) == 1

    def test_map_and_lookup(self):
        pt = PageTable()
        assert pt.map_page(5, 1) is None
        assert pt.vc_of_page(5) == 1
        assert pt.vc_of_address(5 * 4096 + 17) == 1

    def test_remap_returns_old(self):
        pt = PageTable()
        pt.map_page(5, 1)
        assert pt.map_page(5, 2) == 1

    def test_unmapped_raises(self):
        with pytest.raises(KeyError):
            PageTable().vc_of_page(3)

    def test_pages_of_vc(self):
        pt = PageTable()
        pt.map_page(1, 7)
        pt.map_page(9, 7)
        pt.map_page(2, 8)
        assert pt.pages_of_vc(7) == (1, 9)

    def test_page_bits_validation(self):
        with pytest.raises(ValueError):
            PageTable(page_bits=3)


class TestVirtualCache:
    def test_repr_and_bank_for(self):
        vc = VirtualCache(
            3, PlacementDescriptor([4] * DESCRIPTOR_ENTRIES)
        )
        assert vc.bank_for(0x123) == 4
        assert "3" in repr(vc)
