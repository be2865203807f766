"""Tests for trace generators and workload-mix construction."""

import pytest

from repro.config import SystemConfig
from repro.workloads.mixes import (
    base_app,
    build_vm_configuration,
    build_vms,
    corner_core_layout,
    instance_name,
    random_batch_mix,
    random_lc_mix,
)
from repro.workloads.spec import profile_names
from repro.workloads.tailbench import lc_profile_names
from repro.workloads.traces import (
    DoublePassTrace,
    MixedTrace,
    StreamingTrace,
    WorkingSetTrace,
    ZipfTrace,
)


class TestTraces:
    def test_streaming_wraps(self):
        t = StreamingTrace(4)
        assert t.lines(6) == [0, 1, 2, 3, 0, 1]

    def test_streaming_base_offset(self):
        t = StreamingTrace(4, base_line=100)
        assert t.next_line() == 100

    def test_working_set_bounded(self):
        t = WorkingSetTrace(16, seed=1)
        lines = t.lines(500)
        assert all(0 <= x < 16 for x in lines)
        assert len(set(lines)) > 8

    def test_working_set_deterministic(self):
        a = WorkingSetTrace(64, seed=5).lines(100)
        b = WorkingSetTrace(64, seed=5).lines(100)
        assert a == b

    def test_zipf_hot_lines_dominate(self):
        t = ZipfTrace(1000, alpha=1.2, seed=2)
        lines = t.lines(10_000)
        from collections import Counter

        counts = Counter(lines)
        top10 = sum(c for _, c in counts.most_common(10))
        assert top10 > 0.3 * len(lines)

    def test_zipf_bounds(self):
        t = ZipfTrace(100, seed=3)
        assert all(0 <= x < 100 for x in t.lines(1000))

    def test_double_pass_revisits_block(self):
        t = DoublePassTrace(footprint_lines=8, block_lines=4)
        assert t.lines(8) == [0, 1, 2, 3, 0, 1, 2, 3]
        assert t.lines(4) == [4, 5, 6, 7]

    def test_double_pass_wraps_footprint(self):
        t = DoublePassTrace(footprint_lines=4, block_lines=4)
        t.lines(8)
        assert t.next_line() == 0

    def test_double_pass_validation(self):
        with pytest.raises(ValueError):
            DoublePassTrace(4, block_lines=8)

    def test_mixed_draws_from_components(self):
        t = MixedTrace(
            [StreamingTrace(4), StreamingTrace(4, base_line=100)],
            weights=[1.0, 1.0],
            seed=4,
        )
        lines = t.lines(200)
        assert any(x < 4 for x in lines)
        assert any(x >= 100 for x in lines)

    def test_mixed_validation(self):
        with pytest.raises(ValueError):
            MixedTrace([])
        with pytest.raises(ValueError):
            MixedTrace([StreamingTrace(4)], weights=[1.0, 2.0])

    def test_lines_for_bytes(self):
        from repro.workloads.traces import AddressTrace

        assert AddressTrace.lines_for_bytes(64) == 1
        assert AddressTrace.lines_for_bytes(1024 * 1024) == 16384


class TestInstanceNames:
    def test_round_trip(self):
        name = instance_name("429.mcf", 7)
        assert name == "429.mcf#7"
        assert base_app(name) == "429.mcf"

    def test_base_app_without_index(self):
        assert base_app("xapian") == "xapian"


class TestRandomMixes:
    def test_batch_mix_has_sixteen(self):
        mix = random_batch_mix(0)
        assert len(mix) == 16
        assert all(name in profile_names() for name in mix)

    def test_batch_mix_deterministic(self):
        assert random_batch_mix(3) == random_batch_mix(3)

    def test_batch_mixes_differ(self):
        assert random_batch_mix(0) != random_batch_mix(1)

    def test_lc_mix(self):
        mix = random_lc_mix(0)
        assert len(mix) == 4
        assert all(name in lc_profile_names() for name in mix)


class TestCornerLayout:
    def test_four_quadrants_of_five(self):
        layout = corner_core_layout(SystemConfig())
        assert len(layout) == 4
        assert all(len(q) == 5 for q in layout)
        assert sorted(t for q in layout for t in q) == list(range(20))

    def test_corners_lead(self):
        layout = corner_core_layout(SystemConfig())
        leads = [q[0] for q in layout]
        assert leads == [0, 4, 15, 19]

    def test_each_call_returns_fresh_lists(self):
        config = SystemConfig()
        expected = [list(q) for q in corner_core_layout(config)]
        mutated = corner_core_layout(config)
        mutated[0].append(99)
        mutated.pop()
        assert corner_core_layout(config) == expected

    def test_quadrants_are_local(self):
        config = SystemConfig()
        layout = corner_core_layout(config)
        for quadrant in layout:
            corner_c, corner_r = config.tile_coords(quadrant[0])
            for tile in quadrant:
                c, r = config.tile_coords(tile)
                assert abs(c - corner_c) + abs(r - corner_r) <= 4


class TestBuildVms:
    def test_default_arrangement(self):
        vms = build_vms(
            ["xapian"] * 4, list(random_batch_mix(0)), SystemConfig()
        )
        assert len(vms) == 4
        for vm in vms:
            assert len(vm.lc_apps) == 1
            assert len(vm.batch_apps) == 4
            assert len(vm.cores) == 5

    def test_instance_names_unique(self):
        vms = build_vms(
            ["xapian"] * 4, list(random_batch_mix(0)), SystemConfig()
        )
        apps = [a for vm in vms for a in vm.apps]
        assert len(apps) == len(set(apps)) == 20

    def test_wrong_counts_rejected(self):
        cfg = SystemConfig()
        with pytest.raises(ValueError):
            build_vms(["xapian"] * 3, list(random_batch_mix(0)), cfg)
        with pytest.raises(ValueError):
            build_vms(["xapian"] * 4, ["403.gcc"] * 15, cfg)


class TestVmConfigurations:
    @pytest.mark.parametrize("num_vms", [1, 2, 4, 5, 10, 12])
    def test_all_paper_configurations(self, num_vms):
        cfg = SystemConfig()
        vms = build_vm_configuration(
            num_vms,
            list(random_lc_mix(0)),
            list(random_batch_mix(0)),
            cfg,
        )
        assert len(vms) == num_vms
        apps = [a for vm in vms for a in vm.apps]
        assert len(apps) == 20
        cores = [c for vm in vms for c in vm.cores]
        assert sorted(cores) == list(range(20))

    def test_twelve_vms_structure(self):
        """Paper: one VM per LC app plus one per pair of batch apps."""
        vms = build_vm_configuration(
            12, list(random_lc_mix(0)), list(random_batch_mix(0)),
            SystemConfig(),
        )
        lc_vms = [vm for vm in vms if vm.lc_apps]
        batch_vms = [vm for vm in vms if not vm.lc_apps]
        assert len(lc_vms) == 4
        assert len(batch_vms) == 8
        assert all(len(vm.batch_apps) == 2 for vm in batch_vms)

    def test_single_vm_holds_everything(self):
        vms = build_vm_configuration(
            1, list(random_lc_mix(0)), list(random_batch_mix(0)),
            SystemConfig(),
        )
        assert len(vms[0].lc_apps) == 4
        assert len(vms[0].batch_apps) == 16

    def test_out_of_range_rejected(self):
        cfg = SystemConfig()
        with pytest.raises(ValueError):
            build_vm_configuration(
                0, list(random_lc_mix(0)), list(random_batch_mix(0)),
                cfg,
            )
        with pytest.raises(ValueError):
            build_vm_configuration(
                13, list(random_lc_mix(0)), list(random_batch_mix(0)),
                cfg,
            )
