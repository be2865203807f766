"""Tests for WorkloadSpec and placement-context construction."""

import pytest

from repro.config import SystemConfig, VmSpec
from repro.model.workload import (
    WorkloadSpec,
    make_default_workload,
)
from repro.workloads.mixes import build_vms, random_batch_mix


class TestMakeDefaultWorkload:
    def test_single_lc_replicated(self):
        w = make_default_workload(["silo"], mix_seed=0)
        assert len(w.lc_apps) == 4
        assert all(a.startswith("silo#") for a in w.lc_apps)

    def test_four_lc_mixed(self):
        w = make_default_workload(
            ["silo", "xapian", "moses", "img-dnn"], mix_seed=0
        )
        assert len(w.lc_apps) == 4

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            make_default_workload(["silo", "xapian"], mix_seed=0)

    def test_batch_mix_from_seed(self):
        a = make_default_workload(["silo"], mix_seed=5)
        b = make_default_workload(["silo"], mix_seed=5)
        assert a.batch_apps == b.batch_apps

    def test_explicit_batch_apps(self):
        batch = ["403.gcc"] * 16
        w = make_default_workload(
            ["silo"], mix_seed=0, batch_apps=batch
        )
        assert all(a.startswith("403.gcc#") for a in w.batch_apps)

    def test_load_validation(self):
        with pytest.raises(ValueError):
            make_default_workload(["silo"], mix_seed=0, load="medium")


class TestWorkloadSpec:
    @pytest.fixture
    def spec(self):
        return make_default_workload(["xapian"], mix_seed=0)

    def test_tile_assignment_positional(self, spec):
        for vm in spec.vms:
            for core, app in zip(vm.cores, vm.apps):
                assert spec.tile_of(app) == core

    def test_lc_on_corner_tiles(self, spec):
        corners = {0, 4, 15, 19}
        for app in spec.lc_apps:
            assert spec.tile_of(app) in corners

    def test_vm_of(self, spec):
        for vm in spec.vms:
            for app in vm.apps:
                assert spec.vm_of(app) == vm.vm_id
        with pytest.raises(KeyError):
            spec.vm_of("ghost")

    def test_app_off_the_chip_rejected(self):
        vms = [
            VmSpec(
                vm, tuple(range(12 * vm, 12 * vm + 12)), (),
                tuple(f"403.gcc#{vm}.{k}" for k in range(12)),
            )
            for vm in range(2)
        ]
        with pytest.raises(ValueError, match="core 20"):
            WorkloadSpec(config=SystemConfig(), vms=vms)

    def test_qps_of_load(self):
        high = make_default_workload(["xapian"], 0, load="high")
        low = make_default_workload(["xapian"], 0, load="low")
        app_h = high.lc_apps[0]
        app_l = low.lc_apps[0]
        assert high.qps_of(app_h) == 570
        assert low.qps_of(app_l) == 130


class TestContextConstruction:
    @pytest.fixture
    def spec(self):
        return make_default_workload(["xapian"], mix_seed=0)

    def test_context_covers_all_apps(self, spec):
        ctx = spec.build_context({})
        assert set(ctx.apps) == set(spec.lc_apps) | set(spec.batch_apps)

    def test_lc_flags(self, spec):
        ctx = spec.build_context({})
        for app in spec.lc_apps:
            assert ctx.apps[app].is_lc
        for app in spec.batch_apps:
            assert not ctx.apps[app].is_lc

    def test_lat_sizes_plumbed(self, spec):
        sizes = {a: 1.25 for a in spec.lc_apps}
        ctx = spec.build_context(sizes)
        for app in spec.lc_apps:
            assert ctx.lat_size(app) == 1.25

    def test_lc_curves_scale_with_load(self):
        high = make_default_workload(["xapian"], 0, load="high")
        low = make_default_workload(["xapian"], 0, load="low")
        ch = high.build_context({}).apps[high.lc_apps[0]].curve
        cl = low.build_context({}).apps[low.lc_apps[0]].curve
        # Miss *rate* curves scale with QPS: high/low = 570/130.
        ratio = ch.misses_at(0.0) / cl.misses_at(0.0)
        assert ratio == pytest.approx(570 / 130, rel=1e-6)

    def test_batch_curves_in_miss_rate_units(self, spec):
        ctx = spec.build_context({})
        app = spec.batch_apps[0]
        profile = spec.batch_profile(app)
        curve = ctx.apps[app].curve
        # Curve = MPKI x estimated IPC: bounded by MPKI range.
        assert curve.misses_at(0.0) <= profile.mpki_max
        assert curve.misses_at(0.0) > 0

    def test_batch_intensity_positive(self, spec):
        ctx = spec.build_context({})
        for app in spec.batch_apps:
            assert ctx.apps[app].intensity > 0

    def test_context_validates_unknown_lat_app(self, spec):
        with pytest.raises(ValueError):
            spec.build_context({"ghost": 1.0})

    def test_vm_centroid_is_member_region(self, spec):
        ctx = spec.build_context({})
        for vm in ctx.vms:
            centroid = ctx.vm_centroid(vm)
            avg = sum(
                ctx.noc.hops(centroid, t) for t in vm.cores
            ) / len(vm.cores)
            assert avg <= 2.0


class TestCurveTable:
    """Miss curves are built once per process and shared by every spec
    with the same apps (the reference engine still rebuilds them)."""

    LC = ["xapian", "silo", "moses", "img-dnn"]

    def test_specs_with_same_apps_share_curves(self):
        a = make_default_workload(self.LC, mix_seed=3).build_context({})
        b = make_default_workload(self.LC, mix_seed=3).build_context({})
        for app, info in a.apps.items():
            assert b.apps[app].curve is info.curve
            assert b.apps[app].intensity == info.intensity

    def test_reference_engine_rebuilds(self):
        spec = make_default_workload(self.LC, mix_seed=3)
        fast = spec.build_context({})
        ref = spec.build_context({}, engine="reference")
        for app, info in fast.apps.items():
            assert ref.apps[app].curve is not info.curve
            assert ref.apps[app].curve.fingerprint == info.curve.fingerprint

    def test_batch_curve_follows_app_count(self):
        # The app count sets the fair share behind the IPC estimate, so
        # the same batch app on a less crowded chip gets its own curve.
        full = make_default_workload(["silo"], mix_seed=0)
        vm = full.vms[0]
        alone = WorkloadSpec(
            config=full.config,
            vms=[
                VmSpec(
                    vm_id=0,
                    cores=vm.cores,
                    lc_apps=vm.lc_apps,
                    batch_apps=vm.batch_apps[:1],
                )
            ],
        )
        app = vm.batch_apps[0]
        assert (
            alone.build_context({}).apps[app].curve.fingerprint
            != full.build_context({}).apps[app].curve.fingerprint
        )

    def test_shared_curves_give_identical_runs(self, monkeypatch):
        import repro.model.workload as workload_module
        from repro.model import run_model

        def run():
            spec = make_default_workload(self.LC, mix_seed=4)
            return run_model(design="Jumanji", workload=spec, epochs=6)

        run()  # fills the table
        shared = run()  # a new spec, every curve from the table
        monkeypatch.setattr(workload_module, "_CURVES", {})
        fresh = run()  # every curve built anew
        assert repr(fresh) == repr(shared)
