"""Edge-case coverage across modules: empty VMs, env knobs, CLI paths."""

import pytest

from repro.config import SystemConfig, VmSpec
from repro.core.context import AppInfo, PlacementContext
from repro.core.designs import make_design
from repro.core.jumanji import jumanji_placer
from repro.cache.misscurve import MissCurve
from repro.noc.mesh import MeshNoc


def lc_only_context():
    """Twelve-VM style layout: some VMs have no batch apps at all."""
    config = SystemConfig()
    noc = MeshNoc(config)
    curve = MissCurve([1.0 / (1 + i) for i in range(176)], 0.125)
    vms = [
        VmSpec(0, (0,), ("lc0",), ()),
        VmSpec(1, (19,), ("lc1",), ()),
        VmSpec(2, (4, 3), (), ("b0", "b1")),
    ]
    apps = {
        "lc0": AppInfo("lc0", 0, 0, True, curve, 1.0),
        "lc1": AppInfo("lc1", 19, 1, True, curve, 1.0),
        "b0": AppInfo("b0", 4, 2, False, curve.scaled(10), 10.0),
        "b1": AppInfo("b1", 3, 2, False, curve.scaled(10), 10.0),
    }
    return PlacementContext(
        config=config,
        noc=noc,
        vms=vms,
        apps=apps,
        lat_sizes={"lc0": 1.0, "lc1": 1.5},
    )


class TestLcOnlyVms:
    def test_jumanji_handles_batchless_vms(self):
        ctx = lc_only_context()
        alloc = jumanji_placer(ctx)
        alloc.validate()
        assert alloc.violates_bank_isolation(ctx.vm_of_app_map()) == []
        assert alloc.app_size("lc0") == pytest.approx(1.0)
        assert alloc.app_size("lc1") == pytest.approx(1.5)

    def test_every_bank_still_owned(self):
        ctx = lc_only_context()
        alloc = jumanji_placer(ctx)
        owned = alloc.bank_vms(ctx.vm_of_app_map())
        # Batch apps exist in VM 2, so all banks get an owner via the
        # round-robin leftover assignment.
        assert len(owned) >= 3


class TestContextValidation:
    def test_missing_app_info_rejected(self):
        config = SystemConfig()
        with pytest.raises(ValueError):
            PlacementContext(
                config=config,
                noc=MeshNoc(config),
                vms=[VmSpec(0, (0,), ("ghost",), ())],
                apps={},
            )

    def test_negative_lat_size_rejected(self):
        config = SystemConfig()
        curve = MissCurve([1.0, 0.5])
        with pytest.raises(ValueError):
            PlacementContext(
                config=config,
                noc=MeshNoc(config),
                vms=[VmSpec(0, (0,), ("a",), ())],
                apps={"a": AppInfo("a", 0, 0, True, curve, 1.0)},
                lat_sizes={"a": -1.0},
            )

    def test_vm_by_id_unknown(self):
        ctx = lc_only_context()
        with pytest.raises(KeyError):
            ctx.vm_by_id(99)

    def test_negative_intensity_rejected(self):
        curve = MissCurve([1.0, 0.5])
        with pytest.raises(ValueError):
            AppInfo("a", 0, 0, True, curve, -1.0)


class TestScaleTable:
    def test_named_scales(self):
        from repro.experiments.common import SCALES

        assert {n: (s.mixes, s.epochs) for n, s in SCALES.items()} == {
            "smoke": (2, 10),
            "paper": (40, 25),
        }

    def test_sweep_defaults_are_paper_scale(self):
        import inspect

        from repro.experiments import fig13, fig17
        from repro.experiments.common import run_sweep

        for fn in (run_sweep, fig13.run, fig17.run):
            params = inspect.signature(fn).parameters
            assert (params["mixes"].default, params["epochs"].default) == (
                40, 25)


class TestDesignsOnUnusualWorkloads:
    @pytest.mark.parametrize(
        "design", ["Static", "Adaptive", "VM-Part", "Jigsaw", "Jumanji"]
    )
    def test_all_designs_survive_lc_only_vms(self, design):
        ctx = lc_only_context()
        alloc = make_design(design).allocate(ctx)
        alloc.validate()

    def test_runresult_empty_latencies_infinite_tail(self):
        from repro.model.system import RunResult

        result = RunResult(
            design="X",
            load="high",
            epochs=[],
            lc_deadlines={"a": 1.0},
            lc_all_latencies={"a": []},
            warmup_epochs=0,
        )
        assert result.lc_tail("a") == float("inf")
        assert result.lc_tail_raw("a") == float("inf")
