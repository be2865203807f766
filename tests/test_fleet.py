"""Unit tests for the rack-scale fleet layer (repro.fleet).

Covers the building blocks individually — scenario generation and
validation, per-chip capacity accounting and churn, the least-loaded
scheduler — plus the end-to-end surfaces: ``Fleet.run`` invariants,
``repro fleet run`` byte-identical stdout, and the fleet bench gate.
The property/chaos/golden suites build on these in
``test_fleet_properties.py`` / ``test_fleet_faults.py`` /
``test_fleet_golden.py``.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.fleet import (
    ClusterScheduler,
    Fleet,
    FleetChip,
    Scenario,
    TenantSpec,
    TenantVM,
    run_fleet,
    small_chip_config,
)
from repro.fleet.chip import chip_deadline_cycles

pytestmark = pytest.mark.fleet


def make_vm(tenant_id, batch=(), lifetime=5, lc_app="xapian"):
    return TenantVM(
        tenant_id=tenant_id,
        lc_app=lc_app,
        batch_apps=tuple(batch),
        arrival_epoch=0,
        lifetime_epochs=lifetime,
    )


class TestScenario:
    def test_defaults_resolve(self):
        sc = Scenario(chips=32, epochs=4)
        assert sc.initial_count == 32
        assert sc.mean_arrivals == 2.0
        assert sc.num_racks == 4
        assert sc.rack_of(0) == 0
        assert sc.rack_of(31) == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chips": 0},
            {"epochs": 0},
            {"initial_tenants": -1},
            {"arrival_rate": -0.5},
            {"mean_lifetime_epochs": 0.0},
            {"max_batch_apps": -1},
            {"diurnal_amplitude": 1.0},
            {"diurnal_period_epochs": 0},
            {"flash_prob": 1.5},
            {"flash_magnitude": 0.5},
            {"flash_epochs": 0},
            {"rack_size": 0},
            {"sla_threshold": 0.0},
            {"migration_patience": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            Scenario(**kwargs)

    def test_tenant_spec_validation(self):
        with pytest.raises(ConfigError):
            TenantSpec("not-an-app", (), 5)
        with pytest.raises(ConfigError):
            TenantSpec("xapian", (), 0)

    def test_draws_are_order_independent(self):
        sc = Scenario(chips=16, epochs=8, seed=3, flash_prob=0.2)
        forward = [sc.arrivals(e) for e in range(8)]
        backward = [sc.arrivals(e) for e in reversed(range(8))]
        assert forward == list(reversed(backward))
        assert sc.initial_tenant_specs() == sc.initial_tenant_specs()

    def test_load_factor_diurnal_and_floor(self):
        sc = Scenario(
            chips=4, epochs=4, diurnal_amplitude=0.5,
            diurnal_period_epochs=4,
        )
        assert sc.load_factor(0) == pytest.approx(1.0)
        assert sc.load_factor(1) == pytest.approx(1.5)
        assert sc.load_factor(3) == pytest.approx(0.5)
        assert sc.load_factor(0) >= 0.05

    def test_flash_boosts_load(self):
        calm = Scenario(chips=4, epochs=4, seed=1, flash_prob=0.0)
        stormy = Scenario(chips=4, epochs=4, seed=1, flash_prob=1.0)
        assert not calm.in_flash(0)
        assert stormy.in_flash(0)
        assert stormy.load_factor(0) == pytest.approx(
            calm.load_factor(0) * stormy.flash_load_boost
        )

    def test_rack_correlated_failures(self):
        sc = Scenario(
            chips=16,
            epochs=4,
            rack_size=4,
            fault_plan=FaultPlan(seed=0, chip_failure=1.0),
        )
        failed = sc.chip_failures(0)
        assert failed == list(range(16))  # p=1: every rack fires
        # Whole racks at a time: failures arrive in rack-sized runs.
        racks = {sc.rack_of(c) for c in failed}
        for rack in racks:
            block = range(rack * 4, min((rack + 1) * 4, 16))
            assert all(c in failed for c in block)
        assert Scenario(chips=16, epochs=4).chip_failures(0) == []

    def test_params_roundtrip(self):
        sc = Scenario(
            chips=8,
            epochs=3,
            seed=9,
            flash_prob=0.25,
            fault_plan=FaultPlan(seed=9, chip_failure=0.1),
        )
        clone = Scenario.from_params(sc.as_params())
        assert clone == sc
        json.dumps(sc.as_params())  # JSON-canonical
        with pytest.raises(ConfigError):
            Scenario.from_params({"chips": 8, "warp_drive": True})


class TestFleetChip:
    def test_admit_release_capacity(self):
        chip = FleetChip(0)
        assert chip.free_cores == 4
        vm = make_vm(1, batch=("429.mcf",))
        assert chip.can_admit(vm)
        chip.admit(vm)
        assert chip.free_cores == 2
        assert chip.used_cores == 2
        # Core budget enforced.
        fat = make_vm(2, batch=("403.gcc",) * 3)  # needs 4 cores
        assert not chip.can_admit(fat)
        with pytest.raises(ConfigError):
            chip.admit(fat)
        # Duplicate admission rejected.
        with pytest.raises(ConfigError):
            chip.admit(vm)
        released, sim = chip.release(1)
        assert released == vm
        assert chip.free_cores == 4
        with pytest.raises(KeyError):
            chip.release(1)

    def test_bank_budget_caps_tenant_count(self):
        # One private bank per VM is a hard floor independent of
        # cores: with all four bank slots taken, fabricated spare
        # cores still must not admit a fifth tenant.
        chip = FleetChip(0)
        for tid in range(4):
            chip.admit(make_vm(tid))
        assert chip.free_cores == 0
        chip._free_cores.append(99)  # white-box: pretend a core freed
        assert chip.free_cores == 1
        assert not chip.can_admit(make_vm(5))

    def test_tick_returns_ratios_and_feeds_controller(self):
        chip = FleetChip(0, seed=3)
        chip.admit(make_vm(0))
        chip.admit(make_vm(1, lc_app="moses"))
        ratios = chip.tick(0)
        assert set(ratios) == {0, 1}
        for ratio in ratios.values():
            assert ratio >= 0.0
        # The runtime saw both tenants' completions.
        assert chip.runtime.controller.sizes().keys() == {
            "xapian#t0", "moses#t1"
        }

    def test_tick_empty_and_dead(self):
        chip = FleetChip(0)
        assert chip.tick(0) == {}
        chip.admit(make_vm(0))
        displaced = chip.fail()
        assert [vm.tenant_id for vm in displaced] == [0]
        assert chip.free_cores == 4
        assert not chip.can_admit(make_vm(1))
        with pytest.raises(ConfigError):
            chip.tick(1)

    def test_release_unregisters_controller_state(self):
        chip = FleetChip(0)
        chip.admit(make_vm(0))
        chip.tick(0)
        chip.release(0)
        assert chip.runtime.controller.sizes() == {}

    def test_chip_deadline_uses_chip_hardware(self):
        small = chip_deadline_cycles("xapian", small_chip_config())
        assert small > 0
        # Cached: same (app, config) key returns the identical object.
        assert chip_deadline_cycles(
            "xapian", small_chip_config()
        ) == small


class TestClusterScheduler:
    def test_least_loaded_first(self):
        chips = [FleetChip(i) for i in range(3)]
        chips[0].admit(make_vm(10, batch=("429.mcf",)))
        chips[2].admit(make_vm(11))
        pick = ClusterScheduler().select(make_vm(12), chips)
        assert pick is chips[1]  # 4 free cores beats 2 and 3

    def test_ties_break_low_id_and_full_fleet(self):
        chips = [FleetChip(i) for i in range(2)]
        pick = ClusterScheduler().select(make_vm(0), chips)
        assert pick is chips[0]
        for chip in chips:
            for tid in range(4):
                chip.admit(make_vm(chip.chip_id * 10 + tid))
        assert ClusterScheduler().select(make_vm(99), chips) is None

    def test_skips_dead_chips(self):
        chips = [FleetChip(i) for i in range(2)]
        chips[0].fail()
        pick = ClusterScheduler().select(make_vm(0), chips)
        assert pick is chips[1]


class TestFleetRun:
    def test_run_is_clean_and_conserves(self):
        sc = Scenario(chips=6, epochs=4, seed=11)
        fleet = Fleet(sc)
        result = fleet.run()
        assert result.ok
        assert len(result.epochs) == 4
        assert result.counters["admissions"] >= sc.initial_count
        # Registry and chips agree at the end.
        resident = sum(len(c.tenants) for c in fleet.chips)
        assert resident == len(fleet.tenant_chip)
        assert fleet.audit(sc.epochs) == []

    def test_setup_guards(self):
        fleet = Fleet(Scenario(chips=2, epochs=2))
        with pytest.raises(ConfigError):
            fleet.step(0)
        fleet.setup()
        with pytest.raises(ConfigError):
            fleet.setup()

    def test_audit_catches_divergence(self):
        fleet = Fleet(Scenario(chips=2, epochs=2, initial_tenants=2))
        fleet.setup()
        fleet.chips[fleet.tenant_chip[0]].release(0)  # behind its back
        problems = fleet.audit(0)
        assert any("divergence" in p for p in problems)

    def test_overfull_arrivals_defer_then_reject(self):
        # 1 chip, 4 banks, 10 initial tenants: at most 4 admitted;
        # the rest wait in the pending queue (backpressure) and are
        # rejected only when their admission patience runs out.
        sc = Scenario(
            chips=1,
            epochs=4,
            initial_tenants=10,
            arrival_rate=0.0,
            mean_lifetime_epochs=50.0,
            admission_patience=2,
        )
        fleet = Fleet(sc)
        fleet.setup()
        counters = fleet.counters
        assert counters["admissions"] <= 4
        assert counters["rejections"] == 0
        deferred = len(fleet.pending)
        assert (
            counters["admissions"] + deferred
            == counters["arrivals"]
            == 10
        )
        assert counters["deferred"] == deferred
        # Nobody departs, so patience expires the whole queue — as
        # audited rejections, not silent drops.
        for epoch in range(sc.epochs):
            fleet.step(epoch)
        assert len(fleet.pending) == 0
        assert counters["rejections"] == deferred
        assert fleet.audit(sc.epochs) == []

    def test_overflow_of_pending_queue_rejects(self):
        sc = Scenario(
            chips=1,
            epochs=1,
            initial_tenants=10,
            arrival_rate=0.0,
            pending_limit=2,
        )
        fleet = Fleet(sc)
        fleet.setup()
        counters = fleet.counters
        assert counters["admissions"] <= 4
        assert counters["deferred"] == 2
        assert len(fleet.pending) == 2
        assert (
            counters["admissions"] + 2 + counters["rejections"] == 10
        )

    def test_run_fleet_helper_matches_fleet_run(self):
        sc = Scenario(chips=4, epochs=3, seed=5)
        assert (
            run_fleet(sc).to_json() == Fleet(sc).run().to_json()
        )


class TestFleetCli:
    ARGS = [
        "fleet", "run", "--chips", "4", "--epochs", "3",
        "--seed", "7",
    ]

    def test_stdout_byte_identical_across_runs(self, capsys):
        assert main(list(self.ARGS)) == 0
        first = capsys.readouterr().out
        assert main(list(self.ARGS)) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["ok"] is True
        assert payload["scenario"]["chips"] == 4

    def test_stats_out_and_chip_failures(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        rc = main(
            self.ARGS
            + ["--chip-failure", "0.3", "--rack-size", "2",
               "--stats-out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        plan = payload["scenario"]["fault_plan"]
        assert plan["chip_failure"] == 0.3
        assert payload["scenario"]["rack_size"] == 2
