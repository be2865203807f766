"""Golden fleet regression: pinned stats for one small scenario.

``tests/golden_fleet.json`` stores the full canonical result of one
8-chip x 50-epoch fleet run with churn, flash crowds, and correlated
rack failures — long enough that every fleet code path (admission,
rejection, departure, reschedule, SLA strikes, migration) executes.
The test re-runs the scenario and requires:

* integer counters and per-epoch counter deltas to match exactly;
* per-epoch floats (load factor, mean/p95 tail-vs-deadline ratio) to
  agree within 1e-9;
* zero invariant violations, then and now.

Any drift in chip seeding, scenario RNG streams, scheduler tie-breaks,
queueing arithmetic, or the controller fails loudly here, mirroring
``test_golden_results.py`` for the single-chip model. After an
*intentional* behaviour change, regenerate with::

    PYTHONPATH=src python tests/test_fleet_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.faults import FaultPlan
from repro.fleet import Scenario, run_fleet

pytestmark = pytest.mark.fleet

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent / "golden_fleet.json"
)
TOL = 1e-9

#: Small but eventful: every counter is non-zero at this scale/seed —
#: including the resilience paths (repairs, stragglers, deferred and
#: rejected arrivals, lost reschedules).
SCENARIO = Scenario(
    chips=8,
    epochs=50,
    seed=7,
    rack_size=2,
    initial_tenants=24,
    arrival_rate=1.0,
    mean_lifetime_epochs=12.0,
    flash_prob=0.1,
    admission_patience=3,
    pending_limit=8,
    fault_plan=FaultPlan(
        seed=7,
        chip_failure=0.02,
        chip_repair=0.7,
        chip_slow=0.05,
        repair_mttr_epochs=3.0,
    ),
)

FLOAT_FIELDS = ("load_factor", "mean_ratio", "p95_ratio")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return run_fleet(SCENARIO).canonical()


class TestFleetGolden:
    def test_scenario_pinned(self, golden):
        """The fixture belongs to this scenario (guards regeneration
        against accidentally pinning a different run)."""
        assert golden["scenario"] == SCENARIO.as_params()

    def test_counters_exact(self, golden, current):
        assert current["counters"] == golden["counters"]

    def test_no_invariant_violations(self, golden, current):
        assert golden["invariant_violations"] == []
        assert current["invariant_violations"] == []
        assert current["ok"] is True

    def test_epochs_match_golden(self, golden, current):
        assert len(current["epochs"]) == len(golden["epochs"])
        for got, want in zip(current["epochs"], golden["epochs"]):
            for key, pinned in want.items():
                if key in FLOAT_FIELDS:
                    assert got[key] == pytest.approx(
                        pinned, abs=TOL
                    ), f"epoch {want['epoch']}: {key} drifted"
                else:
                    assert got[key] == pinned, (
                        f"epoch {want['epoch']}: {key} changed"
                    )

    def test_scenario_is_eventful(self, golden):
        """The pinned run exercises every fleet counter, so the golden
        actually covers rejection/migration/failure paths."""
        nonzero = {
            name
            for name, value in golden["counters"].items()
            if value > 0
        }
        assert {
            "admissions",
            "departures",
            "sla_violations",
            "migrations",
            "chips_lost",
            "vms_rescheduled",
            "arrivals",
            "deferred",
            "rejections",
            "vms_lost",
            "repairs",
        } <= nonzero


#: The benchmark's fleet-churn scenario shrunk to 32 chips x 8 epochs:
#: arrivals at chips/32, flash crowds, rack failures that are always
#: repaired, and stragglers. Seed 2 loses and repairs chips, so the
#: reschedule and repair paths run.
BENCH_SHAPED = Scenario(
    chips=32,
    epochs=8,
    seed=2,
    arrival_rate=32 / 32,
    flash_prob=0.1,
    fault_plan=FaultPlan(
        seed=2,
        chip_failure=0.02,
        chip_repair=1.0,
        chip_slow=0.05,
        repair_mttr_epochs=3.0,
    ),
)

#: sha256 of ``run_fleet(BENCH_SHAPED).to_json()``. Unlike the golden
#: above (floats within 1e-9), this pins every byte, so any change to
#: the order or arithmetic of the fleet epoch shows.
BENCH_SHAPED_SHA256 = (
    "48308c5ebebe476bd4a675212b60315c644d0297fd71027f71f91ee0bf0424fc"
)


def test_bench_shaped_run_is_byte_pinned():
    result = run_fleet(BENCH_SHAPED)
    assert result.ok
    assert result.counters["repairs"] > 0
    assert result.counters["vms_rescheduled"] > 0
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    assert digest == BENCH_SHAPED_SHA256


def _regenerate() -> None:
    """Rewrite golden_fleet.json from the current fleet."""
    canonical = run_fleet(SCENARIO).canonical()
    payload = {
        "_comment": "Canonical result of the pinned 8-chip x "
        "50-epoch fleet scenario. Regenerate with "
        "PYTHONPATH=src python tests/test_fleet_golden.py "
        "after an intentional behaviour change.",
        **canonical,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    counters = canonical["counters"]
    print(f"wrote {GOLDEN_PATH}")
    print(
        "counters:",
        ", ".join(f"{k}={v}" for k, v in sorted(counters.items())),
    )


if __name__ == "__main__":
    _regenerate()
