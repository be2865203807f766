"""End-to-end tests of the epoch-level system model."""

import pytest

from repro.config import ControllerConfig
from repro.metrics.speedup import weighted_speedup
from repro.model.api import run_model
from repro.model.system import SystemModel, compute_deadline_cycles
from repro.model.workload import make_default_workload
from repro.core.designs import make_design


@pytest.fixture(scope="module")
def workload():
    return make_default_workload(["xapian"], mix_seed=0, load="high")


@pytest.fixture(scope="module")
def static_result(workload):
    return run_model(design="Static", workload=workload, epochs=12, seed=1)


@pytest.fixture(scope="module")
def jumanji_result(workload):
    return run_model(design="Jumanji", workload=workload, epochs=12, seed=1)


@pytest.fixture(scope="module")
def jigsaw_result(workload):
    # Longer run than the others: Jigsaw's starved queues are unstable,
    # so its violations grow with simulated time (Fig. 4a).
    return run_model(design="Jigsaw", workload=workload, epochs=20, seed=1)


class TestDeadlines:
    def test_deadline_is_cached(self):
        a = compute_deadline_cycles("xapian")
        b = compute_deadline_cycles("xapian")
        assert a == b

    def test_deadline_cache_is_bounded(self):
        # A long-lived driver sweeping seeds or router delays must not
        # grow the memo without limit.
        from repro.model.system import _deadline_cached

        assert _deadline_cached.cache_info().maxsize is not None

    def test_deadline_positive_for_all_apps(self):
        for name in ("masstree", "xapian", "img-dnn", "silo", "moses"):
            assert compute_deadline_cycles(name) > 0

    def test_deadline_scales_with_service_time(self):
        # img-dnn queries are much longer than silo's (lower QPS).
        assert compute_deadline_cycles(
            "img-dnn"
        ) > compute_deadline_cycles("silo")


class TestRunResult:
    def test_epoch_count(self, static_result):
        assert len(static_result.epochs) == 12

    def test_static_rides_at_deadline(self, static_result):
        for app in static_result.lc_deadlines:
            assert 0.6 < static_result.lc_tail_normalized(app) < 1.4

    def test_jumanji_meets_deadlines(self, jumanji_result):
        assert jumanji_result.worst_lc_violation() < 1.3

    def test_jigsaw_violates_xapian(self, jigsaw_result):
        assert jigsaw_result.worst_lc_violation() > 1.3

    def test_jumanji_beats_static_batch(
        self, static_result, jumanji_result
    ):
        speedup = weighted_speedup(
            jumanji_result.batch_ipcs(), static_result.batch_ipcs()
        )
        assert speedup > 1.05

    def test_vulnerability_ordering(
        self, static_result, jumanji_result, jigsaw_result
    ):
        assert static_result.avg_vulnerability() == pytest.approx(15.0)
        assert jumanji_result.avg_vulnerability() == 0.0
        assert 0 < jigsaw_result.avg_vulnerability() < 3.0

    def test_jumanji_needs_less_lc_space_than_static(
        self, static_result, jumanji_result
    ):
        assert jumanji_result.avg_lc_size() < static_result.avg_lc_size()

    def test_energy_positive(self, jumanji_result):
        energy = jumanji_result.total_energy()
        assert energy.total > 0
        assert energy.mem > 0
        assert energy.noc > 0

    def test_tail_raw_at_least_windowed(self, static_result):
        for app in static_result.lc_deadlines:
            assert static_result.lc_tail_raw(
                app
            ) >= static_result.lc_tail(app)

    def test_deterministic_across_runs(self, workload):
        a = run_model(design="Jumanji", workload=workload, epochs=5, seed=3)
        b = run_model(design="Jumanji", workload=workload, epochs=5, seed=3)
        assert a.batch_ipcs() == b.batch_ipcs()
        for app in a.lc_deadlines:
            assert a.lc_tail(app) == b.lc_tail(app)


class TestIdealBatch:
    def test_runs_and_isolates(self, workload):
        result = run_model(
            design="Jumanji: Ideal Batch", workload=workload,
            epochs=8, seed=1,
        )
        assert result.avg_vulnerability() == 0.0
        assert result.worst_lc_violation() < 1.3


class TestControllerConfigPlumbing:
    def test_custom_controller_config(self, workload):
        cfg = ControllerConfig(step=0.05)
        model = SystemModel(
            make_design("Jumanji"), workload, seed=1,
            controller_config=cfg,
        )
        assert model.runtime.controller.config.step == 0.05

    def test_epoch_validation(self, workload):
        model = SystemModel(make_design("Static"), workload, seed=1)
        with pytest.raises(ValueError):
            model.run(0)


class TestLoadLevels:
    def test_low_load_needs_less_space(self):
        workload = make_default_workload(
            ["xapian"], mix_seed=0, load="low"
        )
        result = run_model(
            design="Jumanji", workload=workload, epochs=12, seed=1
        )
        assert result.avg_lc_size() < 2.0
        assert result.worst_lc_violation() < 1.0
