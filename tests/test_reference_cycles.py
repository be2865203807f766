"""A finished run leaves no cyclic garbage.

Every runtime owner (a model, a placement-service session, a fleet
chip) hands its :class:`~repro.core.runtime.JumanjiRuntime` a context
builder. A builder that refers back to its owner makes owner and
runtime a reference cycle, so a finished run is freed only when the
cycle collector next runs; a sweep worker running several models at
once then peaks at several runs' worth of memory. With the collector
disabled, each test finishes a run and then asks the collector how
many unreachable objects it found: it must find none.
"""

import gc

import pytest

from repro.config import Engine
from repro.experiments.common import ALL_DESIGNS
from repro.fleet.chip import FleetChip, TenantVM
from repro.model.batch import BatchSystemModel
from repro.model.system import _run_design
from repro.model.workload import make_default_workload
from repro.serve import (
    CreateSessionRequest,
    PlacementService,
    TelemetryRequest,
)


@pytest.fixture
def collector_off():
    """Run the body with the cycle collector off, starting clean."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _workload(mix_seed=1):
    return make_default_workload(["xapian"], mix_seed=mix_seed, load="high")


@pytest.mark.parametrize("engine", [Engine.FAST, Engine.REFERENCE])
@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_model_run_leaves_no_cycles(design, engine, collector_off):
    result = _run_design(design, _workload(), num_epochs=3, engine=engine)
    assert result.epochs
    assert gc.collect() == 0


def test_batch_run_leaves_no_cycles(collector_off):
    results = BatchSystemModel(
        "Jumanji", [_workload(1), _workload(2)], seeds=[1, 2]
    ).run(3)
    assert len(results) == 2
    assert gc.collect() == 0


def test_closed_serve_session_leaves_no_cycles(collector_off):
    svc = PlacementService()
    info = svc.create_session(
        CreateSessionRequest(lc_apps=("xapian",), chip="small", seed=3)
    )
    for factor in (0.8, 1.2):
        svc.decide(
            info.session_id,
            TelemetryRequest(
                latencies={
                    app: (factor * deadline,) * 4
                    for app, deadline in info.deadlines.items()
                }
            ),
        )
    svc.delete_session(info.session_id)
    del info
    assert gc.collect() == 0


def test_retired_fleet_chip_leaves_no_cycles(collector_off):
    chip = FleetChip(0, seed=3)
    for tid, app in enumerate(("xapian", "moses")):
        chip.admit(
            TenantVM(
                tenant_id=tid,
                lc_app=app,
                batch_apps=(),
                arrival_epoch=0,
                lifetime_epochs=5,
            )
        )
    for epoch in range(3):
        chip.tick(epoch)
    chip.release(0)
    chip.tick(3)
    del chip
    assert gc.collect() == 0
