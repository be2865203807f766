"""repro.fleet: rack-scale simulation over many Jumanji chips.

The paper evaluates one 20-core socket; ROADMAP item 1 asks what its
100 ms loop looks like *hierarchically* — a cluster scheduler admitting
and migrating tenant VMs across hundreds of sockets, each running its
own Jumanji runtime underneath. This package provides exactly that
layer:

* :class:`~repro.fleet.scenarios.Scenario` — a seeded, JSON-canonical
  description of one fleet run (diurnal load, Poisson churn, flash
  crowds, rack-correlated failures via
  :class:`~repro.faults.FaultPlan`);
* :class:`~repro.fleet.chip.FleetChip` — one socket: capacity
  accounting plus a long-lived
  :class:`~repro.core.runtime.JumanjiRuntime` under tenant churn;
* :class:`~repro.fleet.cluster.Fleet` — the hierarchical epoch loop
  (failures -> departures -> arrivals -> per-socket ticks ->
  migrations), with per-epoch conservation/capacity audits and
  per-placement isolation checks;
* :func:`~repro.fleet.cluster.run_fleet` — scenario in, canonical
  :class:`~repro.fleet.cluster.FleetResult` out;
* :mod:`~repro.fleet.resilience` — the self-healing layer: per-chip
  health lifecycle (``healthy -> degraded -> failed -> repairing ->
  healthy``) behind :class:`~repro.fleet.resilience.HealthTracker`,
  bounded admission backpressure
  (:class:`~repro.fleet.resilience.AdmissionQueue`), and the
  crash-safe per-epoch
  :class:`~repro.fleet.resilience.FleetJournal` that makes
  ``repro fleet run --checkpoint`` kill/resume byte-identical.

Quick start::

    from repro.fleet import Scenario, run_fleet

    result = run_fleet(Scenario(chips=64, epochs=12, seed=7))
    assert result.ok                  # no invariant broke
    print(result.counters["migrations"], "migrations")

``repro fleet run`` wraps the same entry point on the CLI.
``tests/test_fleet.py`` and ``tests/test_fleet_resilience.py`` gate
same-seed determinism, the invariants and journal resume;
``python3 -m bench run --workload fleet-churn`` times it end to end.
"""

from .chip import (
    FleetChip,
    TenantVM,
    chip_deadline_cycles,
    small_chip_config,
)
from .cluster import (
    AdmissionIndex,
    ClusterScheduler,
    Fleet,
    FleetEpochStats,
    FleetResult,
    run_fleet,
)
from .resilience import (
    HEALTH_STATES,
    AdmissionQueue,
    FleetJournal,
    HealthTracker,
    JournalState,
    PendingArrival,
)
from .scenarios import Scenario, TenantSpec

__all__ = [
    "HEALTH_STATES",
    "AdmissionIndex",
    "AdmissionQueue",
    "ClusterScheduler",
    "Fleet",
    "FleetChip",
    "FleetEpochStats",
    "FleetJournal",
    "FleetResult",
    "HealthTracker",
    "JournalState",
    "PendingArrival",
    "Scenario",
    "TenantSpec",
    "TenantVM",
    "chip_deadline_cycles",
    "run_fleet",
    "small_chip_config",
]
