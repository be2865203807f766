"""The indexed ``ClusterScheduler.select`` equals the linear scan.

``select`` walks an :class:`~repro.fleet.cluster.AdmissionIndex` (one
sorted list per health tier) instead of ranking every chip for every
arrival. :func:`linear_select` below is the scan it replaced, kept as
the oracle. Two properties:

* under random admit / release / fail / repair churn and health
  transitions, with random ``avoid_chips`` and ``avoid_racks``, an index
  refiled after every change picks the very chip the scan picks;
* a whole fleet run, whose ``Fleet`` refiles its own index, makes every
  admission, reschedule and migration decision the scan would make.
"""

from typing import FrozenSet, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults import FaultPlan
from repro.fleet import (
    AdmissionIndex,
    ClusterScheduler,
    Fleet,
    FleetChip,
    HealthTracker,
    Scenario,
    TenantVM,
)
from repro.fleet.resilience import HEALTH_STATES

pytestmark = pytest.mark.fleet


def linear_select(
    vm: TenantVM,
    chips: List[FleetChip],
    health: Optional[HealthTracker] = None,
    avoid_chips: FrozenSet[int] = frozenset(),
    avoid_racks: FrozenSet[int] = frozenset(),
    rack_of=None,
) -> Optional[FleetChip]:
    """Four preference tiers rebuilt per call, each scanned in list
    order for the strictly largest free-core count that fits."""
    tiers: List[List[FleetChip]] = [[], [], [], []]
    for chip in chips:
        if chip.chip_id in avoid_chips:
            continue
        avoided = (
            rack_of is not None and rack_of(chip.chip_id) in avoid_racks
        )
        degraded = (
            health is not None
            and health.state(chip.chip_id) == "degraded"
        )
        tiers[2 * avoided + degraded].append(chip)
    for tier in tiers:
        best: Optional[FleetChip] = None
        for chip in tier:
            if not chip.can_admit(vm):
                continue
            if best is None or chip.free_cores > best.free_cores:
                best = chip
        if best is not None:
            return best
    return None


def _vm(tenant_id: int, cores: int) -> TenantVM:
    return TenantVM(
        tenant_id=tenant_id,
        lc_app="xapian",
        batch_apps=("401.bzip2",) * (cores - 1),
        arrival_epoch=0,
        lifetime_epochs=10,
    )


NUM_CHIPS = 6
RACK_SIZE = 2

_chip = st.integers(0, NUM_CHIPS - 1)
_ids = st.frozensets(_chip, max_size=3)
_racks = st.frozensets(st.integers(0, NUM_CHIPS // RACK_SIZE - 1))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), _chip, st.integers(1, 3)),
        st.tuples(st.just("release"), _chip, st.integers(0, 3)),
        st.tuples(st.just("fail"), _chip, st.none()),
        st.tuples(st.just("repair"), _chip, st.none()),
        st.tuples(st.just("health"), _chip, st.sampled_from(HEALTH_STATES)),
    ),
    min_size=1,
    max_size=25,
)
_queries = st.tuples(st.integers(1, 3), _ids, _racks, st.booleans())


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_ops, queries=st.lists(_queries, min_size=1, max_size=4))
def test_indexed_select_matches_linear_scan_under_churn(ops, queries):
    chips = [FleetChip(i) for i in range(NUM_CHIPS)]
    health = HealthTracker(NUM_CHIPS)
    index = AdmissionIndex(chips, health)
    scheduler = ClusterScheduler()

    def rack_of(chip_id):
        return chip_id // RACK_SIZE

    next_tenant = 0
    for step, (op, chip_id, arg) in enumerate(ops):
        chip = chips[chip_id]
        if op == "admit":
            vm = _vm(next_tenant, arg)
            if chip.can_admit(vm):
                chip.admit(vm)
                next_tenant += 1
        elif op == "release":
            if chip.tenants:
                tenants = sorted(chip.tenants)
                chip.release(tenants[arg % len(tenants)])
        elif op == "fail":
            if chip.alive:
                chip.fail()
        elif op == "repair":
            if not chip.alive:
                chips[chip_id] = chip = FleetChip(chip_id)
        else:
            health.set_state(chip_id, step, arg)
        index.refile(chip)
        for cores, avoid_chips, avoid_racks, racked in queries:
            vm = _vm(next_tenant, cores)
            kwargs = dict(
                health=health,
                avoid_chips=avoid_chips,
                avoid_racks=avoid_racks,
                rack_of=rack_of if racked else None,
            )
            want = linear_select(vm, chips, **kwargs)
            assert scheduler.select(vm, chips, index=index, **kwargs) is want
            # Without an index, select builds one for the call.
            assert scheduler.select(vm, chips, **kwargs) is want


class _CheckedScheduler(ClusterScheduler):
    """Asserts every decision against the linear scan."""

    def __init__(self):
        self.decisions = 0

    def select(self, vm, chips, health=None, avoid_chips=frozenset(),
               avoid_racks=frozenset(), rack_of=None, index=None):
        got = super().select(
            vm, chips, health=health, avoid_chips=avoid_chips,
            avoid_racks=avoid_racks, rack_of=rack_of, index=index,
        )
        want = linear_select(
            vm, chips, health=health, avoid_chips=avoid_chips,
            avoid_racks=avoid_racks, rack_of=rack_of,
        )
        assert got is want
        self.decisions += 1
        return got


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    chips=st.integers(4, 10),
    failure=st.sampled_from([0.0, 0.1, 0.3]),
    slow=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_fleet_index_stays_current_through_a_run(seed, chips, failure, slow):
    scenario = Scenario(
        chips=chips,
        epochs=8,
        seed=seed,
        rack_size=2,
        arrival_rate=chips / 4,
        mean_lifetime_epochs=4.0,
        flash_prob=0.2,
        pending_limit=8,
        fault_plan=FaultPlan(
            seed=seed,
            chip_failure=failure,
            chip_repair=0.8,
            chip_slow=slow,
            repair_mttr_epochs=2.0,
        ),
    )
    scheduler = _CheckedScheduler()
    result = Fleet(scenario, scheduler=scheduler).run()
    assert result.ok
    assert scheduler.decisions >= result.counters["admissions"]
