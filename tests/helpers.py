"""Test helpers: compact placement-context construction."""

from typing import Dict, Optional, Sequence

from repro.cache.misscurve import MissCurve
from repro.config import SystemConfig, VmSpec
from repro.core.context import AppInfo, PlacementContext
from repro.model.workload import make_default_workload
from repro.noc.mesh import MeshNoc


def synthetic_context(
    lat_sizes: Optional[Dict[str, float]] = None,
    config: Optional[SystemConfig] = None,
) -> PlacementContext:
    """A hand-built 4-VM context with predictable curves.

    Each VM has one LC app (on the corner core) and one batch app. LC
    curves are small; batch curves are steep, so placement decisions are
    easy to reason about in tests.
    """
    config = config if config is not None else SystemConfig()
    corners = (0, 4, 15, 19)
    neighbours = (1, 3, 16, 18)
    vms = []
    apps: Dict[str, AppInfo] = {}
    for vm_id in range(4):
        lc = f"lc{vm_id}"
        batch = f"batch{vm_id}"
        vms.append(
            VmSpec(
                vm_id=vm_id,
                cores=(corners[vm_id], neighbours[vm_id]),
                lc_apps=(lc,),
                batch_apps=(batch,),
            )
        )
        lc_curve = MissCurve(
            [0.5 * (0.5 ** i) for i in range(41)], step=0.5
        )
        batch_curve = MissCurve(
            [10.0 / (1.0 + i * 0.5) for i in range(41)], step=0.5
        )
        apps[lc] = AppInfo(
            name=lc, tile=corners[vm_id], vm_id=vm_id, is_lc=True,
            curve=lc_curve, intensity=1.0,
        )
        apps[batch] = AppInfo(
            name=batch, tile=neighbours[vm_id], vm_id=vm_id,
            is_lc=False, curve=batch_curve, intensity=10.0,
        )
    return PlacementContext(
        config=config,
        noc=MeshNoc(config),
        vms=vms,
        apps=apps,
        lat_sizes=dict(lat_sizes or {}),
    )


def workload_context(
    lat_sizes: Optional[Dict[str, float]] = None,
    lc: str = "xapian",
    mix_seed: int = 0,
    load: str = "high",
) -> PlacementContext:
    """A realistic context from the default workload builder."""
    workload = make_default_workload([lc], mix_seed=mix_seed, load=load)
    if lat_sizes is None:
        lat_sizes = {a: 2.0 for a in workload.lc_apps}
    return workload.build_context(lat_sizes)


def _nan_safe(value):
    """NaN tails compare equal to each other (``nan != nan``)."""
    if isinstance(value, float) and value != value:
        return "nan"
    if isinstance(value, (list, tuple)):
        return type(value)(_nan_safe(v) for v in value)
    return value


def canonical_run(result):
    """A :class:`~repro.model.system.RunResult` as plain comparable data:
    every observable, with NaN mapped to ``"nan"``."""
    return _nan_safe(
        (
            result.design,
            result.load,
            result.warmup_epochs,
            result.placement_failures,
            sorted(result.lc_deadlines.items()),
            sorted(result.lc_all_latencies.items()),
            [
                (
                    e.epoch,
                    sorted(e.lc_tails.items()),
                    sorted(e.lc_sizes.items()),
                    sorted(e.batch_ipcs.items()),
                    e.vulnerability,
                    sorted(vars(e.energy).items()),
                )
                for e in result.epochs
            ],
        )
    )


def sim_state(sim):
    """A queueing simulator's cross-epoch state: the queue (the first
    four items, which the scalar reference matches too), then its
    variate streams' buffer positions."""
    return (
        sim._server_free_at,
        sim._now,
        sim._next_arrival,
        list(sim._backlog),
        sim._arrivals._pos,
        sim._arrivals._buf.size,
        None if sim._services is None else sim._services._pos,
    )
