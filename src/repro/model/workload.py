"""Workload specification and placement-context construction.

A :class:`WorkloadSpec` binds the VM layout (which app instance runs on
which core) to the analytic profiles and the load level, and knows how
to build the :class:`~repro.core.context.PlacementContext` the placement
algorithms consume — converting each profile's MPKI/misses-per-query
curve into a misses-per-kilocycle curve so marginal utilities are
commensurable across batch and latency-critical apps (as UMON hardware
reports them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cache.misscurve import MissCurve
from ..config import CORE_FREQ_HZ, SystemConfig, VmSpec
from ..core.context import AppInfo, PlacementContext
from ..noc.mesh import MeshNoc
from ..workloads.mixes import base_app, build_vms, random_batch_mix
from ..workloads.spec import BatchAppProfile, get_profile
from ..workloads.tailbench import LatencyCriticalProfile, get_lc_profile
from .params import DEFAULT_PARAMS, ModelParams
from .performance import estimate_ipc

__all__ = ["WorkloadSpec", "make_default_workload"]

#: Miss curves are sampled on this grid for placement decisions.
CURVE_STEP_MB = 0.125
CURVE_POINTS = 176  # covers 0..21.875 MB, beyond the 20 MB LLC

#: Process-wide ``(curve, intensity)`` table for the accelerated
#: engines, keyed on everything a curve depends on (see
#: :meth:`WorkloadSpec._curve_key`). Every new mix, every fleet chip
#: rebuilt on an admission or departure, and every serve session then
#: shares one curve per key instead of resampling 176 points. Bounded
#: by the profile registry times the configs in use.
_CURVES: Dict[Tuple, Tuple[MissCurve, float]] = {}


@dataclass
class WorkloadSpec:
    """One machine-level workload: VMs, app instances, and load."""

    config: SystemConfig
    vms: Sequence[VmSpec]
    load: str = "high"
    params: ModelParams = field(default_factory=lambda: DEFAULT_PARAMS)

    def __post_init__(self) -> None:
        if self.load not in ("low", "high"):
            raise ValueError("load must be 'low' or 'high'")
        self._tiles: Dict[str, int] = {}
        for vm in self.vms:
            for core, app in zip(vm.cores, vm.apps):
                if not 0 <= core < self.config.num_cores:
                    raise ValueError(
                        f"app {app!r} is placed on core {core}, but the "
                        f"chip has {self.config.num_cores} cores"
                    )
                self._tiles[app] = core
        self._lc_profiles: Dict[str, LatencyCriticalProfile] = {
            a: get_lc_profile(base_app(a))
            for vm in self.vms
            for a in vm.lc_apps
        }
        self._batch_profiles: Dict[str, BatchAppProfile] = {
            a: get_profile(base_app(a))
            for vm in self.vms
            for a in vm.batch_apps
        }
        # The fast engine's per-app AppInfo, curve from the process-wide
        # ``_CURVES`` table: the analytic profiles and the load level
        # are fixed for the spec's lifetime, so each epoch only looks
        # the app up here (a migration drops the two moved apps). The
        # reference engine bypasses both (build_context(engine=
        # "reference")) to keep the scalar baseline's per-epoch
        # rebuild cost.
        self._infos: Dict[str, AppInfo] = {}

    # -- lookups -------------------------------------------------------------------

    @property
    def lc_apps(self) -> List[str]:
        """LC app instance ids, in VM order."""
        return [a for vm in self.vms for a in vm.lc_apps]

    @property
    def batch_apps(self) -> List[str]:
        """Batch app instance ids, in VM order."""
        return [a for vm in self.vms for a in vm.batch_apps]

    def tile_of(self, app: str) -> int:
        """The core/tile an app instance runs on."""
        return self._tiles[app]

    def vm_of(self, app: str) -> int:
        """The VM id owning an app instance."""
        for vm in self.vms:
            if app in vm.apps:
                return vm.vm_id
        raise KeyError(f"unknown app {app!r}")

    def lc_profile(self, app: str) -> LatencyCriticalProfile:
        """The LC profile behind an instance id."""
        return self._lc_profiles[app]

    def batch_profile(self, app: str) -> BatchAppProfile:
        """The batch profile behind an instance id."""
        return self._batch_profiles[app]

    def qps_of(self, app: str) -> float:
        """The instance's arrival rate at this workload's load level."""
        return self._lc_profiles[app].qps_at(self.load)

    # -- thread migration -----------------------------------------------------------

    def migrate(self, app_a: str, app_b: str) -> None:
        """Swap two apps' cores (thread migration).

        Prior D-NUCAs — and Jumanji (Sec. IV-B) — migrate LLC
        allocations along with threads: after a swap, the next
        reconfiguration places each app's data near its *new* core, so
        migration costs one coherence walk rather than a permanent
        penalty. Swapping (rather than moving to a free core) keeps the
        one-app-per-core invariant of the evaluation setup.
        """
        if app_a not in self._tiles or app_b not in self._tiles:
            missing = [
                a for a in (app_a, app_b) if a not in self._tiles
            ]
            raise KeyError(f"unknown app(s): {missing}")
        self._tiles[app_a], self._tiles[app_b] = (
            self._tiles[app_b],
            self._tiles[app_a],
        )
        self._infos.pop(app_a, None)
        self._infos.pop(app_b, None)

    # -- placement-context construction ----------------------------------------------

    def _batch_curve(self, app: str) -> Tuple[MissCurve, float]:
        """(misses-per-kilocycle curve, accesses-per-kilocycle) for a
        batch app, converting MPKI via an IPC estimate at a fair share."""
        profile = self._batch_profiles[app]
        fair_mb = self.config.llc_size_mb / max(
            1, len(self.batch_apps) + len(self.lc_apps)
        )
        ipc_est = estimate_ipc(
            profile, fair_mb, 16.0, self.config, self.params
        )
        values = [
            profile.mpki(i * CURVE_STEP_MB) * ipc_est
            for i in range(CURVE_POINTS)
        ]
        intensity = profile.apki * ipc_est
        return MissCurve(values, CURVE_STEP_MB), intensity

    def _lc_curve(self, app: str) -> Tuple[MissCurve, float]:
        """(misses-per-kilocycle curve, accesses-per-kilocycle) for an LC
        app at the current load's QPS."""
        profile = self._lc_profiles[app]
        qps = self.qps_of(app)
        per_kcycle = qps / (CORE_FREQ_HZ / 1000.0)
        values = [
            profile.misses_per_query(i * CURVE_STEP_MB) * per_kcycle
            for i in range(CURVE_POINTS)
        ]
        intensity = profile.accesses_per_query * per_kcycle
        return MissCurve(values, CURVE_STEP_MB), intensity

    def _curve_key(self, app: str, is_lc: bool) -> Tuple:
        """What an app's curve depends on: the profile and QPS for an
        LC app; for a batch app the profile, the chip and model
        parameters, and the app count, which sets the fair share its
        IPC estimate assumes."""
        if is_lc:
            return ("lc", base_app(app), self.qps_of(app))
        apps = len(self.batch_apps) + len(self.lc_apps)
        return ("batch", base_app(app), self.config, self.params, apps)

    def _app_info(
        self, app: str, vm_id: int, is_lc: bool, use_cache: bool
    ) -> AppInfo:
        """One app as the placement layer sees it (see ``_infos``)."""
        if use_cache:
            info = self._infos.get(app)
            if info is not None:
                return info
            key = self._curve_key(app, is_lc)
            hit = _CURVES.get(key)
            if hit is None:
                hit = _CURVES[key] = (
                    self._lc_curve(app)
                    if is_lc
                    else self._batch_curve(app)
                )
            curve, intensity = hit
        else:
            curve, intensity = (
                self._lc_curve(app) if is_lc else self._batch_curve(app)
            )
        info = AppInfo(
            name=app,
            tile=self.tile_of(app),
            vm_id=vm_id,
            is_lc=is_lc,
            curve=curve,
            intensity=intensity,
        )
        if use_cache:
            self._infos[app] = info
        return info

    def build_context(
        self,
        lat_sizes: Mapping[str, float],
        noc: Optional[MeshNoc] = None,
        engine: str = "fast",
    ) -> PlacementContext:
        """Build the placement context for one reconfiguration.

        ``engine`` selects the placement implementation the context's
        consumers will use (``"fast"`` or ``"reference"``, see
        :mod:`repro.model.reference`); the reference path also rebuilds
        the miss curves from the profiles instead of using the
        process-wide table.
        """
        noc = noc if noc is not None else MeshNoc(self.config)
        use_cache = engine != "reference"
        apps: Dict[str, AppInfo] = {}
        for vm in self.vms:
            for app in vm.lc_apps:
                apps[app] = self._app_info(app, vm.vm_id, True, use_cache)
            for app in vm.batch_apps:
                apps[app] = self._app_info(app, vm.vm_id, False, use_cache)
        return PlacementContext(
            config=self.config,
            noc=noc,
            vms=list(self.vms),
            apps=apps,
            lat_sizes=dict(lat_sizes),
            engine=engine,
        )


def make_default_workload(
    lc_apps: Sequence[str],
    mix_seed: int,
    load: str = "high",
    config: Optional[SystemConfig] = None,
    batch_apps: Optional[Sequence[str]] = None,
) -> WorkloadSpec:
    """The paper's default 4 x (1 LC + 4 B) workload.

    ``lc_apps`` is either one name (replicated to all four VMs) or four
    names (the 'Mixed' workloads). The batch mix is drawn from
    ``mix_seed`` unless given explicitly.
    """
    config = config if config is not None else SystemConfig()
    lc_list = list(lc_apps)
    if len(lc_list) == 1:
        lc_list = lc_list * 4
    if len(lc_list) != 4:
        raise ValueError("need one or four LC app names")
    batch = (
        list(batch_apps)
        if batch_apps is not None
        else list(random_batch_mix(mix_seed))
    )
    vms = build_vms(lc_list, batch, config)
    return WorkloadSpec(config=config, vms=vms, load=load)
