"""The placement context: everything a placement algorithm may consult.

Placement runs every 100 ms in Jumanji's OS runtime. Its inputs are the
hardware description (config + NoC), the VM layout, each app's miss
curve (from UMONs in hardware; from the analytic profiles here), and the
feedback controller's current latency-critical allocation targets. The
:class:`PlacementContext` packages these so every LLC design exposes the
same ``allocate(ctx) -> Allocation`` interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..cache.misscurve import MissCurve
from ..config import Engine, SystemConfig, VmSpec
from ..noc.mesh import MeshNoc

__all__ = ["AppInfo", "PlacementContext"]


@dataclass(frozen=True)
class AppInfo:
    """One application as the placement layer sees it.

    ``curve`` maps MB of LLC to the app's miss *rate* (misses per
    kilocycle for batch apps; misses per query scaled by QPS for LC apps)
    so that marginal utilities are commensurable across apps, as UMON
    hardware would report. ``intensity`` is the app's LLC accesses per
    kilocycle, used to model sharing and energy.
    """

    name: str
    tile: int
    vm_id: int
    is_lc: bool
    curve: MissCurve
    intensity: float

    def __post_init__(self) -> None:
        if self.intensity < 0:
            raise ValueError("intensity must be non-negative")


@dataclass
class PlacementContext:
    """Inputs to one placement decision."""

    config: SystemConfig
    noc: MeshNoc
    vms: Sequence[VmSpec]
    apps: Dict[str, AppInfo]
    lat_sizes: Dict[str, float] = field(default_factory=dict)
    #: Which placement implementation the entry-point placers use —
    #: one of :data:`repro.config.Engine.CHOICES`: ``"fast"`` (the
    #: vectorised kernels) or ``"reference"`` (the frozen scalar copies
    #: in :mod:`repro.model.reference`). The two are differentially
    #: tested to be bit-identical.
    engine: str = Engine.FAST

    def __post_init__(self) -> None:
        Engine.validate(self.engine, source="PlacementContext")
        declared = {a for vm in self.vms for a in vm.apps}
        missing = declared - set(self.apps)
        if missing:
            raise ValueError(f"apps without AppInfo: {sorted(missing)}")
        for app, size in self.lat_sizes.items():
            if app not in self.apps:
                raise ValueError(f"lat size for unknown app {app!r}")
            if size < 0:
                raise ValueError(f"negative lat size for {app!r}")

    # -- allocation construction ----------------------------------------------------

    def new_allocation(self, partition_mode: str = "per-app") -> "Allocation":
        """A fresh, empty allocation of the class this context's engine
        uses.

        The accelerated engine gets the dense banks x apps matrix,
        :class:`~repro.core.allocation.Allocation`; the reference engine
        gets the frozen dict-of-dicts oracle,
        :class:`~repro.model.reference_allocation.ReferenceAllocation`.
        The two answer every query identically.
        """
        if Engine.accelerated(self.engine):
            from .allocation import Allocation

            return Allocation(self.config, partition_mode=partition_mode)
        from ..model.reference_allocation import ReferenceAllocation

        return ReferenceAllocation(
            self.config, partition_mode=partition_mode
        )

    # -- convenience views --------------------------------------------------------

    @property
    def lc_apps(self) -> List[str]:
        """LC app names in VM order."""
        return [a for vm in self.vms for a in vm.lc_apps]

    @property
    def batch_apps(self) -> List[str]:
        """Batch app names in VM order."""
        return [a for vm in self.vms for a in vm.batch_apps]

    def vm_of(self, app: str) -> int:
        """VM id of an app."""
        return self.apps[app].vm_id

    def vm_of_app_map(self) -> Dict[str, int]:
        """Mapping of every app to its VM id."""
        return {name: info.vm_id for name, info in self.apps.items()}

    def tile_of(self, app: str) -> int:
        """Tile/core an app runs on."""
        return self.apps[app].tile

    def lat_size(self, app: str) -> float:
        """Controller-assigned LC allocation (MB); 0 if not set."""
        return self.lat_sizes.get(app, 0.0)

    def vm_by_id(self, vm_id: int) -> VmSpec:
        """The VmSpec with this id; KeyError if absent."""
        for vm in self.vms:
            if vm.vm_id == vm_id:
                return vm
        raise KeyError(f"no VM {vm_id}")

    def vm_centroid(self, vm: VmSpec) -> int:
        """Representative tile for a VM (hop-minimising centroid)."""
        return self.noc.centroid_tile(list(vm.cores))

    def fingerprint(self) -> Tuple:
        """Hashable identity of every placement-relevant input.

        Two contexts with equal fingerprints make any (deterministic)
        placer produce the same allocation: the tuple covers the LC size
        targets, the VM layout, and each app's tile/role/intensity plus
        the *content* digest of its miss curve — so drifting
        UMON-measured curves (new fingerprints) never alias a stale
        memoised placement. Used as the placement-memo key by
        :class:`repro.core.runtime.JumanjiRuntime`.
        """
        return (
            tuple(sorted(self.lat_sizes.items())),
            tuple(
                (vm.vm_id, tuple(vm.cores), tuple(vm.apps))
                for vm in self.vms
            ),
            tuple(
                (
                    name,
                    info.tile,
                    info.vm_id,
                    info.is_lc,
                    info.intensity,
                    info.curve.fingerprint,
                )
                for name, info in sorted(self.apps.items())
            ),
        )
