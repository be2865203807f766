"""Frozen dict-of-dicts allocation: the oracle for the dense matrix.

:class:`ReferenceAllocation` is the ``allocs[bank][app]`` bookkeeping
exactly as every engine used it before the accelerated engines moved to
the dense banks x apps matrix of :class:`repro.core.allocation.Allocation`.
It backs the ``reference`` engine (``PlacementContext.new_allocation``
hands it out there, and the frozen placers in :mod:`repro.model.reference`
build it directly) and it is the oracle the dense class is tested against
(``tests/test_allocation.py``): every query must return ``==`` results on
both, down to the int ``0`` an empty ``sum()`` yields.

Every reduction here is a plain Python loop or ``sum()`` over dict
iteration order: banks in first-touch order, and within a bank, apps in
grant order. That order *is* the specification the dense class
replays. Nothing here should be optimised: slow-and-obvious is the
point, as in :mod:`repro.model.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from ..config import SystemConfig
from ..core.allocation import PARTITION_MODES
from ..errors import AllocationInvalid
from ..noc.mesh import MeshNoc
from ..vtb.vtb import PlacementDescriptor, descriptor_from_allocation

__all__ = ["ReferenceAllocation"]


@dataclass
class ReferenceAllocation:
    """LLC space assignment: bank -> app -> MB, as nested dicts.

    ``partition_mode`` describes intra-bank enforcement (see
    :data:`~repro.core.allocation.PARTITION_MODES`). ``shared_batch``
    lists apps that are *not* way-partitioned (they share leftover
    space); their ``allocs`` entries record the modelled occupancy
    rather than a hard quota.
    """

    config: SystemConfig
    allocs: Dict[int, Dict[str, float]] = field(default_factory=dict)
    partition_mode: str = "per-app"
    shared_batch: Set[str] = field(default_factory=set)
    #: app -> partition-group key. Apps sharing a group share one
    #: way-partition (e.g. all batch apps of a VM under VM-Part); the
    #: associativity available to an app is its *group's* ways.
    partition_groups: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.partition_mode not in PARTITION_MODES:
            raise ValueError(
                f"partition_mode must be one of {PARTITION_MODES}"
            )

    # -- mutation ---------------------------------------------------------------

    def add(self, bank: int, app: str, mb: float) -> None:
        """Grant ``app`` ``mb`` MB in ``bank`` (accumulates)."""
        if not 0 <= bank < self.config.num_banks:
            raise AllocationInvalid(
                f"bank {bank} out of range", bank=bank, app=app
            )
        if mb < 0:
            raise AllocationInvalid(
                f"allocation must be non-negative "
                f"({mb} MB for {app!r} in bank {bank})",
                bank=bank, app=app,
            )
        if mb == 0:
            return
        bank_map = self.allocs.setdefault(bank, {})
        bank_map[app] = bank_map.get(app, 0.0) + mb
        if self.bank_used(bank) > self.config.llc_bank_mb + 1e-9:
            raise AllocationInvalid(
                f"bank {bank} over-committed: "
                f"{self.bank_used(bank):.3f} MB",
                bank=bank, app=app,
            )

    def add_stripe(self, app: str, grants: Iterable[float]) -> None:
        """Grant ``app`` ``grants[b]`` MB in every bank ``b``: one
        :meth:`add` per bank, ascending, skipping zero grants."""
        for bank, mb in enumerate(grants):
            if mb > 0:
                self.add(bank, app, mb)
            elif mb < 0:
                raise AllocationInvalid(
                    f"allocation must be non-negative "
                    f"({mb} MB for {app!r} in bank {bank})",
                    bank=bank, app=app,
                )

    def add_stripes(
        self, apps: Sequence[str], grants: Sequence[Iterable[float]]
    ) -> None:
        """:meth:`add_stripe` for each app in turn."""
        for app, row in zip(apps, grants):
            self.add_stripe(app, row)

    def remove(self, bank: int, app: str, mb: float) -> None:
        """Take ``mb`` MB of ``app``'s space in ``bank`` back.

        The entry keeps its place in the bank (at ``0.0`` if emptied).
        Up to 1e-9 MB more than the entry holds may be removed, the
        tolerance every capacity check here uses.
        """
        current = self.allocs.get(bank, {}).get(app)
        if current is None or mb < 0 or mb > current + 1e-9:
            raise AllocationInvalid(
                f"cannot remove {mb} MB of {app!r} from bank {bank} "
                f"(holds {current or 0.0})",
                bank=bank, app=app,
            )
        self.allocs[bank][app] = current - mb

    # -- queries ------------------------------------------------------------------

    def get(self, bank: int, app: str) -> float:
        """MB ``app`` holds in ``bank`` (``0.0`` if none)."""
        return self.allocs.get(bank, {}).get(app, 0.0)

    def bank_items(self, bank: int) -> List[Tuple[str, float]]:
        """``(app, mb)`` entries of ``bank`` in grant order, zeros
        included."""
        return list(self.allocs.get(bank, {}).items())

    def app_grants(self, app: str) -> List[Tuple[int, float]]:
        """``(bank, mb)`` for every bank where ``app`` has space, banks
        in first-touch order."""
        return [
            (b, bank_map[app])
            for b, bank_map in self.allocs.items()
            if bank_map.get(app, 0.0) > 0
        ]

    def bank_used(self, bank: int) -> float:
        """MB committed in ``bank``."""
        return sum(self.allocs.get(bank, {}).values())

    def bank_free(self, bank: int) -> float:
        """MB still free in ``bank``."""
        return self.config.llc_bank_mb - self.bank_used(bank)

    def bank_free_all(self) -> List[float]:
        """``[bank_free(b) for b in range(num_banks)]``."""
        return [self.bank_free(b) for b in range(self.config.num_banks)]

    def app_size(self, app: str) -> float:
        """Total MB owned by ``app`` across all banks."""
        return sum(
            bank_map.get(app, 0.0) for bank_map in self.allocs.values()
        )

    def app_banks(self, app: str) -> List[int]:
        """Banks where ``app`` has space, ascending."""
        return sorted(
            b for b, bank_map in self.allocs.items()
            if bank_map.get(app, 0.0) > 0
        )

    def apps_in_bank(self, bank: int) -> List[str]:
        """Apps with space in ``bank``."""
        return sorted(
            a for a, mb in self.allocs.get(bank, {}).items() if mb > 0
        )

    def apps(self) -> List[str]:
        """All apps with any allocation."""
        out: Set[str] = set()
        for bank_map in self.allocs.values():
            out.update(a for a, mb in bank_map.items() if mb > 0)
        return sorted(out)

    def total_used(self) -> float:
        """MB committed across the whole LLC."""
        return sum(self.bank_used(b) for b in self.allocs)

    # -- derived quantities ----------------------------------------------------------

    def avg_noc_rtt(self, app: str, tile: int, noc: MeshNoc) -> float:
        """Average round-trip NoC latency from ``tile`` to the app's data,
        weighted by the app's allocation fraction in each bank."""
        size = self.app_size(app)
        if size <= 0:
            # No LLC space: accesses still traverse to a home bank;
            # model as the S-NUCA average.
            banks = range(self.config.num_banks)
            return sum(noc.round_trip(tile, b) for b in banks) / (
                self.config.num_banks
            )
        total = 0.0
        for bank, bank_map in self.allocs.items():
            mb = bank_map.get(app, 0.0)
            if mb > 0:
                total += noc.round_trip(tile, bank) * (mb / size)
        return total

    def avg_noc_hops(self, app: str, tile: int, noc: MeshNoc) -> float:
        """Average one-way hop count from ``tile`` to the app's data."""
        size = self.app_size(app)
        if size <= 0:
            banks = range(self.config.num_banks)
            return sum(noc.hops(tile, b) for b in banks) / (
                self.config.num_banks
            )
        total = 0.0
        for bank, bank_map in self.allocs.items():
            mb = bank_map.get(app, 0.0)
            if mb > 0:
                total += noc.hops(tile, bank) * (mb / size)
        return total

    def ways_per_bank(self, app: str) -> float:
        """Average partition associativity available to ``app``: its
        partition group's ways in each bank, weighted by the app's
        per-bank allocation fraction."""
        size = self.app_size(app)
        if size <= 0:
            return 0.0
        group = self.partition_groups.get(app)
        if group is not None:
            # Insertion order, not a set: the float sum below must not
            # depend on the string-hash seed of the process.
            members = [
                a
                for a, g in self.partition_groups.items()
                if g == group
            ]
        else:
            members = [app]
        ways_per_mb = self.config.llc_bank_ways / self.config.llc_bank_mb
        total = 0.0
        for bank_map in self.allocs.values():
            mb = bank_map.get(app, 0.0)
            if mb <= 0:
                continue
            group_mb = sum(bank_map.get(a, 0.0) for a in members)
            total += (group_mb * ways_per_mb) * (mb / size)
        return total

    def descriptor_for(self, app: str) -> PlacementDescriptor:
        """Placement descriptor realising this allocation for ``app``."""
        alloc = {
            b: bank_map.get(app, 0.0)
            for b, bank_map in self.allocs.items()
            if bank_map.get(app, 0.0) > 0
        }
        if not alloc:
            raise ValueError(f"app {app!r} has no allocation")
        return descriptor_from_allocation(alloc)

    # -- security ------------------------------------------------------------------

    def bank_vms(self, vm_of_app: Mapping[str, int]) -> Dict[int, Set[int]]:
        """VMs with data in each bank."""
        out: Dict[int, Set[int]] = {}
        for bank, bank_map in self.allocs.items():
            vms = {
                vm_of_app[a] for a, mb in bank_map.items() if mb > 0
            }
            if vms:
                out[bank] = vms
        return out

    def violates_bank_isolation(
        self, vm_of_app: Mapping[str, int]
    ) -> List[int]:
        """Banks shared by more than one VM (Jumanji guarantees none)."""
        return sorted(
            bank
            for bank, vms in self.bank_vms(vm_of_app).items()
            if len(vms) > 1
        )

    def validate(self) -> None:
        """Check structural invariants; raise
        :class:`~repro.errors.AllocationInvalid` naming the culprit."""
        for bank, bank_map in self.allocs.items():
            if not 0 <= bank < self.config.num_banks:
                raise AllocationInvalid(
                    f"bank {bank} out of range", bank=bank
                )
            for app, mb in bank_map.items():
                if mb < 0:
                    raise AllocationInvalid(
                        f"negative allocation for {app} in bank {bank}",
                        bank=bank, app=app,
                    )
            if self.bank_used(bank) > self.config.llc_bank_mb + 1e-9:
                over = self.apps_in_bank(bank)
                raise AllocationInvalid(
                    f"bank {bank} over-committed "
                    f"({self.bank_used(bank):.3f} MB by {over})",
                    bank=bank,
                    app=over[0] if over else None,
                )

    def validate_isolation(
        self, vm_of_app: Mapping[str, int]
    ) -> None:
        """Enforce the no-shared-banks security invariant."""
        for bank in self.violates_bank_isolation(vm_of_app):
            vms = sorted(self.bank_vms(vm_of_app)[bank])
            raise AllocationInvalid(
                f"bank {bank} shared by VMs {vms} "
                "(no-shared-banks invariant violated)",
                bank=bank,
                vms=tuple(vms),
            )
