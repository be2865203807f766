"""The allocation matrix: how much LLC space each app owns in each bank.

Every placement algorithm in this reproduction produces an allocation —
the ``allocs[b][a]`` matrix of the paper's Listings 2 and 3 — plus a
partitioning mode describing how space is enforced within banks (which
determines associativity effects and attack surfaces). Downstream
consumers (performance model, security metrics, descriptor generation)
all read from this one structure.

Two classes implement it. :class:`Allocation` here, used by the
accelerated engine, stores a dense banks x apps matrix.
:class:`repro.model.reference_allocation.ReferenceAllocation`, used by
the ``reference`` engine, is the frozen dict-of-dicts original and the
oracle the matrix is tested against. Both answer every query with
``==`` results.
"""

from __future__ import annotations

from itertools import compress
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from ..config import SystemConfig
from ..errors import AllocationInvalid
from ..noc.mesh import MeshNoc
from ..vtb.vtb import PlacementDescriptor, descriptor_from_allocation

__all__ = [
    "Allocation",
    "AllocationInvalid",
    "PARTITION_MODES",
    "stacked_app_terms",
]

#: How intra-bank space is enforced:
#: * ``per-app``  — every app has its own way-partition (D-NUCAs);
#: * ``per-vm``   — VMs are partitioned, apps within a VM share (VM-Part);
#: * ``lc-only``  — only LC apps are partitioned; batch shares the rest
#:   (Static, Adaptive);
#: * ``none``     — fully shared.
PARTITION_MODES = ("per-app", "per-vm", "lc-only", "none")


class Allocation:
    """LLC space assignment as a dense banks x apps MB matrix.

    Rows are *slots*: a bank gets the next slot the first time it is
    granted space, so row order is bank first-touch order. Columns are
    apps in first-grant order. Each slot also keeps its apps' columns in
    grant order. Those three orders are the iteration orders of the
    dict-of-dicts oracle (``allocs`` banks, then each bank's apps), and
    every float reduction here runs left to right along them — per-bank
    running sums in grant order, ``cumsum`` down a column in slot order
    — so each result is bit-identical to the oracle's scalar loop or
    ``sum()``. Zero cells add ``+0.0``, which cannot change a
    non-negative running sum.

    Rows are Python lists, because placers read and write single cells
    in tight loops and a list cell costs a fraction of a numpy element
    access. Column reductions run on a float64 array of the matrix,
    built once per state on the first read after a write (see
    :class:`_ColumnStats`).

    ``partition_mode`` describes intra-bank enforcement (see
    :data:`PARTITION_MODES`). ``shared_batch`` lists apps that are *not*
    way-partitioned (they share leftover space); their entries record
    the modelled occupancy rather than a hard quota.
    ``partition_groups`` maps an app to a partition-group key: apps
    sharing a group share one way-partition (e.g. all batch apps of a
    VM under VM-Part), so the associativity an app sees is its group's.
    """

    def __init__(
        self, config: SystemConfig, partition_mode: str = "per-app"
    ):
        if partition_mode not in PARTITION_MODES:
            raise ValueError(
                f"partition_mode must be one of {PARTITION_MODES}"
            )
        self.config = config
        self.partition_mode = partition_mode
        self.shared_batch: Set[str] = set()
        self.partition_groups: Dict[str, str] = {}
        #: Column capacity of every row: one per core to start with
        #: (one app per core is the common case), doubled as needed.
        self._width = config.num_cores
        #: Per slot: its bank id, its row of MB per column, its apps'
        #: columns in grant order, and its MB committed (summed in
        #: grant order).
        self._banks: List[int] = []
        self._rows: List[List[float]] = []
        self._cols: List[List[int]] = []
        self._used: List[float] = []
        self._slot: Dict[int, int] = {}
        self._apps: List[str] = []
        self._col: Dict[str, int] = {}
        #: Per-app statistics of the current state, dropped on every
        #: write (see :class:`_ColumnStats`).
        self._column_stats: Optional[_ColumnStats] = None

    def __repr__(self) -> str:
        return (
            f"Allocation(partition_mode={self.partition_mode!r}, "
            f"allocs={self.allocs!r})"
        )

    # -- mutation ---------------------------------------------------------------

    def _new_columns(self, apps: Sequence[str]) -> int:
        """Append a column per app; returns the first one's index."""
        first = len(self._apps)
        end = first + len(apps)
        if end > self._width:
            extra = max(self._width, end - self._width)
            for row in self._rows:
                row.extend([0.0] * extra)
            self._width += extra
        self._apps.extend(apps)
        self._col.update(zip(apps, range(first, end)))
        return first

    def _new_slot(self, bank: int) -> int:
        s = len(self._banks)
        self._banks.append(bank)
        self._rows.append([0.0] * self._width)
        self._cols.append([])
        self._used.append(0)
        self._slot[bank] = s
        return s

    def _put(self, bank: int, app: str, mb: float) -> float:
        """Add ``mb`` to cell (``bank``, ``app``) without any check;
        returns the bank's new total."""
        self._column_stats = None
        j = self._col.get(app)
        if j is None:
            j = self._new_columns([app])
        s = self._slot.get(bank)
        if s is None:
            s = self._new_slot(bank)
        row = self._rows[s]
        cols = self._cols[s]
        if j in cols:
            # A re-grant changes a value mid-bank: re-sum in grant order.
            row[j] = row[j] + mb
            used = sum([row[c] for c in cols])
        else:
            cols.append(j)
            row[j] = mb
            used = self._used[s] + mb
        self._used[s] = used
        return used

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
        used = self._put(bank, app, mb)
        if used > self.config.llc_bank_mb + 1e-9:
            raise AllocationInvalid(
                f"bank {bank} over-committed: {used:.3f} MB",
                bank=bank, app=app,
            )

    def add_stripe(self, app: str, grants: Iterable[float]) -> None:
        """Grant ``app`` ``grants[b]`` MB in every bank ``b``.

        Exactly :meth:`add` once per bank in ascending order, skipping
        zero grants, so cell values and every first-touch and grant
        order come out as that loop would leave them. A new app's
        stripe whose grants are all in range and fit is written as one
        column; anything else (a re-grant, a bad grant, an over-commit
        to report) takes the loop.
        """
        grants = list(grants)
        if (
            app not in self._col
            and len(grants) <= self.config.num_banks
            and not any(mb < 0 for mb in grants)
        ):
            used = self._used
            banks = [b for b, mb in enumerate(grants) if mb > 0]
            slots = [self._slot.get(b) for b in banks]
            totals = [
                (0 if s is None else used[s]) + grants[b]
                for b, s in zip(banks, slots)
            ]
            if not totals:
                return
            if max(totals) <= self.config.llc_bank_mb + 1e-9:
                self._column_stats = None
                j = self._new_columns([app])
                for bank, s, total in zip(banks, slots, totals):
                    if s is None:
                        s = self._new_slot(bank)
                    self._rows[s][j] = grants[bank]
                    self._cols[s].append(j)
                    used[s] = total
                return
        for bank, mb in enumerate(grants):
            if mb > 0 or mb < 0:
                self.add(bank, app, mb)

    def add_stripes(
        self, apps: Sequence[str], grants: Sequence[Iterable[float]]
    ) -> None:
        """:meth:`add_stripe` for each ``apps[k]`` and ``grants[k]`` in
        turn."""
        for app, row in zip(apps, grants):
            self.add_stripe(app, row)

    def remove(self, bank: int, app: str, mb: float) -> None:
        """Take ``mb`` MB of ``app``'s space in ``bank`` back.

        The entry keeps its place in the bank (at ``0.0`` if emptied).
        Up to 1e-9 MB more than the entry holds may be removed, the
        tolerance every capacity check here uses.
        """
        s = self._slot.get(bank)
        j = self._col.get(app)
        held = (
            None
            if s is None or j is None or j not in self._cols[s]
            else self._rows[s][j]
        )
        if held is None or mb < 0 or mb > held + 1e-9:
            raise AllocationInvalid(
                f"cannot remove {mb} MB of {app!r} from bank {bank} "
                f"(holds {held or 0.0})",
                bank=bank, app=app,
            )
        self._column_stats = None
        row = self._rows[s]
        row[j] = held - mb
        self._used[s] = sum([row[c] for c in self._cols[s]])

    # -- queries ------------------------------------------------------------------

    @property
    def allocs(self) -> Dict[int, Dict[str, float]]:
        """The matrix as the oracle's ``bank -> app -> MB`` dicts, in
        the same orders (a fresh snapshot, for tests and debugging)."""
        return {b: dict(self.bank_items(b)) for b in self._banks}

    def get(self, bank: int, app: str) -> float:
        """MB ``app`` holds in ``bank`` (``0.0`` if none)."""
        s = self._slot.get(bank)
        j = self._col.get(app)
        if s is None or j is None:
            return 0.0
        return self._rows[s][j]

    def bank_items(self, bank: int) -> List[Tuple[str, float]]:
        """``(app, mb)`` entries of ``bank`` in grant order, zeros
        included."""
        s = self._slot.get(bank)
        if s is None:
            return []
        row = self._rows[s]
        apps = self._apps
        return [(apps[j], row[j]) for j in self._cols[s]]

    def app_grants(self, app: str) -> List[Tuple[int, float]]:
        """``(bank, mb)`` for every bank where ``app`` has space, banks
        in first-touch order."""
        j = self._col.get(app)
        if j is None:
            return []
        return [
            (b, row[j])
            for b, row in zip(self._banks, self._rows)
            if row[j] > 0
        ]

    def bank_used(self, bank: int) -> float:
        """MB committed in ``bank``."""
        s = self._slot.get(bank)
        # int 0 for untouched banks, exactly like the oracle's empty sum().
        return 0 if s is None else self._used[s]

    def bank_free(self, bank: int) -> float:
        """MB still free in ``bank``."""
        return self.config.llc_bank_mb - self.bank_used(bank)

    def bank_free_all(self) -> List[float]:
        """``[bank_free(b) for b in range(num_banks)]``, one pass."""
        cap = self.config.llc_bank_mb
        free = [cap - 0] * self.config.num_banks
        for bank, used in zip(self._banks, self._used):
            free[bank] = cap - used
        return free

    def app_size(self, app: str) -> float:
        """Total MB owned by ``app`` across all banks."""
        if not self._banks:
            return 0
        j = self._col.get(app)
        return 0.0 if j is None else self._stats().sizes[j]

    def app_banks(self, app: str) -> List[int]:
        """Banks where ``app`` has space, ascending."""
        return sorted(b for b, _ in self.app_grants(app))

    def apps_in_bank(self, bank: int) -> List[str]:
        """Apps with space in ``bank``."""
        s = self._slot.get(bank)
        if s is None:
            return []
        row = self._rows[s]
        apps = self._apps
        return sorted([apps[j] for j in self._cols[s] if row[j] > 0])

    def apps(self) -> List[str]:
        """All apps with any allocation."""
        return self._stats().apps

    def total_used(self) -> float:
        """MB committed across the whole LLC."""
        return sum(self._used)

    # -- derived quantities ----------------------------------------------------------

    def avg_noc_rtt(self, app: str, tile: int, noc: MeshNoc) -> float:
        """Average round-trip NoC latency from ``tile`` to the app's data.

        Weighted by the fraction of the app's allocation in each bank —
        with proportional placement descriptors, this is the expected
        per-access NoC latency.
        """
        return self._stats().noc_average(
            self, "rtt", noc, tile, self._col.get(app)
        )

    def avg_noc_hops(self, app: str, tile: int, noc: MeshNoc) -> float:
        """Average one-way hop count from ``tile`` to the app's data."""
        return self._stats().noc_average(
            self, "hops", noc, tile, self._col.get(app)
        )

    def ways_per_bank(self, app: str) -> float:
        """Average partition associativity available to ``app``.

        The associativity an app sees is that of its *partition*: its own
        allocation, or its group's when ``partition_groups`` places
        several apps in one partition (e.g. a VM's batch apps under
        VM-Part). Weighted by the app's per-bank allocation fraction: an
        app whose partition spans 0.25 MB of a 1 MB 32-way bank has 8
        ways there. Low values cause the associativity penalties the
        paper attributes to way-partitioning.
        """
        j = self._col.get(app)
        if j is None or not self._banks:
            return 0.0
        return self._stats().ways(self)[j]

    def bank_matrix(
        self, apps: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(mb, sizes)``: an ``apps x num_banks`` float64 matrix of each
        app's MB by bank id (``0.0`` where it has none), and each app's
        :meth:`app_size` as a float (``0.0`` for an app with none)."""
        mb = np.zeros((len(apps), self.config.num_banks))
        sizes = np.zeros(len(apps))
        if not self._banks:
            return mb, sizes
        stats = self._stats()
        col = self._col
        cols = [col.get(a) for a in apps]
        rows = list(range(len(apps)))
        if None in cols:
            rows = [k for k, c in enumerate(cols) if c is not None]
            cols = [c for c in cols if c is not None]
        mb[np.ix_(rows, stats.banks)] = stats.mb[:, cols].T
        sizes[rows] = stats.size_array[cols]
        return mb, sizes

    def _stats(self) -> "_ColumnStats":
        stats = self._column_stats
        if stats is None:
            stats = self._column_stats = _ColumnStats(self)
        return stats

    def descriptor_for(self, app: str) -> PlacementDescriptor:
        """Placement descriptor realising this allocation for ``app``."""
        grants = self.app_grants(app)
        if not grants:
            raise ValueError(f"app {app!r} has no allocation")
        return descriptor_from_allocation(dict(grants))

    # -- security ------------------------------------------------------------------

    def bank_vms(self, vm_of_app: Mapping[str, int]) -> Dict[int, Set[int]]:
        """VMs with data in each bank."""
        out: Dict[int, Set[int]] = {}
        apps = self._apps
        for bank, row, cols in zip(self._banks, self._rows, self._cols):
            vms = {vm_of_app[apps[j]] for j in cols if row[j] > 0}
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
        """Check structural invariants.

        Raises :class:`~repro.errors.AllocationInvalid` (a
        ``ValueError``) carrying the offending ``bank``/``app`` pair on
        failure, so degraded-mode handlers can log exactly what was
        rejected before falling back.
        """
        limit = self.config.llc_bank_mb + 1e-9
        if (
            self._banks
            and max(self._banks) < self.config.num_banks
            and min(self._banks) >= 0
            and min(map(min, self._rows)) >= 0
            and max(self._used) <= limit
        ):
            return
        # Something is wrong: name the first culprit in oracle order.
        for bank in self._banks:
            if not 0 <= bank < self.config.num_banks:
                raise AllocationInvalid(
                    f"bank {bank} out of range", bank=bank
                )
            for app, mb in self.bank_items(bank):
                if mb < 0:
                    raise AllocationInvalid(
                        f"negative allocation for {app} in bank {bank}",
                        bank=bank, app=app,
                    )
            if self.bank_used(bank) > limit:
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
        """Enforce the no-shared-banks security invariant.

        Raises :class:`~repro.errors.AllocationInvalid` naming the
        first shared bank and the VMs resident in it. Designs that
        intentionally share banks (S-NUCA baselines) simply don't call
        this.
        """
        for bank in self.violates_bank_isolation(vm_of_app):
            vms = sorted(self.bank_vms(vm_of_app)[bank])
            raise AllocationInvalid(
                f"bank {bank} shared by VMs {vms} "
                "(no-shared-banks invariant violated)",
                bank=bank,
                vms=tuple(vms),
            )


class _ColumnStats:
    """Per-app statistics of one allocation state, every app at once.

    Each is a column reduction of a float64 copy of the matrix, done
    for all columns in one vectorised pass and kept until the next
    write (:class:`Allocation` drops it on every write): sizes and the
    held apps at once, associativity and per-tile NoC averages (for
    each mesh asked about) on their first read. Every reduction runs
    down the slot axis in order, so each column adds in first-touch
    order, exactly as the oracle's scalar loops do.
    """

    def __init__(self, alloc: Allocation):
        na = len(alloc._apps)
        #: slot x app MB as float64, the touched banks' ids, and each
        #: cell's share of its app's total. The oracle's weighted sums
        #: skip cells that are not positive (a ``remove`` may leave one
        #: just below zero), so those get share 0; the total still sums
        #: every cell, as the oracle's ``app_size`` does. (Columns of
        #: apps holding nothing are masked by ``held`` wherever read.)
        rows = alloc._rows
        self.mb = (
            np.array(rows, dtype=np.float64)[:, :na]
            if rows
            else np.zeros((0, na))
        )
        self.banks = np.array(alloc._banks, dtype=np.int64)
        sizes = self.mb.cumsum(axis=0)[-1] if rows else np.zeros(na)
        self.held = sizes > 0
        self.share = self.mb / np.where(self.held, sizes, 1.0)
        np.maximum(self.share, 0.0, out=self.share)
        self.size_array = sizes
        self.sizes: List[float] = sizes.tolist()
        self.apps: List[str] = sorted(
            compress(alloc._apps, (self.mb > 0).any(axis=0).tolist())
        )
        self._ways: Optional[List[float]] = None
        self._ways_array = np.zeros(0)
        self._ways_groups: List[Tuple[str, str]] = []
        self._noc: Dict[
            Tuple[str, MeshNoc], Tuple[np.ndarray, np.ndarray]
        ] = {}

    def ways(self, alloc: Allocation) -> List[float]:
        """``ways_per_bank`` of every column (recomputed if the
        allocation's ``partition_groups`` changed since)."""
        # Compared as ordered items: the group sums follow insertion
        # order, so a reordered but equal mapping is a different sum.
        groups = list(alloc.partition_groups.items())
        if self._ways is None or groups != self._ways_groups:
            mb = self.mb
            group_mb = mb
            col = alloc._col
            for group in dict.fromkeys(alloc.partition_groups.values()):
                # The oracle sums a bank's group members in
                # ``partition_groups`` insertion order; members never
                # granted space add 0.0 there.
                members = [
                    a
                    for a, g in alloc.partition_groups.items()
                    if g == group
                ]
                cols = [col[a] for a in members if a in col]
                if not cols:
                    continue
                total = mb[:, cols[0]]
                for k in cols[1:]:
                    total = total + mb[:, k]
                if group_mb is mb:
                    group_mb = mb.copy()
                group_mb[:, cols] = total[:, None]
            cfg = alloc.config
            ways_per_mb = cfg.llc_bank_ways / cfg.llc_bank_mb
            if mb.shape[0]:
                ways = ((group_mb * ways_per_mb) * self.share).cumsum(
                    axis=0
                )[-1]
                ways = np.where(self.held, ways, 0.0)
            else:
                ways = np.zeros(mb.shape[1])
            self._ways_array = ways
            self._ways = ways.tolist()
            self._ways_groups = groups
        return self._ways

    def noc_average(
        self,
        alloc: Allocation,
        kind: str,
        noc: MeshNoc,
        tile: int,
        j: Optional[int],
    ) -> float:
        """The ``kind`` ("rtt" or "hops") average from ``tile`` for
        column ``j`` (``None``: an app with no column)."""
        table = self._noc.get((kind, noc))
        if table is None:
            table = self._noc[kind, noc] = self._noc_table(
                alloc, kind, noc
            )
        if j is None:
            return float(table[1][tile])
        return float(table[0][tile, j])

    def _noc_table(
        self, alloc: Allocation, kind: str, noc: MeshNoc
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(avg[tile, col], snuca[tile])`` over every tile."""
        # Integer cycle / hop counts, exact in float64 either way.
        per_pair = (
            noc.round_trip_matrix if kind == "rtt" else noc.hop_matrix
        )
        n = alloc.config.num_banks
        # No LLC space: accesses still traverse to a home bank; model
        # as the S-NUCA average. Sums of exact integers cannot depend
        # on the summation order.
        snuca = per_pair[:, :n].sum(axis=1) / n
        ns = self.mb.shape[0]
        if not ns:
            avg = np.repeat(snuca[:, None], self.mb.shape[1], axis=1)
        else:
            # slot x tile x app terms, summed down the slots in order.
            terms = (
                per_pair[:, self.banks].T[:, :, None]
                * self.share[:, None, :]
            )
            total = terms[0].copy()
            for row in terms[1:]:
                total += row
            avg = np.where(self.held, total, snuca[:, None])
        return avg, snuca


def stacked_app_terms(
    requests: Sequence[Tuple[Allocation, Sequence[str]]],
    distances: np.ndarray,
    snuca: np.ndarray,
) -> Tuple[List[float], np.ndarray, np.ndarray, np.ndarray]:
    """Per-app terms of many allocations at once.

    ``requests`` lists ``(allocation, apps)`` pairs; their apps, in
    order, are the rows of the result. ``distances[0, k, b]`` and
    ``distances[1, k, b]`` are the round trip and the hop count from
    row ``k``'s tile to bank ``b``, and ``snuca[:, k]`` their averages
    over every bank (rows of :attr:`MeshNoc.distance_tables
    <repro.noc.mesh.MeshNoc.distance_tables>` gathered by tile).

    Returns ``(sizes, ways, rtt, hops)``: for each row, what
    :meth:`Allocation.app_size` (a list, with its exact values),
    :meth:`~Allocation.ways_per_bank`, :meth:`~Allocation.avg_noc_rtt`
    and :meth:`~Allocation.avg_noc_hops` return for that app. Each
    allocation's slots become one zero-padded row segment, and the NoC
    averages run down the slots in order as :meth:`_ColumnStats.
    _noc_table` does (padding adds ``+0.0`` after the last slot), so
    every value is bit-identical to the one-app query.
    """
    parts = []
    width = 0
    for alloc, apps in requests:
        stats = alloc._stats() if alloc._banks else None
        if stats is not None:
            width = max(width, len(alloc._banks))
        parts.append((alloc, apps, stats))
    rows = sum(len(apps) for _, apps, _ in parts)
    share = np.zeros((rows, width))
    banks = np.zeros((rows, width), dtype=np.int64)
    held = np.zeros(rows, dtype=bool)
    ways = np.zeros(rows)
    sizes: List[float] = []
    r = 0
    for alloc, apps, stats in parts:
        n = len(apps)
        if stats is None:
            # No slot at all: int 0 sizes, exactly as app_size has them.
            sizes += [alloc.app_size(a) for a in apps]
            r += n
            continue
        stats.ways(alloc)
        cols = [alloc._col.get(a) for a in apps]
        gone = None
        if None in cols:
            gone = np.array([c is None for c in cols])
            cols = [0 if c is None else c for c in cols]
        slots = len(stats.banks)
        share[r : r + n, :slots] = stats.share.T[cols]
        banks[r : r + n, :slots] = stats.banks
        here = stats.held[cols]
        size = stats.size_array[cols]
        way = stats._ways_array[cols]
        if gone is not None:
            here &= ~gone
            size = np.where(gone, 0.0, size)
            way = np.where(gone, 0.0, way)
        held[r : r + n] = here
        ways[r : r + n] = way
        sizes += size.tolist()
        r += n
    averages = snuca
    if width:
        terms = distances[:, np.arange(rows)[:, None], banks] * share
        averages = np.where(held, terms.cumsum(axis=2)[:, :, -1], snuca)
    return sizes, ways, averages[0], averages[1]
