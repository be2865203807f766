"""The LLC designs compared in the paper (Sec. VII "LLC designs").

Every design maps a :class:`~repro.core.context.PlacementContext` to an
:class:`~repro.core.allocation.Allocation`:

* **Static** — the normalisation baseline: each LC app gets four ways
  striped across all banks; batch apps share the rest, unpartitioned.
* **Adaptive** — S-NUCA; LC allocations sized by feedback control and
  way-partitioned across all banks; batch unpartitioned (partitioning
  batch would cost associativity).
* **VM-Part** — Adaptive plus per-VM partitions for batch data in every
  bank (defends conflict attacks only, pays associativity).
* **Jigsaw** — D-NUCA minimising data movement; oblivious to deadlines
  and VM boundaries.
* **Jumanji** — this paper: deadlines via feedback + nearby placement,
  bank isolation between VMs, Jigsaw within each VM.
* **JumanjiInsecure** — Jumanji without bank isolation (sensitivity).
* **JumanjiIdealBatch** — infeasible upper bound: batch apps placed in a
  *separate copy* of the LLC with no LC competition (capacity still
  bounded), LC apps placed nearby in their own copy, VMs isolated.
"""

from __future__ import annotations

from typing import Dict, List

from .allocation import Allocation
from .context import PlacementContext
from .jigsaw import jigsaw_place, place_sizes_near_tiles
from .jumanji import jumanji_placer
from .latcrit import lat_crit_placer
from .lookahead import lookahead

__all__ = [
    "LlcDesign",
    "StaticDesign",
    "AdaptiveDesign",
    "VmPartDesign",
    "JigsawDesign",
    "JumanjiDesign",
    "JumanjiInsecureDesign",
    "JumanjiIdealBatchDesign",
    "DESIGNS",
    "make_design",
]


class LlcDesign:
    """Interface: one LLC management policy."""

    name = "base"
    #: Whether the design sizes LC allocations by feedback control.
    uses_feedback = False
    #: Whether batch data is placed in a duplicate LLC (Ideal Batch).
    ideal_batch = False

    def allocate(self, ctx: PlacementContext) -> Allocation:
        """Compute this design's allocation for the current epoch."""
        raise NotImplementedError

    def _spread_lc_snuca(
        self, ctx: PlacementContext, alloc: Allocation
    ) -> None:
        """Stripe each LC app's allocation across every bank (S-NUCA)."""
        n = ctx.config.num_banks
        for app in ctx.lc_apps:
            size = ctx.lat_size(app)
            if size <= 0:
                continue
            per_bank = size / n
            # A bank's free space only depends on *earlier apps'*
            # grants there, so the whole stripe can be computed
            # up-front. A bank over-filled by rounding gets nothing.
            alloc.add_stripe(app, [
                max(min(per_bank, free), 0.0)
                for free in alloc.bank_free_all()
            ])

    def _spread_batch_shared(
        self, ctx: PlacementContext, alloc: Allocation
    ) -> None:
        """Model unpartitioned batch sharing of the remaining space.

        Free-for-all occupancy converges to shares proportional to each
        app's miss *pressure*; we model occupancy as intensity-weighted
        shares striped across all banks, recorded in ``shared_batch`` so
        the performance model knows there is no quota (and no
        associativity loss, but also no isolation).
        """
        batch = ctx.batch_apps
        if not batch:
            return
        free = alloc.bank_free_all()
        weights = {a: max(ctx.apps[a].intensity, 1e-9) for a in batch}
        total_w = sum(weights.values())
        # Shares come from the pre-spread free snapshot, so they don't
        # depend on add order; striping app by app appends apps to each
        # bank in the same order a bank-by-bank loop would.
        alloc.add_stripes(batch, [
            [
                free_mb * weights[app] / total_w if free_mb > 0 else 0.0
                for free_mb in free
            ]
            for app in batch
        ])
        alloc.shared_batch.update(batch)


class StaticDesign(LlcDesign):
    """Naive static allocation: 4 ways per LC app, rest shared."""

    name = "Static"
    uses_feedback = False

    def __init__(self, lc_ways: int = 4):
        if lc_ways < 1:
            raise ValueError("need at least one way per LC app")
        self.lc_ways = lc_ways

    def allocate(self, ctx: PlacementContext) -> Allocation:
        """See :meth:`LlcDesign.allocate`."""
        alloc = ctx.new_allocation(partition_mode="lc-only")
        cfg = ctx.config
        lc_mb = cfg.llc_size_mb * self.lc_ways / cfg.llc_bank_ways
        per_bank = lc_mb / cfg.num_banks
        for app in ctx.lc_apps:
            alloc.add_stripe(app, [per_bank] * cfg.num_banks)
        self._spread_batch_shared(ctx, alloc)
        return alloc


class AdaptiveDesign(LlcDesign):
    """S-NUCA with feedback-sized, way-partitioned LC allocations."""

    name = "Adaptive"
    uses_feedback = True

    def allocate(self, ctx: PlacementContext) -> Allocation:
        """See :meth:`LlcDesign.allocate`."""
        alloc = ctx.new_allocation(partition_mode="lc-only")
        self._spread_lc_snuca(ctx, alloc)
        self._spread_batch_shared(ctx, alloc)
        return alloc


class VmPartDesign(LlcDesign):
    """Adaptive plus per-VM batch partitions within every bank."""

    name = "VM-Part"
    uses_feedback = True

    def __init__(self, step_mb: float = 0.125):
        self.step_mb = step_mb

    def allocate(self, ctx: PlacementContext) -> Allocation:
        """See :meth:`LlcDesign.allocate`."""
        alloc = ctx.new_allocation(partition_mode="per-vm")
        self._spread_lc_snuca(ctx, alloc)
        batch = ctx.batch_apps
        if not batch:
            return alloc
        # Partition the remaining capacity among VMs (Lookahead over
        # combined VM curves), then stripe each VM's batch share across
        # all banks: S-NUCA with per-VM way-partitions.
        from .jumanji import vm_batch_curves  # local to avoid cycle

        curves = vm_batch_curves(ctx)
        free_total = sum(
            alloc.bank_free(b) for b in range(ctx.config.num_banks)
        )
        # Every VM keeps at least one way's worth of space in each bank:
        # CAT cannot allocate zero ways, so no VM ever vanishes from the
        # banks (which is also why VM-Part remains fully exposed to port
        # attacks — every VM's data is in every bank).
        min_mb = (
            ctx.config.llc_size_mb / ctx.config.llc_bank_ways
        )
        vm_ids = [vm.vm_id for vm in ctx.vms if vm.batch_apps]
        minimums = {vm_id: min_mb for vm_id in vm_ids}
        vm_sizes = lookahead(
            {vm_id: c for vm_id, c in curves.items()},
            free_total,
            self.step_mb,
            minimums={
                vm_id: m
                for vm_id, m in minimums.items()
                if vm_id in curves
            },
        )
        n = ctx.config.num_banks
        for vm in ctx.vms:
            vm_mb = vm_sizes.get(vm.vm_id, 0.0)
            if vm_mb <= 0 or not vm.batch_apps:
                continue
            for app in vm.batch_apps:
                alloc.partition_groups[app] = f"vm{vm.vm_id}"
            # Within the VM partition, apps share: record occupancy
            # proportional to intensity (they are not partitioned from
            # each other, only from other VMs).
            weights = {
                a: max(ctx.apps[a].intensity, 1e-9)
                for a in vm.batch_apps
            }
            total_w = sum(weights.values())
            # Each bank's free space depends only on earlier grants
            # there, so the VM's shares can be computed up-front;
            # striping app by app appends the VM's apps to every bank
            # in the same order as a bank-by-bank loop.
            shares = [
                max(min(vm_mb / n, free), 0.0)
                for free in alloc.bank_free_all()
            ]
            alloc.add_stripes(vm.batch_apps, [
                [share * weights[app] / total_w for share in shares]
                for app in vm.batch_apps
            ])
        return alloc


class JigsawDesign(LlcDesign):
    """Jigsaw: D-NUCA minimising data movement, goal-oblivious."""

    name = "Jigsaw"
    uses_feedback = False

    def __init__(self, step_mb: float = 0.125):
        self.step_mb = step_mb

    def allocate(self, ctx: PlacementContext) -> Allocation:
        # All apps — LC and batch alike — compete purely on miss curves.
        # LC apps at low utilisation have tiny curves, so Jigsaw gives
        # them little space: the paper's deadline-violation mechanism.
        """See :meth:`LlcDesign.allocate`."""
        return jigsaw_place(ctx, step_mb=self.step_mb)


class JumanjiDesign(LlcDesign):
    """Jumanji (paper Listing 3)."""

    name = "Jumanji"
    uses_feedback = True

    def __init__(self, step_mb: float = 0.125):
        self.step_mb = step_mb

    def allocate(self, ctx: PlacementContext) -> Allocation:
        """See :meth:`LlcDesign.allocate`."""
        return jumanji_placer(ctx, step_mb=self.step_mb)


class JumanjiInsecureDesign(LlcDesign):
    """Jumanji without bank isolation (sensitivity, Fig. 16)."""

    name = "Jumanji: Insecure"
    uses_feedback = True

    def __init__(self, step_mb: float = 0.125):
        self.step_mb = step_mb

    def allocate(self, ctx: PlacementContext) -> Allocation:
        """See :meth:`LlcDesign.allocate`."""
        return jumanji_placer(
            ctx, step_mb=self.step_mb, enforce_isolation=False
        )


class JumanjiIdealBatchDesign(LlcDesign):
    """Infeasible idealised design (sensitivity, Fig. 16).

    Batch and LC data live in *separate copies* of the LLC: LC apps are
    placed nearby in their copy; batch apps split the remaining capacity
    (LLC size minus LC reservations) but place it in an empty 20 MB LLC,
    unconstrained by LC placements. VMs are still isolated into distinct
    banks in the batch copy.
    """

    name = "Jumanji: Ideal Batch"
    uses_feedback = True
    ideal_batch = True

    def __init__(self, step_mb: float = 0.125):
        self.step_mb = step_mb

    def allocate(self, ctx: PlacementContext) -> Allocation:
        # LC copy: nearby placement, unlimited by batch.
        """See :meth:`LlcDesign.allocate`."""
        return lat_crit_placer(ctx)

    def allocate_batch(self, ctx: PlacementContext) -> Allocation:
        """Batch copy of the LLC (separate allocation object)."""
        alloc = ctx.new_allocation(partition_mode="per-app")
        batch = ctx.batch_apps
        if not batch:
            return alloc
        lc_total = sum(ctx.lat_size(a) for a in ctx.lc_apps)
        capacity = max(ctx.config.llc_size_mb - lc_total, 0.0)
        # Divide capacity per app, then place near tiles with whole-bank
        # VM ownership: assign banks to VMs proportionally, closest to
        # each VM's centroid (security preserved even in the ideal).
        curves = {a: ctx.apps[a].curve for a in batch}
        sizes = lookahead(curves, capacity, self.step_mb)
        vm_mb = {
            vm.vm_id: sum(sizes.get(a, 0.0) for a in vm.batch_apps)
            for vm in ctx.vms
        }
        total_mb = sum(vm_mb.values())
        n = ctx.config.num_banks
        banks_left = set(range(n))
        banks_of: Dict[int, List[int]] = {v.vm_id: [] for v in ctx.vms}
        quotas = {
            vm_id: max(
                1, round(n * (mb / total_mb)) if total_mb > 0 else 1
            )
            for vm_id, mb in vm_mb.items()
        }
        order = sorted(quotas)
        while banks_left:
            progressed = False
            for vm_id in order:
                if not banks_left:
                    break
                if len(banks_of[vm_id]) >= quotas[vm_id]:
                    continue
                centroid = ctx.vm_centroid(ctx.vm_by_id(vm_id))
                pick = min(
                    banks_left,
                    key=lambda b: (ctx.noc.hops(centroid, b), b),
                )
                banks_left.remove(pick)
                banks_of[vm_id].append(pick)
                progressed = True
            if not progressed:
                for i, bank in enumerate(sorted(banks_left)):
                    banks_of[order[i % len(order)]].append(bank)
                banks_left = set()
        for vm in ctx.vms:
            if not vm.batch_apps:
                continue
            vm_sizes = {
                a: sizes.get(a, 0.0) for a in vm.batch_apps
            }
            # Cap at the VM's bank capacity.
            cap = len(banks_of[vm.vm_id]) * ctx.config.llc_bank_mb
            scale = min(1.0, cap / max(sum(vm_sizes.values()), 1e-12))
            vm_sizes = {a: s * scale for a, s in vm_sizes.items()}
            tiles = {a: ctx.apps[a].tile for a in vm.batch_apps}
            place_sizes_near_tiles(
                vm_sizes, tiles, ctx, alloc,
                allowed_banks=banks_of[vm.vm_id],
            )
        return alloc


#: Registry of all designs by canonical name.
DESIGNS = {
    "Static": StaticDesign,
    "Adaptive": AdaptiveDesign,
    "VM-Part": VmPartDesign,
    "Jigsaw": JigsawDesign,
    "Jumanji": JumanjiDesign,
    "Jumanji: Insecure": JumanjiInsecureDesign,
    "Jumanji: Ideal Batch": JumanjiIdealBatchDesign,
}


def make_design(name: str, **kwargs) -> LlcDesign:
    """Construct a design by its canonical name."""
    try:
        cls = DESIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown design {name!r}; choose from {sorted(DESIGNS)}"
        ) from None
    return cls(**kwargs)
