"""Security metrics (paper Sec. VII "Security metrics").

The paper's vulnerability metric for port attacks: for each LLC access,
count the applications *from other VMs* that occupy any space in the
accessed bank; average over all accesses. S-NUCA designs score 15 (all
untrusted apps see every access in the default 4x5-app workload); Jigsaw
scores ~0.6 heuristically; Jumanji scores exactly 0 by construction.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.allocation import Allocation

__all__ = [
    "potential_attackers_per_access",
    "potential_attackers_per_access_fast",
    "PotentialAttackers",
    "bank_sharing_matrix",
    "banks_to_flush_on_switch",
]


def potential_attackers_per_access(
    alloc: Allocation,
    vm_of_app: Mapping[str, int],
    access_weights: Mapping[str, float] = None,
) -> float:
    """Average number of potential attackers per LLC access.

    An app's accesses are spread over its banks in proportion to its
    allocation there (that is what proportional placement descriptors
    do). ``access_weights`` weights victims by their LLC access rate;
    uniform weighting is used when omitted (matching the paper's
    "averaged across all applications and LLC accesses" for steady
    access rates).
    """
    apps = alloc.apps()
    if not apps:
        return 0.0
    # Residents per bank, by VM.
    residents: Dict[int, Dict[str, int]] = {}
    for bank in range(alloc.config.num_banks):
        here = alloc.apps_in_bank(bank)
        if here:
            residents[bank] = {a: vm_of_app[a] for a in here}

    total_weight = 0.0
    weighted_attackers = 0.0
    for victim in apps:
        weight = (
            access_weights.get(victim, 0.0)
            if access_weights is not None
            else 1.0
        )
        if weight <= 0:
            continue
        size = alloc.app_size(victim)
        if size <= 0:
            continue
        victim_vm = vm_of_app[victim]
        exposure = 0.0
        for bank in alloc.app_banks(victim):
            frac = alloc.get(bank, victim) / size
            attackers = sum(
                1
                for other, vm in residents.get(bank, {}).items()
                if vm != victim_vm
            )
            exposure += frac * attackers
        weighted_attackers += weight * exposure
        total_weight += weight
    if total_weight == 0:
        return 0.0
    return weighted_attackers / total_weight


class PotentialAttackers:
    """:func:`potential_attackers_per_access` over a fixed list of
    workloads, one allocation per workload per call.

    ``vm_maps[i]`` and ``access_weights[i]`` describe workload ``i``:
    every app it runs, and its weights (``None``: uniform). Calling the
    object with ``allocs`` returns, for each ``i``, exactly
    ``potential_attackers_per_access(allocs[i], vm_maps[i],
    access_weights[i])``.

    Every workload's apps, in name order, become rows of one dense
    ``rows x banks`` matrix (:meth:`~repro.core.allocation.Allocation.
    bank_matrix`); what depends only on the workloads (row order,
    weights, VM membership) is laid out once, here. Attacker counts are
    integers, tallied per bank, per allocation and per VM with 0/1
    matrix products, so they equal the scalar ``+= 1`` tallies bit for
    bit. Every accumulation runs as a ``np.cumsum`` row: ``cumsum``
    adds strictly left to right — unlike ``np.sum``'s pairwise tree —
    so each row replays the scalar implementation's order (banks
    ascending for an exposure, apps in name order for the weighted
    sums), and the cells the scalar loop skips (banks an app does not
    hold, apps that hold nothing) add ``+0.0``, which cannot change a
    running sum that is not ``-0.0``.
    """

    def __init__(
        self,
        vm_maps: Sequence[Mapping[str, int]],
        access_weights: Sequence[Optional[Mapping[str, float]]],
    ):
        self.apps = [sorted(vm_map) for vm_map in vm_maps]
        owner: List[int] = []
        weights: List[float] = []
        vm_keys: List[Tuple[int, int]] = []
        self.rows: List[slice] = []
        for i, (apps, vm_of_app, weight_of) in enumerate(
            zip(self.apps, vm_maps, access_weights)
        ):
            self.rows.append(slice(len(owner), len(owner) + len(apps)))
            owner += [i] * len(apps)
            weights += (
                [weight_of.get(a, 0.0) for a in apps]
                if weight_of is not None
                else [1.0] * len(apps)
            )
            vm_keys += [(i, vm_of_app[a]) for a in apps]
        n, rows = len(owner), np.arange(len(owner))
        self.owner = np.asarray(owner, dtype=np.int64)
        vm_index = {key: k for k, key in enumerate(dict.fromkeys(vm_keys))}
        self.vm = np.asarray([vm_index[k] for k in vm_keys], dtype=np.int64)
        self.weight = np.asarray(weights, dtype=float)
        self.one_hot = np.zeros((len(vm_maps), n))
        self.one_hot[self.owner, rows] = 1.0
        self.vm_hot = np.zeros((len(vm_index), n))
        self.vm_hot[self.vm, rows] = 1.0
        # Each row's place in its workload's running sums, after a
        # leading 0.0 (the scalar accumulators' start value).
        self.pos = rows - np.searchsorted(self.owner, self.owner) + 1
        self.width = 1 + max((len(apps) for apps in self.apps), default=0)

    def __call__(self, allocs: Sequence[Allocation]) -> List[float]:
        banks = max(
            (alloc.config.num_banks for alloc in allocs), default=0
        )
        mb = np.zeros((len(self.owner), banks))
        size = np.zeros(len(self.owner))
        for alloc, apps, rows in zip(allocs, self.apps, self.rows):
            block, sizes = alloc.bank_matrix(apps)
            mb[rows, : block.shape[1]] = block
            size[rows] = sizes
        mask = (mb > 0).astype(np.float64)
        attackers = (self.one_hot @ mask)[self.owner] - (
            self.vm_hot @ mask
        )[self.vm]
        safe = np.where(size > 0, size, 1.0)
        # Only held cells spread accesses (the scalar loop walks
        # app_banks); a cell a remove left just below zero adds +0.0.
        held = np.where(mb > 0, mb, 0.0)
        exposure = np.cumsum((held / safe[:, None]) * attackers, axis=1)[
            :, -1
        ]
        kept = (self.weight > 0) & (size > 0)
        sums = np.zeros((2, len(allocs), self.width))
        sums[0, self.owner, self.pos] = np.where(kept, self.weight, 0.0)
        sums[1, self.owner, self.pos] = np.where(
            kept, self.weight * exposure, 0.0
        )
        total_weight, weighted = sums.cumsum(axis=2)[:, :, -1].tolist()
        return [
            w / t if t != 0 else 0.0 for w, t in zip(weighted, total_weight)
        ]


def potential_attackers_per_access_fast(
    allocs: Sequence[Allocation],
    vm_maps: Sequence[Mapping[str, int]],
    access_weights: Sequence[Optional[Mapping[str, float]]],
) -> List[float]:
    """:func:`potential_attackers_per_access` of many allocations at
    once, through :class:`PotentialAttackers` (entry ``i`` is
    bit-identical to ``potential_attackers_per_access(allocs[i],
    vm_maps[i], access_weights[i])``)."""
    return PotentialAttackers(vm_maps, access_weights)(allocs)


def banks_to_flush_on_switch(
    alloc: Allocation,
    incoming_vm: int,
    vm_of_app: Mapping[str, int],
) -> list:
    """Banks that must be flushed when ``incoming_vm`` is swapped in.

    When VMs outnumber LLC banks, some banks are shared across VMs by
    necessity; Jumanji handles this by flushing shared cache on context
    switch — "but note that only the LLC banks shared with the
    swapped-in VM must be flushed" (Sec. IV-B). A bank needs flushing
    iff the incoming VM will use it *and* another VM's data currently
    resides there.
    """
    flush = []
    for bank in range(alloc.config.num_banks):
        residents = {
            vm_of_app[a] for a in alloc.apps_in_bank(bank)
        }
        if incoming_vm in residents and len(residents) > 1:
            flush.append(bank)
    return flush


def bank_sharing_matrix(
    alloc: Allocation, vm_of_app: Mapping[str, int]
) -> Dict[int, int]:
    """Number of distinct VMs resident in each bank (1 = isolated)."""
    out = {}
    for bank in range(alloc.config.num_banks):
        vms = {vm_of_app[a] for a in alloc.apps_in_bank(bank)}
        if vms:
            out[bank] = len(vms)
    return out
