"""Security metrics (paper Sec. VII "Security metrics").

The paper's vulnerability metric for port attacks: for each LLC access,
count the applications *from other VMs* that occupy any space in the
accessed bank; average over all accesses. S-NUCA designs score 15 (all
untrusted apps see every access in the default 4x5-app workload); Jigsaw
scores ~0.6 heuristically; Jumanji scores exactly 0 by construction.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..core.allocation import Allocation

__all__ = [
    "potential_attackers_per_access",
    "potential_attackers_per_access_fast",
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


def potential_attackers_per_access_fast(
    alloc: Allocation,
    vm_of_app: Mapping[str, int],
    access_weights: Mapping[str, float] = None,
) -> float:
    """Accelerated-engine copy of :func:`potential_attackers_per_access`.

    Bit-identical restructure over the dense allocation matrix
    (:meth:`~repro.core.allocation.Allocation.grant_matrix`): attacker
    counts are integers (precomputed per bank and VM in one sweep), and
    the per-victim accumulations run as ``np.cumsum`` rows. ``cumsum``
    accumulates strictly left-to-right — unlike ``np.sum``'s pairwise
    tree — so each row replays exactly the scalar implementation's
    addition order; zero-MB terms contribute ``+0.0``, which cannot
    change a non-negative running sum. The scalar version above stays
    the frozen reference.
    """
    apps = alloc.apps()
    if not apps:
        return 0.0
    # Banks in first-touch order (the oracle's ``allocs`` order); cells
    # an app never got stay 0.0, matching the scalar path's
    # ``bank_map.get(a, 0.0)``. Attacker counts are exact small
    # integers in float64, so mask sums equal the scalar ``+= 1``
    # tallies bit for bit.
    banks, mb_mat = alloc.grant_matrix(apps)
    vm_ids = sorted({vm_of_app[a] for a in apps})
    vm_row = {vm: i for i, vm in enumerate(vm_ids)}
    mask = (mb_mat > 0).astype(np.float64)
    bank_total = mask.sum(axis=0)
    app_vm = [vm_row[vm_of_app[a]] for a in apps]
    one_hot = np.zeros((len(vm_ids), len(apps)))
    one_hot[app_vm, range(len(apps))] = 1.0
    by_vm = one_hot @ mask
    # Sizes: left-to-right over bank-insertion order (= app_size).
    sizes = np.cumsum(mb_mat, axis=1)[:, -1]
    # Exposure: left-to-right over ascending bank ids.
    order = np.argsort(banks, kind="stable")
    mb_sorted = mb_mat[:, order]
    attackers = (bank_total[None, :] - by_vm[app_vm, :])[:, order]
    safe = np.where(sizes > 0, sizes, 1.0)
    exposures = np.cumsum(
        (mb_sorted / safe[:, None]) * attackers, axis=1
    )[:, -1]

    total_weight = 0.0
    weighted_attackers = 0.0
    for victim, size, exposure in zip(
        apps, sizes.tolist(), exposures.tolist()
    ):
        weight = (
            access_weights.get(victim, 0.0)
            if access_weights is not None
            else 1.0
        )
        if weight <= 0:
            continue
        if size <= 0:
            continue
        weighted_attackers += weight * exposure
        total_weight += weight
    if total_weight == 0:
        return 0.0
    return weighted_attackers / total_weight


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
