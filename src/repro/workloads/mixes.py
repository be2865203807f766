"""Workload mix generation (paper Sec. VII).

Each experiment runs four latency-critical applications with a random mix
of sixteen SPEC applications, arranged as four VMs of five cores each
(one LC + four batch apps per VM). This module generates those mixes
reproducibly and builds the corresponding :class:`~repro.config.VmSpec`
lists, including the generalised configurations of Fig. 17 (1..12 VMs).
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional, Sequence, Tuple

from ..config import SystemConfig, VmSpec
from .spec import profile_names
from .tailbench import lc_profile_names

__all__ = [
    "random_batch_mix",
    "random_lc_mix",
    "corner_core_layout",
    "build_vms",
    "build_vm_configuration",
    "instance_name",
    "base_app",
]


def instance_name(app: str, index: int) -> str:
    """Unique per-instance app id (apps can repeat within a mix)."""
    return f"{app}#{index}"


def base_app(instance: str) -> str:
    """Profile name behind an instance id."""
    return instance.split("#", 1)[0]


def random_batch_mix(
    seed: int, count: int = 16, rng: Optional[random.Random] = None
) -> Tuple[str, ...]:
    """A random multiset of ``count`` batch apps (with replacement).

    The paper draws sixteen SPEC applications at random per mix; sampling
    with replacement matches "randomly chosen from SPEC CPU2006".
    """
    rng = rng if rng is not None else random.Random(seed)
    names = profile_names()
    return tuple(rng.choice(names) for _ in range(count))


def random_lc_mix(
    seed: int, count: int = 4, rng: Optional[random.Random] = None
) -> Tuple[str, ...]:
    """A random mix of ``count`` LC apps (for the 'Mixed' workloads)."""
    rng = rng if rng is not None else random.Random(seed ^ 0x5CA1AB1E)
    names = lc_profile_names()
    return tuple(rng.choice(names) for _ in range(count))


def corner_core_layout(config: SystemConfig) -> List[List[int]]:
    """Four balanced corner clusters, LC corner cores first.

    Mirrors the paper's Fig. 2 layout: each VM occupies a cluster of
    ``num_cores/4`` cores around one chip corner, with its LC app on the
    corner core. Tiles are assigned to the nearest corner that still has
    capacity (ties broken by corner order), so meshes whose sides do not
    split evenly — like the paper's 5x4 — still yield balanced clusters.
    """
    return [list(q) for q in _corner_clusters(config)]


@functools.lru_cache(maxsize=None)
def _corner_clusters(config: SystemConfig) -> Tuple[Tuple[int, ...], ...]:
    """:func:`corner_core_layout`, computed once per chip config (every
    new mix builds its VMs from it)."""
    cols, rows = config.mesh_cols, config.mesh_rows
    if config.num_cores % 4 != 0:
        raise ValueError("corner layout needs a multiple of 4 cores")
    per_quadrant = config.num_cores // 4
    corners = (
        0,
        cols - 1,
        (rows - 1) * cols,
        rows * cols - 1,
    )

    def dist(tile: int, corner: int) -> int:
        tc, tr = config.tile_coords(tile)
        cc, cr = config.tile_coords(corner)
        return abs(tc - cc) + abs(tr - cr)

    quadrants: List[List[int]] = [[c] for c in corners]
    remaining = [
        t for t in range(config.num_cores) if t not in corners
    ]
    # Assign tiles in order of how strongly they prefer one corner over
    # the others, so contested central tiles are placed last.
    remaining.sort(
        key=lambda t: (
            sorted(dist(t, c) for c in corners)[1]
            - min(dist(t, c) for c in corners),
        ),
        reverse=True,
    )
    for tile in remaining:
        order = sorted(range(4), key=lambda q: (dist(tile, corners[q]), q))
        for q in order:
            if len(quadrants[q]) < per_quadrant:
                quadrants[q].append(tile)
                break
    return tuple(tuple(q) for q in quadrants)


def build_vms(
    lc_apps: Sequence[str],
    batch_apps: Sequence[str],
    config: SystemConfig,
) -> List[VmSpec]:
    """The paper's default 4 x (1 LC + 4 B) VM arrangement.

    ``lc_apps`` has four entries (one per VM); ``batch_apps`` sixteen
    (four per VM). Instance ids are made unique across the machine.
    """
    if len(lc_apps) != 4:
        raise ValueError("default arrangement needs exactly 4 LC apps")
    if len(batch_apps) != 16:
        raise ValueError("default arrangement needs exactly 16 batch apps")
    quadrants = corner_core_layout(config)
    vms = []
    for vm_id in range(4):
        lc = (instance_name(lc_apps[vm_id], vm_id),)
        batch = tuple(
            instance_name(batch_apps[vm_id * 4 + j], vm_id * 4 + j)
            for j in range(4)
        )
        vms.append(
            VmSpec(
                vm_id=vm_id,
                cores=tuple(quadrants[vm_id]),
                lc_apps=lc,
                batch_apps=batch,
            )
        )
    return vms


def build_vm_configuration(
    num_vms: int,
    lc_apps: Sequence[str],
    batch_apps: Sequence[str],
    config: SystemConfig,
) -> List[VmSpec]:
    """Generalised VM arrangements for the Fig. 17 scaling study.

    Splits the 4 LC + 16 batch apps across ``num_vms`` VMs (1, 2, 4, 5,
    10, or 12 in the paper). Cores are assigned contiguously; each VM
    receives a proportional slice of LC and batch apps. With 12 VMs the
    paper uses one VM per LC app plus one per pair of batch apps.
    """
    if len(lc_apps) != 4 or len(batch_apps) != 16:
        raise ValueError("scaling study uses 4 LC + 16 batch apps")
    if num_vms < 1 or num_vms > 12:
        raise ValueError("num_vms must be in 1..12")

    lc_ids = [instance_name(a, i) for i, a in enumerate(lc_apps)]
    batch_ids = [
        instance_name(a, i + 4) for i, a in enumerate(batch_apps)
    ]

    # Partition apps into VM groups.
    groups: List[Tuple[List[str], List[str]]] = []
    if num_vms <= 4:
        lc_per_vm = [len(lc_ids) // num_vms] * num_vms
        for i in range(len(lc_ids) % num_vms):
            lc_per_vm[i] += 1
        batch_per_vm = [len(batch_ids) // num_vms] * num_vms
        for i in range(len(batch_ids) % num_vms):
            batch_per_vm[i] += 1
        li = bi = 0
        for v in range(num_vms):
            groups.append(
                (
                    lc_ids[li : li + lc_per_vm[v]],
                    batch_ids[bi : bi + batch_per_vm[v]],
                )
            )
            li += lc_per_vm[v]
            bi += batch_per_vm[v]
    else:
        # LC apps get their own VMs; batch apps are grouped to fill the
        # remaining VMs as evenly as possible.
        batch_vms = num_vms - len(lc_ids)
        if batch_vms < 1:
            raise ValueError("need at least one batch VM")
        per = [len(batch_ids) // batch_vms] * batch_vms
        for i in range(len(batch_ids) % batch_vms):
            per[i] += 1
        for lc in lc_ids:
            groups.append(([lc], []))
        bi = 0
        for v in range(batch_vms):
            groups.append(([], batch_ids[bi : bi + per[v]]))
            bi += per[v]

    # Assign cores contiguously, one per app.
    vms: List[VmSpec] = []
    core = 0
    for vm_id, (lc, batch) in enumerate(groups):
        n = len(lc) + len(batch)
        cores = tuple(range(core, core + n))
        core += n
        vms.append(
            VmSpec(
                vm_id=vm_id,
                cores=cores,
                lc_apps=tuple(lc),
                batch_apps=tuple(batch),
            )
        )
    if core > config.num_cores:
        raise ValueError(
            f"configuration needs {core} cores, system has "
            f"{config.num_cores}"
        )
    return vms
