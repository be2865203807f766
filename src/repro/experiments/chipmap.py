"""Chip maps: render data placements like the paper's Figs. 1 and 2.

The paper's motivating figures draw the 5x4 chip with each LLC bank
coloured by the VM (and shaded by the app) whose data it holds. This
module renders the same view as text: one cell per tile showing which
VMs own the bank's capacity, so a reader can *see* S-NUCA striping
(every VM in every bank), Jigsaw's clustering, and Jumanji's strict
per-VM bank ownership.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from ..core.allocation import Allocation

__all__ = ["render_chip", "render_design_comparison"]


def _bank_label(
    alloc: Allocation, bank: int, vm_of_app: Mapping[str, int]
) -> str:
    """Cell label: the VMs resident in a bank, '....' if empty.

    A bank owned by one VM shows e.g. ``[2 ]``; a bank shared by
    several VMs shows all their ids, e.g. ``[013]`` — the visual
    signature of a NUCA-oblivious design.
    """
    vms = sorted(
        {vm_of_app[a] for a in alloc.apps_in_bank(bank)}
    )
    if not vms:
        return "...."
    ids = "".join(str(v % 10) for v in vms[:4])
    return f"{ids:<4s}"


def render_chip(
    alloc: Allocation,
    vm_of_app: Mapping[str, int],
    title: str = "",
    lc_tiles: Optional[Mapping[int, str]] = None,
) -> str:
    """Render one allocation as a mesh of bank-ownership cells.

    ``lc_tiles`` optionally marks tiles hosting latency-critical
    threads (the paper highlights them with black borders); they are
    rendered with a ``*`` suffix.
    """
    config = alloc.config
    lines: List[str] = []
    if title:
        lines.append(title)
    for row in range(config.mesh_rows):
        cells = []
        for col in range(config.mesh_cols):
            tile = row * config.mesh_cols + col
            label = _bank_label(alloc, tile, vm_of_app)
            mark = "*" if lc_tiles and tile in lc_tiles else " "
            cells.append(f"[{label}]{mark}")
        lines.append(" ".join(cells))
    lines.append(
        "cells list the VMs with data in each bank; "
        "* = latency-critical core"
    )
    return "\n".join(lines)


def render_design_comparison(
    allocations: Mapping[str, Allocation],
    vm_of_app: Mapping[str, int],
    lc_tiles: Optional[Mapping[int, str]] = None,
) -> str:
    """Fig. 2: the same workload under several LLC designs."""
    if not allocations:
        raise ValueError("need at least one allocation")
    blocks = [
        render_chip(alloc, vm_of_app, title=f"--- {name}",
                    lc_tiles=lc_tiles)
        for name, alloc in allocations.items()
    ]
    return "\n\n".join(blocks)
