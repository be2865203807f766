"""Whirlpool-style data classification onto virtual caches.

The paper treats one VC per application ("it suffices to think of there
being one VC per application [61, 80]"), but the VC abstraction is
finer: Whirlpool [61] classifies an application's *data* into pools
with different reuse and places each pool separately. This module
implements that extension:

* :func:`profile_page_accesses` — count accesses per page in a trace
  prefix (what an OS would sample from access bits);
* :func:`classify_pages` — split pages into ``num_classes`` pools by
  access frequency (hot pages first);
* :func:`build_classified_page_table` — produce the
  :class:`~repro.vtb.vtb.PageTable` mapping each pool to its own VC, so
  the hot pool can be pinned to the local bank while cold data spills
  to remoter banks.

The classification tests show the payoff: for a skewed (Zipf) app, a
hot-local/cold-remote split lowers average access latency versus
spreading the whole footprint proportionally.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Sequence

from ..workloads.traces import AddressTrace
from .vtb import PageTable

__all__ = [
    "profile_page_accesses",
    "profile_llc_page_accesses",
    "classify_pages",
    "build_classified_page_table",
]

#: Cache lines per 4 KB page (64 B lines).
LINES_PER_PAGE = 64


def profile_page_accesses(
    trace: AddressTrace, accesses: int, page_bits: int = 12
) -> Dict[int, int]:
    """Access counts per page over a trace prefix.

    Line addresses are converted to byte addresses (x64) before the
    page shift, matching the page table's address convention.
    """
    if accesses < 1:
        raise ValueError("need at least one access")
    counts: Counter = Counter()
    shift = page_bits - 6  # line address -> page
    for _ in range(accesses):
        counts[trace.next_line() >> shift] += 1
    return dict(counts)


def profile_llc_page_accesses(
    trace: AddressTrace, accesses: int, page_bits: int = 12
) -> Dict[int, int]:
    """Access counts per page *as seen by the LLC*.

    Whirlpool classifies data by its cache-level behaviour: the raw
    stream's hottest pages are absorbed by the private caches and never
    reach the LLC, so LLC placement must be steered by the L2-miss
    stream. This profiler drives the trace through real L1/L2 models
    and counts only the accesses that reach the LLC.
    """
    if accesses < 1:
        raise ValueError("need at least one access")
    # Local import: vtb is a lower layer than sim; only this profiling
    # convenience reaches upward.
    from ..sim.tracesim import TraceSimulator
    from .vtb import PlacementDescriptor

    sim = TraceSimulator(bank_sets=64)
    sim.add_core(
        0, trace, 0, PlacementDescriptor([0] * 128)
    )
    counts: Counter = Counter()
    shift = page_bits - 6

    def hook(_core: int, line: int) -> None:
        counts[line >> shift] += 1

    sim.llc_access_hook = hook
    sim.run(accesses)
    if not counts:
        raise ValueError(
            "trace never reached the LLC (working set fits in L2)"
        )
    return dict(counts)


def classify_pages(
    page_counts: Mapping[int, int], num_classes: int = 2
) -> List[List[int]]:
    """Partition pages into classes by access frequency.

    Classes are balanced by *access volume*, not page count: class 0
    (hottest) holds the most-accessed pages covering roughly
    ``1/num_classes`` of all accesses, and so on — so the hot class is
    small and extremely reusable, the cold class large and streaming-
    like. Returns a list of page lists, hottest class first.
    """
    if num_classes < 1:
        raise ValueError("need at least one class")
    if not page_counts:
        raise ValueError("no pages profiled")
    pages = sorted(
        page_counts, key=lambda p: (-page_counts[p], p)
    )
    total = sum(page_counts.values())
    target = total / num_classes
    classes: List[List[int]] = [[] for _ in range(num_classes)]
    current = 0
    acc = 0
    for page in pages:
        if (
            acc >= target * (current + 1)
            and current < num_classes - 1
        ):
            current += 1
        classes[current].append(page)
        acc += page_counts[page]
    return classes


def build_classified_page_table(
    classes: Sequence[Sequence[int]],
    vc_ids: Sequence[int],
    page_bits: int = 12,
) -> PageTable:
    """A page table mapping each class's pages to its VC."""
    if len(classes) != len(vc_ids):
        raise ValueError("one VC id per class required")
    table = PageTable(page_bits=page_bits)
    for pages, vc_id in zip(classes, vc_ids):
        for page in pages:
            table.map_page(page, vc_id)
    return table
