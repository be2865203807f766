"""Virtual caches, placement descriptors, and the VTB (paper Sec. IV-A).

Jumanji borrows Jigsaw's single-lookup D-NUCA hardware:

* every page maps to a *virtual cache* (VC), recorded in the page table
  and cached in the TLB;
* each core's *virtual-cache translation buffer* (VTB) maps a VC id to a
  *placement descriptor* — a 128-entry array of bank ids;
* an address is hashed to index the descriptor, yielding the unique LLC
  bank that may hold it (single-lookup: no directories, no multi-bank
  search).

Software controls placement by rewriting descriptor entries. Setting the
entries proportionally to a bank-allocation vector makes the fraction of
the VC's lines living in bank ``b`` equal ``alloc[b] / sum(alloc)``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PlacementDescriptor",
    "VirtualCache",
    "Vtb",
    "PageTable",
    "descriptor_from_allocation",
    "hash_lines",
]

#: Number of entries in a placement descriptor (paper: 128).
DESCRIPTOR_ENTRIES = 128


def _hash_address(line_addr: int) -> int:
    """Deterministic address hash used to index placement descriptors."""
    x = line_addr & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x &= 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    x &= 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def hash_lines(lines: Sequence[int]) -> np.ndarray:
    """Vectorized :func:`_hash_address` over a batch of line addresses.

    Returns a ``uint64`` array; identical to the scalar hash for every
    address below 2**64 (uint64 arithmetic wraps exactly like the masked
    Python version). Raises ``OverflowError`` for wider addresses —
    callers fall back to the scalar hash in that case.
    """
    x = np.asarray(lines, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class PlacementDescriptor:
    """A 128-entry array of bank ids; the hardware's placement table."""

    __slots__ = ("_entries", "_entries_np")

    def __init__(self, entries: Sequence[int]):
        if len(entries) != DESCRIPTOR_ENTRIES:
            raise ValueError(
                f"descriptor needs exactly {DESCRIPTOR_ENTRIES} entries"
            )
        if min(entries) < 0:
            raise ValueError("bank ids must be non-negative")
        self._entries: Tuple[int, ...] = tuple(map(int, entries))
        self._entries_np: Optional[np.ndarray] = None

    @property
    def entries(self) -> Tuple[int, ...]:
        """The descriptor's 128 bank ids."""
        return self._entries

    @property
    def entries_array(self) -> np.ndarray:
        """The 128 bank ids as an int64 array (built lazily, cached)."""
        if self._entries_np is None:
            self._entries_np = np.asarray(self._entries, dtype=np.int64)
        return self._entries_np

    def bank_for(self, line_addr: int) -> int:
        """LLC bank holding ``line_addr`` under this placement."""
        return self._entries[_hash_address(line_addr) % DESCRIPTOR_ENTRIES]

    def bank_for_lines(self, lines: Sequence[int]) -> List[int]:
        """Vectorized :meth:`bank_for` over a batch of line addresses."""
        try:
            idx = hash_lines(lines) % np.uint64(DESCRIPTOR_ENTRIES)
        except OverflowError:
            return [self.bank_for(line) for line in lines]
        return self.entries_array[idx.astype(np.intp)].tolist()

    def banks(self) -> Tuple[int, ...]:
        """Distinct banks this descriptor spreads data across."""
        return tuple(sorted(set(self._entries)))

    def fraction_in(self, bank: int) -> float:
        """Fraction of descriptor entries pointing at ``bank``."""
        return self._entries.count(bank) / DESCRIPTOR_ENTRIES

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlacementDescriptor):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"PlacementDescriptor(banks={self.banks()})"


def descriptor_from_allocation(
    alloc: Mapping[int, float]
) -> PlacementDescriptor:
    """Build a descriptor proportional to a bank-allocation vector.

    ``alloc[bank]`` is the capacity (any unit) the VC owns in that bank.
    Entries are apportioned with largest-remainder rounding so every bank
    with non-zero allocation receives at least one entry when possible,
    and the entry counts sum exactly to 128. Entries are interleaved
    round-robin across banks so consecutive hash values spread load.
    """
    positive = {b: a for b, a in alloc.items() if a > 0}
    if not positive:
        raise ValueError("allocation must contain a positive entry")
    total = sum(positive.values())
    quotas = {
        b: a / total * DESCRIPTOR_ENTRIES for b, a in positive.items()
    }
    counts = {b: int(q) for b, q in quotas.items()}
    assigned = sum(counts.values())
    remainders = sorted(
        positive, key=lambda b: (quotas[b] - counts[b], -b), reverse=True
    )
    for b in remainders:
        if assigned >= DESCRIPTOR_ENTRIES:
            break
        counts[b] += 1
        assigned += 1
    # Round-robin interleave: pass k takes, in bank order, every bank
    # with more than k entries (zero-count banks never appear).
    order = sorted(b for b, c in counts.items() if c > 0)
    entries: List[int] = [
        b
        for k in range(max(counts.values()))
        for b in order
        if counts[b] > k
    ]
    if len(entries) < DESCRIPTOR_ENTRIES:
        raise AssertionError("rounding failed to fill descriptor")
    return PlacementDescriptor(entries[:DESCRIPTOR_ENTRIES])


class VirtualCache:
    """A virtual cache: the OS abstraction for one app's (or type's) data."""

    def __init__(self, vc_id: int, descriptor: PlacementDescriptor):
        self.vc_id = vc_id
        self.descriptor = descriptor

    def bank_for(self, line_addr: int) -> int:
        """LLC bank holding ``line_addr`` under this placement."""
        return self.descriptor.bank_for(line_addr)

    def __repr__(self) -> str:
        return f"VirtualCache(id={self.vc_id}, banks={self.descriptor.banks()})"


class Vtb:
    """Per-core VC-id -> descriptor table, plus the update protocol.

    :meth:`update` returns the set of banks that lost descriptor entries,
    i.e. the banks whose copies of this VC's lines must be invalidated by
    the background coherence walk (paper Sec. IV-A "Coherence").
    """

    def __init__(self) -> None:
        self._table: Dict[int, PlacementDescriptor] = {}

    def install(self, vc_id: int, descriptor: PlacementDescriptor) -> None:
        """Install a descriptor without coherence tracking (cold start)."""
        self._table[vc_id] = descriptor

    def lookup(self, vc_id: int) -> PlacementDescriptor:
        """The descriptor installed for a VC id."""
        try:
            return self._table[vc_id]
        except KeyError:
            raise KeyError(f"VC {vc_id} has no descriptor installed") from None

    def bank_for(self, vc_id: int, line_addr: int) -> int:
        """The single LLC bank holding ``line_addr`` for ``vc_id``."""
        return self.lookup(vc_id).bank_for(line_addr)

    def update(
        self, vc_id: int, descriptor: PlacementDescriptor
    ) -> Tuple[int, ...]:
        """Replace a VC's descriptor; returns banks needing invalidation.

        A bank needs invalidation when any descriptor entry moved away
        from it — lines hashed to that entry may now live elsewhere, so
        stale copies must be purged to preserve the single-lookup
        invariant.
        """
        old = self._table.get(vc_id)
        self._table[vc_id] = descriptor
        if old is None:
            return ()
        dirty = {
            old_bank
            for old_bank, new_bank in zip(old.entries, descriptor.entries)
            if old_bank != new_bank
        }
        return tuple(sorted(dirty))

    def vc_ids(self) -> Tuple[int, ...]:
        """Installed VC ids, sorted."""
        return tuple(sorted(self._table))


class PageTable:
    """Page -> VC mapping (the OS-owned half of placement control)."""

    def __init__(self, page_bits: int = 12):
        if page_bits < 6:
            raise ValueError("pages must be at least one cache line")
        self.page_bits = page_bits
        self._mapping: Dict[int, int] = {}

    def page_of(self, byte_addr: int) -> int:
        """Page number of a byte address."""
        return byte_addr >> self.page_bits

    def map_page(self, page: int, vc_id: int) -> Optional[int]:
        """Map a page to a VC; returns the previous VC id if remapped."""
        old = self._mapping.get(page)
        self._mapping[page] = vc_id
        return old

    def vc_of_page(self, page: int) -> int:
        """VC id a page maps to."""
        try:
            return self._mapping[page]
        except KeyError:
            raise KeyError(f"page {page:#x} is unmapped") from None

    def vc_of_address(self, byte_addr: int) -> int:
        """VC id of the page containing a byte address."""
        return self.vc_of_page(self.page_of(byte_addr))

    def pages_of_vc(self, vc_id: int) -> Tuple[int, ...]:
        """All pages mapped to a VC, sorted."""
        return tuple(
            sorted(p for p, v in self._mapping.items() if v == vc_id)
        )
