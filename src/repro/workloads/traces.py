"""Synthetic address-trace generators for the trace-driven simulator.

The event-driven half of the reproduction (``repro.sim.tracesim``) needs
access streams. These generators produce line-address streams with
controllable locality so the trace-driven cache model can be validated
against the analytic miss curves:

* :class:`StreamingTrace` — sequential sweep over a large footprint
  (lbm-like; misses at any realistic cache size).
* :class:`WorkingSetTrace` — uniform reuse over a fixed working set
  (cliff-shaped miss curve at the working-set size).
* :class:`ZipfTrace` — Zipf-distributed reuse (smooth, friendly curve).
* :class:`MixedTrace` — probabilistic mixture of the above.

All generators are seeded and deterministic.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..config import LINE_BYTES
from ..errors import ConfigError

__all__ = [
    "AddressTrace",
    "StreamingTrace",
    "WorkingSetTrace",
    "ZipfTrace",
    "MixedTrace",
    "ReplayTrace",
    "trace_from_spec",
]


class AddressTrace:
    """Interface: an infinite, deterministic stream of line addresses."""

    def __init__(self, base_line: int = 0):
        if base_line < 0:
            raise ValueError("base_line must be non-negative")
        self.base_line = base_line

    def next_line(self) -> int:
        """The next line address in the stream."""
        raise NotImplementedError

    def lines(self, count: int) -> List[int]:
        """The next ``count`` line addresses."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.next_line() for _ in range(count)]

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.next_line()

    @staticmethod
    def lines_for_bytes(num_bytes: int) -> int:
        """Number of cache lines covering ``num_bytes``."""
        return max(1, num_bytes // LINE_BYTES)


class StreamingTrace(AddressTrace):
    """Sequential sweep over ``footprint_lines`` lines, wrapping around."""

    def __init__(self, footprint_lines: int, base_line: int = 0):
        super().__init__(base_line)
        if footprint_lines < 1:
            raise ValueError("footprint must be at least one line")
        self.footprint_lines = footprint_lines
        self._pos = 0

    def next_line(self) -> int:
        """The next line address in the stream."""
        line = self.base_line + self._pos
        self._pos = (self._pos + 1) % self.footprint_lines
        return line


class WorkingSetTrace(AddressTrace):
    """Uniform random reuse over a fixed working set."""

    def __init__(
        self, working_set_lines: int, seed: int = 0, base_line: int = 0
    ):
        super().__init__(base_line)
        if working_set_lines < 1:
            raise ValueError("working set must be at least one line")
        self.working_set_lines = working_set_lines
        self._rng = random.Random(seed)

    def next_line(self) -> int:
        """The next line address in the stream."""
        return self.base_line + self._rng.randrange(self.working_set_lines)


class ZipfTrace(AddressTrace):
    """Zipf(alpha)-distributed reuse over ``num_lines`` lines.

    Hot lines are re-referenced often, the tail rarely — producing the
    smooth miss curves typical of cache-friendly applications.
    """

    def __init__(
        self,
        num_lines: int,
        alpha: float = 1.0,
        seed: int = 0,
        base_line: int = 0,
    ):
        super().__init__(base_line)
        if num_lines < 1:
            raise ValueError("need at least one line")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.num_lines = num_lines
        self.alpha = alpha
        ranks = np.arange(1, num_lines + 1, dtype=float)
        weights = ranks ** (-alpha)
        self._cdf = np.cumsum(weights) / weights.sum()
        self._rng = random.Random(seed)
        # Permute ranks across the address space so hot lines are not all
        # in the same cache sets.
        perm = list(range(num_lines))
        random.Random(seed ^ 0xD15EA5E).shuffle(perm)
        self._perm = perm

    def next_line(self) -> int:
        """The next line address in the stream."""
        u = self._rng.random()
        rank = int(np.searchsorted(self._cdf, u))
        rank = min(rank, self.num_lines - 1)
        return self.base_line + self._perm[rank]


class DoublePassTrace(AddressTrace):
    """Visit a block of lines twice, then move to the next block.

    Each line is installed on the first pass and re-referenced on the
    second, shortly after installation. Lines inserted with a long
    re-reference prediction (SRRIP) survive until the second pass;
    lines inserted as distant (BRRIP) are evicted first — so this
    pattern's miss rate is highly sensitive to the insertion policy,
    which makes it the canonical probe for set-dueling leakage.
    """

    def __init__(
        self,
        footprint_lines: int,
        block_lines: int = 512,
        base_line: int = 0,
    ):
        super().__init__(base_line)
        if footprint_lines < 1 or block_lines < 1:
            raise ValueError("footprint and block must be positive")
        if block_lines > footprint_lines:
            raise ValueError("block cannot exceed footprint")
        self.footprint_lines = footprint_lines
        self.block_lines = block_lines
        self._block_start = 0
        self._offset = 0
        self._pass = 0

    def next_line(self) -> int:
        """The next line address in the stream."""
        line = self.base_line + self._block_start + self._offset
        self._offset += 1
        if self._offset >= self.block_lines or (
            self._block_start + self._offset >= self.footprint_lines
        ):
            self._offset = 0
            self._pass += 1
            if self._pass >= 2:
                self._pass = 0
                self._block_start += self.block_lines
                if self._block_start >= self.footprint_lines:
                    self._block_start = 0
        return line


class MixedTrace(AddressTrace):
    """Probabilistic mixture of component traces."""

    def __init__(
        self,
        components: Sequence[AddressTrace],
        weights: Optional[Sequence[float]] = None,
        seed: int = 0,
    ):
        super().__init__(0)
        if not components:
            raise ValueError("need at least one component")
        self.components = list(components)
        if weights is None:
            weights = [1.0] * len(self.components)
        if len(weights) != len(self.components):
            raise ValueError("one weight per component required")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("weights must be non-negative, sum positive")
        total = float(sum(weights))
        self._cum = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cum.append(acc)
        self._rng = random.Random(seed)

    def next_line(self) -> int:
        """The next line address in the stream."""
        u = self._rng.random()
        for comp, edge in zip(self.components, self._cum):
            if u <= edge:
                return comp.next_line()
        return self.components[-1].next_line()


class ReplayTrace(AddressTrace):
    """Replays a pregenerated list of line addresses, wrapping around.

    For anywhere two simulators must see byte-identical streams without
    paying generation twice: materialise a stream once with any
    generator's :meth:`~AddressTrace.lines`, then hand each simulator
    its own ``ReplayTrace``. :meth:`lines` is an O(count) slice, so
    replay adds almost nothing to the simulator's time.
    """

    def __init__(self, lines: Sequence[int]):
        super().__init__(0)
        if not lines:
            raise ValueError("need at least one line to replay")
        self._lines: List[int] = list(lines)
        self._pos = 0

    def next_line(self) -> int:
        """The next recorded line address, wrapping at the end."""
        line = self._lines[self._pos]
        self._pos += 1
        if self._pos == len(self._lines):
            self._pos = 0
        return line

    def lines(self, count: int) -> List[int]:
        """The next ``count`` recorded lines (one or two list slices)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        out: List[int] = []
        src = self._lines
        pos = self._pos
        while count:
            take = min(count, len(src) - pos)
            out.extend(src[pos : pos + take])
            pos += take
            if pos == len(src):
                pos = 0
            count -= take
        self._pos = pos
        return out

#: Trace classes reachable from :func:`trace_from_spec`, by spec kind.
_SPEC_KINDS = {
    "streaming": StreamingTrace,
    "working_set": WorkingSetTrace,
    "zipf": ZipfTrace,
    "double_pass": DoublePassTrace,
}


def _check_spec_keys(kind: str, cls: type, spec: dict) -> None:
    """Reject spec keys the generator's constructor doesn't take."""
    import inspect

    params = inspect.signature(cls.__init__).parameters
    unknown = sorted(k for k in spec if k not in params)
    if unknown:
        raise ConfigError(
            f"unknown {kind!r} trace spec keys: {unknown}"
        )


def trace_from_spec(spec) -> AddressTrace:
    """Build a trace from a JSON-friendly ``{"kind": ..., ...}`` spec.

    Sharded runs (``repro.runner``) identify a cell by the canonical
    JSON of its parameters, so the traces a cell consumes must be
    expressible as plain data rather than live objects. Every generator
    above is covered::

        {"kind": "zipf", "num_lines": 4096, "alpha": 0.9, "seed": 7}
        {"kind": "mixed", "seed": 1, "weights": [3, 1],
         "components": [{"kind": "streaming", ...}, ...]}

    Keys other than ``kind`` (and, for ``mixed``, ``components`` /
    ``weights`` / ``seed``) are passed to the generator's constructor
    unchanged, so specs validate exactly like direct construction —
    and unknown keys raise :class:`~repro.errors.ConfigError` naming
    the offender, so a payload typo fails loudly instead of silently
    simulating the wrong trace.
    """
    spec = dict(spec)
    try:
        kind = spec.pop("kind")
    except KeyError:
        raise ConfigError("trace spec needs a 'kind' entry") from None
    if kind == "mixed":
        components = [
            trace_from_spec(c) for c in spec.pop("components", [])
        ]
        _check_spec_keys(kind, MixedTrace, spec)
        return MixedTrace(components, **spec)
    if kind == "replay":
        try:
            lines = spec.pop("lines")
        except KeyError:
            raise ConfigError(
                "replay trace spec needs a 'lines' entry"
            ) from None
        if spec:
            raise ConfigError(
                f"unknown replay trace spec keys: {sorted(spec)}"
            )
        return ReplayTrace(lines)
    try:
        cls = _SPEC_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown trace kind {kind!r}; choose from "
            f"{sorted(_SPEC_KINDS) + ['mixed', 'replay']}"
        ) from None
    _check_spec_keys(kind, cls, spec)
    return cls(**spec)
