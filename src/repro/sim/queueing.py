"""Request queueing simulation for latency-critical applications.

Each LC application is modelled as a single-server FCFS queue (its core):
requests arrive with exponential interarrival times at a given QPS, as in
TailBench's integrated client (paper Sec. VII, citing [57, 58]), and are
served with per-request service times drawn around the mean set by the
current LLC allocation and placement.

This is the mechanism behind the paper's Fig. 8: when the arrival rate
exceeds the service rate at a small allocation, queueing delay grows
without bound and tail latency explodes; slightly more (or closer) cache
restores stability. End-to-end latency includes queueing delay, which
the feedback controller observes.

Fast path (this module) and frozen reference
--------------------------------------------

Every epoch advance batch-draws its variates from buffered
``numpy.Generator`` streams and resolves the FCFS recurrence with one
vectorised cumulative-max scan (the Lindley recurrence in "u-transform"
form::

    S_i = S_{i-1} + s_i                     # cumulative service
    u_i = max(u_{i-1}, a_i - S_{i-1})       # u_0 seeds from server_free_at
    start_i      = u_i + S_{i-1}
    completion_i = u_i + S_i

which is a ``cumsum`` + ``maximum.accumulate`` instead of a per-request
Python loop). The scan runs along the rows of one padded matrix, one
simulator per row: :func:`advance_epoch_batch` scans many simulators at
once (the model engine's mixes), :func:`advance_epoch_rows` scans very
ragged backlogs (a fleet's tenants) in bounded blocks of similar
widths, and :meth:`LcRequestSimulator.run_epoch` scans one row.
The scalar implementation is frozen as
:class:`repro.model.reference.ReferenceLcRequestSimulator`, which
consumes the *same* variate streams one value at a time and computes the
same recurrence scalar-wise — the two are differentially tested to be
bit-identical.

RNG stream change (vs. the pre-vectorisation revision): interarrival
variates now come from ``numpy.random.default_rng(seed)`` (unit
exponentials, scaled at consumption) instead of ``random.Random(seed)``,
and service variates are buffered ``standard_gamma`` draws scaled by
``mean * cv**2``. Completion times follow the u-transform arithmetic
above. Both changes alter the sampled request streams, so the golden
fig12/fig13 regression pins were regenerated in the same change that
introduced this engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import CORE_FREQ_HZ
from ..errors import ConfigError

__all__ = [
    "QueueSimResult",
    "LcRequestSimulator",
    "advance_epoch_batch",
    "advance_epoch_rows",
    "nearest_rank",
    "percentile",
    "run_epoch_batch",
    "VariateStream",
]


def percentile(latencies: Sequence[float], pct: float) -> float:
    """Percentile with the nearest-rank method the OS runtime uses.

    Raises :class:`~repro.errors.ConfigError` (a ``ValueError``) on an
    empty sample set or a percentile outside ``(0, 100]`` — callers that
    can see empty epochs (e.g. overload with zero completions) must
    handle it explicitly rather than receive a silent garbage tail.
    """
    if not len(latencies):
        raise ConfigError("no latencies recorded")
    data = np.sort(np.asarray(latencies, dtype=float))
    return float(data[nearest_rank(data.size, pct)])


def nearest_rank(size: int, pct: float) -> int:
    """Index of the ``pct`` percentile in ``size`` sorted samples, by the
    nearest-rank rule :func:`percentile` uses.

    Raises :class:`~repro.errors.ConfigError` on a percentile outside
    ``(0, 100]``.
    """
    if not 0 < pct <= 100:
        raise ConfigError("percentile must be in (0, 100]")
    return max(0, int(math.ceil(pct / 100.0 * size)) - 1)


class VariateStream:
    """Buffered stream of variates from a ``numpy.Generator``.

    ``draw(n)`` must return ``n`` fresh variates. For the distributions
    used here (``exponential``, ``standard_gamma``) numpy produces a
    bitwise-identical sequence whether values are drawn one at a time or
    in batches, so the vectorised fast path (slicing many at once via
    :meth:`peek`/:meth:`advance`) and the scalar reference (calling
    :meth:`next`) consume exactly the same stream.
    """

    __slots__ = ("_draw", "_buf", "_pos", "_chunk")

    def __init__(self, draw: Callable[[int], np.ndarray], chunk: int = 256):
        self._draw = draw
        self._buf = np.empty(0, dtype=float)
        self._pos = 0
        self._chunk = chunk

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` variates, without consuming them."""
        avail = self._buf.size - self._pos
        if avail < n:
            grown = self._draw(max(n - avail, self._chunk))
            self._buf = np.concatenate([self._buf[self._pos:], grown])
            self._pos = 0
        return self._buf[self._pos : self._pos + n]

    def advance(self, n: int) -> None:
        """Consume ``n`` previously peeked variates."""
        if n > self._buf.size - self._pos:
            raise ValueError("cannot advance past peeked variates")
        self._pos += n

    def take(self, n: int) -> np.ndarray:
        """Draw and consume ``n`` variates."""
        out = self.peek(n)
        self._pos += n
        return out

    def next(self) -> float:
        """Draw and consume a single variate (the reference path)."""
        return float(self.take(1)[0])


@dataclass
class QueueSimResult:
    """Outcome of simulating one epoch of requests."""

    latencies_cycles: List[float]
    completed: int
    mean_service_cycles: float
    utilization: float
    final_queue_depth: int

    def tail_cycles(self, pct: float = 95.0) -> float:
        """Percentile of the epoch's latencies, in cycles."""
        return percentile(self.latencies_cycles, pct)

    def tail_seconds(self, pct: float = 95.0) -> float:
        """Percentile of the epoch's latencies, in seconds."""
        return self.tail_cycles(pct) / CORE_FREQ_HZ

    def mean_cycles(self) -> float:
        """Mean completion latency of the epoch."""
        if not self.latencies_cycles:
            raise ValueError("no latencies recorded")
        return float(np.mean(self.latencies_cycles))


class LcRequestSimulator:
    """Simulates one LC app's request stream across epochs.

    The queue persists across epochs (carried backlog), so a starved
    allocation in one 100 ms window inflates the next window's latencies —
    reproducing Fig. 4a's "latency grows increasingly large over time"
    behaviour under Jigsaw.

    ``service_cv`` controls per-request heterogeneity via a gamma
    multiplier with unit mean.
    """

    def __init__(
        self,
        qps: float,
        service_cv: float = 0.4,
        seed: int = 0,
        max_backlog: int = 100_000,
    ):
        if qps <= 0:
            raise ValueError("qps must be positive")
        if service_cv < 0:
            raise ValueError("service_cv must be non-negative")
        self.qps = qps
        self.service_cv = service_cv
        self.seed = seed
        self.max_backlog = max_backlog
        self._init_streams(seed)
        # Server state, in cycles.
        self._server_free_at = 0.0
        self._next_arrival = self._arrivals.next() * (
            CORE_FREQ_HZ / self.qps
        )
        self._now = 0.0
        # Requests that have arrived but not completed: arrival times.
        # The fast path keeps them as a float array once it queues any;
        # the scalar reference appends to the list.
        self._backlog: Union[List[float], np.ndarray] = []

    def _init_streams(self, seed: int) -> None:
        """(Re)build the interarrival and service variate streams."""
        arrival_rng = np.random.default_rng(seed)
        self._arrivals = VariateStream(
            lambda n: arrival_rng.exponential(size=n)
        )
        if self.service_cv > 0:
            shape = 1.0 / self.service_cv**2
            service_rng = np.random.default_rng(seed ^ 0xBADC0FFE)
            self._services: Optional[VariateStream] = VariateStream(
                lambda n: service_rng.standard_gamma(shape, size=n)
            )
        else:
            self._services = None

    @property
    def interarrival_mean_cycles(self) -> float:
        """Mean request interarrival time in cycles."""
        return CORE_FREQ_HZ / self.qps

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting or in service."""
        return len(self._backlog)

    def _generate_arrivals(self, epoch_end: float) -> np.ndarray:
        """All arrival times in ``(previous epochs, epoch_end]``.

        Arrival ``j`` past the pending one is ``base + cumsum(v)[j]``
        where ``v`` are unit exponentials scaled by the *current* epoch's
        interarrival mean — one sequential left-to-right summation, so
        the scalar reference reproduces it with a running-sum loop. The
        first candidate beyond the epoch becomes the pending
        ``_next_arrival`` (its variate is consumed, as in the scalar
        loop that always draws one interarrival past the boundary).
        """
        base = self._next_arrival
        if base > epoch_end:
            return np.empty(0)
        scale = CORE_FREQ_HZ / self.qps
        # Expected count plus slack; grow geometrically if the draw runs
        # short (the cumsum is recomputed over the full peeked prefix, so
        # the arithmetic never depends on chunk boundaries).
        want = int((epoch_end - base) / scale * 1.2) + 16
        while True:
            offsets = np.cumsum(self._arrivals.peek(want) * scale)
            if base + offsets[-1] > epoch_end:
                break
            want *= 2
        candidates = base + offsets
        m = int(np.searchsorted(candidates, epoch_end, side="right"))
        arrivals = np.empty(m + 1)
        arrivals[0] = base
        arrivals[1:] = candidates[:m]
        self._arrivals.advance(m + 1)
        self._next_arrival = float(candidates[m])
        return arrivals

    def _admit(self, epoch_end: float) -> int:
        """Queue the arrivals up to ``epoch_end`` and return the backlog
        length; the backlog cap drops the latest arrivals (their
        variates are still consumed)."""
        arrivals = self._generate_arrivals(epoch_end)
        room = self.max_backlog - len(self._backlog)
        if room > 0 and arrivals.size:
            self._backlog = np.concatenate((self._backlog, arrivals[:room]))
        return len(self._backlog)

    def run_epoch(
        self, duration_cycles: float, mean_service_cycles: float
    ) -> QueueSimResult:
        """Advance the request stream by ``duration_cycles``.

        ``mean_service_cycles`` is the allocation-dependent mean service
        time for this epoch. Completions within the epoch produce
        latencies (arrival -> completion, i.e. including queueing), in
        completion order. The Lindley scan is the one
        :func:`advance_epoch_batch` runs, over a single row.
        """
        _check_batch([self], duration_cycles, [mean_service_cycles])
        epoch_end = self._now + duration_cycles
        n = self._admit(epoch_end)
        latencies: List[float] = []
        if n:
            completions, a, done = _scan(
                [self], [n], [mean_service_cycles], [epoch_end]
            )
            nd = int(done[0])
            latencies = (completions[0, :nd] - a[0, :nd]).tolist()
        self._now = epoch_end
        return QueueSimResult(
            latencies_cycles=latencies,
            completed=len(latencies),
            mean_service_cycles=mean_service_cycles,
            utilization=self.qps * mean_service_cycles / CORE_FREQ_HZ,
            final_queue_depth=len(self._backlog),
        )

    def reset(self, seed: Optional[int] = None) -> None:
        """Restart the stream (optionally reseeded).

        Without a seed the variate streams continue from their current
        position (matching the historical behaviour); with one they are
        rebuilt from scratch.
        """
        if seed is not None:
            self.seed = seed
            self._init_streams(seed)
        self._server_free_at = 0.0
        self._now = 0.0
        self._backlog = []
        self._next_arrival = self._arrivals.next() * (
            CORE_FREQ_HZ / self.qps
        )


def _check_batch(
    sims: Sequence[LcRequestSimulator],
    duration_cycles: float,
    mean_services: Sequence[float],
) -> Tuple[List[LcRequestSimulator], List[float]]:
    """The batch as lists, after checking the duration and each mean."""
    if duration_cycles <= 0:
        raise ValueError("duration must be positive")
    sims = list(sims)
    means = [float(m) for m in mean_services]
    if len(means) != len(sims):
        raise ValueError("need one mean service time per simulator")
    for mean in means:
        if mean <= 0:
            raise ValueError("service time must be positive")
    return sims, means


def _scan(
    sims: Sequence[LcRequestSimulator],
    counts: Sequence[int],
    means: Sequence[float],
    ends: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One padded Lindley scan over admitted simulators.

    Every simulator has already queued its arrivals (``counts`` is each
    backlog's length, at least one somewhere). Fills the ``(sims,
    max(counts))`` arrival and service matrices, runs the u-transform
    along ``axis=1``, and moves each simulator past the epoch. Service
    times are peeked for every queued request but consumed only for
    the ones started before the boundary, so stream positions match the
    scalar reference; completed requests leave the backlog. Returns
    ``(completions, arrivals, done)``: row ``i``'s first ``done[i]``
    cells of ``completions - arrivals`` are its latencies this epoch.
    """
    nsims = len(sims)
    width = max(counts)
    # Column 0 of ``d`` holds the server's free time and the services
    # start at column 2 of ``s``, so one cumsum gives the running
    # service sum before (``cum[:, 1:-1]``) and after (``cum[:, 2:]``)
    # each request, and one running maximum the u of every request,
    # seeded from the server's free time.
    d = np.zeros((nsims, width + 1))
    s = np.zeros((nsims, width + 2))
    for r, (sim, n, mean) in enumerate(zip(sims, counts, means)):
        d[r, 0] = sim._server_free_at
        if n:
            d[r, 1 : n + 1] = sim._backlog
            if sim._services is not None:
                scale = mean * sim.service_cv**2
                s[r, 2 : n + 2] = sim._services.peek(n) * scale
            else:
                s[r, 2 : n + 2] = mean
    cum = np.cumsum(s, axis=1)
    u = np.maximum.accumulate(d - cum[:, :-1], axis=1)[:, 1:]
    starts = u + cum[:, 1:-1]
    completions = u + cum[:, 2:]
    # Per-row boundary cuts. Both u and the cumulative service are
    # non-decreasing along a row, padding included (a padded cell
    # repeats the row's last completion), so starts and completions are
    # sorted and each cut is a count: the starts strictly before the
    # boundary, capped at the backlog, and the completions at or
    # before it, capped at the started requests. At most the last
    # started request completes beyond the boundary (service is not
    # preempted; the error is far below an epoch); it stays queued and
    # is retried, with a fresh draw, next epoch.
    end_arr = np.asarray(ends)[:, None]
    started = np.minimum((starts < end_arr).sum(axis=1), counts)
    done = np.minimum((completions <= end_arr).sum(axis=1), started)
    for r, (sim, ns, nd) in enumerate(
        zip(sims, started.tolist(), done.tolist())
    ):
        if sim._services is not None:
            sim._services.advance(ns)
        if ns:
            sim._server_free_at = float(completions[r, ns - 1])
        if nd:
            sim._backlog = sim._backlog[nd:].copy()
        sim._now = ends[r]
    return completions, d[:, 1:], done


def advance_epoch_batch(
    sims: Sequence[LcRequestSimulator],
    duration_cycles: float,
    mean_services: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance many simulators one epoch with a single Lindley scan.

    The batch axis of the accelerated engine: every simulator's backlog
    is padded into one ``(sims, requests)`` matrix and the ``cumsum`` /
    ``maximum.accumulate`` u-transform runs once along ``axis=1``.
    numpy's row-wise scans perform exactly the per-element IEEE
    operations of a scan over each row alone, and each simulator's
    variate streams are consumed per stream (arrivals drawn per stream,
    services peeked for the full backlog and advanced by the started
    count), so per-simulator results are bit-identical to running each
    epoch separately, and to the scalar reference — the property
    ``tests/test_model_batch.py`` pins across ragged backlog sizes.

    Returns ``(latencies, done)``: row ``i`` of the ``(sims, width)``
    latency matrix holds simulator ``i``'s completions this epoch in its
    first ``done[i]`` cells (arrival to completion, in completion
    order); the cells after them are padding. Ragged rows are padded on
    the right and scans are left-to-right, so padding never reaches a
    live prefix; a row with no queued request starts and completes
    nothing, as the scalar path does.
    """
    sims, means = _check_batch(sims, duration_cycles, mean_services)
    # Arrivals are per stream: each stream's peek grows with its own
    # draws.
    ends = [sim._now + duration_cycles for sim in sims]
    counts = [sim._admit(end) for sim, end in zip(sims, ends)]
    if not any(counts):
        # Nothing queued anywhere (so nothing arrived either).
        for sim, end in zip(sims, ends):
            sim._now = end
        return np.zeros((len(sims), 0)), np.zeros(len(sims), np.int64)
    completions, a, done = _scan(sims, counts, means, ends)
    return completions - a, done


#: Padded cells per scan of :func:`advance_epoch_rows` (a row wider
#: than this is scanned alone). Blocks this size keep the scan's
#: temporaries a few hundred KB however ragged the backlogs are.
_BLOCK_CELLS = 8192


def advance_epoch_rows(
    sims: Sequence[LcRequestSimulator],
    duration_cycles: float,
    mean_services: Sequence[float],
) -> List[np.ndarray]:
    """Advance many simulators one epoch; each one's latencies as a row.

    :func:`advance_epoch_batch` for backlogs of very different lengths,
    where one padded matrix would be mostly padding. Every simulator
    queues its arrivals first; the rows are then sorted by backlog
    length and scanned in blocks of similar widths, each at most
    ``_BLOCK_CELLS`` padded cells. Row ``i`` of the result is a copy of
    simulator ``i``'s completed prefix (arrival to completion, in
    completion order), bit-identical to the latencies its own
    :meth:`~LcRequestSimulator.run_epoch` would return, and its variate
    streams end at the same positions.
    """
    sims, means = _check_batch(sims, duration_cycles, mean_services)
    ends = [sim._now + duration_cycles for sim in sims]
    counts = [sim._admit(end) for sim, end in zip(sims, ends)]
    rows: List[np.ndarray] = [np.empty(0)] * len(sims)
    order = sorted(range(len(sims)), key=counts.__getitem__)
    lo = 0
    while lo < len(order) and not counts[order[lo]]:
        # Nothing queued: the epoch passes with no start or completion.
        sims[order[lo]]._now = ends[order[lo]]
        lo += 1
    while lo < len(order):
        hi = lo + 1
        while (
            hi < len(order)
            and (hi + 1 - lo) * counts[order[hi]] <= _BLOCK_CELLS
        ):
            hi += 1
        block = order[lo:hi]
        completions, a, done = _scan(
            [sims[i] for i in block],
            [counts[i] for i in block],
            [means[i] for i in block],
            [ends[i] for i in block],
        )
        for r, (i, nd) in enumerate(zip(block, done.tolist())):
            rows[i] = completions[r, :nd] - a[r, :nd]
        lo = hi
    return rows


def run_epoch_batch(
    sims: Sequence[LcRequestSimulator],
    duration_cycles: float,
    mean_services: Sequence[float],
) -> List[QueueSimResult]:
    """:func:`advance_epoch_batch`, as one :class:`QueueSimResult` per
    simulator: what :meth:`LcRequestSimulator.run_epoch` returns for
    each alone."""
    sims = list(sims)
    mean_services = list(mean_services)
    latencies, done = advance_epoch_batch(
        sims, duration_cycles, mean_services
    )
    return [
        QueueSimResult(
            latencies_cycles=row[:nd].tolist(),
            completed=nd,
            mean_service_cycles=float(mean),
            utilization=sim.qps * float(mean) / CORE_FREQ_HZ,
            final_queue_depth=len(sim._backlog),
        )
        for sim, mean, row, nd in zip(
            sims, mean_services, latencies, done.tolist()
        )
    ]
