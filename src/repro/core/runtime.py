"""Jumanji's OS runtime: the 100 ms reconfiguration loop (paper Sec. IV-B).

The runtime ties the pieces together the way the paper's hypervisor-
integrated software does: it holds the feedback controller, rebuilds the
placement context each epoch (refreshing LC sizes), invokes the active
LLC design's placer, and installs the resulting descriptors into the
per-core VTBs (triggering coherence walks for moved data).

It also accounts the placement algorithm's own execution overhead: the
paper measures 11.9 Mcycles per 100 ms reconfiguration, i.e. 0.22% of
system cycles, charged to batch applications.

Degraded-mode contract (the production-robustness layer):

* Telemetry reported through :meth:`JumanjiRuntime.report_latency` /
  :meth:`~JumanjiRuntime.report_tail` is sanitized — NaN, negative,
  infinite, or non-numeric samples are *dropped* with a structured
  ``telemetry_invalid`` event, holding the last-good LC sizes rather
  than poisoning the controller's window.
* If the LC targets outgrow the LLC (LatCritPlacer raises
  :class:`~repro.errors.LlcFull`), every app that asked for more than
  it last got is held at its last placed size, that placement is
  installed, and the controller's targets are reset to it
  (anti-windup). Only if that placement fails too does the epoch
  degrade as below.
* If the placer (or allocation validation) fails during
  :meth:`~JumanjiRuntime.reconfigure`, the runtime re-installs the
  previous epoch's allocation — which was itself validated when first
  placed — and logs a ``placement_failed`` event. It never installs an
  unvalidated allocation, so the no-shared-banks security invariant is
  preserved across degraded epochs. With no prior epoch to fall back
  on, the failure propagates (there is no safe state to hold).
* ``ControllerConfig.history_limit`` bounds the reconfiguration
  history with a ring buffer so million-epoch runs don't grow memory
  without bound; the last record is always retained for fallback.
"""

from __future__ import annotations

import logging
import random
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..config import RECONFIG_INTERVAL_CYCLES, ControllerConfig, SystemConfig
from ..errors import LlcFull, PlacementFailed, TelemetryInvalid
from ..vtb.vtb import PlacementDescriptor, Vtb
from .allocation import Allocation
from .context import PlacementContext
from .controller import FeedbackController
from .designs import LlcDesign

__all__ = ["JumanjiRuntime", "ReconfigRecord", "PLACEMENT_OVERHEAD_FRACTION"]

logger = logging.getLogger("repro.runtime")

#: Measured placement overhead (paper Sec. IV-B): 11.9 Mcycles per 100 ms
#: across 20 cores at 2.66 GHz = 0.22% of system cycles.
PLACEMENT_OVERHEAD_CYCLES = 11.9e6
PLACEMENT_OVERHEAD_FRACTION = PLACEMENT_OVERHEAD_CYCLES / (
    20 * RECONFIG_INTERVAL_CYCLES
)


@dataclass
class ReconfigRecord:
    """What one reconfiguration decided (for inspection/plots)."""

    epoch: int
    lat_sizes: Dict[str, float]
    allocation: Allocation
    invalidated_lines: int
    #: True when this epoch fell back to the previous allocation
    #: because the placer failed (degraded mode).
    degraded: bool = False
    #: True when the placement was served from the memo (identical
    #: context fingerprint — LC sizes, app->tile map, curve contents —
    #: to an earlier epoch) instead of re-running the placer. Tests
    #: assert this never happens across a real size change.
    memo_hit: bool = False


class JumanjiRuntime:
    """Drives periodic reconfiguration for one LLC design.

    ``context_builder`` rebuilds the placement context each epoch (it
    closes over workload state — miss curves may drift); the runtime
    injects the controller's current LC sizes before placing. Designs
    that do not use feedback (Static, Jigsaw) skip the injection.
    """

    def __init__(
        self,
        design: LlcDesign,
        system: SystemConfig,
        context_builder: Callable[[Dict[str, float]], PlacementContext],
        controller_config: Optional[ControllerConfig] = None,
        initial_lc_size_mb: float = 2.5,
        seed: int = 0,
        memoize_placement: bool = False,
        memo_size: int = 32,
    ):
        self.design = design
        self.system = system
        self._build_context = context_builder
        #: Epoch-level placement memoisation (off by default so direct
        #: runtime users — e.g. fault-injection drills whose placers
        #: fail on purpose — keep exact per-epoch placer behaviour; the
        #: system model's fast engine turns it on). Keyed on the
        #: context fingerprint, which covers the controller's LC sizes,
        #: the app->tile map, and every miss curve's content digest, so
        #: a hit is provably the same placement problem.
        self._memoize = memoize_placement
        self._memo_size = memo_size
        self._memo: "OrderedDict[tuple, Allocation]" = OrderedDict()
        #: Memo statistics for benchmarks/tests.
        self.memo_hits = 0
        self.memo_misses = 0
        # Sub-epoch memoisation (accelerated engine only, same gate as
        # the placement memo): placement descriptors are pure functions
        # of an app's per-bank allocation *vector*, and — because IEEE
        # division of ``c`` by an exact small-integer multiple ``B*c``
        # yields the same quotient for every ``c`` — a *uniform* stripe
        # (every S-NUCA design's shape) maps to one canonical descriptor
        # per bank set regardless of the absolute MB value. So feedback
        # designs whose sizes drift every epoch (Adaptive) still hit
        # this cache even though the whole-placement memo cannot fire.
        self._desc_cache: "OrderedDict[tuple, PlacementDescriptor]" = (
            OrderedDict()
        )
        self._desc_cache_size = 256
        #: Sub-epoch memo statistics (descriptor-granularity hits).
        self.subepoch_hits = 0
        self.subepoch_misses = 0
        # Descriptor object installed per vc_id: reinstalling the very
        # same object is a no-op diff, so the vtb walk is skipped.
        self._installed: Dict[int, PlacementDescriptor] = {}
        # Every random decision the runtime (or a design hook) makes must
        # draw from this stream, never the global ``random`` module, so
        # two runtimes with the same seed replay identically regardless
        # of what else runs in the process.
        self.seed = seed
        self.rng = random.Random(seed)
        self.controller = FeedbackController(
            system,
            controller_config,
            initial_size_mb=initial_lc_size_mb,
        )
        self.vtb = Vtb()
        self.epoch = 0
        limit = self.controller.config.history_limit
        #: Reconfiguration records, ring-buffered when
        #: ``ControllerConfig.history_limit`` is set.
        self.history: Union[List[ReconfigRecord], deque] = (
            deque(maxlen=limit) if limit is not None else []
        )
        #: The most recent record, kept outside the ring so fallback
        #: works even with ``history_limit=1`` under churn.
        self.last_record: Optional[ReconfigRecord] = None
        #: Structured degraded-mode events (telemetry drops, placer
        #: fallbacks), newest last. Ring-buffered alongside ``history``
        #: when ``history_limit`` is set: a fleet of hundreds of
        #: runtimes fed faulty telemetry would otherwise grow one
        #: unbounded list per chip (each ``telemetry_invalid`` sample
        #: appends an entry).
        self.events: Union[List[Dict[str, Any]], deque] = (
            deque(maxlen=limit) if limit is not None else []
        )

    # -- degraded-mode plumbing ---------------------------------------------------

    def _event(self, event: str, **fields: Any) -> None:
        self.events.append(obs.emit(event, logger=logger, **fields))

    def register_lc_app(self, app: str, deadline_cycles: float) -> None:
        """Register an LC app and its deadline with the controller."""
        self.controller.register(app, deadline_cycles)

    def report_latency(self, app: str, latency_cycles: float) -> None:
        """Per-request completion hook (paper Listing 1).

        Invalid samples (NaN/negative/non-numeric) are dropped with a
        structured event; the controller's window — and therefore the
        LC sizing — holds its last-good state.
        """
        try:
            self.controller.request_completed(app, latency_cycles)
        except TelemetryInvalid as exc:
            self._event(
                "telemetry_invalid",
                app=app,
                value=repr(latency_cycles),
                epoch=self.epoch,
                detail=str(exc),
            )

    def report_latencies(
        self, app: str, latencies_cycles: "Sequence[float]"
    ) -> None:
        """Batched :meth:`report_latency` for one epoch's completions.

        Equivalent to reporting each sample in order — per-sample
        sanitization (and its structured drop events) is preserved.
        Under the accelerated engine (same gate as the placement memo), a
        batch that numpy-validates clean — every sample finite and
        non-negative, the overwhelmingly common case — is ingested in
        bulk through
        :meth:`~repro.core.controller.FeedbackController.ingest_completed`;
        the float64 array holds the same doubles ``float()`` coercion
        would, so the windows hold identical values. Any suspect batch
        falls back to the per-sample path, emitting the exact drop
        events it always did. ``latencies_cycles`` may be a list or a
        1-D array (the accelerated engine passes rows of its latency
        matrix).
        """
        if self._memoize and len(latencies_cycles):
            try:
                arr = np.asarray(latencies_cycles, dtype=float)
            except (TypeError, ValueError):
                arr = None
            # NaN propagates through min and max, so these two
            # reductions accept exactly the finite, non-negative batches.
            if (
                arr is not None
                and arr.ndim == 1
                and arr.min() >= 0
                and arr.max() < np.inf
            ):
                self.controller.ingest_completed(app, arr)
                return
        if isinstance(latencies_cycles, np.ndarray):
            latencies_cycles = latencies_cycles.tolist()
        for latency in latencies_cycles:
            self.report_latency(app, latency)

    def report_tail(self, app: str, tail_cycles: float) -> None:
        """Epoch-granular tail report (used by the system model).

        Sanitized like :meth:`report_latency`: garbage tails never
        reach the sizing logic.
        """
        try:
            self.controller.force_update(app, tail_cycles)
        except TelemetryInvalid as exc:
            self._event(
                "telemetry_invalid",
                app=app,
                value=repr(tail_cycles),
                epoch=self.epoch,
                detail=str(exc),
            )

    def lat_sizes(self) -> Dict[str, float]:
        """Current LC sizing targets (empty for feedback-less designs)."""
        if not self.design.uses_feedback:
            return {}
        return self.controller.sizes()

    def reconfigure(self) -> ReconfigRecord:
        """Run one 100 ms reconfiguration: place and install.

        Returns the record, including how many LLC lines the coherence
        walk invalidated due to descriptor changes. If the placer (or
        validation) fails and a previous epoch exists, the previous
        allocation is re-installed and the record is marked
        ``degraded`` — never an unvalidated allocation.
        """
        with obs.span(
            "runtime.reconfigure",
            epoch=self.epoch,
            design=self.design.name,
        ):
            record = self._reconfigure()
        if obs.is_enabled():
            obs.counter_inc("runtime.reconfigurations")
            if record.degraded:
                obs.counter_inc("runtime.degraded_epochs")
            if self._memoize:
                obs.counter_inc(
                    "runtime.memo_hits"
                    if record.memo_hit
                    else "runtime.memo_misses"
                )
        return record

    def _descriptor_for(
        self, allocation: Allocation, app: str
    ) -> PlacementDescriptor:
        """``allocation.descriptor_for(app)``, value-memoised.

        Only with memoisation enabled (the accelerated engine; the
        reference engine rebuilds descriptors every epoch). The key is
        the app's exact per-bank MB vector — or, for uniform vectors,
        the bank set alone: with all ``B`` quotas equal, largest-
        remainder ties resolve purely by bank id, so the descriptor
        depends only on ``int(quota)`` — and ``quota ~ 128/B`` can only
        sit on an integer boundary when ``B`` divides 128 (a power of
        two), where ``1/B`` is exact and the quota has no rounding at
        all. One canonical descriptor therefore serves every drifting
        uniform stripe (Adaptive's S-NUCA shape each epoch).
        ``tests/test_model_batch.py`` pins this invariance.
        """
        if not self._memoize:
            return allocation.descriptor_for(app)
        vec = allocation.app_grants(app)
        values = [mb for _, mb in vec]
        if values and values.count(values[0]) == len(values):
            key = ("u", tuple(sorted([b for b, _ in vec])))
        else:
            key = ("v", tuple(sorted(vec)))
        cached = self._desc_cache.get(key)
        if cached is not None:
            self._desc_cache.move_to_end(key)
            self.subepoch_hits += 1
            return cached
        self.subepoch_misses += 1
        descriptor = allocation.descriptor_for(app)
        self._desc_cache[key] = descriptor
        while len(self._desc_cache) > self._desc_cache_size:
            self._desc_cache.popitem(last=False)
        return descriptor

    def _place(
        self, lat_sizes: Dict[str, float]
    ) -> Tuple[Allocation, bool]:
        """``(allocation, memo_hit)`` for the given LC sizes."""
        ctx = self._build_context(lat_sizes)
        memo_key = ctx.fingerprint() if self._memoize else None
        cached = (
            self._memo.get(memo_key) if memo_key is not None else None
        )
        if cached is not None:
            # Same sizes, same tiles, same curves: the placer is
            # deterministic, so the cached (already validated)
            # allocation is exactly what it would produce.
            self._memo.move_to_end(memo_key)
            self.memo_hits += 1
            return cached, True
        with obs.span(
            "placer.allocate", design=self.design.name, epoch=self.epoch,
        ):
            allocation = self.design.allocate(ctx)
            allocation.validate()
        if memo_key is not None:
            self.memo_misses += 1
            self._memo[memo_key] = allocation
            while len(self._memo) > self._memo_size:
                self._memo.popitem(last=False)
        return allocation, False

    def _held_sizes(
        self, lat_sizes: Dict[str, float]
    ) -> Optional[Dict[str, float]]:
        """LC targets capped at the last placed sizes, or ``None``.

        ``None`` when there is no placed epoch to cap at, or when no
        app asked for more than it last got (capping changes nothing).
        """
        if self.last_record is None:
            return None
        placed = self.last_record.lat_sizes
        held = {
            app: min(size, placed.get(app, size))
            for app, size in lat_sizes.items()
        }
        return held if held != lat_sizes else None

    def _reconfigure(self) -> ReconfigRecord:
        """The reconfiguration body (spanned by :meth:`reconfigure`)."""
        with obs.span("controller.update", epoch=self.epoch):
            self.controller.epoch_boundary()
        degraded = False
        memo_hit = False
        lat_sizes = self.lat_sizes()
        try:
            try:
                allocation, memo_hit = self._place(lat_sizes)
            except LlcFull:
                # The LC targets outgrew the LLC. Hold every app that
                # asked for more at its last placed size (apps may
                # still shrink) and tell the controller, so its targets
                # cannot wind up past what the chip can place.
                held = self._held_sizes(lat_sizes)
                if held is None:
                    raise
                allocation, memo_hit = self._place(held)
                lat_sizes = held
                self.controller.hold(held)
        except Exception as exc:
            if self.last_record is None:
                # No validated state to hold: surface the failure.
                raise PlacementFailed(
                    f"placement failed on epoch {self.epoch} with no "
                    f"prior allocation to fall back to: {exc!r}",
                    epoch=self.epoch,
                ) from exc
            self._event(
                "placement_failed",
                epoch=self.epoch,
                design=self.design.name,
                error=repr(exc),
            )
            allocation = self.last_record.allocation
            lat_sizes = dict(self.last_record.lat_sizes)
            degraded = True
            memo_hit = False
        invalidated = 0
        if (
            memo_hit
            and self.last_record is not None
            and allocation is self.last_record.allocation
        ):
            # The installed descriptors already realise this exact
            # allocation object, so every vtb.update would return an
            # empty dirty set; skip the walk outright.
            pass
        else:
            for vc_id, app in enumerate(sorted(allocation.apps())):
                descriptor = self._descriptor_for(allocation, app)
                if (
                    self._memoize
                    and self._installed.get(vc_id) is descriptor
                ):
                    # Identical object: the entry diff is empty by
                    # construction, so the walk would invalidate
                    # nothing.
                    continue
                dirty = self.vtb.update(vc_id, descriptor)
                self._installed[vc_id] = descriptor
                # Without a live trace simulation attached we approximate the
                # walk cost as one descriptor-entry's worth of lines per
                # dirty bank; a trace-sim integration can override this.
                invalidated += len(dirty)
        record = ReconfigRecord(
            epoch=self.epoch,
            lat_sizes=dict(lat_sizes),
            allocation=allocation,
            invalidated_lines=invalidated,
            degraded=degraded,
            memo_hit=memo_hit,
        )
        self.history.append(record)
        self.last_record = record
        self.epoch += 1
        return record

    @property
    def batch_overhead_factor(self) -> float:
        """Throughput factor batch apps lose to the placement algorithm.

        Applied multiplicatively to batch IPC (the paper includes the
        0.22% software overhead in its results). Feedback-less designs
        that never run the placer (Static) have no overhead.
        """
        if self.design.name == "Static":
            return 1.0
        return 1.0 - PLACEMENT_OVERHEAD_FRACTION
