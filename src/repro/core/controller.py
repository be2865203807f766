"""Feedback control of latency-critical allocations (paper Listing 1).

Every completed request reports its end-to-end latency (including
queueing). After ``configuration_interval`` requests, the controller
computes the tail percentile of the window and adjusts the app's
allocation:

* tail > ``panic_threshold`` x deadline  -> panic-boost to a canonical
  safe size (one-eighth of the LLC);
* tail > ``target_hi`` x deadline        -> grow by ``step`` (10%);
* tail < ``target_lo`` x deadline        -> shrink by ``step``;
* otherwise                               -> hold.

The panic boost exists because even very short spikes in queueing
latency frequently set the tail (Sec. V-C); waiting for gradual growth
would miss deadlines for whole windows.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from ..config import ControllerConfig, SystemConfig
from ..errors import TelemetryInvalid
from ..sim.queueing import nearest_rank, percentile

__all__ = ["FeedbackController", "ControllerDecision"]


def _check_sample(app: str, value: float, what: str) -> float:
    """Validate one telemetry sample; returns it as a float.

    NaN, infinities, negatives, and non-numbers all raise
    :class:`~repro.errors.TelemetryInvalid` (a ``ValueError``): a bad
    sample entering the sizing window would silently poison the tail
    percentile for a whole configuration interval. Degraded-mode
    callers (the runtime) catch this, log, and hold the last-good
    allocation instead of propagating garbage into placement.
    """
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise TelemetryInvalid(
            f"{what} for {app!r} is not a number: {value!r}",
            app=app, value=value,
        ) from None
    if not math.isfinite(value):
        raise TelemetryInvalid(
            f"{what} for {app!r} is not finite: {value!r}",
            app=app, value=value,
        )
    if value < 0:
        raise TelemetryInvalid(
            f"{what} for {app!r} must be non-negative, got {value!r}",
            app=app, value=value,
        )
    return value


@dataclass(frozen=True)
class ControllerDecision:
    """One sizing decision, for logging/inspection."""

    app: str
    tail_latency: float
    deadline: float
    old_size_mb: float
    new_size_mb: float
    action: str  # 'grow' | 'shrink' | 'hold' | 'panic'


class FeedbackController:
    """Per-app allocation sizing by tail-latency feedback.

    Sizes are in MB, clamped to ``[min_size_mb, max_size_mb]``. Separate
    latency windows are kept per app, so one controller instance serves
    the whole machine (as Jumanji's runtime does).
    """

    def __init__(
        self,
        system: SystemConfig,
        config: Optional[ControllerConfig] = None,
        initial_size_mb: float = 2.5,
        min_size_mb: float = 0.25,
    ):
        self.system = system
        self.config = config if config is not None else ControllerConfig()
        if initial_size_mb <= 0:
            raise ValueError("initial size must be positive")
        if min_size_mb <= 0:
            raise ValueError("min size must be positive")
        self.initial_size_mb = initial_size_mb
        self.min_size_mb = min_size_mb
        self.max_size_mb = system.llc_size_mb
        self._sizes: Dict[str, float] = {}
        self._windows: Dict[str, List[float]] = {}
        self._deadlines: Dict[str, float] = {}
        self._resized_this_epoch: set = set()
        #: Decision log, ring-buffered when
        #: ``ControllerConfig.history_limit`` is set — a fleet of
        #: hundreds of per-chip controllers must not each grow an
        #: unbounded list over million-epoch runs.
        limit = self.config.history_limit
        self.decisions: "Union[List[ControllerDecision], Deque[ControllerDecision]]" = (
            deque(maxlen=limit) if limit is not None else []
        )

    # -- registration -------------------------------------------------------------

    def register(self, app: str, deadline: float) -> None:
        """Register an LC app with its tail-latency deadline.

        Mirrors the paper's system-call interface: apps report goals,
        not resource requests (Sec. V-B).
        """
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self._deadlines[app] = deadline
        self._sizes.setdefault(app, self.initial_size_mb)
        self._windows.setdefault(app, [])

    def unregister(self, app: str) -> None:
        """Forget an LC app entirely (tenant departure/migration).

        Removes its deadline, sizing target, and latency window so a
        departed tenant's ghost size never reaches the placer via
        :meth:`sizes`. Unknown apps raise ``KeyError`` — silently
        ignoring a bad id would hide scheduler bookkeeping bugs.
        """
        if app not in self._deadlines:
            raise KeyError(f"app {app!r} not registered")
        del self._deadlines[app]
        self._sizes.pop(app, None)
        self._windows.pop(app, None)
        self._resized_this_epoch.discard(app)

    def registered(self) -> List[str]:
        """Names of registered LC apps, sorted."""
        return sorted(self._deadlines)

    def size_of(self, app: str) -> float:
        """Current allocation target for ``app`` (MB)."""
        try:
            return self._sizes[app]
        except KeyError:
            raise KeyError(f"app {app!r} not registered") from None

    def sizes(self) -> Dict[str, float]:
        """Snapshot of app -> current allocation target (MB)."""
        return dict(self._sizes)

    def hold(self, sizes: Dict[str, float]) -> None:
        """Reset targets to sizes the runtime could actually place.

        Anti-windup: when the LC targets outgrow the LLC the runtime
        places smaller sizes, and targets left above them would keep
        growing on feedback the allocation can no longer answer.
        """
        for app, size in sizes.items():
            if app in self._sizes:
                self._sizes[app] = size

    def deadline_of(self, app: str) -> float:
        """The registered deadline (cycles) for an app."""
        return self._deadlines[app]

    @property
    def panic_size_mb(self) -> float:
        """The canonical safe size: one-eighth of the LLC."""
        return self.system.llc_size_mb * self.config.panic_fraction

    # -- the Listing 1 update path ---------------------------------------------------

    def epoch_boundary(self) -> None:
        """Signal that a reconfiguration has applied pending decisions.

        Allocation changes only take effect at the 100 ms placement
        epochs, so the controller limits itself to one non-panic resize
        per epoch: additional windows within the same epoch observe the
        *old* allocation, and acting on that stale feedback compounds
        (e.g. seven shrink windows firing before any takes effect).
        Panic boosts are exempt — missing a deadline is the one signal
        worth acting on repeatedly.
        """
        self._resized_this_epoch.clear()

    def request_completed(self, app: str, latency: float) -> Optional[
        ControllerDecision
    ]:
        """Record one completed request; maybe resize (Listing 1).

        Returns the decision if the window filled, else ``None``.
        """
        if app not in self._deadlines:
            raise KeyError(f"app {app!r} not registered")
        latency = _check_sample(app, latency, "latency sample")
        window = self._windows[app]
        window.append(latency)
        if len(window) <= self.config.configuration_interval:
            return None
        tail = percentile(window, self.config.percentile)
        window.clear()
        return self._update(app, tail)

    def ingest_completed(
        self, app: str, latencies: "Union[Sequence[float], np.ndarray]"
    ) -> None:
        """Bulk :meth:`request_completed` for pre-validated samples.

        ``latencies`` must already be finite, non-negative floats — the
        accelerated runtime numpy-checks the whole batch before calling
        (any suspect batch takes the per-sample path instead, so drop
        events are preserved). The carried partial window and the new
        samples are cut into the windows the per-sample path would have
        filled, ``configuration_interval + 1`` samples each; one sort
        over every full window gives their tails, which then drive
        :meth:`_update` one window at a time, in order. The samples
        left over become the carried window. Sorting the same values
        picks the same nearest-rank sample, so every decision is
        bit-identical to the per-sample path.
        """
        if app not in self._deadlines:
            raise KeyError(f"app {app!r} not registered")
        window = self._windows[app]
        limit = self.config.configuration_interval + 1
        if len(window) + len(latencies) < limit:
            window.extend(np.asarray(latencies, dtype=float).tolist())
            return
        samples = np.concatenate(
            [np.asarray(window, dtype=float),
             np.asarray(latencies, dtype=float)]
        )
        full = len(samples) // limit * limit
        tails = np.sort(samples[:full].reshape(-1, limit), axis=1)[
            :, nearest_rank(limit, self.config.percentile)
        ]
        window[:] = samples[full:].tolist()
        for tail in tails.tolist():
            self._update(app, tail)

    def _update(self, app: str, tail: float) -> ControllerDecision:
        cfg = self.config
        deadline = self._deadlines[app]
        old = self._sizes[app]
        throttled = app in self._resized_this_epoch
        if tail > deadline * cfg.panic_threshold:
            new = max(old, self.panic_size_mb)
            action = "panic"
        elif tail > deadline * cfg.target_hi and not throttled:
            new = old * (1.0 + cfg.step)
            action = "grow"
        elif tail < deadline * cfg.target_lo and not throttled:
            new = old * (1.0 - cfg.step)
            action = "shrink"
        else:
            new = old
            action = "hold"
        if action in ("grow", "shrink"):
            self._resized_this_epoch.add(app)
        new = min(max(new, self.min_size_mb), self.max_size_mb)
        self._sizes[app] = new
        decision = ControllerDecision(
            app=app,
            tail_latency=tail,
            deadline=deadline,
            old_size_mb=old,
            new_size_mb=new,
            action=action,
        )
        self.decisions.append(decision)
        return decision

    def force_update(self, app: str, tail: float) -> ControllerDecision:
        """Apply one update from an externally computed tail latency.

        The epoch-level system model computes tails per 100 ms window
        rather than streaming individual completions; this entry point
        feeds those directly into the same decision logic.
        """
        if app not in self._deadlines:
            raise KeyError(f"app {app!r} not registered")
        tail = _check_sample(app, tail, "tail sample")
        return self._update(app, tail)
