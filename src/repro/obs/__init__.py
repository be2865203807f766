"""repro.obs: tracing and metrics for the Jumanji reproduction.

The paper's premise is a 100 ms OS loop that observes tail latency and
reacts; this package makes the reproduction of that loop observable the
same way a production deployment would be:

* :func:`span` — nested timed sections (wall + CPU time, self-time)
  around epoch ticks, controller updates, each placer stage and
  sweep-cell dispatch;
* :func:`emit` — structured one-line JSON events (the single successor
  to the old scattered ``log_event`` call paths), counted into the
  metrics registry and recorded into the trace when collection is on;
* :class:`~repro.obs.metrics.MetricsRegistry` — deterministic counters,
  gauges, and fixed-edge histograms (reconfigurations, memo and cache
  hits, retries, degraded-mode entries, p95-vs-deadline ratios);
* exporters — JSONL event logs, Chrome trace-event JSON (loadable in
  Perfetto), and a plain-text metrics snapshot — selected with
  :func:`configure` / written with :func:`flush`.

Cost contract: everything is **zero-cost when disabled**. One
module-level flag guards every entry point; ``span()`` returns a shared
no-op singleton, and the metric helpers return before touching the
registry. No benchmark workload turns collection on, so a cost in the
disabled hooks shows up in the end-to-end timings of ``python3 -m
bench``.

Determinism contract: span timings exist only in trace output, which is
never golden-compared; the metrics registry holds only values the
(seeded, deterministic) simulation computed, so two same-seed runs
produce identical snapshots.
"""

from __future__ import annotations

import json
import logging
import os
import time
from typing import Any, Dict, List, Optional

from ..errors import ConfigError
from .metrics import (
    DEFAULT_EDGES,
    RATIO_EDGES,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "DEFAULT_EDGES",
    "RATIO_EDGES",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "configure",
    "counter_inc",
    "emit",
    "events",
    "flush",
    "format_summary",
    "gauge_set",
    "is_enabled",
    "load_trace",
    "metrics",
    "observe",
    "reset",
    "span",
    "summarize",
]

_LOGGER = logging.getLogger("repro.obs")

_TRACE_FORMATS = ("chrome", "jsonl")


class _State:
    """All module state in one bag so :func:`reset` is one assignment."""

    __slots__ = (
        "enabled",
        "events",
        "stack",
        "registry",
        "origin",
        "trace_path",
        "trace_format",
        "metrics_path",
    )

    def __init__(self) -> None:
        self.enabled = False
        #: Completed span records and emitted events, in completion
        #: order (a span is recorded when it *exits*).
        self.events: List[Dict[str, Any]] = []
        #: Currently-open spans, innermost last.
        self.stack: List["Span"] = []
        self.registry = MetricsRegistry()
        #: ``perf_counter`` value at enable time; span timestamps are
        #: relative to it. On Linux ``perf_counter`` is CLOCK_MONOTONIC,
        #: which forked workers share, so worker spans align with the
        #: parent's timeline in a merged trace.
        self.origin = 0.0
        self.trace_path: Optional[str] = None
        self.trace_format: Optional[str] = None
        self.metrics_path: Optional[str] = None


_STATE = _State()


def is_enabled() -> bool:
    """Whether collection is on (the one flag every call site checks)."""
    return _STATE.enabled


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------


class Span:
    """One timed section of work; records itself on ``__exit__``.

    Tracks wall time (``perf_counter``), CPU time (``process_time``),
    and self time (wall time minus the wall time of direct children),
    plus its nesting depth at entry. Only constructed when collection
    is enabled — disabled call sites get the shared no-op instead.
    """

    __slots__ = ("name", "args", "_depth", "_child_wall", "_t0", "_c0")

    def __init__(self, name: str, args: Dict[str, Any]):
        self.name = name
        self.args = args
        self._child_wall = 0.0

    def __enter__(self) -> "Span":
        state = _STATE
        self._depth = len(state.stack)
        state.stack.append(self)
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        t1 = time.perf_counter()
        c1 = time.process_time()
        state = _STATE
        if state.stack and state.stack[-1] is self:
            state.stack.pop()
        wall = t1 - self._t0
        if state.stack:
            state.stack[-1]._child_wall += wall
        record: Dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "ts_us": (self._t0 - state.origin) * 1e6,
            "dur_us": wall * 1e6,
            "cpu_us": (c1 - self._c0) * 1e6,
            "self_us": max(wall - self._child_wall, 0.0) * 1e6,
            "depth": self._depth,
            "pid": os.getpid(),
        }
        if self.args:
            record["args"] = self.args
        state.events.append(record)
        return False


class _NoopSpan:
    """Shared do-nothing span handed out while collection is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


def span(name: str, **args: Any):
    """A context manager timing one section (no-op when disabled).

    ``args`` become the span's attributes in trace output; values must
    be JSON-able (instrumentation passes counts, names, and flags).
    """
    if not _STATE.enabled:
        return _NOOP_SPAN
    return Span(name, args)


# --------------------------------------------------------------------------
# Structured events
# --------------------------------------------------------------------------


def emit(
    event: str,
    logger: Optional[logging.Logger] = None,
    **fields: Any,
) -> Dict[str, Any]:
    """Emit one structured event; returns the flat record.

    The single successor to the old ``errors.log_event`` /
    ``SweepRunner.events`` / ``JumanjiRuntime`` wrappers: the record is
    always rendered as one JSON line at WARNING level on ``logger``
    (default ``repro.obs``) so degraded-mode decisions stay greppable
    even with collection off. When collection is on, the event is also
    recorded into the trace and counted as ``events.<name>`` in the
    metrics registry. Non-JSON-able field values are stringified —
    event logging must never become its own failure mode.
    """
    record: Dict[str, Any] = {"event": event}
    for key, value in fields.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            value = repr(value)
        record[key] = value
    (logger if logger is not None else _LOGGER).warning(
        "%s", json.dumps(record, sort_keys=True)
    )
    state = _STATE
    if state.enabled:
        state.registry.counter_inc(f"events.{event}")
        entry: Dict[str, Any] = {
            "type": "event",
            "event": event,
            "ts_us": (time.perf_counter() - state.origin) * 1e6,
            "pid": os.getpid(),
        }
        if len(record) > 1:
            entry["fields"] = {
                k: v for k, v in record.items() if k != "event"
            }
        state.events.append(entry)
    return record


# --------------------------------------------------------------------------
# Metric helpers (thin guards in front of the registry)
# --------------------------------------------------------------------------


def counter_inc(name: str, amount: float = 1) -> None:
    """Bump a counter (no-op when disabled)."""
    if _STATE.enabled:
        _STATE.registry.counter_inc(name, amount)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge (no-op when disabled)."""
    if _STATE.enabled:
        _STATE.registry.gauge_set(name, value)


def observe(name: str, value: float, edges: Optional[Any] = None) -> None:
    """Record a histogram sample (no-op when disabled)."""
    if _STATE.enabled:
        _STATE.registry.observe(name, value, edges=edges)


def metrics() -> MetricsRegistry:
    """The live registry (empty unless collection was enabled)."""
    return _STATE.registry


def events() -> List[Dict[str, Any]]:
    """A copy of the collected span/event records so far."""
    return list(_STATE.events)


# --------------------------------------------------------------------------
# Configuration and export
# --------------------------------------------------------------------------


def configure(
    trace: Optional[os.PathLike] = None,
    metrics: Optional[os.PathLike] = None,
    trace_format: Optional[str] = None,
    enabled: Optional[bool] = None,
) -> None:
    """Select exporters and turn collection on.

    ``trace`` names the trace output file — Chrome trace-event JSON
    (Perfetto-loadable) when the path ends in ``.json`` or
    ``trace_format="chrome"``, JSONL otherwise. ``metrics`` names the
    plain-text metrics snapshot. ``enabled`` overrides the default
    (on iff at least one output is configured) — pass
    ``enabled=True`` with no outputs to collect in memory only.
    Writing happens in :func:`flush`, not here.
    """
    if trace_format is not None and trace_format not in _TRACE_FORMATS:
        raise ConfigError(
            f"trace_format must be one of {_TRACE_FORMATS!r}, got "
            f"{trace_format!r}"
        )
    state = _STATE
    if trace is not None:
        fmt = trace_format
        if fmt is None:
            fmt = "chrome" if str(trace).endswith(".json") else "jsonl"
        state.trace_path = str(trace)
        state.trace_format = fmt
    if metrics is not None:
        state.metrics_path = str(metrics)
    if enabled is None:
        enabled = bool(state.trace_path or state.metrics_path)
    was_enabled = state.enabled
    state.enabled = bool(enabled)
    if state.enabled and not was_enabled:
        state.origin = time.perf_counter()


def flush() -> Dict[str, Optional[str]]:
    """Write every configured exporter; returns what went where.

    Returns ``{"trace": path_or_None, "metrics": path_or_None}``.
    Collected state is left intact (flush again after more work, or
    :func:`reset` to drop it).
    """
    from .exporters import (
        write_chrome_trace,
        write_jsonl,
        write_metrics_text,
    )

    state = _STATE
    written: Dict[str, Optional[str]] = {"trace": None, "metrics": None}
    if state.trace_path:
        if state.trace_format == "chrome":
            write_chrome_trace(state.events, state.trace_path)
        else:
            write_jsonl(state.events, state.trace_path)
        written["trace"] = state.trace_path
    if state.metrics_path:
        write_metrics_text(state.registry, state.metrics_path)
        written["metrics"] = state.metrics_path
    return written


def reset() -> None:
    """Disable collection and drop all state (fresh-run hygiene)."""
    global _STATE
    _STATE = _State()


# --------------------------------------------------------------------------
# Worker-process plumbing (used by repro.runner)
# --------------------------------------------------------------------------


def begin_worker_capture() -> None:
    """Start a fresh in-memory capture inside a forked pool worker.

    Fork copies the parent's already-collected events into the child;
    this clears them (and any open-span stack) so the worker ships back
    only what *it* recorded. Workers never flush — the parent merges
    their shipped events via :func:`absorb_events`. The inherited
    ``origin`` is kept so worker timestamps stay on the parent's
    timeline.
    """
    state = _STATE
    state.enabled = True
    state.events = []
    state.stack = []
    state.registry = MetricsRegistry()
    state.trace_path = None
    state.metrics_path = None


def take_events() -> List[Dict[str, Any]]:
    """Drain the collected records (worker side of event shipping)."""
    drained = _STATE.events
    _STATE.events = []
    return drained


def absorb_events(records: Optional[List[Dict[str, Any]]]) -> None:
    """Merge records shipped back from a worker (parent side)."""
    if _STATE.enabled and records:
        _STATE.events.extend(records)


from .exporters import load_trace  # noqa: E402  (exporters import obs types)
from .summary import format_summary, summarize  # noqa: E402
