"""Shared exception taxonomy for the reproduction.

Production cache/serving systems treat partial failure as a normal
input, not a crash: a wedged worker, a truncated cache file, or a NaN
latency sample must degrade service predictably instead of aborting a
whole sweep with a raw traceback. This module gives every layer of the
reproduction one vocabulary for those events: typed exceptions
(:class:`CellTimeout`, :class:`TelemetryInvalid`, ...) so callers can
catch precisely the failures they know how to absorb. Structured
degraded-mode events are reported through :func:`repro.obs.emit` (the
``errors.log_event`` shim that used to live here was removed after its
deprecation cycle).

The serving layer (:mod:`repro.serve`) maps this taxonomy onto HTTP
status codes — :class:`ConfigError`/:class:`TelemetryInvalid` -> 400,
:class:`UnknownSession` -> 404, :class:`PayloadTooLarge` -> 413,
everything else -> 500 — with the error class named in the response
body, so API clients can catch the same vocabulary.

Several exceptions also subclass ``ValueError``/``KeyError`` so code
(and tests) written against the seed's untyped raises keep working.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "ReproError",
    "ConfigError",
    "CellError",
    "CellTimeout",
    "CellCrashed",
    "CellFailed",
    "TelemetryInvalid",
    "AllocationInvalid",
    "LlcFull",
    "PlacementFailed",
    "UnknownSession",
    "PayloadTooLarge",
]


class ReproError(Exception):
    """Base class for every typed error raised by this package."""


class ConfigError(ReproError, ValueError):
    """A configuration input (env var, CLI arg) is unusable.

    Raised with a message naming the offending knob and value, instead
    of letting a bare ``int()`` traceback escape to the user.
    """


class CellError(ReproError):
    """A sweep cell could not be evaluated.

    Carries enough context (``kind``, ``params``, ``key``, ``attempts``)
    to identify the cell without re-deriving its content address.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        key: Optional[str] = None,
        attempts: int = 0,
    ):
        super().__init__(message)
        self.kind = kind
        self.params = dict(params) if params else {}
        self.key = key
        self.attempts = attempts


class CellTimeout(CellError):
    """A cell exceeded its per-cell wall-clock budget (worker wedged)."""


class CellCrashed(CellError):
    """The worker process evaluating a cell died mid-computation."""


class CellFailed(CellError):
    """A cell's handler raised; retries (if any) were exhausted."""


class TelemetryInvalid(ReproError, ValueError):
    """A latency/tail sample is unusable (NaN, negative, infinite).

    Subclasses ``ValueError`` so seed-era ``except ValueError`` guards
    (and tests) continue to hold.
    """

    def __init__(
        self,
        message: str,
        *,
        app: Optional[str] = None,
        value: Any = None,
    ):
        super().__init__(message)
        self.app = app
        self.value = value


class AllocationInvalid(ReproError, ValueError):
    """An allocation violates a structural or isolation invariant.

    Carries the offending ``bank`` and ``app`` (and, for isolation
    violations, the set of ``vms`` sharing the bank) so degraded-mode
    handlers can log exactly what was rejected.
    """

    def __init__(
        self,
        message: str,
        *,
        bank: Optional[int] = None,
        app: Optional[str] = None,
        vms: Optional[tuple] = None,
    ):
        super().__init__(message)
        self.bank = bank
        self.app = app
        self.vms = tuple(vms) if vms is not None else None


class LlcFull(ReproError, ValueError):
    """The LC sizing targets do not fit in the LLC.

    Raised by LatCritPlacer when an LC app's target exceeds the LLC or
    its share cannot be placed in banks it may use. The runtime answers
    it by holding the over-target apps at their last placed sizes
    (:meth:`repro.core.runtime.JumanjiRuntime.reconfigure`).
    """


class PlacementFailed(ReproError):
    """A placer raised or produced an invalid allocation for an epoch."""

    def __init__(self, message: str, epoch: Optional[int] = None):
        super().__init__(message)
        self.epoch = epoch


class UnknownSession(ReproError, KeyError):
    """A serve-API request named a session id the daemon does not hold.

    Subclasses ``KeyError`` (it is a registry lookup miss); the HTTP
    layer maps it to 404.
    """

    def __init__(self, message: str, session_id: Optional[str] = None):
        # KeyError repr()s its first arg; route through ReproError so
        # str(exc) stays the human-readable message.
        super().__init__(message)
        self.session_id = session_id

    def __str__(self) -> str:  # KeyError would quote the message
        return self.args[0] if self.args else ""


class PayloadTooLarge(ReproError):
    """A serve-API request body or telemetry batch exceeds its bound.

    Carries the measured ``size`` and the configured ``limit`` so the
    413 response (and logs) name exactly which bound was tripped.
    """

    def __init__(
        self,
        message: str,
        *,
        size: Optional[int] = None,
        limit: Optional[int] = None,
    ):
        super().__init__(message)
        self.size = size
        self.limit = limit
