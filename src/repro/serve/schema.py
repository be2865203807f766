"""Wire schemas of the serve API.

Every request and response body of :mod:`repro.serve` is one of the
frozen dataclasses below. They are the *single* source of truth for the
API surface: the HTTP daemon (:mod:`repro.serve.http`), the bundled
sync client (:class:`repro.serve.Client`), and the synthetic load
generator (:mod:`repro.serve.loadgen`) all construct and parse exactly
these types — there is no hand-rolled JSON anywhere in the serving
path.

Validation follows the package's spec conventions (see
:class:`repro.fleet.scenarios.Scenario`): parsing is strict — unknown
fields raise :class:`~repro.errors.ConfigError` naming the offending
key, and every field is type- and range-checked in ``__post_init__`` so
a bad payload fails at the edge with a message naming the field, not
three layers down with a bare traceback. Serialisation is canonical
JSON (sorted keys, minimal separators), which is what makes
:meth:`Decision.fingerprint` usable as a byte-identity determinism
gate.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigError

__all__ = [
    "LOADS",
    "CHIPS",
    "CreateSessionRequest",
    "SessionInfo",
    "TelemetryRequest",
    "Decision",
    "SweepRequest",
    "SweepStatus",
    "ErrorBody",
]

#: Load levels a session can run at (mirrors ``WorkloadSpec.load``).
LOADS = ("high", "low")

#: Hardware a session can be created on: the paper's 20-core machine
#: (``default``) or the fleet's 2x2 socket (``small``).
CHIPS = ("default", "small")


def _canonical(value: Any) -> Any:
    """JSON-clean copy: tuples -> lists, mappings sorted by key."""
    if isinstance(value, Mapping):
        return {
            str(k): _canonical(value[k])
            for k in sorted(value, key=str)
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_int(name: str, value: Any, minimum: Optional[int] = None) -> None:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name} must be an integer, got {value!r}",
    )
    if minimum is not None:
        _require(value >= minimum, f"{name} must be >= {minimum}, got {value}")


def _check_str_tuple(name: str, value: Any) -> None:
    _require(
        isinstance(value, tuple)
        and all(isinstance(v, str) and v for v in value),
        f"{name} must be a sequence of non-empty strings, got {value!r}",
    )


class _Message:
    """Shared (de)serialisation for every schema dataclass."""

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-clean plain-dict form (tuples become lists).

        A shallow field walk: no schema field holds a nested
        dataclass, and :func:`_canonical` already builds fresh
        containers, so ``dataclasses.asdict``'s deep copy would only
        be thrown away.
        """
        return _canonical(
            {f.name: getattr(self, f.name) for f in fields(self)}
        )

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, minimal separators."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, data: Any) -> "_Message":
        """Strict parse: unknown keys raise ``ConfigError`` naming them."""
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"{cls.__name__} payload must be a JSON object, got "
                f"{type(data).__name__}"
            )
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} fields: {unknown}"
            )
        convert = getattr(cls, "_CONVERT", {})
        kwargs: Dict[str, Any] = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            conv = convert.get(f.name)
            if conv is not None and value is not None:
                try:
                    value = conv(value)
                except (TypeError, ValueError, AttributeError):
                    raise ConfigError(
                        f"bad {cls.__name__}.{f.name} value: "
                        f"{data[f.name]!r}"
                    ) from None
            kwargs[f.name] = value
        try:
            return cls(**kwargs)
        except TypeError as exc:
            # A required field was missing (defaults cover the rest).
            raise ConfigError(
                f"bad {cls.__name__} payload: {exc}"
            ) from None

    @classmethod
    def from_json(cls, payload: str) -> "_Message":
        """Parse canonical (or any) JSON text, strictly."""
        try:
            data = json.loads(payload)
        except ValueError as exc:
            raise ConfigError(
                f"{cls.__name__} payload is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)


def _str_tuple(value: Any) -> Tuple[str, ...]:
    if isinstance(value, str):
        raise TypeError("expected a list, got a bare string")
    return tuple(value)


def _sample_map(value: Any) -> Dict[str, Tuple[float, ...]]:
    if not isinstance(value, Mapping):
        raise TypeError("expected an object")
    return {str(k): tuple(v) for k, v in value.items()}


def _float_map(value: Any) -> Dict[str, float]:
    if not isinstance(value, Mapping):
        raise TypeError("expected an object")
    return {str(k): float(v) for k, v in value.items()}


def _alloc_map(value: Any) -> Dict[str, Dict[str, float]]:
    if not isinstance(value, Mapping):
        raise TypeError("expected an object")
    return {str(k): _float_map(v) for k, v in value.items()}


@dataclass(frozen=True)
class CreateSessionRequest(_Message):
    """``POST /v1/sessions`` — create one placement session.

    A session owns a long-lived :class:`~repro.core.runtime.
    JumanjiRuntime` over the requested mix: ``lc_apps`` is one LC name
    (replicated to the paper's four VMs on the ``default`` chip; a
    single consolidated tenant on the ``small`` chip) or four names.
    The batch riders are drawn from ``mix_seed`` exactly like
    :func:`~repro.model.workload.make_default_workload`.
    """

    lc_apps: Tuple[str, ...]
    mix_seed: int = 0
    load: str = "high"
    design: str = "Jumanji"
    chip: str = "default"
    seed: int = 0

    _CONVERT = {"lc_apps": _str_tuple}

    def __post_init__(self) -> None:
        _check_str_tuple("lc_apps", self.lc_apps)
        _require(
            len(self.lc_apps) in (1, 4),
            f"lc_apps needs one or four names, got {len(self.lc_apps)}",
        )
        _check_int("mix_seed", self.mix_seed, minimum=0)
        _check_int("seed", self.seed, minimum=0)
        _require(
            self.load in LOADS,
            f"load must be one of {LOADS}, got {self.load!r}",
        )
        _require(
            self.chip in CHIPS,
            f"chip must be one of {CHIPS}, got {self.chip!r}",
        )
        _require(
            isinstance(self.design, str) and bool(self.design),
            f"design must be a non-empty string, got {self.design!r}",
        )
        _require(
            not (self.chip == "small" and len(self.lc_apps) != 1),
            "chip 'small' hosts exactly one LC app per session",
        )


@dataclass(frozen=True)
class SessionInfo(_Message):
    """Response describing one live session.

    ``lc_instances`` are the machine-unique instance ids (``app#N``)
    telemetry must be keyed by; ``deadlines`` maps each instance to its
    deadline in cycles (the controller's reference signal), so clients
    can express telemetry relative to the SLO without re-deriving it.
    """

    session_id: str
    design: str
    lc_apps: Tuple[str, ...]
    lc_instances: Tuple[str, ...]
    deadlines: Dict[str, float]
    load: str
    mix_seed: int
    chip: str
    seed: int
    epoch: int

    _CONVERT = {
        "lc_apps": _str_tuple,
        "lc_instances": _str_tuple,
        "deadlines": _float_map,
    }


@dataclass(frozen=True)
class TelemetryRequest(_Message):
    """``POST /v1/sessions/<id>/telemetry`` — one epoch of samples.

    ``latencies`` maps LC instance ids (``SessionInfo.lc_instances``)
    to request-latency samples in cycles. Sample *values* are
    sanitised downstream by the runtime's telemetry guards (NaN,
    negative, and infinite samples are dropped with a structured
    event); the schema only enforces shape. An empty map is a valid
    "no completions this epoch" report — the decision still advances.
    """

    latencies: Dict[str, Tuple[float, ...]] = field(default_factory=dict)

    _CONVERT = {"latencies": _sample_map}

    def __post_init__(self) -> None:
        _require(
            isinstance(self.latencies, dict),
            "latencies must be an object of app -> samples",
        )
        for app, samples in self.latencies.items():
            _require(
                isinstance(app, str) and bool(app),
                f"latencies keys must be app ids, got {app!r}",
            )
            _require(
                isinstance(samples, tuple)
                and all(
                    isinstance(v, (int, float))
                    and not isinstance(v, bool)
                    for v in samples
                ),
                f"latencies[{app!r}] must be a list of numbers",
            )

    @property
    def sample_count(self) -> int:
        """Total samples across apps (the 413 batch bound)."""
        return sum(len(v) for v in self.latencies.values())


@dataclass(frozen=True)
class Decision(_Message):
    """The placement decision closing one telemetry POST.

    Mirrors :class:`~repro.core.runtime.ReconfigRecord`: the epoch
    index, the controller's LC target sizes, the installed allocation
    (bank -> app -> MB; JSON object keys are strings, so banks are
    stringified bank ids), and the record's ``invalidated_lines`` /
    ``degraded`` / ``memo_hit`` flags.
    """

    session_id: str
    epoch: int
    lat_sizes: Dict[str, float]
    allocation: Dict[str, Dict[str, float]]
    shared_batch: Tuple[str, ...]
    invalidated_lines: int
    degraded: bool
    memo_hit: bool

    _CONVERT = {
        "lat_sizes": _float_map,
        "allocation": _alloc_map,
        "shared_batch": _str_tuple,
    }

    def apps(self) -> Tuple[str, ...]:
        """Every app granted space somewhere in the allocation."""
        seen = sorted(
            {a for per_bank in self.allocation.values() for a in per_bank}
        )
        return tuple(seen)

    def fingerprint(self) -> str:
        """Canonical JSON of the decision *content*.

        Excludes ``session_id`` (an accident of registry order under
        concurrency) so the same telemetry script replayed into a fresh
        session fingerprints byte-identically — the loadgen
        determinism test compares exactly these strings.
        """
        payload = self.to_dict()
        payload.pop("session_id")
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )


@dataclass(frozen=True)
class SweepRequest(_Message):
    """``POST /v1/sweeps`` — start a figure-style sweep in background.

    Runs :func:`repro.experiments.common.run_sweep` over the given
    designs/workloads/loads grid through a
    :class:`~repro.runner.SweepRunner` on the daemon's result cache,
    so re-POSTing the same request serves its finished cells from the
    cache instead of recomputing them.
    """

    designs: Tuple[str, ...] = ("Jumanji",)
    lc_workloads: Tuple[str, ...] = ("xapian",)
    loads: Tuple[str, ...] = ("high",)
    mixes: int = 1
    epochs: int = 2
    jobs: Optional[int] = None

    _CONVERT = {
        "designs": _str_tuple,
        "lc_workloads": _str_tuple,
        "loads": _str_tuple,
    }

    def __post_init__(self) -> None:
        _check_str_tuple("designs", self.designs)
        _check_str_tuple("lc_workloads", self.lc_workloads)
        _check_str_tuple("loads", self.loads)
        _require(bool(self.designs), "designs must not be empty")
        _require(
            bool(self.lc_workloads), "lc_workloads must not be empty"
        )
        for load in self.loads:
            _require(
                load in LOADS,
                f"loads entries must be one of {LOADS}, got {load!r}",
            )
        _check_int("mixes", self.mixes, minimum=1)
        _check_int("epochs", self.epochs, minimum=1)
        if self.jobs is not None:
            _check_int("jobs", self.jobs, minimum=1)

    @property
    def total_cells(self) -> int:
        """Design cells the sweep will produce (excluding baselines)."""
        return (
            len(self.designs)
            * len(self.lc_workloads)
            * len(self.loads)
            * self.mixes
        )


@dataclass(frozen=True)
class SweepStatus(_Message):
    """State of one background sweep (``GET /v1/sweeps/<id>``)."""

    sweep_id: str
    state: str  # "running" | "done" | "failed"
    completed: int
    total: int
    error: Optional[str] = None
    #: design -> gmean weighted speedup, filled once ``state == "done"``.
    gmean_speedups: Dict[str, float] = field(default_factory=dict)

    _CONVERT = {"gmean_speedups": _float_map}


@dataclass(frozen=True)
class ErrorBody(_Message):
    """Every non-2xx response body: the taxonomy class, named.

    ``error`` is the :mod:`repro.errors` class name (or the raw
    exception class for unexpected failures), so clients can re-raise
    the same typed exception the service hit.
    """

    error: str
    message: str
    status: int
