"""Fault-tolerant parallel sweep engine with a content-addressed result cache.

Every figure in the paper's evaluation is a *sweep*: a set of
independent experiment cells (mix x design x config) whose results are
aggregated into one table. This module turns those cells into first-
class objects so they can be

* fanned out over a ``multiprocessing`` pool (worker count from
  ``jobs=``, the ``REPRO_JOBS`` environment variable, or
  ``os.cpu_count()``), in chunks: cells of a batchable kind that differ
  only in the kind's chunk axes run as one handler call (see
  :func:`register_cell_kind` and :func:`chunk_cells`), and
* memoised in an on-disk, content-addressed cache: the key is the
  SHA-256 of the cell's canonicalised inputs plus a fingerprint of the
  package's source code, so re-running a figure only recomputes cells
  whose inputs (or the model itself) changed.

Determinism contract: a cell's value depends only on its inputs, never
on scheduling. ``SweepRunner.map`` therefore returns results in
submission order, and parallel, serial (``jobs=1``), and cache-warm
reruns are bit-identical (``tests/test_runner_equivalence.py`` enforces
this). Fault recovery preserves the contract: a retried cell recomputes
the same value, so runs that suffered crashes, timeouts, or corrupt
cache entries converge to the same results as clean runs
(``tests/test_fault_tolerant_runner.py``).

Failure handling (see :mod:`repro.errors` for the taxonomy):

* worker crashes — the pool is respawned and in-flight chunks are
  re-dispatched; after ``RetryPolicy.max_pool_respawns`` unhealthy
  pools the runner degrades to serial in-process execution;
* per-cell timeouts — a chunk exceeding ``RetryPolicy.timeout_seconds``
  (or ``REPRO_CELL_TIMEOUT``) per cell has its cells retried one by
  one with exponential backoff, each raising
  :class:`~repro.errors.CellTimeout` when its retries are exhausted;
* handler exceptions — bounded retries, then
  :class:`~repro.errors.CellFailed` carrying the worker traceback;
* cache corruption — every entry is wrapped in a checksum envelope;
  entries failing verification are quarantined (renamed
  ``*.pkl.corrupt``) and recomputed instead of crashing the sweep;
* resume — the result cache is the runner's only durable state: every
  cell is looked up there before it is computed, so a killed sweep
  resumes by running it again, recomputing only unfinished cells.

Cache layout: ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-sweeps``),
one pickle per cell at ``<key[:2]>/<key>.pkl``. The cache is safe to
delete wholesale at any time; entries are also invalidated implicitly
whenever the package source changes, because the code fingerprint is
part of every key. Workers return results through the pool's pipe.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import multiprocessing
import os
import pathlib
import pickle
import tempfile
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from . import obs
from .config import Settings
from .errors import (
    CellCrashed,
    CellFailed,
    CellTimeout,
    ConfigError,
)
from .faults import FaultPlan

__all__ = [
    "Cell",
    "CellStats",
    "ResultCache",
    "RetryPolicy",
    "SweepRunner",
    "CHUNK_CELLS",
    "cell_key",
    "chunk_cells",
    "code_fingerprint",
    "default_cache_dir",
    "register_cell_kind",
    "resolve_jobs",
]

logger = logging.getLogger("repro.runner")


# --------------------------------------------------------------------------
# Worker-count resolution
# --------------------------------------------------------------------------


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` > ``os.cpu_count()``.

    Garbage values (non-integer, zero, negative) raise
    :class:`~repro.errors.ConfigError` with a message naming the source.
    The environment is read through :class:`repro.config.Settings`, the
    package's single ``REPRO_*`` parser.
    """
    if jobs is None:
        jobs = Settings.from_env().jobs
    if jobs is None:
        jobs = os.cpu_count() or 1
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigError(
            f"jobs must be an integer, got {type(jobs).__name__}"
        )
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


# --------------------------------------------------------------------------
# Cells and content-addressed keys
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One unit of sweep work: a registered ``kind`` plus its inputs.

    ``params`` must be JSON-canonicalisable (numbers, strings, bools,
    None, and nested lists/dicts thereof) — it *is* the cache identity,
    so anything that affects the result must be in it.
    """

    kind: str
    params: Mapping[str, Any]

    def canonical(self) -> str:
        """Canonical JSON encoding of the cell (stable across runs)."""
        return json.dumps(
            {"kind": self.kind, "params": _canonicalize(self.params)},
            sort_keys=True,
            separators=(",", ":"),
        )


def _canonicalize(value: Any) -> Any:
    """Reduce a value to a canonical JSON-encodable form."""
    if isinstance(value, Mapping):
        return {str(k): _canonicalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v) for v in value]
    if isinstance(value, float):
        # repr round-trips float64 exactly; json would too, but be
        # explicit so the key never depends on json float formatting.
        return float(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(
        f"cell param of type {type(value).__name__} is not canonical; "
        "pass plain numbers/strings/lists/dicts"
    )


_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the package's source files (cached per process).

    Including this in every cache key means a code change invalidates
    the whole cache — stale results can never leak across versions.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = pathlib.Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def cell_key(cell: Cell) -> str:
    """Content address of a cell: SHA-256(inputs + code version)."""
    digest = hashlib.sha256()
    digest.update(cell.canonical().encode())
    digest.update(code_fingerprint().encode())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# On-disk result cache
# --------------------------------------------------------------------------


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweeps``."""
    env = Settings.from_env().cache_dir
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-sweeps"


#: Envelope header of every cache entry: magic + SHA-256 of the payload.
_CACHE_MAGIC = b"RPRC1\n"
_DIGEST_BYTES = hashlib.sha256().digest_size


class ResultCache:
    """Pickle-per-cell cache addressed by :func:`cell_key`.

    Writes are atomic (tempfile + ``os.replace`` on the same
    filesystem), so concurrent workers racing on the same cell at worst
    duplicate work — they never corrupt an entry or observe a partial
    one. Every entry carries a checksum envelope (magic + SHA-256 of
    the pickle bytes); an entry that fails verification — truncated
    write survived a crash, bit rot, a stray editor — is *quarantined*
    (renamed ``<key>.pkl.corrupt``) and reported as a miss, so the cell
    recomputes instead of the sweep crashing on ``pickle.load``.
    """

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = pathlib.Path(
            directory if directory is not None else default_cache_dir()
        )
        #: Corrupt entries detected (and quarantined) by this instance.
        self.corrupt_detected = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored ``{"value", "duration"}`` payload, or None.

        Corrupt entries are quarantined and treated as misses.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        header = len(_CACHE_MAGIC) + _DIGEST_BYTES
        payload = blob[header:]
        if (
            len(blob) < header
            or not blob.startswith(_CACHE_MAGIC)
            or hashlib.sha256(payload).digest()
            != blob[len(_CACHE_MAGIC) : header]
        ):
            self._quarantine(path, "checksum mismatch")
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            # A checksummed-but-unloadable entry means the *writer* put
            # garbage (e.g. an unpicklable class vanished); same remedy.
            self._quarantine(path, "unpickle failed")
            return None

    def _quarantine(self, path: pathlib.Path, reason: str) -> None:
        """Move a corrupt entry aside so it is never read again."""
        self.corrupt_detected += 1
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            quarantined = None
        obs.emit(
            "cache_corrupt",
            logger=logger,
            path=str(path),
            quarantined=str(quarantined) if quarantined else None,
            reason=reason,
        )

    def put(self, key: str, value: Any, duration: float) -> None:
        """Store a cell result atomically, inside a checksum envelope."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(
            {"value": value, "duration": float(duration)},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = _CACHE_MAGIC + hashlib.sha256(payload).digest() + payload
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        path = self._path(key)
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = 0
        if not self.directory.is_dir():
            return 0
        for path in self.directory.rglob("*.pkl"):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def size(self) -> int:
        """Number of entries currently stored."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.rglob("*.pkl"))

    def quarantined(self) -> List[pathlib.Path]:
        """Quarantined (corrupt) entries currently on disk."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.rglob("*.pkl.corrupt"))


# --------------------------------------------------------------------------
# Cell-kind registry (handlers run inside workers, so module level)
# --------------------------------------------------------------------------


_CELL_KINDS: Dict[str, Callable[..., Any]] = {}

#: Batchable kinds: kind -> the params in which a chunk's cells may
#: differ (see :func:`register_cell_kind`).
_CHUNK_AXES: Dict[str, FrozenSet[str]] = {}

#: Most cells in one chunk. Each cell of a chunk holds its own model in
#: the worker until the chunk finishes, so this bounds a worker's peak
#: RSS: on the sweep-cold benchmark, workers running chunks of 6 peak
#: where workers running single cells do (45.0 vs 45.3 MB), while
#: chunks of 12 peak 10-11% higher (EXPERIMENTS.md, "How the sweeps
#: run").
CHUNK_CELLS = 6


def register_cell_kind(
    kind: str, chunk_over: Sequence[str] = ()
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a handler for a cell kind.

    A plain handler is ``fn(**params) -> value``. A kind registered
    with ``chunk_over`` (param names) is *batchable*: its handler is
    ``fn(chunk) -> values``, taking the params of cells that differ
    only in those names and returning their values in the same order.
    The runner evaluates batchable cells in chunks of up to
    :data:`CHUNK_CELLS` (see :func:`chunk_cells`); each cell keeps its
    own cache entry.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        if kind in _CELL_KINDS and _CELL_KINDS[kind] is not fn:
            raise ValueError(f"cell kind {kind!r} already registered")
        _CELL_KINDS[kind] = fn
        if chunk_over:
            _CHUNK_AXES[kind] = frozenset(chunk_over)
        return fn

    return decorate


def _handler_for(kind: str) -> Callable[..., Any]:
    if kind not in _CELL_KINDS:
        # Built-in handlers live in the experiment and attack modules;
        # importing registers them all.
        from . import experiments  # noqa: F401
        from .sim import attack  # noqa: F401
    try:
        return _CELL_KINDS[kind]
    except KeyError:
        raise KeyError(
            f"unknown cell kind {kind!r}; registered: "
            f"{sorted(_CELL_KINDS)}"
        ) from None


def compute_cell(cell: Union[Cell, Sequence[Cell]]) -> Any:
    """Run a cell's handler inline (no cache, no pool).

    Given a chunk (cells grouped by :func:`chunk_cells`) instead of one
    cell, returns the list of their values from one handler call.
    """
    if isinstance(cell, Cell):
        handler = _handler_for(cell.kind)
        if cell.kind in _CHUNK_AXES:
            return handler([dict(cell.params)])[0]
        return handler(**dict(cell.params))
    handler = _handler_for(cell[0].kind)
    return handler([dict(c.params) for c in cell])


def chunk_cells(
    cells: Sequence[Cell], indices: Iterable[int]
) -> List[Tuple[int, ...]]:
    """Group ``cells[i]`` for ``i`` in ``indices`` into chunks.

    Cells of a batchable kind that differ only in the kind's chunk axes
    share chunks of at most :data:`CHUNK_CELLS`, split as evenly as the
    count allows; every other cell is a chunk of one. Chunks come in
    the order of their first cell.
    """
    groups: Dict[Tuple[str, str], List[int]] = {}
    chunks: List[Tuple[int, ...]] = []
    for i in indices:
        cell = cells[i]
        _handler_for(cell.kind)  # registers the kind's chunk axes
        axes = _CHUNK_AXES.get(cell.kind)
        if axes is None:
            chunks.append((i,))
            continue
        shared = {k: v for k, v in cell.params.items() if k not in axes}
        group = (
            cell.kind,
            json.dumps(_canonicalize(shared), sort_keys=True),
        )
        groups.setdefault(group, []).append(i)
    for members in groups.values():
        count = -(-len(members) // CHUNK_CELLS)
        size, extra = divmod(len(members), count)
        start = 0
        for j in range(count):
            end = start + size + (j < extra)
            chunks.append(tuple(members[start:end]))
            start = end
    chunks.sort(key=lambda chunk: chunk[0])
    return chunks


#: Cache of the cell currently being evaluated (set by the worker), so
#: nested ``get_or_compute`` calls land in the same cache the runner
#: was configured with rather than the environment default.
_CURRENT_CACHE: Optional[ResultCache] = None


def get_or_compute(
    cell: Cell, cache: Optional[ResultCache] = None
) -> Any:
    """Cache-through evaluation of one cell (usable inside workers).

    Handlers that depend on other cells (e.g. a design run needing its
    Static baseline) call this so shared work is computed once and
    reused through the cache regardless of scheduling.
    """
    if cache is None:
        cache = _CURRENT_CACHE
    if cache is None:
        cache = ResultCache()
    key = cell_key(cell)
    hit = cache.get(key)
    if hit is not None:
        return hit["value"]
    start = time.process_time()
    value = compute_cell(cell)
    cache.put(key, value, time.process_time() - start)
    return value


# --------------------------------------------------------------------------
# Fault-aware cell evaluation (shared by workers and the serial path)
# --------------------------------------------------------------------------


def _corrupt_entry(cache: ResultCache, key: str) -> None:
    """Flip payload bytes of a cache entry (fault-injection only)."""
    path = cache._path(key)
    try:
        blob = bytearray(path.read_bytes())
    except OSError:
        return
    if len(blob) > len(_CACHE_MAGIC) + _DIGEST_BYTES:
        blob[-1] ^= 0xFF
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))


#: What evaluating one cell of a chunk came to: ``("ok", value,
#: was_cached, duration)``, ``("crash", message)`` or ``("error",
#: detail)``. Failures travel as markers, never as raises, so the
#: runner applies its retry policy to each cell on its own.
Outcome = Tuple[Any, ...]


def _evaluate_chunk(
    cells: Sequence[Cell],
    keys: Sequence[str],
    attempts: Sequence[int],
    cache: ResultCache,
    plan: Optional[FaultPlan],
    in_worker: bool,
) -> Tuple[List[Outcome], int]:
    """Evaluate one chunk through the cache, injecting planned faults.

    Returns each cell's :data:`Outcome` and the number of corrupt cache
    entries quarantined on the way. Each cell rolls its own faults on
    ``(site, key, attempt)``, so they replay identically under any
    scheduling (see :mod:`repro.faults`), and a cell that fails leaves
    its siblings to complete. The cells the cache misses are computed
    in one :func:`compute_cell` call; each one's duration is an equal
    share of that call's CPU time.
    """
    global _CURRENT_CACHE
    corrupt_before = cache.corrupt_detected
    if plan is not None and in_worker:
        for key, attempt in zip(keys, attempts):
            if plan.fires("hard_crash", key, attempt):
                os._exit(13)  # a real abrupt death: no cleanup, no result
            if plan.fires("cell_stall", key, attempt):
                time.sleep(plan.stall_seconds)
    outcomes: List[Outcome] = [()] * len(cells)
    todo: List[int] = []
    for j, (key, attempt) in enumerate(zip(keys, attempts)):
        if plan is not None and plan.fires("worker_crash", key, attempt):
            outcomes[j] = ("crash", f"injected crash for cell {key[:12]}")
            continue
        hit = cache.get(key)
        if hit is not None:
            outcomes[j] = ("ok", hit["value"], True, hit["duration"])
        elif plan is not None and plan.fires("cell_error", key, attempt):
            outcomes[j] = ("error", f"injected error for cell {key[:12]}")
        else:
            todo.append(j)
    if todo:
        missed = [cells[j] for j in todo]
        previous = _CURRENT_CACHE
        _CURRENT_CACHE = cache
        try:
            # CPU time, not wall time: wall time inside a contended
            # worker counts the other workers' time slices, which would
            # inflate the serial estimate CellStats reports.
            start = time.process_time()
            if len(missed) == 1:
                values = [compute_cell(missed[0])]
            else:
                values = compute_cell(missed)
            share = (time.process_time() - start) / len(missed)
        except Exception:
            detail = traceback.format_exc()
            for j in todo:
                outcomes[j] = ("error", detail)
        else:
            for j, value in zip(todo, values):
                cache.put(keys[j], value, share)
                if plan is not None and plan.fires(
                    "cache_corrupt", keys[j], attempts[j]
                ):
                    # Corrupt the entry *after* the value is in hand:
                    # this run's results stay correct, and the next
                    # read exercises quarantine.
                    _corrupt_entry(cache, keys[j])
                outcomes[j] = ("ok", value, False, share)
        finally:
            _CURRENT_CACHE = previous
    return outcomes, cache.corrupt_detected - corrupt_before


def _worker(
    task: Tuple[
        List[Cell], List[str], List[int], str, Optional[Dict[str, Any]],
        bool,
    ]
) -> Tuple[List[Outcome], int, Optional[List[Dict[str, Any]]]]:
    """Evaluate one chunk in a worker process.

    Returns ``(outcomes, quarantined, events)``: each cell's
    :data:`Outcome`, the corrupt entries quarantined (an attempt may
    move one aside and then fail), and the worker's observability
    records (spans inside the chunk — placer stages, model epochs —
    plus emitted events) for one merged trace; ``events`` is ``None``
    when the parent had collection disabled at dispatch time.
    """
    cells, keys, attempts, cache_dir, plan_params, obs_on = task
    if obs_on:
        # Fork copied the parent's collected records into this process;
        # start clean so only this chunk's records ship back.
        obs.begin_worker_capture()
    plan = FaultPlan.from_params(plan_params)
    cache = ResultCache(cache_dir)
    try:
        with obs.span(
            "sweep.cell", kind=cells[0].kind, cells=len(cells),
            attempt=max(attempts),
        ):
            outcomes, quarantined = _evaluate_chunk(
                cells, keys, attempts, cache, plan, in_worker=True
            )
    except Exception:
        outcomes = [("error", traceback.format_exc())] * len(cells)
        quarantined = cache.corrupt_detected
    events = obs.take_events() if obs_on else None
    return outcomes, quarantined, events


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner reacts to failing cells and unhealthy pools."""

    #: Additional attempts after the first (0 = fail fast).
    retries: int = 2
    #: Base of the exponential backoff between attempts (seconds).
    backoff_seconds: float = 0.05
    #: Per-cell wall-clock budget; ``None`` = unbounded. Required for
    #: recovery from *hard* worker deaths (the task simply vanishes).
    timeout_seconds: Optional[float] = None
    #: Pool respawns tolerated before degrading to serial execution.
    max_pool_respawns: int = 2
    #: Parent poll tick while waiting on workers (seconds).
    poll_interval: float = 0.005

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ConfigError("backoff_seconds must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigError("timeout_seconds must be positive")
        if self.max_pool_respawns < 0:
            raise ConfigError("max_pool_respawns must be >= 0")
        if self.poll_interval <= 0:
            raise ConfigError("poll_interval must be positive")

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Default policy, honouring ``REPRO_CELL_TIMEOUT``.

        Parsed through :class:`repro.config.Settings` (garbage raises
        :class:`~repro.errors.ConfigError` naming the variable).
        """
        return cls(timeout_seconds=Settings.from_env().cell_timeout)

    def backoff_for(self, attempt: int) -> float:
        """Backoff before dispatching attempt ``attempt`` (1-based)."""
        return self.backoff_seconds * (2.0 ** max(attempt - 1, 0))


@dataclass
class CellStats:
    """What one or more ``map`` calls did."""

    cells: int = 0
    computed: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    #: Sum of per-cell compute durations — what a serial, cache-less
    #: run would have cost.
    serial_seconds: float = 0.0
    #: Cell attempts beyond the first (crash/timeout/error recovery).
    retries: int = 0
    #: Corrupt cache entries quarantined while serving these cells.
    quarantined: int = 0
    #: Pool respawns forced by crashed or wedged workers.
    pool_respawns: int = 0
    #: Cells completed in degraded serial mode (unhealthy pool).
    degraded_cells: int = 0

    def absorb(self, other: "CellStats") -> None:
        """Accumulate another stats record into this one, in place."""
        self.cells += other.cells
        self.computed += other.computed
        self.cache_hits += other.cache_hits
        self.wall_seconds += other.wall_seconds
        self.serial_seconds += other.serial_seconds
        self.retries += other.retries
        self.quarantined += other.quarantined
        self.pool_respawns += other.pool_respawns
        self.degraded_cells += other.degraded_cells


#: When set (see :func:`collecting_stats`), every ``SweepRunner.map``
#: in this process also accumulates into this collector — how a
#: caller observes sweeps run deep inside figure modules.
_ACTIVE_COLLECTOR: Optional[CellStats] = None


class _StatsScope:
    """Context manager installing a process-wide stats collector."""

    def __init__(self) -> None:
        self.stats = CellStats()

    def __enter__(self) -> CellStats:
        global _ACTIVE_COLLECTOR
        self._previous = _ACTIVE_COLLECTOR
        _ACTIVE_COLLECTOR = self.stats
        return self.stats

    def __exit__(self, *exc_info: Any) -> None:
        global _ACTIVE_COLLECTOR
        _ACTIVE_COLLECTOR = self._previous


def collecting_stats() -> _StatsScope:
    """Collect stats from every runner used inside the ``with`` block."""
    return _StatsScope()


class _CellState:
    """Book-keeping for one cell across attempts (parallel path)."""

    __slots__ = ("cell", "key", "attempt")

    def __init__(self, cell: Cell, key: str):
        self.cell = cell
        self.key = key
        self.attempt = 0


#: The error a failed :data:`Outcome` raises once retries are spent.
_FAILURES = {"crash": CellCrashed, "error": CellFailed}


class SweepRunner:
    """Fans cells out over a process pool, through the result cache.

    Cells go out in chunks (:func:`chunk_cells`): batchable cells that
    differ only in their kind's chunk axes run as one handler call in
    one pool task, and every other cell is a chunk of one. Each cell
    keeps its own key, cache entry, fault rolls, retries and slot in
    the results; a cell that fails is retried alone. ``jobs=1`` (or a
    single chunk) runs inline in the parent — the serial path and the
    parallel path execute the exact same per-chunk code, which is what
    makes them bit-identical.

    ``policy`` governs retries/timeouts/pool respawns (default:
    :meth:`RetryPolicy.from_env`). ``fault_plan`` injects deterministic
    faults — used by the chaos tests; leave ``None`` for production
    runs.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache if cache is not None else ResultCache()
        self.policy = policy if policy is not None else RetryPolicy.from_env()
        self.fault_plan = fault_plan
        self.stats = CellStats()
        #: Structured degraded-mode events observed by this runner.
        self.events: List[Dict[str, Any]] = []

    # -- event plumbing ------------------------------------------------------

    def _event(self, event: str, **fields: Any) -> None:
        self.events.append(obs.emit(event, logger=logger, **fields))

    def _retry_or_raise(
        self,
        cell: Cell,
        key: str,
        attempt: int,
        failure: type,
        detail: str,
        batch: CellStats,
    ) -> None:
        """Count failed attempt ``attempt`` of a cell; raise ``failure``
        once the policy's retries are spent."""
        batch.retries += 1
        self._event(
            "cell_retry",
            key=key[:16],
            kind=cell.kind,
            attempt=attempt,
            reason=failure.__name__,
        )
        if attempt > self.policy.retries:
            raise failure(
                f"cell {cell.kind!r} failed after {attempt} "
                f"attempt(s): {detail}",
                kind=cell.kind,
                params=dict(cell.params),
                key=key,
                attempts=attempt,
            )

    def _finish(
        self, i: int, outcome: Outcome, results: List[Any], batch: CellStats
    ) -> None:
        """Store cell ``i``'s value and count it."""
        _tag, value, was_cached, duration = outcome
        results[i] = value
        if was_cached:
            batch.cache_hits += 1
        else:
            batch.computed += 1
        batch.serial_seconds += duration

    # -- public API ----------------------------------------------------------

    def map(self, cells: Sequence[Cell]) -> List[Any]:
        """Evaluate cells (parallel, cached); results in given order."""
        cells = list(cells)
        if not cells:
            return []
        start = time.perf_counter()
        keys = [cell_key(cell) for cell in cells]
        results: List[Any] = [None] * len(cells)
        batch = CellStats(cells=len(cells))
        try:
            with obs.span(
                "sweep.map", cells=len(cells), jobs=self.jobs
            ):
                chunks = chunk_cells(cells, range(len(cells)))
                if self.jobs == 1 or len(chunks) == 1:
                    self._map_serial(
                        cells, keys, chunks, results, batch, degraded=False
                    )
                else:
                    self._map_parallel(cells, keys, chunks, results, batch)
        finally:
            batch.wall_seconds = time.perf_counter() - start
            self.stats.absorb(batch)
            if _ACTIVE_COLLECTOR is not None:
                _ACTIVE_COLLECTOR.absorb(batch)
            if obs.is_enabled():
                obs.counter_inc("runner.cells", batch.cells)
                obs.counter_inc("runner.computed", batch.computed)
                obs.counter_inc("runner.cache_hits", batch.cache_hits)
                obs.counter_inc("runner.retries", batch.retries)
                obs.counter_inc("runner.quarantined", batch.quarantined)
                obs.counter_inc(
                    "runner.pool_respawns", batch.pool_respawns
                )
                obs.counter_inc(
                    "runner.degraded_cells", batch.degraded_cells
                )
        return results

    # -- serial path ---------------------------------------------------------

    def _map_serial(
        self,
        cells: List[Cell],
        keys: List[str],
        chunks: List[Tuple[int, ...]],
        results: List[Any],
        batch: CellStats,
        degraded: bool,
    ) -> None:
        """Evaluate ``chunks`` inline, with the same retry semantics: a
        failed cell is retried alone, after its backoff."""
        attempts = {i: 0 for chunk in chunks for i in chunk}
        work = deque(chunks)
        while work:
            chunk = work.popleft()
            tries = [attempts[i] for i in chunk]
            with obs.span(
                "sweep.cell", kind=cells[chunk[0]].kind, cells=len(chunk),
                attempt=max(tries),
            ):
                outcomes, quarantined = _evaluate_chunk(
                    [cells[i] for i in chunk], [keys[i] for i in chunk],
                    tries, self.cache, self.fault_plan, in_worker=False,
                )
            batch.quarantined += quarantined
            retry = []
            for i, outcome in zip(chunk, outcomes):
                if outcome[0] == "ok":
                    if degraded:
                        batch.degraded_cells += 1
                    self._finish(i, outcome, results, batch)
                    continue
                attempts[i] += 1
                self._retry_or_raise(
                    cells[i], keys[i], attempts[i],
                    _FAILURES[outcome[0]], outcome[1], batch,
                )
                time.sleep(self.policy.backoff_for(attempts[i]))
                retry.append((i,))
            work.extendleft(reversed(retry))

    # -- parallel path -------------------------------------------------------

    def _spawn_pool(self, ctx, processes: int):
        return ctx.Pool(processes=processes)

    def _map_parallel(
        self,
        cells: List[Cell],
        keys: List[str],
        chunks: List[Tuple[int, ...]],
        results: List[Any],
        batch: CellStats,
    ) -> None:
        policy = self.policy
        plan_params = (
            self.fault_plan.as_params() if self.fault_plan else None
        )
        cache_dir = str(self.cache.directory)
        # fork shares the already-imported modules with workers;
        # fall back to the platform default elsewhere.
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context()
        processes = min(self.jobs, len(chunks))
        states = {
            i: _CellState(cells[i], keys[i]) for chunk in chunks for i in chunk
        }
        queue: deque = deque(chunks)
        backoff_heap: List[Tuple[float, int]] = []  # (ready_at, index)
        #: chunk id -> (the chunk's cell indices, AsyncResult, deadline)
        inflight: Dict[int, Tuple[Tuple[int, ...], Any, Optional[float]]] = {}
        next_id = 0
        respawns = 0

        def fail_or_retry(
            i: int, failure: type, detail: str, now: float
        ) -> None:
            state = states[i]
            state.attempt += 1
            self._retry_or_raise(
                state.cell, state.key, state.attempt, failure, detail,
                batch,
            )
            heapq.heappush(
                backoff_heap,
                (now + policy.backoff_for(state.attempt), i),
            )

        pool = None
        obs_on = obs.is_enabled()
        try:
            pool = self._spawn_pool(ctx, processes)
            while queue or inflight or backoff_heap:
                now = time.monotonic()
                while backoff_heap and backoff_heap[0][0] <= now:
                    # A retried cell runs alone.
                    queue.append((heapq.heappop(backoff_heap)[1],))
                # Dispatch everything runnable.
                while queue:
                    chunk = queue.popleft()
                    task = (
                        [cells[i] for i in chunk],
                        [keys[i] for i in chunk],
                        [states[i].attempt for i in chunk],
                        cache_dir,
                        plan_params,
                        obs_on,
                    )
                    # A chunk's budget is the sum of its cells'.
                    deadline = (
                        now + policy.timeout_seconds * len(chunk)
                        if policy.timeout_seconds is not None
                        else None
                    )
                    inflight[next_id] = (
                        chunk, pool.apply_async(_worker, (task,)), deadline
                    )
                    next_id += 1
                ready = [
                    c for c, (_, res, _) in inflight.items() if res.ready()
                ]
                if not ready:
                    if not inflight:
                        # Only backed-off retries remain: sleep to them.
                        if backoff_heap:
                            time.sleep(
                                max(backoff_heap[0][0] - now, 0.0)
                                + 1e-4
                            )
                        continue
                    now = time.monotonic()
                    timed_out = [
                        c
                        for c, (_, _, deadline) in inflight.items()
                        if deadline is not None and now > deadline
                    ]
                    if timed_out:
                        # A wedged (or vanished) worker still owns its
                        # pool slot: reclaim everything by respawning
                        # the pool and re-dispatching in-flight chunks.
                        respawns += 1
                        batch.pool_respawns += 1
                        self._event(
                            "pool_respawn",
                            respawn=respawns,
                            timed_out=len(timed_out),
                            inflight=len(inflight),
                        )
                        pool.terminate()
                        pool.join()
                        pool = None
                        lost = [inflight.pop(c)[0] for c in timed_out]
                        # Innocent in-flight chunks lost their worker:
                        # re-dispatch at the same attempts (their fault
                        # decisions replay identically).
                        queue.extend(c for c, _, _ in inflight.values())
                        inflight.clear()
                        # A timed-out chunk retries its cells one by one.
                        for chunk in lost:
                            for i in chunk:
                                fail_or_retry(
                                    i,
                                    CellTimeout,
                                    f"exceeded {policy.timeout_seconds}s",
                                    now,
                                )
                        if respawns > policy.max_pool_respawns:
                            self._event(
                                "degraded_serial",
                                respawns=respawns,
                                remaining=len(states),
                            )
                            self._map_serial(
                                cells, keys,
                                chunk_cells(cells, sorted(states)),
                                results, batch, degraded=True,
                            )
                            return
                        pool = self._spawn_pool(ctx, processes)
                        continue
                    time.sleep(policy.poll_interval)
                    continue
                for c in ready:
                    chunk, res, _ = inflight.pop(c)
                    try:
                        outcomes, quarantined, events = res.get()
                    except Exception as exc:  # unpicklable return etc.
                        outcomes = [("crash", repr(exc))] * len(chunk)
                        quarantined, events = 0, None
                    if events:
                        obs.absorb_events(events)
                    batch.quarantined += quarantined
                    now = time.monotonic()
                    for i, outcome in zip(chunk, outcomes):
                        if outcome[0] == "ok":
                            states.pop(i)
                            self._finish(i, outcome, results, batch)
                        else:
                            fail_or_retry(
                                i, _FAILURES[outcome[0]], outcome[1], now
                            )
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
