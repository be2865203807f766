"""Span tracing from outside the program.

The benchmark never edits ``src/``. To see where the time goes it swaps
the public functions of each layer, at the attribute their callers look
up, for a wrapper that records one span per call: name, start, end,
parent span, pid, thread, and the calling thread's context (a request
id for serve, the design on model-batch). Module functions are swapped
where they are *called* (``repro.core.jumanji.jumanji_lookahead``, not
``repro.core.lookahead.jumanji_lookahead``), because ``from x import f``
binds the name at import time; methods are swapped on their class.

Spans stay in memory. A process forked from the traced one (the sweep
runner's pool workers) starts with an empty span list and appends its
spans to ``<dir>/<pid>.jsonl`` whenever its outermost span closes, so a
worker killed by ``pool.terminate()`` has already written every
finished cell. The serve daemon (``bench.daemon``) writes its file when
it stops.

A span's *self time* is its duration minus the part of that interval
its child spans cover; :func:`layer_metrics` turns self times into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import pathlib
import statistics
import threading
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "NULL",
    "Recorder",
    "install",
    "layer_metrics",
    "load_spans",
    "percentile",
    "self_times",
    "unit_of",
    "BENCH_TARGETS",
    "DAEMON_TARGETS",
]


class _NullRecorder:
    """Stands in for a :class:`Recorder` when tracing is off."""

    def span(self, name: str, **attrs: Any):
        return contextlib.nullcontext()

    def set_context(self, **ctx: Any) -> None:
        pass


NULL = _NullRecorder()


class Recorder:
    """In-memory span store of one process (and of its forked children).

    ``flush_dir`` is where forked children, and :meth:`flush`, write
    their spans as JSON lines.
    """

    def __init__(self, flush_dir: Optional[os.PathLike] = None):
        self.flush_dir = pathlib.Path(flush_dir) if flush_dir else None
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: List[Tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        ref = weakref.ref(self)

        def after_fork() -> None:
            recorder = ref()
            if recorder is not None:
                recorder._after_fork()

        os.register_at_fork(after_in_child=after_fork)

    def _after_fork(self) -> None:
        # The parent's spans and open stack belong to the parent; the
        # child records (and flushes) only its own.
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()

    def set_context(self, **ctx: Any) -> None:
        """Attributes every span opened next on this thread carries."""
        self._local.ctx = ctx or None

    def _enter(self) -> Tuple[int, int, List[int], Optional[Dict[str, Any]]]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, stack, getattr(local, "ctx", None)

    def _exit(
        self,
        opened: Tuple[int, int, List[int], Optional[Dict[str, Any]]],
        name: str,
        start: float,
        end: float,
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        sid, parent, stack, ctx = opened
        stack.pop()
        if ctx:
            attrs = {**ctx, **attrs} if attrs else ctx
        self.spans.append(
            (sid, parent, name, start, end, self.pid,
             threading.get_ident(), attrs)
        )
        if not stack and self.flush_dir and self.pid != self.owner:
            self.flush()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        """Record one span around a block of the benchmark's own code."""
        opened = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(
                opened, name, start, time.perf_counter(), attrs or None
            )

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        post: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with one span per call; ``post(result)`` adds attrs."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = self._enter()
            start = time.perf_counter()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    attrs = post(result)
                return result
            finally:
                self._exit(opened, name, start, time.perf_counter(), attrs)

        return wrapper

    def records(self) -> List[Dict[str, Any]]:
        """This process's in-memory spans as plain dicts."""
        return [
            {
                "id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                "end": s[4], "pid": s[5], "tid": s[6], "attrs": s[7],
            }
            for s in self.spans
        ]

    def flush(self) -> None:
        """Append the in-memory spans to ``<flush_dir>/<pid>.jsonl``."""
        if not self.flush_dir or not self.spans:
            return
        lines = "".join(json.dumps(r) + "\n" for r in self.records())
        self.spans = []
        path = self.flush_dir / f"{self.pid}.jsonl"
        with open(path, "a") as fh:
            fh.write(lines)


def load_spans(directory: os.PathLike) -> List[Dict[str, Any]]:
    """Every span flushed to ``directory`` by workers or the daemon."""
    spans: List[Dict[str, Any]] = []
    for path in sorted(pathlib.Path(directory).glob("*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


# --------------------------------------------------------------------------
# What gets wrapped
# --------------------------------------------------------------------------

#: ``(module, class or None, attribute, span name)``. A class entry
#: swaps the method on that class; ``None`` swaps a module function at
#: the call site. Functions called from several modules are listed once
#: per calling module.
BENCH_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.runner", "SweepRunner", "map", "runner.map"),
    ("repro.runner", None, "compute_cell", "runner.compute_cell"),
    ("repro.runner", "ResultCache", "get", "runner.cache.get"),
    ("repro.runner", "ResultCache", "put", "runner.cache.put"),
    ("repro.core.runtime", "JumanjiRuntime", "reconfigure",
     "core.reconfigure"),
    ("repro.core.runtime", "JumanjiRuntime", "report_latencies",
     "core.report_latencies"),
    ("repro.core.controller", "FeedbackController", "epoch_boundary",
     "core.controller"),
    ("repro.core.jumanji", None, "lat_crit_placer", "core.latcrit"),
    ("repro.core.designs", None, "lat_crit_placer", "core.latcrit"),
    ("repro.core.jigsaw", None, "lookahead", "core.lookahead"),
    ("repro.core.designs", None, "lookahead", "core.lookahead"),
    ("repro.core.jumanji", None, "jumanji_lookahead",
     "core.jumanji_lookahead"),
    ("repro.core.designs", None, "jumanji_placer", "core.jumanji"),
    ("repro.core.jumanji", None, "jigsaw_place", "core.jigsaw"),
    ("repro.core.designs", None, "jigsaw_place", "core.jigsaw"),
    ("repro.core.jumanji", None, "combine_curves",
     "cache.combine_curves"),
    ("repro.model.system", None, "run_epoch_batch", "sim.run_epoch_batch"),
    ("repro.model.batch", None, "run_epoch_batch", "sim.run_epoch_batch"),
    ("repro.sim.queueing", "LcRequestSimulator", "run_epoch",
     "sim.run_epoch"),
    ("repro.model.system", "SystemModel", "run", "model.run"),
    ("repro.model.batch", "BatchSystemModel", "run", "model.run"),
    ("repro.model.system", None, "lc_service_cycles", "model.lc_service"),
    ("repro.fleet.chip", None, "lc_service_cycles", "model.lc_service"),
    ("repro.model.system", None, "batch_perf", "model.batch_perf"),
    ("repro.model.system", None, "potential_attackers_per_access_fast",
     "metrics.vulnerability"),
    ("repro.noc.energy", "EnergyModel", "access_energy", "noc.energy"),
    ("repro.fleet.cluster", "Fleet", "setup", "fleet.setup"),
    ("repro.fleet.cluster", "Fleet", "step", "fleet.step"),
    ("repro.fleet.cluster", "Fleet", "audit", "fleet.audit"),
    ("repro.fleet.cluster", "ClusterScheduler", "select", "fleet.select"),
    ("repro.fleet.chip", "FleetChip", "tick", "fleet.tick"),
    ("repro.fleet.chip", "FleetChip", "admit", "fleet.admit_release"),
    ("repro.fleet.chip", "FleetChip", "release", "fleet.admit_release"),
    ("repro.serve.client", "Client", "decide", "serve.client_decide"),
)

#: Wrapped inside the serve daemon process only.
DAEMON_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.serve.service", "PlacementService", "decide",
     "serve.service_decide"),
    ("repro.serve.schema", "TelemetryRequest", "from_dict", "serve.parse"),
    ("repro.serve.schema", "Decision", "to_dict", "serve.encode"),
)

#: Attributes read off a call's return value.
_POST: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "runner.cache.get": lambda hit: {"hit": hit is not None},
    "core.reconfigure": lambda rec: {
        "memo_hit": bool(rec.memo_hit),
        "invalidated": int(rec.invalidated_lines),
    },
    "serve.service_decide": lambda d: {"rid": f"{d.session_id}:{d.epoch}"},
}


def _design_targets() -> List[Tuple[str, Optional[str], str, str]]:
    """``allocate`` of every registered LLC design class."""
    from repro.core.designs import DESIGNS

    return [
        ("repro.core.designs", cls.__name__, "allocate", "core.allocate")
        for cls in DESIGNS.values()
        if "allocate" in vars(cls)
    ]


_INHERITED = object()


class Installed:
    """Handle on swapped attributes; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def swap(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def install(
    recorder: Recorder,
    targets: Iterable[Tuple[str, Optional[str], str, str]] = BENCH_TARGETS,
) -> Installed:
    """Swap every target, and every design's ``allocate``, for a
    span-recording wrapper."""
    targets = list(targets) + _design_targets()
    installed = Installed()
    for module_name, class_name, attr, name in targets:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        # Static lookup: a classmethod inherited from a base class must
        # be rewrapped as a classmethod on this class only.
        original = inspect.getattr_static(owner, attr)
        post = _POST.get(name)
        if isinstance(original, classmethod):
            wrapped = classmethod(recorder.wrap(original.__func__, name, post))
        else:
            wrapped = recorder.wrap(original, name, post)
        installed.swap(owner, attr, wrapped)
    return installed


# --------------------------------------------------------------------------
# Self time and per-layer metrics
# --------------------------------------------------------------------------


def _covered(
    intervals: List[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(
    spans: List[Dict[str, Any]]
) -> Dict[Tuple[int, int], float]:
    """``(pid, id)`` -> span duration minus what its children cover."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = (
        defaultdict(list)
    )
    for s in spans:
        if s["parent"]:
            children[(s["pid"], s["parent"])].append((s["start"], s["end"]))
    out: Dict[Tuple[int, int], float] = {}
    for s in spans:
        key = (s["pid"], s["id"])
        duration = s["end"] - s["start"]
        kids = children.get(key)
        out[key] = (
            duration - _covered(kids, s["start"], s["end"])
            if kids else duration
        )
    return out


def percentile(values: List[float], pct: float) -> float:
    """Inclusive percentile, as ``statistics.quantiles`` computes it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(pct) - 1
    ]


#: ``metric -> (span name, field)`` for the metrics that are a plain
#: sum over one span name. ``field`` is ``calls``, ``total_s`` (summed
#: duration) or ``self_s`` (summed self time).
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "runner.map.wall_s": ("runner.map", "total_s"),
    "runner.cache.get_s": ("runner.cache.get", "total_s"),
    "runner.cache.put_s": ("runner.cache.put", "total_s"),
    "core.reconfigure.calls": ("core.reconfigure", "calls"),
    "core.reconfigure.self_s": ("core.reconfigure", "self_s"),
    "core.report_latencies.self_s": ("core.report_latencies", "self_s"),
    "core.controller.self_s": ("core.controller", "self_s"),
    "core.latcrit.self_s": ("core.latcrit", "self_s"),
    "core.lookahead.self_s": ("core.lookahead", "self_s"),
    "core.jumanji_lookahead.self_s": ("core.jumanji_lookahead", "self_s"),
    "core.jumanji.self_s": ("core.jumanji", "self_s"),
    "core.jigsaw.self_s": ("core.jigsaw", "self_s"),
    "core.allocate.self_s": ("core.allocate", "self_s"),
    "cache.combine_curves.calls": ("cache.combine_curves", "calls"),
    "cache.combine_curves.self_s": ("cache.combine_curves", "self_s"),
    "sim.run_epoch_batch.calls": ("sim.run_epoch_batch", "calls"),
    "sim.run_epoch_batch.self_s": ("sim.run_epoch_batch", "self_s"),
    "sim.run_epoch.calls": ("sim.run_epoch", "calls"),
    "sim.run_epoch.self_s": ("sim.run_epoch", "self_s"),
    "model.run.self_s": ("model.run", "self_s"),
    "model.lc_service.self_s": ("model.lc_service", "self_s"),
    "model.batch_perf.self_s": ("model.batch_perf", "self_s"),
    "metrics.vulnerability.self_s": ("metrics.vulnerability", "self_s"),
    "noc.energy.self_s": ("noc.energy", "self_s"),
    "fleet.setup.self_s": ("fleet.setup", "self_s"),
    "fleet.step.self_s": ("fleet.step", "self_s"),
    "fleet.select.calls": ("fleet.select", "calls"),
    "fleet.select.self_s": ("fleet.select", "self_s"),
    "fleet.audit.self_s": ("fleet.audit", "self_s"),
    "fleet.tick.self_s": ("fleet.tick", "self_s"),
    "fleet.admit_release.self_s": ("fleet.admit_release", "self_s"),
    "serve.parse.self_s": ("serve.parse", "self_s"),
    "serve.encode.self_s": ("serve.encode", "self_s"),
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".calls", "_lines", ".retries")):
        return "count"
    return "ratio"


def _span_sums(
    spans: List[Dict[str, Any]], selfs: Dict[Tuple[int, int], float]
) -> Dict[str, Dict[str, float]]:
    sums: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for s in spans:
        entry = sums[s["name"]]
        entry["calls"] += 1
        entry["total_s"] += s["end"] - s["start"]
        entry["self_s"] += selfs[(s["pid"], s["id"])]
    return sums


#: Spans the benchmark opens around the work that drives the load: one
#: per round on the timing thread, one per connection thread on serve.
DRIVING = ("bench.round", "bench.connection")


def layer_metrics(
    spans: List[Dict[str, Any]],
    main_pid: int,
    jobs: int = 1,
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Per-layer metrics of one traced run, and the same split by design.

    Only metrics whose layer ran are returned. ``main_pid`` is the
    benchmark process, whose threads drive the load; ``jobs`` is the
    sweep runner's worker count.
    """
    selfs = self_times(spans)
    sums = _span_sums(spans, selfs)
    out: Dict[str, float] = {}
    for metric, (name, field) in SPAN_METRICS.items():
        if name in sums:
            out[metric] = sums[name][field]

    names = {(s["pid"], s["id"]): s["name"] for s in spans}
    # Cells the runner dispatched: compute_cell spans with no
    # compute_cell parent (a nested one is a get_or_compute miss).
    top_cells = [
        s for s in spans
        if s["name"] == "runner.compute_cell"
        and names.get((s["pid"], s["parent"])) != "runner.compute_cell"
    ]
    if top_cells:
        compute = sum(s["end"] - s["start"] for s in top_cells)
        out["runner.compute_cell.total_s"] = compute
        map_wall = sums["runner.map"]["total_s"]
        if map_wall > 0:
            out["runner.parallel_efficiency"] = compute / (jobs * map_wall)
    # The runner's own lookups precede compute_cell at the top of a
    # worker's stack; lookups under compute_cell are handlers sharing
    # cached baselines, which is intended reuse.
    lookups = [
        s for s in spans if s["name"] == "runner.cache.get"
        and not s["parent"]
    ]
    if lookups:
        hits = sum(1 for s in lookups if (s["attrs"] or {}).get("hit"))
        out["runner.cache_hit_ratio"] = hits / len(lookups)

    reconf = [s for s in spans if s["name"] == "core.reconfigure"]
    if reconf:
        attrs = [s["attrs"] or {} for s in reconf]
        out["core.memo_hit_ratio"] = (
            sum(1 for a in attrs if a.get("memo_hit")) / len(attrs)
        )
        out["core.invalidated_lines"] = sum(
            a.get("invalidated", 0) for a in attrs
        )

    out.update(_serve_metrics(spans))

    # The share of the driving threads' busy time that some layer's self
    # time accounts for. The rest is bench.* self time: the benchmark's
    # own code, or program code no wrapper covers. Waits of the open loop
    # for its next arrival (bench.idle) are not busy time.
    mine = [s for s in spans if s["pid"] == main_pid]
    busy = sum(
        (s["end"] - s["start"]) * (-1 if s["name"] == "bench.idle" else 1)
        for s in mine if s["name"] in DRIVING + ("bench.idle",)
    )
    if busy > 0:
        out["bench.self_time_coverage"] = sum(
            selfs[(s["pid"], s["id"])] for s in mine
            if not s["name"].startswith("bench.")
        ) / busy

    by_design: Dict[str, Dict[str, float]] = {}
    designs = sorted({
        (s["attrs"] or {}).get("design") for s in spans
    } - {None})
    for design in designs:
        subset = [
            s for s in spans if (s["attrs"] or {}).get("design") == design
        ]
        part = _span_sums(subset, selfs)
        by_design[design] = {
            metric: part[name][field]
            for metric, (name, field) in SPAN_METRICS.items()
            if name in part
        }
    return out, by_design


def _serve_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Open-loop (phase 1) request timings of serve-tenants."""
    client = [
        s for s in spans if s["name"] == "serve.client_decide"
        and (s["attrs"] or {}).get("phase") == 1
    ]
    if not client:
        return {}
    out: Dict[str, float] = {}
    waits = sorted((s["start"] - s["attrs"]["due"]) * 1e3 for s in client)
    trips = sorted((s["end"] - s["start"]) * 1e3 for s in client)
    out["serve.queue_wait_p95_ms"] = percentile(waits, 95)
    out["serve.roundtrip_p50_ms"] = percentile(trips, 50)
    out["serve.roundtrip_p95_ms"] = percentile(trips, 95)
    rids = {s["attrs"]["rid"] for s in client}
    service = sorted(
        (s["end"] - s["start"]) * 1e3 for s in spans
        if s["name"] == "serve.service_decide"
        and (s["attrs"] or {}).get("rid") in rids
    )
    if service:
        out["serve.service_decide_p50_ms"] = percentile(service, 50)
        out["serve.service_decide_p95_ms"] = percentile(service, 95)
        out["serve.http_share"] = (
            1.0 - out["serve.service_decide_p50_ms"]
            / out["serve.roundtrip_p50_ms"]
        )
    return out
