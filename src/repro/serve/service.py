"""The placement service: session registry, decisions, sweeps.

Transport-independent core of :mod:`repro.serve`. The HTTP layer is a
thin codec over this class, so tests (and any future transport) can
drive the exact service logic in-process.

A *session* is the online form of the paper's 100 ms loop: one
long-lived :class:`~repro.core.runtime.JumanjiRuntime` whose telemetry
comes over the wire instead of from the bundled queueing simulator.
Each ``decide`` call replays one epoch of Listing 1 — report the
posted latency samples to the feedback controller, reconfigure, return
the installed allocation as a :class:`~repro.serve.schema.Decision`.
Decisions are deterministic functions of (session spec, telemetry
history): the registry gives every session its own runtime and its own
lock, so interleaved tenants cannot perturb each other's controller
state — the concurrency-isolation test and the bench determinism gate
both lean on this.

Sweeps reuse the batch harness: ``start_sweep`` runs
:func:`repro.experiments.common.run_sweep` on a daemon thread through a
:class:`~repro.runner.SweepRunner` on the daemon's result cache, so a
re-POSTed sweep serves its finished cells from the cache.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional

from .. import obs
from ..config import ControllerConfig, SystemConfig
from ..core.designs import DESIGNS, make_design
from ..core.runtime import JumanjiRuntime
from ..errors import ConfigError, PayloadTooLarge, UnknownSession
from ..fleet.chip import chip_deadline_cycles, small_chip_config
from ..model.workload import WorkloadSpec, make_default_workload
from ..noc.mesh import MeshNoc
from ..workloads.mixes import base_app, random_batch_mix
from .schema import (
    CreateSessionRequest,
    Decision,
    SessionInfo,
    SweepRequest,
    SweepStatus,
    TelemetryRequest,
)

__all__ = [
    "PlacementService",
    "MAX_TELEMETRY_SAMPLES",
    "SESSION_HISTORY_LIMIT",
]

#: Reconfiguration records, controller decisions and runtime events a
#: session keeps (ring buffers, as each fleet chip's runtime keeps
#: them): a daemon serves a session for as long as it lives, and each
#: decision would otherwise keep its record and allocation forever.
SESSION_HISTORY_LIMIT = 64

#: Default bound on samples per telemetry POST (-> 413 when exceeded).
#: Generous: a real 100 ms epoch at the highest profiled QPS completes
#: ~2000 requests; ten times that still parses in microseconds.
MAX_TELEMETRY_SAMPLES = 20_000


def _small_chip_workload(
    req: CreateSessionRequest, config: SystemConfig
) -> WorkloadSpec:
    """One consolidated tenant on the fleet socket: LC + batch riders.

    Mirrors :class:`~repro.fleet.chip.TenantVM` — the session's single
    LC app on core 0 plus batch riders (drawn from ``mix_seed``) on the
    remaining cores, all one VM.
    """
    from ..config import VmSpec

    lc = req.lc_apps[0]
    riders = random_batch_mix(req.mix_seed)[: config.num_cores - 1]
    return WorkloadSpec(
        config=config,
        vms=[
            VmSpec(
                vm_id=0,
                cores=tuple(range(1 + len(riders))),
                lc_apps=(f"{lc}#0",),
                batch_apps=tuple(
                    f"{app}#b{j}" for j, app in enumerate(riders)
                ),
            )
        ],
        load=req.load,
    )


class _Session:
    """One registered tenant: spec + runtime + per-session lock."""

    def __init__(self, session_id: str, req: CreateSessionRequest):
        if req.design not in DESIGNS:
            raise ConfigError(
                f"unknown design {req.design!r}; choose from "
                f"{sorted(DESIGNS)}"
            )
        self.session_id = session_id
        self.request = req
        self.lock = threading.Lock()
        self.epoch = 0
        if req.chip == "small":
            self.config = small_chip_config()
            self.workload = _small_chip_workload(req, self.config)
        else:
            self.config = SystemConfig()
            self.workload = make_default_workload(
                list(req.lc_apps),
                mix_seed=req.mix_seed,
                load=req.load,
            )
        self.design = make_design(req.design)
        self.noc = MeshNoc(self.config)
        initial_lc_mb = (
            self.config.llc_size_mb * ControllerConfig().panic_fraction
        )
        # The builder closes over the workload and mesh, not the
        # session: a closure over ``self`` would make session and
        # runtime a reference cycle, left for the cycle collector.
        workload, noc = self.workload, self.noc
        self.runtime = JumanjiRuntime(
            self.design,
            self.config,
            context_builder=lambda sizes: workload.build_context(
                dict(sizes), noc
            ),
            controller_config=ControllerConfig(
                history_limit=SESSION_HISTORY_LIMIT
            ),
            initial_lc_size_mb=initial_lc_mb,
            seed=req.seed,
            memoize_placement=True,
        )
        self.deadlines: Dict[str, float] = {}
        for app in self.workload.lc_apps:
            deadline = chip_deadline_cycles(base_app(app), self.config)
            self.deadlines[app] = deadline
            self.runtime.register_lc_app(app, deadline)

    def info(self) -> SessionInfo:
        return SessionInfo(
            session_id=self.session_id,
            design=self.request.design,
            lc_apps=self.request.lc_apps,
            lc_instances=tuple(self.workload.lc_apps),
            deadlines=dict(self.deadlines),
            load=self.request.load,
            mix_seed=self.request.mix_seed,
            chip=self.request.chip,
            seed=self.request.seed,
            epoch=self.epoch,
        )

    def decide(self, telemetry: TelemetryRequest) -> Decision:
        """One epoch: absorb telemetry, reconfigure, describe it."""
        with obs.span("serve.lock_wait", session=self.session_id):
            self.lock.acquire()
        try:
            for app in sorted(telemetry.latencies):
                if app not in self.deadlines:
                    raise ConfigError(
                        f"unknown LC instance {app!r} for session "
                        f"{self.session_id}; expected one of "
                        f"{sorted(self.deadlines)}"
                    )
                if self.design.uses_feedback:
                    self.runtime.report_latencies(
                        app, list(telemetry.latencies[app])
                    )
            with obs.span(
                "serve.decide",
                session=self.session_id,
                epoch=self.epoch,
            ):
                record = self.runtime.reconfigure()
            self.epoch = record.epoch + 1
            alloc = record.allocation
            allocation = {}
            for bank in range(self.config.num_banks):
                items = alloc.bank_items(bank)
                if items:
                    allocation[str(bank)] = {
                        a: float(mb) for a, mb in sorted(items)
                    }
            return Decision(
                session_id=self.session_id,
                epoch=record.epoch,
                lat_sizes={
                    a: float(s) for a, s in record.lat_sizes.items()
                },
                allocation=allocation,
                shared_batch=tuple(sorted(alloc.shared_batch)),
                invalidated_lines=int(record.invalidated_lines),
                degraded=bool(record.degraded),
                memo_hit=bool(record.memo_hit),
            )
        finally:
            self.lock.release()


class _Sweep:
    """Bookkeeping for one background sweep thread."""

    def __init__(self, sweep_id: str, req: SweepRequest):
        self.sweep_id = sweep_id
        self.request = req
        self.lock = threading.Lock()
        self.state = "running"
        self.error: Optional[str] = None
        self.completed = 0
        self.gmean_speedups: Dict[str, float] = {}
        self.thread: Optional[threading.Thread] = None

    def run(self) -> None:
        from ..experiments.common import run_sweep
        from ..runner import SweepRunner

        req = self.request
        try:
            runner = SweepRunner(jobs=req.jobs)
            result = run_sweep(
                designs=req.designs,
                lc_workloads=req.lc_workloads,
                loads=req.loads,
                mixes=req.mixes,
                epochs=req.epochs,
                runner=runner,
            )
            speedups = {
                design: result.gmean_speedup(design)
                for design in result.designs()
            }
            with self.lock:
                self.completed = len(result.outcomes)
                self.gmean_speedups = speedups
                self.state = "done"
            obs.counter_inc("serve.sweeps_done")
        except Exception as exc:  # surfaced through SweepStatus
            with self.lock:
                self.state = "failed"
                self.error = f"{type(exc).__name__}: {exc}"
            obs.emit(
                "serve.sweep_failed",
                sweep_id=self.sweep_id,
                error=str(exc),
            )

    def status(self) -> SweepStatus:
        with self.lock:
            return SweepStatus(
                sweep_id=self.sweep_id,
                state=self.state,
                completed=self.completed,
                total=self.request.total_cells,
                error=self.error,
                gmean_speedups=dict(self.gmean_speedups),
            )


class PlacementService:
    """Registry of sessions and sweeps behind the serve API."""

    def __init__(
        self, max_telemetry_samples: int = MAX_TELEMETRY_SAMPLES
    ):
        if max_telemetry_samples <= 0:
            raise ConfigError(
                "max_telemetry_samples must be positive, got "
                f"{max_telemetry_samples}"
            )
        self.max_telemetry_samples = max_telemetry_samples
        self._lock = threading.RLock()
        self._sessions: Dict[str, _Session] = {}
        self._sweeps: Dict[str, _Sweep] = {}
        self._session_ids = itertools.count()
        self._sweep_ids = itertools.count()

    # -- sessions ------------------------------------------------------------

    def create_session(self, req: CreateSessionRequest) -> SessionInfo:
        """Register a new session; returns its descriptor."""
        with self._lock:
            session_id = f"s{next(self._session_ids):04d}"
        # Build outside the registry lock: deadline computation and
        # curve construction take real time on a cold cache.
        session = _Session(session_id, req)
        with self._lock:
            self._sessions[session_id] = session
        obs.counter_inc("serve.sessions_created")
        return session.info()

    def _session(self, session_id: str) -> _Session:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise UnknownSession(
                    f"unknown session {session_id!r}",
                    session_id=session_id,
                ) from None

    def session_info(self, session_id: str) -> SessionInfo:
        """Descriptor of one live session."""
        return self._session(session_id).info()

    def list_sessions(self) -> List[SessionInfo]:
        """Descriptors of every live session, in id order."""
        with self._lock:
            sessions = [
                self._sessions[k] for k in sorted(self._sessions)
            ]
        return [s.info() for s in sessions]

    def delete_session(self, session_id: str) -> None:
        """Unregister a session (its runtime state is dropped)."""
        with self._lock:
            if session_id not in self._sessions:
                raise UnknownSession(
                    f"unknown session {session_id!r}",
                    session_id=session_id,
                )
            del self._sessions[session_id]
        obs.counter_inc("serve.sessions_deleted")

    def decide(
        self, session_id: str, telemetry: TelemetryRequest
    ) -> Decision:
        """One epoch of the online loop for one session."""
        if telemetry.sample_count > self.max_telemetry_samples:
            raise PayloadTooLarge(
                f"telemetry batch of {telemetry.sample_count} samples "
                f"exceeds the {self.max_telemetry_samples}-sample "
                "bound",
                size=telemetry.sample_count,
                limit=self.max_telemetry_samples,
            )
        decision = self._session(session_id).decide(telemetry)
        obs.counter_inc("serve.decisions")
        if decision.degraded:
            obs.counter_inc("serve.decisions_degraded")
        return decision

    # -- metrics -------------------------------------------------------------

    def metrics_snapshot(self) -> Dict:
        """The live ``repro.obs`` registry as a JSON-able dict."""
        return obs.metrics().snapshot()

    def metrics_text(self) -> str:
        """The live registry in the plain-text exposition format."""
        return obs.metrics().render_text()

    # -- sweeps --------------------------------------------------------------

    def start_sweep(self, req: SweepRequest) -> SweepStatus:
        """Kick off a background sweep; returns its initial status."""
        with self._lock:
            sweep_id = f"w{next(self._sweep_ids):04d}"
            sweep = _Sweep(sweep_id, req)
            self._sweeps[sweep_id] = sweep
        thread = threading.Thread(
            target=sweep.run, name=f"repro-sweep-{sweep_id}", daemon=True
        )
        sweep.thread = thread
        thread.start()
        obs.counter_inc("serve.sweeps_started")
        return sweep.status()

    def sweep_status(self, sweep_id: str) -> SweepStatus:
        """Status of one background sweep."""
        with self._lock:
            try:
                sweep = self._sweeps[sweep_id]
            except KeyError:
                raise UnknownSession(
                    f"unknown sweep {sweep_id!r}", session_id=sweep_id
                ) from None
        return sweep.status()

    def list_sweeps(self) -> List[SweepStatus]:
        """Status of every sweep, in id order."""
        with self._lock:
            sweeps = [self._sweeps[k] for k in sorted(self._sweeps)]
        return [s.status() for s in sweeps]

    def wait_sweeps(self, timeout: Optional[float] = None) -> None:
        """Join background sweep threads (tests and clean shutdown)."""
        with self._lock:
            threads = [
                s.thread for s in self._sweeps.values() if s.thread
            ]
        for thread in threads:
            thread.join(timeout)
