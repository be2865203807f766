"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed alone, sets up
once, then runs *rounds* of identical shape on fresh inputs until the
run's seconds are spent (the round in progress finishes). Each round's
work rate, corrected for the host's speed (``bench.hostspeed``), and the
latency of each call a user of that path waits on, are timed from
outside the program. Round 0 always completes; its
outputs make the workload's ``output_digest``, so a change that only
claims speed can show its simulated results are unchanged.

Why these four (see ``bench/README.md``):

* ``sweep-cold`` — the researcher's path, sweep cells on a cold result
  cache through the process pool: the only workload where the runner,
  its IPC and the result cache do work.
* ``model-batch`` — the batched analytic engine in-process on the
  paper's 20-bank chip: placers and the fused queueing scan, no runner.
* ``fleet-churn`` — the same placers and runtime on 4-bank chips under
  tenant churn, failures and repair, plus the fleet scheduler.
* ``serve-tenants`` — the one long-lived process: a placement daemon
  driven over HTTP at a fixed offered load, then at saturation.

Only the generated inputs depend on the seed; the program's own knobs
are fixed here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pathlib
import random
import resource
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from . import hostspeed, trace

__all__ = ["Measurement", "Workload", "WORKLOADS", "digest"]

#: Load comes from at most this many workers, threads or connections.
LOAD_WORKERS = min(2, os.cpu_count() or 1)


def vm_hwm_mb(pid: Any = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def children_rss_mb() -> float:
    """Largest peak resident set among waited-for children, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def digest(payload: Any) -> str:
    """sha256 of a canonical JSON encoding (floats by ``repr``)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _plain(obj: Any) -> Any:
    """Dataclasses (and containers of them) as plain JSON-able data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _plain(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


@dataclasses.dataclass
class Measurement:
    """What one timed phase did."""

    #: Units of work completed (cells, mix-epochs, chip-epochs, decisions).
    ops: int = 0
    #: Operations attempted and failed (errors, retries, degraded epochs).
    attempted: int = 0
    failed: int = 0
    #: Seconds the counted work took, on the wall clock and in reference
    #: seconds (``bench.hostspeed``).
    busy_s: float = 0.0
    busy_ref_s: float = 0.0
    #: Work rate of each round, units per reference second.
    rates: List[float] = dataclasses.field(default_factory=list)
    #: Latency of each operation a caller waits on, in milliseconds.
    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    rounds: int = 0
    wall_s: float = 0.0
    #: Peak RSS after set-up and the first round (a fixed amount of
    #: work, so a faster program that fits more rounds is not charged).
    peak_rss_mb: float = 0.0
    #: Wall-clock bounds of the timed phase (``time.perf_counter``).
    start: float = 0.0
    end: float = 0.0
    digest: str = ""
    details: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def add_round(self, ops: int, wall_s: float, ref_s: float) -> None:
        """Count one round's work and the time it took."""
        self.ops += ops
        self.busy_s += wall_s
        self.busy_ref_s += ref_s
        self.rates.append(ops / ref_s)

    def rate(self) -> float:
        """Work rate: operations per reference second of work."""
        return self.ops / self.busy_ref_s

    def wall_rate(self) -> float:
        """Work rate: operations per wall-clock second of work."""
        return self.ops / self.busy_s


class EventLog(logging.Handler):
    """Counts the program's degraded-mode events, forked workers included.

    ``repro`` logs every degraded-mode decision — a placer fallback,
    dropped telemetry, a cell retry, a quarantined cache entry, a pool
    respawn — as one JSON line at WARNING on a ``repro.*`` logger. Lines
    go to a file that forked pool workers inherit, opened for appending,
    so events raised inside workers are counted too.
    """

    def __init__(self, path: pathlib.Path):
        super().__init__(logging.WARNING)
        self.path = path
        self._fh = open(path, "a", buffering=1)
        logging.getLogger("repro").addHandler(self)

    def emit(self, record: logging.LogRecord) -> None:
        self._fh.write(record.getMessage().replace("\n", " ") + "\n")

    def count(self) -> int:
        with open(self.path) as fh:
            return sum(1 for line in fh if line.strip())

    def close(self) -> None:
        logging.getLogger("repro").removeHandler(self)
        self._fh.close()
        super().close()


class Workload:
    """One benchmark workload: set up, measure, check, close."""

    name = ""
    #: One unit of work, as counted by ``ops_per_s``.
    op = ""
    #: The operation a caller waits on, as timed by ``op_p50_ms``.
    latency_of = ""
    #: This workload's own names for ``ops_per_s`` and the latency metrics.
    named: Dict[str, str] = {}
    #: Whose peak RSS counts: this process, its pool workers, or both.
    rss_from: Sequence[str] = ("self",)
    #: How the timed calls are corrected for the host's speed.
    clock: Callable[[], Any] = hostspeed.Bracket

    def __init__(
        self,
        seed: int,
        run_dir: pathlib.Path,
        smoke: bool = False,
        recorder: Any = trace.NULL,
    ):
        self.seed = seed
        self.run_dir = run_dir
        self.smoke = smoke
        self.recorder = recorder
        self.events: Optional[EventLog] = None

    def setup(self) -> None:
        self.events = EventLog(self.run_dir / "events.log")

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def check(self) -> Dict[str, bool]:
        raise NotImplementedError

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer metrics the workload reads off the program itself."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak RSS so far of the processes doing the work, in MB."""
        sources = {"self": vm_hwm_mb, "children": children_rss_mb}
        return max(sources[s]() for s in self.rss_from)

    def close(self) -> None:
        if self.events is not None:
            self.events.close()
            self.events = None

    def _rounds(
        self, seconds: float, body: Callable[[int, Measurement, Any], None]
    ) -> Measurement:
        """Run ``body(round, m, clock)`` until ``seconds`` pass (at least
        once); ``body`` times its calls with ``clock.time``. Every round
        runs under one ``bench.round`` span, so the traced run can tell
        layer time from the benchmark's own. Peak RSS is read after
        round 0, so ``body`` must leave output checks of its own
        (digests) until after the loop if they are large."""
        m = Measurement()
        clock = self.clock()
        m.start = time.perf_counter()
        try:
            while True:
                with self.recorder.span("bench.round"):
                    body(m.rounds, m, clock)
                m.rounds += 1
                if m.rounds == 1:
                    m.peak_rss_mb = self.peak_rss_mb()
                if time.perf_counter() - m.start >= seconds:
                    break
        finally:
            clock.close()
        m.end = time.perf_counter()
        m.wall_s = m.end - m.start
        if self.events is not None:
            m.failed += self.events.count()
        return m


# --------------------------------------------------------------------------
# sweep-cold
# --------------------------------------------------------------------------


class SweepCold(Workload):
    """Fig. 13's sweep through the process pool on a cold result cache.

    A round is 6 LC workloads x 2 loads x 2 new mixes, each with the
    Static baseline plus 5 designs (144 cells, 20 epochs), on a fresh
    ``SweepRunner`` and an empty ``ResultCache``. The cells go through
    ``SweepRunner.map`` in ``run_sweep``'s two phases (baselines, then
    designs) rather than through ``run_sweep`` itself, which numbers
    mixes from 0: every round would simulate the same mixes.
    """

    name = "sweep-cold"
    op = "cell"
    latency_of = "one round (both runner.map phases)"
    named = {"ops_per_s": "cells_per_s"}
    rss_from = ("self", "children")
    clock = hostspeed.Sampler

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.mixes = 1 if self.smoke else 2
        self.epochs = 4 if self.smoke else 20
        self.cache_hits = 0
        self.retries = 0
        self.first: List[Any] = []

    def setup(self) -> None:
        super().setup()
        from repro.experiments.common import (
            DEFAULT_DESIGNS,
            LC_WORKLOADS,
            baseline_cell,
            workload_cell,
        )
        from repro.runner import ResultCache, SweepRunner

        self._baseline_cell = baseline_cell
        self._workload_cell = workload_cell
        self._runner = lambda d: SweepRunner(
            jobs=LOAD_WORKERS, cache=ResultCache(d)
        )
        self.designs = DEFAULT_DESIGNS
        self.lc_workloads = ("xapian",) if self.smoke else LC_WORKLOADS
        self.loads = ("high",) if self.smoke else ("high", "low")

    def base_seed(self, round_: int) -> int:
        return self.seed * 1000 + round_

    def mix_seeds(self, round_: int) -> List[int]:
        first = self.seed * 100_000 + round_ * self.mixes
        return list(range(first, first + self.mixes))

    def measure(self, seconds: float) -> Measurement:
        def body(r: int, m: Measurement, clock: Any) -> None:
            cache_dir = self.run_dir / f"cache-{r}"
            runner = self._runner(cache_dir)
            base = self.base_seed(r)
            triples = [
                (lc, load, mix)
                for lc in self.lc_workloads
                for load in self.loads
                for mix in self.mix_seeds(r)
            ]

            def sweep() -> List[Any]:
                runner.map([
                    self._baseline_cell(lc, load, mix, self.epochs, base)
                    for lc, load, mix in triples
                ])
                return list(runner.map([
                    self._workload_cell(
                        design, lc, load, mix, self.epochs, base
                    )
                    for lc, load, mix in triples
                    for design in self.designs
                ]))

            outcomes, wall, ref = clock.time(sweep)
            stats = runner.stats
            m.add_round(stats.computed, wall, ref)
            m.attempted += stats.cells
            m.latencies_ms.append(wall * 1e3)
            self.cache_hits += stats.cache_hits
            self.retries += stats.retries
            if r == 0:
                self.first = outcomes
                m.digest = digest(_plain(outcomes))
            shutil.rmtree(cache_dir, ignore_errors=True)

        return self._rounds(seconds, body)

    def check(self) -> Dict[str, bool]:
        from repro.model import run_model

        cell = next(o for o in self.first if o.design == "Jumanji")
        reference, _, _ = run_model(
            design="Jumanji",
            lc_workload=cell.lc_workload,
            load=cell.load,
            mix_seed=cell.mix_seed,
            epochs=self.epochs,
            base_seed=self.base_seed(0),
            engine="reference",
        )
        return {
            "reference_cell_identical":
                digest(_plain(reference)) == digest(_plain(cell)),
            "cache_cold": self.cache_hits == 0,
        }

    def layer_extras(self) -> Dict[str, float]:
        return {"runner.retries": self.retries}


# --------------------------------------------------------------------------
# model-batch
# --------------------------------------------------------------------------


class ModelBatch(Workload):
    """The batched engine on "Mixed"-LC high-load mixes, in-process.

    A round runs each of the 5 designs once through
    ``run_model(workloads=...)`` over 8 new mixes for 20 epochs; set-up
    warms every design on 2 mixes whose seeds no round uses.
    """

    name = "model-batch"
    op = "mix-epoch"
    latency_of = "one run_model call (one design x 8 mixes)"
    named = {"ops_per_s": "mix_epochs_per_s"}

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.mixes = 2 if self.smoke else 8
        self.epochs = 4 if self.smoke else 20
        self.warmup_mixes = 1 if self.smoke else 2
        self.first: Dict[str, Any] = {}
        self.first_seeds: List[int] = []

    def mix_seed(self, index: int) -> int:
        return self.seed * 1_000_003 + index

    def workload(self, mix_seed: int):
        return self._make(
            list(self._lc_mix(mix_seed)), mix_seed=mix_seed, load="high"
        )

    def _run(self, design: str, seeds: List[int], clock: Any):
        """``run_model`` of one design over ``seeds``: results, wall
        seconds and reference seconds."""
        workloads = [self.workload(s) for s in seeds]
        self.recorder.set_context(design=design)
        try:
            return clock.time(lambda: self._run_model(
                design=design, workloads=workloads, seeds=seeds,
                epochs=self.epochs,
            ))
        finally:
            self.recorder.set_context()

    def setup(self) -> None:
        super().setup()
        from repro.experiments.common import DEFAULT_DESIGNS
        from repro.model import run_model
        from repro.model.workload import make_default_workload
        from repro.workloads.mixes import random_lc_mix

        self.designs = DEFAULT_DESIGNS
        self._run_model = run_model
        self._make = make_default_workload
        self._lc_mix = random_lc_mix
        warm = [self.mix_seed(i) for i in range(self.warmup_mixes)]
        clock = hostspeed.Bracket()
        for design in self.designs:
            self._run(design, warm, clock)

    def measure(self, seconds: float) -> Measurement:
        def body(r: int, m: Measurement, clock: Any) -> None:
            first = self.warmup_mixes + r * self.mixes
            seeds = [self.mix_seed(first + i) for i in range(self.mixes)]
            ops = self.mixes * self.epochs * len(self.designs)
            busy = busy_ref = 0.0
            for design in self.designs:
                results, wall, ref = self._run(design, seeds, clock)
                busy += wall
                busy_ref += ref
                m.latencies_ms.append(wall * 1e3)
                if r == 0:
                    self.first[design] = results
            m.add_round(ops, busy, busy_ref)
            m.attempted += ops
            if r == 0:
                self.first_seeds = seeds

        m = self._rounds(seconds, body)
        m.digest = digest(_plain(self.first))
        # Keep only what the reference check needs.
        self.first = {"Jumanji": self.first["Jumanji"][:1]}
        return m

    def check(self) -> Dict[str, bool]:
        seed = self.first_seeds[0]
        reference = self._run_model(
            design="Jumanji", workload=self.workload(seed), seed=seed,
            epochs=self.epochs, engine="reference",
        )
        batch = self.first["Jumanji"][0]
        return {
            "reference_mix_identical":
                digest(_plain(reference)) == digest(_plain(batch)),
        }


# --------------------------------------------------------------------------
# fleet-churn
# --------------------------------------------------------------------------


class FleetChurn(Workload):
    """256 2x2 Jumanji chips under churn, failures and repair.

    Flash crowds, rack-correlated chip failures with repair (mean time
    to repair 3 epochs) and stragglers ride on the Poisson churn. A
    round is one 12-epoch fleet scenario on a new seed: its initial
    tenants are admitted untimed, then each ``Fleet.step`` — one 100 ms
    epoch across the whole fleet — is timed. Many short scenarios rather
    than one long one, because when the flash crowds and rack failures
    of a seed land moves a whole scenario's cost by a fifth.
    """

    name = "fleet-churn"
    op = "chip-epoch"
    latency_of = "one Fleet.step (one epoch of every chip)"
    named = {"ops_per_s": "chip_epochs_per_s"}

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.chips = 16 if self.smoke else 256
        self.epochs = 4 if self.smoke else 12
        self.violations = 0
        self.all_ok = True

    def scenario(self, index: int):
        seed = self.seed * 1000 + index
        # Arrivals at chips/32 per epoch and every failed chip repaired
        # keep sockets below four LC tenants: at the scenario default
        # (chips/16, 80% repairable) some 2x2 sockets fill, LC reservations
        # outgrow the 4 MB LLC and reconfigurations degrade, which the
        # benchmark would count as failed operations.
        return self._Scenario(
            chips=self.chips,
            epochs=self.epochs,
            seed=seed,
            arrival_rate=self.chips / 32,
            flash_prob=0.1,
            fault_plan=self._FaultPlan(
                seed=seed,
                chip_failure=0.02,
                chip_repair=1.0,
                chip_slow=0.05,
                repair_mttr_epochs=3.0,
            ),
        )

    def _new_fleet(self, index: int):
        fleet = self._Fleet(self.scenario(index))
        fleet.setup()
        return fleet

    def setup(self) -> None:
        super().setup()
        from repro.faults import FaultPlan
        from repro.fleet import Fleet, Scenario

        self._Fleet, self._Scenario, self._FaultPlan = (
            Fleet, Scenario, FaultPlan
        )
        self.fleet = self._new_fleet(0)

    def measure(self, seconds: float) -> Measurement:
        def body(r: int, m: Measurement, clock: Any) -> None:
            fleet = self.fleet if r == 0 else self._new_fleet(r)
            self.fleet = None
            busy = busy_ref = 0.0
            for epoch in range(self.epochs):
                _, wall, ref = clock.time(lambda: fleet.step(epoch))
                busy += wall
                busy_ref += ref
                m.latencies_ms.append(wall * 1e3)
            ops = self.chips * self.epochs
            m.add_round(ops, busy, busy_ref)
            m.attempted += ops
            result = fleet.result()
            self.violations += len(result.invariant_violations)
            self.all_ok &= result.ok
            if r == 0:
                m.digest = hashlib.sha256(
                    result.to_json().encode()
                ).hexdigest()

        m = self._rounds(seconds, body)
        m.failed += self.violations
        return m

    def check(self) -> Dict[str, bool]:
        return {"fleet_ok": self.all_ok}


# --------------------------------------------------------------------------
# serve-tenants
# --------------------------------------------------------------------------


class ServeTenants(Workload):
    """A placement daemon in its own process, 16 paper-chip sessions.

    Set-up boots the daemon (``python -m bench.daemon``), opens one
    persistent connection per load worker, creates the sessions (half
    with one LC app on all four VMs, half with four different ones) and
    makes each tenant's first decision. Phase 1 is an open loop:
    Poisson arrivals at 20 decisions/s to random tenants for 70% of the
    run, each timed from when it was due. Phase 2 is a closed loop for
    the rest: every connection sends its tenants' next decisions back to
    back. A tenant always uses the same connection, so its decisions
    stay in epoch order and replay exactly.
    """

    name = "serve-tenants"
    op = "decision"
    latency_of = "one decision, from when it was due (phase 1)"
    named = {
        "ops_per_s": "decisions_per_s",
        "op_p50_ms": "decide_p50_ms",
        "op_p95_ms": "decide_p95_ms",
    }

    #: Phase-1 offered load (decisions per second, all tenants).
    RATE = 20.0
    #: Share of the run's seconds spent in phase 1.
    PHASE1_SHARE = 0.7
    #: The latency limit on ``decide_p95_ms``: a quarter of the paper's
    #: 100 ms reconfiguration interval.
    LIMIT_MS = 25.0

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.tenants = 4 if self.smoke else 16
        self.daemon: Optional[subprocess.Popen] = None
        self.clients: List[Any] = []
        # Appended to from both connection threads (list.append is
        # atomic; a shared counter's += would not be).
        self.errors: List[str] = []
        self.violations: List[str] = []
        self.degraded: List[str] = []

    # -- inputs --------------------------------------------------------------

    def create_request(self, tenant: int):
        rng = random.Random(f"{self.seed}:session:{tenant}")
        names = self._lc_names
        lc_apps = (
            (rng.choice(names),) if tenant % 2 == 0
            else tuple(rng.choice(names) for _ in range(4))
        )
        return self._CreateSessionRequest(
            lc_apps=lc_apps,
            mix_seed=rng.randrange(1_000_000),
            load="high" if rng.random() < 0.7 else "low",
            design="Jumanji",
            chip="default",
            seed=tenant,
        )

    def telemetry(self, tenant: int, epoch: int):
        """One epoch of latency samples, relative to each deadline.

        A ten-epoch sawtooth from 0.6x to 1.3x the deadline makes the
        controller grow and shrink allocations; jitter is per sample.
        """
        rng = random.Random(f"{self.seed}:telemetry:{tenant}:{epoch}")
        info = self.sessions[tenant]
        pressure = 0.6 + 0.7 * ((epoch % 10) / 9.0)
        return self._TelemetryRequest(latencies={
            app: tuple(
                info.deadlines[app] * pressure * rng.uniform(0.8, 1.2)
                for _ in range(rng.randint(8, 24))
            )
            for app in sorted(info.lc_instances)
        })

    def schedule(self, seconds: float) -> List[List[tuple]]:
        """Phase-1 arrivals per connection: ``(offset_s, tenant)``."""
        rng = random.Random(f"{self.seed}:arrivals")
        count = max(1, round(self.RATE * self.PHASE1_SHARE * seconds))
        per_conn: List[List[tuple]] = [[] for _ in self.clients]
        offset = 0.0
        for _ in range(count):
            offset += rng.expovariate(self.RATE)
            tenant = rng.randrange(self.tenants)
            per_conn[tenant % len(self.clients)].append((offset, tenant))
        return per_conn

    # -- the daemon ----------------------------------------------------------

    def _boot_daemon(self) -> int:
        cmd = [sys.executable, "-m", "bench.daemon"]
        flush_dir = getattr(self.recorder, "flush_dir", None)
        if flush_dir:
            cmd += ["--trace-dir", str(flush_dir)]
        self.daemon = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.daemon.stdout], [], [], 60.0)
        line = self.daemon.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        return int(line.split()[1])

    # -- decisions -----------------------------------------------------------

    def _decide(self, tenant: int, phase: int, due: Optional[float] = None):
        """Send the tenant's next epoch; returns the completion time."""
        client = self.clients[tenant % len(self.clients)]
        info = self.sessions[tenant]
        epoch = len(self.fingerprints[tenant])
        telemetry = self.telemetry(tenant, epoch)
        self.recorder.set_context(
            rid=f"{info.session_id}:{epoch}", phase=phase, due=due
        )
        try:
            decision = client.decide(info.session_id, telemetry)
        except Exception as exc:  # counted: every failure is a result
            self.errors.append(
                f"tenant {tenant} epoch {epoch}: {type(exc).__name__}: {exc}"
            )
            self.fingerprints[tenant].append(None)
            return time.perf_counter()
        finally:
            self.recorder.set_context()
        end = time.perf_counter()
        self.fingerprints[tenant].append(decision.fingerprint())
        tag = f"tenant {tenant} epoch {epoch}"
        if decision.epoch != epoch:
            self.violations.append(f"{tag}: epoch {decision.epoch}")
        if not all(size > 0.0 for size in decision.lat_sizes.values()):
            self.violations.append(f"{tag}: non-positive LC size")
        if decision.degraded:
            self.degraded.append(tag)
        elif set(info.lc_instances) - set(decision.apps()):
            self.violations.append(f"{tag}: LC app missing")
        return end

    def setup(self) -> None:
        super().setup()
        from repro.serve import (
            Client,
            CreateSessionRequest,
            TelemetryRequest,
        )
        from repro.workloads.tailbench import lc_profile_names

        self._CreateSessionRequest = CreateSessionRequest
        self._TelemetryRequest = TelemetryRequest
        self._lc_names = lc_profile_names()
        port = self._boot_daemon()
        self.clients = [
            Client("127.0.0.1", port, timeout=30.0)
            for _ in range(LOAD_WORKERS)
        ]
        self.requests = [self.create_request(t) for t in range(self.tenants)]
        self.sessions = [
            self.clients[t % len(self.clients)].create_session(req)
            for t, req in enumerate(self.requests)
        ]
        self.fingerprints: List[List[Optional[str]]] = [
            [] for _ in range(self.tenants)
        ]
        for tenant in range(self.tenants):
            self._decide(tenant, phase=0)

    def _on_connections(self, work: Callable[[int], None]) -> None:
        threads = [
            threading.Thread(target=work, args=(conn,))
            for conn in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        plan = self.schedule(seconds)
        m.start = time.perf_counter()
        latencies: List[List[float]] = [[] for _ in plan]
        lags: List[List[float]] = [[] for _ in plan]
        origin = m.start + 0.05

        def open_loop(conn: int) -> None:
            with self.recorder.span("bench.connection", phase=1):
                for offset, tenant in plan[conn]:
                    due = origin + offset
                    delay = due - time.perf_counter()
                    if delay > 0:
                        with self.recorder.span("bench.idle"):
                            time.sleep(delay)
                    lags[conn].append((time.perf_counter() - due) * 1e3)
                    end = self._decide(tenant, phase=1, due=due)
                    latencies[conn].append((end - due) * 1e3)

        self._on_connections(open_loop)
        self.phase1 = [len(f) for f in self.fingerprints]
        m.peak_rss_mb = self.peak_rss_mb()

        closed = [0 for _ in plan]
        duration = (1.0 - self.PHASE1_SHARE) * seconds

        def closed_loop(conn: int) -> None:
            mine = range(conn, self.tenants, len(self.clients))
            with self.recorder.span("bench.connection", phase=2):
                i = 0
                while time.perf_counter() < stop:
                    self._decide(mine[i % len(mine)], phase=2)
                    closed[conn] += 1
                    i += 1

        begin = time.perf_counter()
        stop = begin + duration
        self._on_connections(closed_loop)
        phase2_s = time.perf_counter() - begin
        m.end = time.perf_counter()
        m.wall_s = m.end - m.start
        m.rounds = 2
        m.latencies_ms = [x for lat in latencies for x in lat]
        # Not corrected for the host's speed: while a delayed-ACK stall
        # of ~40 ms dominates each round trip, the rate follows a timer,
        # not the CPU (its spread across runs is ~1%).
        m.add_round(sum(closed), phase2_s, phase2_s)
        # Every attempt, failed or not, appends one fingerprint slot.
        m.attempted = sum(len(f) for f in self.fingerprints)
        m.failed = (
            len(self.errors) + len(self.violations) + len(self.degraded)
            + self.events.count()
        )
        m.digest = digest([
            fps[:count] for fps, count in zip(self.fingerprints, self.phase1)
        ])
        all_lags = sorted(x for lag in lags for x in lag)
        m.details = {
            "phase1_decisions": len(m.latencies_ms),
            "phase2_decisions": sum(closed),
            "send_lag_p95_ms": trace.percentile(all_lags, 95),
            "latency_limit_ms": self.LIMIT_MS,
            "errors": self.errors[:5],
            "violations": self.violations[:5],
        }
        return m

    def peak_rss_mb(self) -> float:
        """The daemon's peak RSS: it, not this client, does the work."""
        return vm_hwm_mb(self.daemon.pid)

    def check(self) -> Dict[str, bool]:
        """Replay every tenant's telemetry into an in-process service."""
        from repro.serve import PlacementService

        service = PlacementService()
        identical = True
        for tenant, req in enumerate(self.requests):
            info = service.create_session(req)
            for epoch, expected in enumerate(self.fingerprints[tenant]):
                decision = service.decide(
                    info.session_id, self.telemetry(tenant, epoch)
                )
                identical &= decision.fingerprint() == expected
        return {
            "replay_identical": identical,
            "no_errors": not self.errors,
            "decisions_valid": not self.violations,
        }

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.daemon is not None:
            self.daemon.send_signal(signal.SIGTERM)
            try:
                self.daemon.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
            self.daemon.stdout.close()
            self.daemon = None
        super().close()


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (SweepCold, ModelBatch, FleetChurn, ServeTenants)
}
