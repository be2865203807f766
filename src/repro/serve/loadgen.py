"""Synthetic tenant fleet driving a serve daemon (``repro serve
loadgen``).

Each tenant is a deterministic *telemetry script*: a seeded choice of
LC app, chip, and load, plus per-epoch latency factors expressed
relative to the app's deadline (fetched from the session descriptor,
so the script is hardware-independent). A pool of worker threads
replays the scripts through the bundled :class:`~repro.serve.client.
Client` — one session and one persistent connection per tenant —
recording client-observed decision latency, invariant violations, and
each decision's :meth:`~repro.serve.schema.Decision.fingerprint`.

Determinism is the point: the same ``(seed, tenants, requests)``
replayed against a fresh daemon must produce byte-identical
fingerprint sequences per tenant, whatever the thread interleaving —
sessions are isolated, so concurrency cannot leak into decisions.
``tests/test_serve.py`` runs the generator twice and asserts exactly
that.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..sim.queueing import percentile
from ..workloads.tailbench import lc_profile_names
from .client import Client
from .schema import CreateSessionRequest, SessionInfo, TelemetryRequest

__all__ = [
    "TenantScript",
    "LoadgenReport",
    "build_scripts",
    "run_loadgen",
]


@dataclass(frozen=True)
class TenantScript:
    """One tenant's deterministic session + telemetry plan.

    ``factors[e]`` holds the epoch's latency samples as multiples of
    the app deadline; the driver scales them by the real deadline the
    session descriptor reports.
    """

    tenant: int
    create: CreateSessionRequest
    factors: Tuple[Tuple[float, ...], ...]

    def telemetry(
        self, info: SessionInfo, epoch: int
    ) -> TelemetryRequest:
        """Epoch ``epoch``'s samples for the session ``info`` describes."""
        factors = self.factors[epoch]
        return TelemetryRequest(
            latencies={
                app: tuple(info.deadlines[app] * f for f in factors)
                for app in sorted(info.lc_instances)
            }
        )


@dataclass
class LoadgenReport:
    """What a loadgen run observed: counts, latencies, fingerprints."""

    tenants: int
    requests: int
    seed: int
    wall_seconds: float = 0.0
    decisions: int = 0
    errors: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    #: tenant -> that tenant's decision fingerprints, in epoch order.
    fingerprints: Dict[int, List[str]] = field(default_factory=dict)

    @property
    def decisions_per_sec(self) -> float:
        """Aggregate decision throughput over the whole run."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.decisions / self.wall_seconds

    def latency_ms(self, pct: float) -> float:
        """Client-observed decision-latency percentile (ms)."""
        if not self.latencies_ms:
            return 0.0
        return percentile(self.latencies_ms, pct)

    @property
    def ok(self) -> bool:
        """No errors and no invariant violations."""
        return not self.errors and not self.violations

    def summary(self) -> Dict[str, object]:
        """JSON-able digest (full sample lists elided)."""
        return {
            "tenants": self.tenants,
            "requests_per_tenant": self.requests,
            "seed": self.seed,
            "total_requests": self.decisions,
            "wall_seconds": self.wall_seconds,
            "decisions_per_sec": self.decisions_per_sec,
            "p50_decision_ms": self.latency_ms(50.0),
            "p95_decision_ms": self.latency_ms(95.0),
            "errors": list(self.errors),
            "invariant_violations": list(self.violations),
            "ok": self.ok,
        }


def build_scripts(
    tenants: int,
    requests: int,
    seed: int = 0,
    chip: str = "small",
) -> List[TenantScript]:
    """Deterministic per-tenant scripts for a loadgen run.

    Load drifts over a ten-epoch sawtooth (so the controller genuinely
    grows and shrinks allocations) with per-sample jitter, all drawn
    from ``random.Random(seed * 1_000_003 + tenant)``.
    """
    names = lc_profile_names()
    scripts: List[TenantScript] = []
    for tenant in range(tenants):
        rng = random.Random(seed * 1_000_003 + tenant)
        create = CreateSessionRequest(
            lc_apps=(rng.choice(names),),
            mix_seed=rng.randrange(8),
            load="high" if rng.random() < 0.7 else "low",
            design="Jumanji",
            chip=chip,
            seed=tenant,
        )
        factors: List[Tuple[float, ...]] = []
        for epoch in range(requests):
            # Sawtooth pressure: quiet (0.6x deadline) to hot (1.3x).
            base = 0.6 + 0.7 * ((epoch % 10) / 9.0 if requests > 1 else 0.0)
            count = rng.randint(8, 24)
            factors.append(
                tuple(
                    base * rng.uniform(0.8, 1.2) for _ in range(count)
                )
            )
        scripts.append(
            TenantScript(
                tenant=tenant, create=create, factors=tuple(factors)
            )
        )
    return scripts


def _drive_tenant(
    host: str,
    port: int,
    script: TenantScript,
) -> Tuple[int, List[str], List[float], List[str], List[str]]:
    """Replay one tenant's script; returns its observations."""
    fingerprints: List[str] = []
    latencies: List[float] = []
    violations: List[str] = []
    errors: List[str] = []
    decisions = 0
    client = Client(host, port)
    try:
        info = client.create_session(script.create)
        lc_set = set(info.lc_instances)
        for epoch in range(len(script.factors)):
            telemetry = script.telemetry(info, epoch)
            start = time.perf_counter()
            decision = client.decide(info.session_id, telemetry)
            latencies.append(
                (time.perf_counter() - start) * 1e3
            )
            decisions += 1
            fingerprints.append(decision.fingerprint())
            tag = f"tenant {script.tenant} epoch {epoch}"
            if decision.epoch != epoch:
                violations.append(
                    f"{tag}: epoch {decision.epoch} != {epoch}"
                )
            bad_sizes = {
                a: s
                for a, s in decision.lat_sizes.items()
                if not s > 0.0
            }
            if bad_sizes:
                violations.append(
                    f"{tag}: non-positive LC sizes {bad_sizes}"
                )
            if not decision.degraded:
                missing = lc_set - set(decision.apps())
                if missing:
                    violations.append(
                        f"{tag}: LC apps absent from allocation: "
                        f"{sorted(missing)}"
                    )
        client.delete_session(info.session_id)
    except Exception as exc:  # collected, not raised: the report gates
        errors.append(
            f"tenant {script.tenant}: {type(exc).__name__}: {exc}"
        )
    finally:
        client.close()
    return decisions, fingerprints, latencies, violations, errors


def run_loadgen(
    host: str,
    port: int,
    tenants: int = 8,
    requests: int = 10,
    seed: int = 0,
    concurrency: int = 8,
    chip: str = "small",
) -> LoadgenReport:
    """Drive a daemon with ``tenants`` concurrent telemetry scripts."""
    scripts = build_scripts(tenants, requests, seed=seed, chip=chip)
    report = LoadgenReport(
        tenants=tenants, requests=requests, seed=seed
    )
    start = time.perf_counter()
    with ThreadPoolExecutor(
        max_workers=max(1, concurrency)
    ) as pool:
        results = list(
            pool.map(
                lambda s: _drive_tenant(host, port, s),
                scripts,
            )
        )
    report.wall_seconds = time.perf_counter() - start
    for script, (decisions, fps, lats, violations, errors) in zip(
        scripts, results
    ):
        report.decisions += decisions
        report.fingerprints[script.tenant] = fps
        report.latencies_ms.extend(lats)
        report.violations.extend(violations)
        report.errors.extend(errors)
    return report
