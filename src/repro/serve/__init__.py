"""repro.serve: placement-as-a-service for the Jumanji loop.

ROADMAP item 2 made concrete: the paper's 100 ms controller loop as a
long-lived daemon instead of a batch run. A stdlib
``ThreadingHTTPServer`` owns a registry of
:class:`~repro.core.runtime.JumanjiRuntime` sessions; tenants POST
epoch telemetry and receive the placement decision (allocation plus
the :class:`~repro.core.runtime.ReconfigRecord` fields), query live
:mod:`repro.obs` metrics, and start figure sweeps.

The API surface is schema-driven: the frozen JSON-canonical
dataclasses in :mod:`repro.serve.schema` are shared verbatim by the
daemon (:class:`ServeDaemon`), the bundled sync client
(:class:`Client`), and the synthetic load generator
(:mod:`repro.serve.loadgen`). Errors map onto the
:mod:`repro.errors` taxonomy -> HTTP status codes with the class named
in the body.

Quick start::

    from repro.serve import Client, ServeDaemon
    from repro.serve.schema import CreateSessionRequest, TelemetryRequest

    with ServeDaemon(port=0) as daemon:
        client = Client(daemon.host, daemon.port)
        info = client.create_session(
            CreateSessionRequest(lc_apps=("xapian",), chip="small")
        )
        decision = client.decide(info.session_id, TelemetryRequest())
        print(decision.lat_sizes)

CLI: ``repro serve run`` (foreground daemon) and ``repro serve loadgen
--tenants N`` (synthetic fleet). ``tests/test_serve.py`` gates it;
``python3 -m bench run --workload serve-tenants`` times it end to end.
"""

from .client import Client
from .http import (
    DEFAULT_HOST,
    DEFAULT_MAX_BODY,
    DEFAULT_PORT,
    ServeDaemon,
    status_for,
)
from .schema import (
    CreateSessionRequest,
    Decision,
    ErrorBody,
    SessionInfo,
    SweepRequest,
    SweepStatus,
    TelemetryRequest,
)
from .service import MAX_TELEMETRY_SAMPLES, PlacementService

__all__ = [
    "Client",
    "CreateSessionRequest",
    "Decision",
    "DEFAULT_HOST",
    "DEFAULT_MAX_BODY",
    "DEFAULT_PORT",
    "ErrorBody",
    "MAX_TELEMETRY_SAMPLES",
    "PlacementService",
    "ServeDaemon",
    "SessionInfo",
    "SweepRequest",
    "SweepStatus",
    "TelemetryRequest",
    "status_for",
]
