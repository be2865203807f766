"""The HTTP transport: stdlib ``ThreadingHTTPServer`` over the service.

One deliberately small layer: decode the request path and JSON body
into :mod:`repro.serve.schema` types, call the matching
:class:`~repro.serve.service.PlacementService` method, encode the
result. Errors never escape as tracebacks — every exception maps
through :func:`status_for` onto the :mod:`repro.errors` taxonomy
(:class:`~repro.errors.ConfigError`/:class:`~repro.errors.
TelemetryInvalid` -> 400, :class:`~repro.errors.UnknownSession` -> 404,
:class:`~repro.errors.PayloadTooLarge` -> 413, anything else -> 500)
and is returned as an :class:`~repro.serve.schema.ErrorBody` naming
the class, so clients re-raise the same typed exception.

Endpoints (all JSON unless noted):

====== ================================ ================================
Method Path                             Body -> Response
====== ================================ ================================
GET    /v1/health                       -- -> {"ok", "version"}
POST   /v1/sessions                     CreateSessionRequest -> SessionInfo
GET    /v1/sessions                     -- -> [SessionInfo, ...]
GET    /v1/sessions/<id>                -- -> SessionInfo
DELETE /v1/sessions/<id>                -- -> {"ok"}
POST   /v1/sessions/<id>/telemetry      TelemetryRequest -> Decision
GET    /v1/metrics                      -- -> MetricsRegistry snapshot
GET    /v1/metrics/text                 -- -> text/plain exposition
POST   /v1/sweeps                       SweepRequest -> SweepStatus
GET    /v1/sweeps                       -- -> [SweepStatus, ...]
GET    /v1/sweeps/<id>                  -- -> SweepStatus
====== ================================ ================================
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple, Type
from urllib.parse import urlsplit

from .. import __version__, obs
from ..config import Settings
from ..errors import (
    ConfigError,
    PayloadTooLarge,
    TelemetryInvalid,
    UnknownSession,
)
from .schema import (
    CreateSessionRequest,
    ErrorBody,
    SweepRequest,
    TelemetryRequest,
    _Message,
)
from .service import PlacementService

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_MAX_BODY",
    "ServeDaemon",
    "status_for",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8123
#: Request-body byte bound (``REPRO_SERVE_MAX_BODY`` overrides).
DEFAULT_MAX_BODY = 1 << 20


def status_for(exc: BaseException) -> int:
    """HTTP status for a service exception (the taxonomy mapping)."""
    if isinstance(exc, PayloadTooLarge):
        return 413
    if isinstance(exc, UnknownSession):
        return 404
    if isinstance(exc, (ConfigError, TelemetryInvalid)):
        return 400
    return 500


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on the server/service."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    # Status line, headers and body go out in one segment: ``wfile`` is
    # buffered (flushed by ``_reply``, or by ``finish`` on the stdlib's
    # ``send_error`` paths), and TCP_NODELAY stops a short write waiting
    # on the peer's delayed ACK. Unbuffered with Nagle on, the header
    # and body writes cost ~40 ms per reply on Linux.
    disable_nagle_algorithm = True
    wbufsize = -1

    # The default handler prints an access line per request to stderr;
    # the daemon observes through obs spans/counters instead.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    @property
    def service(self) -> PlacementService:
        return self.server.service  # type: ignore[attr-defined]

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        path = urlsplit(self.path).path
        # Cleared by ``_body`` once it has read the body.
        self._body_unread = self.headers.get("Content-Length", "0") != "0"
        with obs.span("serve.request", method=method, path=path):
            try:
                self._check_framing()
                status, payload = self._route(method, path)
            except Exception as exc:
                status = status_for(exc)
                payload = ErrorBody(
                    error=type(exc).__name__,
                    message=str(exc),
                    status=status,
                )
                obs.counter_inc(f"serve.errors.{type(exc).__name__}")
            if self._body_unread:
                # Its bytes would be parsed as the next request.
                self.close_connection = True
            with obs.span("serve.encode"):
                content_type, body = _encode(payload)
            with obs.span("serve.write"):
                self._reply(status, body, content_type)
        obs.counter_inc("serve.requests")

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        # Flushed here, not by ``handle_one_request``, so the
        # ``serve.write`` span covers the send itself.
        self.wfile.flush()

    def _check_framing(self) -> None:
        """Reject a body framed by ``Transfer-Encoding``.

        Bodies are read by ``Content-Length`` only, and a reply that
        leaves a body unread (this one, a bad length, an oversized body,
        a route that takes no body) closes the connection.
        """
        encoding = self.headers.get("Transfer-Encoding")
        if encoding is not None:
            self.close_connection = True
            raise ConfigError(
                f"Transfer-Encoding {encoding!r} is not supported; "
                "send the body with a Content-Length header"
            )

    def _body(self) -> Any:
        """The request body as parsed JSON (413 on oversize, 400 on
        malformed)."""
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        # A negative length would make rfile.read() block until EOF.
        if length < 0:
            raise ConfigError(
                "Content-Length header must be a non-negative integer, "
                f"got {header!r}"
            )
        max_body = self.server.max_body  # type: ignore[attr-defined]
        if length > max_body:
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{max_body}-byte bound",
                size=length,
                limit=max_body,
            )
        raw = self.rfile.read(length) if length else b"{}"
        self._body_unread = False
        try:
            return json.loads(raw.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            raise ConfigError(
                f"request body is not valid JSON: {exc}"
            ) from None

    def _parse(self, cls: Type[_Message]) -> Any:
        """The request body read and parsed strictly as ``cls``."""
        with obs.span("serve.parse"):
            return cls.from_dict(self._body())

    def _route(self, method: str, path: str) -> Tuple[int, Any]:
        """``(status, payload)``: a schema message, a list of them, a
        plain JSON-able value, or text."""
        parts = [p for p in path.split("/") if p]
        service = self.service
        if parts[:1] != ["v1"]:
            return self._not_found(path)
        rest = parts[1:]
        if rest == ["health"] and method == "GET":
            return 200, {"ok": True, "version": __version__}
        if rest == ["sessions"]:
            if method == "POST":
                req = self._parse(CreateSessionRequest)
                return 200, service.create_session(req)
            if method == "GET":
                return 200, service.list_sessions()
        if len(rest) == 2 and rest[0] == "sessions":
            if method == "GET":
                return 200, service.session_info(rest[1])
            if method == "DELETE":
                service.delete_session(rest[1])
                return 200, {"ok": True}
        if (
            len(rest) == 3
            and rest[0] == "sessions"
            and rest[2] == "telemetry"
            and method == "POST"
        ):
            telemetry = self._parse(TelemetryRequest)
            return 200, service.decide(rest[1], telemetry)
        if rest == ["metrics"] and method == "GET":
            return 200, service.metrics_snapshot()
        if rest == ["metrics", "text"] and method == "GET":
            return 200, service.metrics_text()
        if rest == ["sweeps"]:
            if method == "POST":
                req = self._parse(SweepRequest)
                return 200, service.start_sweep(req)
            if method == "GET":
                return 200, service.list_sweeps()
        if len(rest) == 2 and rest[0] == "sweeps" and method == "GET":
            return 200, service.sweep_status(rest[1])
        return self._not_found(path)

    def _not_found(self, path: str) -> Tuple[int, Any]:
        body = ErrorBody(
            error="NotFound",
            message=f"no route for {path!r}",
            status=404,
        )
        return 404, body


def _encode(payload: Any) -> Tuple[str, bytes]:
    """``(content_type, body)`` for a :meth:`_Handler._route` payload."""
    if isinstance(payload, str):
        return "text/plain", payload.encode("utf-8")
    if isinstance(payload, _Message):
        payload = payload.to_dict()
    elif isinstance(payload, list):
        payload = [item.to_dict() for item in payload]
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "application/json", body.encode("utf-8")


class ServeDaemon:
    """A running serve endpoint: server + service + worker thread.

    Binds on construction (``port=0`` asks the OS for an ephemeral
    port — the resolved one is on :attr:`port`), serves on
    :meth:`start` (background thread) or :meth:`serve_forever`
    (foreground, for ``repro serve run``). Usable as a context
    manager; :meth:`close` stops the listener and drops the service.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        max_body: Optional[int] = None,
        service: Optional[PlacementService] = None,
    ):
        settings = Settings.from_env()
        if host is None:
            host = settings.serve_host or DEFAULT_HOST
        if port is None:
            port = (
                settings.serve_port
                if settings.serve_port is not None
                else DEFAULT_PORT
            )
        if max_body is None:
            max_body = settings.serve_max_body or DEFAULT_MAX_BODY
        if max_body <= 0:
            raise ConfigError(
                f"max_body must be positive, got {max_body}"
            )
        self.service = (
            service if service is not None else PlacementService()
        )
        self.server = ThreadingHTTPServer((host, port), _Handler)
        self.server.service = self.service  # type: ignore[attr-defined]
        self.server.max_body = max_body  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        """The bound address."""
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved when constructed with ``port=0``)."""
        return self.server.server_address[1]

    def start(self) -> "ServeDaemon":
        """Serve on a background thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.server.serve_forever,
                name="repro-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (until interrupted)."""
        self.server.serve_forever()

    def close(self) -> None:
        """Stop serving and release the listening socket."""
        # shutdown() handshakes with a *running* serve loop; calling it
        # when serve_forever never started would block forever.
        if self._thread is not None:
            self.server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server.server_close()

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()
