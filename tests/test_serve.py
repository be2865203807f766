"""Placement-as-a-service tests (``repro.serve``).

Covers the schema layer (canonical JSON round-trips, strict
unknown-key rejection), the in-process service registry, the HTTP
daemon's error mapping (400/404/413 with the ``repro.errors`` class
named in the body), concurrent-session isolation, loadgen determinism,
background sweeps, and the API consolidation (``run_model``, strict
``trace_from_spec``).
"""

import dataclasses
import http.client
import json
import socket
import statistics
import time
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.errors import (
    ConfigError,
    PayloadTooLarge,
    ReproError,
    UnknownSession,
)
from repro.serve import (
    Client,
    CreateSessionRequest,
    Decision,
    ErrorBody,
    PlacementService,
    ServeDaemon,
    SessionInfo,
    SweepRequest,
    SweepStatus,
    TelemetryRequest,
    status_for,
)
from repro.serve.loadgen import build_scripts, run_loadgen

pytestmark = pytest.mark.serve


def _only_reply(daemon, request):
    """Send ``request`` on a raw socket and read to EOF; the daemon must
    answer with one JSON reply marked ``Connection: close`` and then
    close. Returns its status code and decoded body."""
    reply = b""
    with socket.create_connection(
        (daemon.host, daemon.port), timeout=3
    ) as sock:
        sock.sendall(request)
        while True:
            data = sock.recv(1 << 16)
            if not data:
                break
            reply += data
    head, _, payload = reply.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert b"Connection: close" in lines
    length = next(
        int(line.split(b":")[1])
        for line in lines
        if line.lower().startswith(b"content-length:")
    )
    assert len(payload) == length, "more than one reply"
    return lines[0].split()[1], json.loads(payload)


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def daemon():
    """One shared daemon on a free port for the HTTP-level tests."""
    with ServeDaemon(port=0) as d:
        yield d


@pytest.fixture()
def client(daemon):
    with Client(daemon.host, daemon.port) as c:
        yield c


def _small_session(**overrides) -> CreateSessionRequest:
    kwargs = dict(lc_apps=("xapian",), chip="small", seed=3)
    kwargs.update(overrides)
    return CreateSessionRequest(**kwargs)


def _telemetry(info: SessionInfo, factor: float) -> TelemetryRequest:
    return TelemetryRequest(
        latencies={
            app: tuple(
                factor * deadline for _ in range(4)
            )
            for app, deadline in info.deadlines.items()
        }
    )


# --------------------------------------------------------------------------
# schema
# --------------------------------------------------------------------------


class TestSchema:
    def test_round_trip_is_canonical(self):
        req = _small_session(mix_seed=5, load="low")
        again = CreateSessionRequest.from_json(req.to_json())
        assert again == req
        # Canonical form: stable key order, no whitespace.
        assert req.to_json() == again.to_json()
        assert '", "' not in req.to_json()

    def test_unknown_key_is_named(self):
        payload = dict(_small_session().to_dict(), lc_app="xapian")
        with pytest.raises(ConfigError, match="lc_app"):
            CreateSessionRequest.from_dict(payload)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            CreateSessionRequest.from_dict({"load": "high"})

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            CreateSessionRequest(lc_apps=("a", "b"))  # 1 or 4 only
        with pytest.raises(ConfigError):
            _small_session(lc_apps=("a", "b", "c", "d"))  # small: 1
        with pytest.raises(ConfigError):
            _small_session(load="medium")
        # Shape errors are schema errors; sample *values* (NaN,
        # negatives) are sanitised downstream by the runtime guards.
        with pytest.raises(ConfigError):
            TelemetryRequest(latencies={"x": (1.0, "bad")})
        with pytest.raises(ConfigError):
            TelemetryRequest(latencies={"": (1.0,)})

    def test_decision_fingerprint_ignores_session_id(self):
        base = dict(
            epoch=0,
            lat_sizes={"xapian#0": 2.0},
            allocation={"0": {"xapian#0": 2.0}},
            shared_batch=("b#0",),
            invalidated_lines=0,
            degraded=False,
            memo_hit=False,
        )
        a = Decision(session_id="s0000", **base)
        b = Decision(session_id="s0001", **base)
        assert a.fingerprint() == b.fingerprint()


def _oracle_canonical(value):
    """The codec's original encoder, frozen as the byte-identity oracle."""
    if isinstance(value, typing.Mapping):
        return {
            str(k): _oracle_canonical(value[k])
            for k in sorted(value, key=str)
        }
    if isinstance(value, (list, tuple)):
        return [_oracle_canonical(v) for v in value]
    return value


def _oracle_dict(msg):
    return _oracle_canonical(dataclasses.asdict(msg))


def _oracle_json(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_names = st.text(min_size=1, max_size=8)
_floats = st.floats(allow_nan=True, allow_infinity=True)
_float_maps = st.dictionaries(_names, _floats, max_size=5)
_name_tuples = st.lists(_names, max_size=4).map(tuple)

_decisions = st.builds(
    Decision,
    session_id=_names,
    epoch=st.integers(min_value=0),
    lat_sizes=_float_maps,
    allocation=st.dictionaries(
        st.integers(0, 63).map(str), _float_maps, max_size=6
    ),
    shared_batch=_name_tuples,
    invalidated_lines=st.integers(min_value=0),
    degraded=st.booleans(),
    memo_hit=st.booleans(),
)
_session_infos = st.builds(
    SessionInfo,
    session_id=_names,
    design=_names,
    lc_apps=_name_tuples,
    lc_instances=_name_tuples,
    deadlines=_float_maps,
    load=st.sampled_from(["high", "low"]),
    mix_seed=st.integers(min_value=0),
    chip=st.sampled_from(["default", "small"]),
    seed=st.integers(min_value=0),
    epoch=st.integers(min_value=0),
)
_telemetry_requests = st.builds(
    TelemetryRequest,
    latencies=st.dictionaries(
        _names,
        st.lists(
            st.one_of(st.integers(-10**6, 10**6), _floats), max_size=6
        ).map(tuple),
        max_size=4,
    ),
)
_sweep_statuses = st.builds(
    SweepStatus,
    sweep_id=_names,
    state=st.sampled_from(["running", "done", "failed"]),
    completed=st.integers(min_value=0),
    total=st.integers(min_value=0),
    error=st.one_of(st.none(), st.text(max_size=12)),
    gmean_speedups=_float_maps,
)
_messages = st.one_of(
    _decisions, _session_infos, _telemetry_requests, _sweep_statuses
)


class TestCodecByteIdentity:
    """The shallow codec encodes exactly what ``asdict`` + re-sort did."""

    @settings(max_examples=200, deadline=None)
    @given(_messages)
    def test_to_dict_and_to_json_match_oracle(self, msg):
        expected = _oracle_dict(msg)
        # repr pins key order and value types, and compares NaN.
        assert repr(msg.to_dict()) == repr(expected)
        assert msg.to_json() == _oracle_json(expected)

    @settings(max_examples=200, deadline=None)
    @given(_decisions)
    def test_fingerprint_matches_oracle(self, decision):
        payload = _oracle_dict(decision)
        payload.pop("session_id")
        assert decision.fingerprint() == _oracle_json(payload)

    @settings(max_examples=100, deadline=None)
    @given(_messages, st.text(min_size=1, max_size=8))
    def test_unknown_key_is_still_named(self, msg, key):
        cls = type(msg)
        if key in {f.name for f in dataclasses.fields(cls)}:
            key += "_x"
        with pytest.raises(ConfigError) as info:
            cls.from_dict(dict(msg.to_dict(), **{key: 1}))
        assert repr(key) in str(info.value)


# --------------------------------------------------------------------------
# error -> HTTP status mapping
# --------------------------------------------------------------------------


class TestErrorMapping:
    def test_status_for(self):
        assert status_for(PayloadTooLarge("big", size=2, limit=1)) == 413
        assert status_for(UnknownSession("s?", session_id="s?")) == 404
        assert status_for(ConfigError("bad")) == 400
        assert status_for(RuntimeError("boom")) == 500

    def test_error_body_names_the_class(self):
        body = ErrorBody(error="ConfigError", message="bad", status=400)
        again = ErrorBody.from_json(body.to_json())
        assert again.error == "ConfigError"


# --------------------------------------------------------------------------
# service registry (no HTTP)
# --------------------------------------------------------------------------


class TestService:
    def test_session_lifecycle_and_epoch_echo(self):
        svc = PlacementService()
        info = svc.create_session(_small_session())
        assert info.epoch == 0
        assert len(info.lc_instances) == 1
        d0 = svc.decide(info.session_id, _telemetry(info, 0.8))
        d1 = svc.decide(info.session_id, _telemetry(info, 1.2))
        assert (d0.epoch, d1.epoch) == (0, 1)
        assert all(size > 0 for size in d0.lat_sizes.values())
        # Every LC instance owns capacity somewhere in the allocation.
        placed = set()
        for per_bank in d0.allocation.values():
            placed.update(per_bank)
        assert set(info.lc_instances) <= placed
        svc.delete_session(info.session_id)
        with pytest.raises(UnknownSession):
            svc.session_info(info.session_id)

    def test_same_seed_sessions_decide_identically(self):
        svc = PlacementService()
        a = svc.create_session(_small_session())
        b = svc.create_session(_small_session())
        assert a.session_id != b.session_id
        for factor in (0.7, 1.1, 1.3):
            da = svc.decide(a.session_id, _telemetry(a, factor))
            db = svc.decide(b.session_id, _telemetry(b, factor))
            assert da.fingerprint() == db.fingerprint()

    def test_unknown_lc_instance_rejected(self):
        svc = PlacementService()
        info = svc.create_session(_small_session())
        with pytest.raises(ConfigError, match="nosuch#9"):
            svc.decide(
                info.session_id,
                TelemetryRequest(latencies={"nosuch#9": (1.0,)}),
            )

    def test_sample_count_bound(self):
        svc = PlacementService(max_telemetry_samples=8)
        info = svc.create_session(_small_session())
        app = info.lc_instances[0]
        with pytest.raises(PayloadTooLarge):
            svc.decide(
                info.session_id,
                TelemetryRequest(latencies={app: (1e6,) * 9}),
            )

    def test_session_history_is_bounded(self, monkeypatch):
        from repro.serve import service

        def run(svc, info, decisions):
            app = info.lc_instances[0]
            deadline = info.deadlines[app]
            prints = []
            for k in range(decisions):
                # One full controller window per decision, alternating
                # above and below the deadline so sizes keep moving.
                factor = 1.3 if k % 3 else 0.6
                telemetry = TelemetryRequest(
                    latencies={app: (factor * deadline,) * 22}
                )
                prints.append(svc.decide(info.session_id, telemetry))
            return [d.fingerprint() for d in prints]

        limit = service.SESSION_HISTORY_LIMIT
        decisions = limit + 16
        bounded = PlacementService()
        info = bounded.create_session(_small_session())
        got = run(bounded, info, decisions)
        runtime = bounded._session(info.session_id).runtime
        assert len(runtime.history) == limit
        assert len(runtime.controller.decisions) == limit
        assert len(runtime.events) <= limit
        monkeypatch.setattr(service, "SESSION_HISTORY_LIMIT", None)
        unbounded = PlacementService()
        ref_info = unbounded.create_session(_small_session())
        want = run(unbounded, ref_info, decisions)
        ref_runtime = unbounded._session(ref_info.session_id).runtime
        assert len(ref_runtime.history) == decisions
        assert len(ref_runtime.controller.decisions) >= decisions
        assert got == want

    def test_unknown_design_rejected(self):
        svc = PlacementService()
        with pytest.raises(ConfigError, match="NoSuchDesign"):
            svc.create_session(_small_session(design="NoSuchDesign"))


# --------------------------------------------------------------------------
# HTTP daemon + client
# --------------------------------------------------------------------------


class TestHttp:
    def test_health_and_version(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["version"]

    def test_end_to_end_decide(self, client):
        info = client.create_session(_small_session())
        try:
            decision = client.decide(
                info.session_id, _telemetry(info, 0.9)
            )
            assert decision.session_id == info.session_id
            assert decision.epoch == 0
            assert client.session(info.session_id).epoch == 1
        finally:
            client.delete_session(info.session_id)

    def test_unknown_session_is_404_unknown_session(self, daemon, client):
        with pytest.raises(UnknownSession):
            client.decide("s9999", TelemetryRequest())
        conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            conn.request("GET", "/v1/sessions/s9999")
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 404
            assert body["error"] == "UnknownSession"
            assert "s9999" in body["message"]
        finally:
            conn.close()

    def test_malformed_json_is_400_config_error(self, daemon):
        conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            conn.request(
                "POST",
                "/v1/sessions",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 400
            assert body["error"] == "ConfigError"
        finally:
            conn.close()

    def test_unknown_schema_key_is_400_naming_key(self, daemon):
        payload = json.dumps(
            dict(_small_session().to_dict(), lc_app="xapian")
        )
        conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            conn.request("POST", "/v1/sessions", body=payload)
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 400
            assert body["error"] == "ConfigError"
            assert "lc_app" in body["message"]
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400_naming_header(self, daemon, length):
        # A handler that trusts the header either replies 500 or
        # blocks reading to EOF.
        status, error = _only_reply(daemon, (
            "POST /v1/sessions HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("ascii"))
        assert status == b"400"
        assert error["error"] == "ConfigError"
        assert "Content-Length" in error["message"]

    def test_chunked_body_is_400_naming_header_and_closes(self, daemon):
        # A handler that ignores the framing answers the empty body,
        # then parses the chunk-size line as a second request.
        body = json.dumps(_small_session().to_dict()).encode()
        status, error = _only_reply(daemon, (
            b"POST /v1/sessions HTTP/1.1\r\nHost: localhost\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
        ))
        assert status == b"400"
        assert error["error"] == "ConfigError"
        assert "Transfer-Encoding" in error["message"]

    @pytest.mark.parametrize(
        "request_line, want",
        [(b"GET /v1/health", b"200"), (b"POST /v1/nowhere", b"404")],
    )
    def test_unread_body_closes_the_connection(
        self, daemon, request_line, want
    ):
        # A route that takes no body must not leave it to be parsed as
        # the pipelined request behind it.
        status, _ = _only_reply(daemon, (
            request_line + b" HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: 5\r\n\r\nhello"
            + b"GET /v1/health HTTP/1.1\r\nHost: localhost\r\n\r\n"
        ))
        assert status == want

    def test_oversized_body_is_413(self):
        # The unread body must not be parsed as the pipelined request
        # behind it.
        with ServeDaemon(port=0, max_body=256) as small:
            status, error = _only_reply(small, (
                b"POST /v1/sessions HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: 1024\r\n\r\n" + b"x" * 1024
                + b"GET /v1/health HTTP/1.1\r\nHost: localhost\r\n\r\n"
            ))
        assert status == b"413"
        assert error["error"] == "PayloadTooLarge"

    def test_oversized_telemetry_is_413(self):
        service = PlacementService(max_telemetry_samples=4)
        with ServeDaemon(port=0, service=service) as d:
            with Client(d.host, d.port) as client:
                info = client.create_session(_small_session())
                app = info.lc_instances[0]
                with pytest.raises(PayloadTooLarge):
                    client.decide(
                        info.session_id,
                        TelemetryRequest(latencies={app: (1e6,) * 5}),
                    )

    def test_unroutable_path_is_404(self, daemon):
        conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            conn.request("GET", "/v2/nope")
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 404
            assert body["error"] == "NotFound"
        finally:
            conn.close()

    def test_metrics_endpoints(self, client):
        obs.configure(enabled=True)
        info = client.create_session(_small_session())
        try:
            client.decide(info.session_id, _telemetry(info, 1.0))
            snap = client.metrics()
            assert snap["counters"]["serve.decisions"] >= 1
            text = client.metrics_text()
            assert "serve.decisions" in text
        finally:
            client.delete_session(info.session_id)


class TestTransport:
    """One segment per reply: no wait on the client's delayed ACK."""

    def _request(self, path: str, body: bytes) -> bytes:
        return (
            f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body

    def test_reply_arrives_in_one_recv(self, daemon, client):
        info = client.create_session(_small_session())
        try:
            body = _telemetry(info, 1.0).to_json().encode("utf-8")
            path = f"/v1/sessions/{info.session_id}/telemetry"
            with socket.create_connection(
                (daemon.host, daemon.port), timeout=10
            ) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(self._request(path, body))
                data = sock.recv(1 << 16)
            head, sep, payload = data.partition(b"\r\n\r\n")
            assert sep, "header block split across segments"
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0].startswith("HTTP/1.1 200")
            headers = dict(
                line.split(": ", 1) for line in lines[1:]
            )
            assert len(payload) == int(headers["Content-Length"])
            decision = Decision.from_dict(json.loads(payload))
            assert decision.session_id == info.session_id
        finally:
            client.delete_session(info.session_id)

    def test_sequential_decisions_do_not_stall(self, client):
        # A delayed-ACK stall costs >= 40 ms per reply on Linux; a
        # small-chip decision costs a few milliseconds.
        info = client.create_session(_small_session())
        try:
            latencies = []
            for i in range(30):
                telemetry = _telemetry(info, 0.7 + 0.02 * i)
                start = time.perf_counter()
                client.decide(info.session_id, telemetry)
                latencies.append((time.perf_counter() - start) * 1e3)
        finally:
            client.delete_session(info.session_id)
        assert statistics.median(latencies) < 20.0, latencies

    def test_stdlib_error_replies_are_flushed(self, daemon):
        # send_error paths (an unsupported method, a malformed request
        # line) write into the buffered wfile and close; finish() must
        # still put the reply on the wire.
        conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            conn.request("PUT", "/v1/health")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 501
        finally:
            conn.close()
        with socket.create_connection(
            (daemon.host, daemon.port), timeout=10
        ) as sock:
            sock.sendall(b"NOT AN HTTP REQUEST\r\n\r\n")
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        assert b" 400 " in reply.split(b"\r\n", 1)[0]

    def test_stage_spans_nest_in_the_request(self, client):
        obs.configure(enabled=True)
        info = client.create_session(_small_session())
        try:
            before = len(obs.events())
            client.decide(info.session_id, _telemetry(info, 1.0))
            # A reply is on the wire before its handler closes the write
            # and request spans, so wait for the telemetry request's.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                spans = [
                    e for e in obs.events()[before:]
                    if e["type"] == "span" and e["name"].startswith("serve.")
                ]
                if spans and spans[-1]["name"] == "serve.request" and (
                    spans[-1]["args"]["path"].endswith("/telemetry")
                ):
                    break
                time.sleep(0.01)
        finally:
            client.delete_session(info.session_id)
        # Drop the tail of the create-session request, which may close
        # after ``before`` was taken.
        requests = [
            i for i, e in enumerate(spans) if e["name"] == "serve.request"
        ]
        if len(requests) > 1:
            spans = spans[requests[-2] + 1:]
        assert [e["name"] for e in spans] == [
            "serve.parse",
            "serve.lock_wait",
            "serve.decide",
            "serve.encode",
            "serve.write",
            "serve.request",
        ]
        request = spans[-1]
        for span in spans[:-1]:
            assert span["depth"] > request["depth"]


# --------------------------------------------------------------------------
# concurrent-session isolation
# --------------------------------------------------------------------------


class TestIsolation:
    def test_interleaved_sessions_match_solo_runs(self, client):
        reqs = [
            _small_session(seed=11),
            _small_session(lc_apps=("moses",), seed=22, mix_seed=3),
        ]
        factors = (0.7, 1.2, 0.9)

        solo: list = []
        for req in reqs:
            svc = PlacementService()
            info = svc.create_session(req)
            solo.append(
                [
                    svc.decide(
                        info.session_id, _telemetry(info, factor)
                    ).fingerprint()
                    for factor in factors
                ]
            )

        infos = [client.create_session(req) for req in reqs]
        try:
            interleaved = [[], []]
            for factor in factors:
                for i, info in enumerate(infos):
                    interleaved[i].append(
                        client.decide(
                            info.session_id, _telemetry(info, factor)
                        ).fingerprint()
                    )
            assert interleaved == solo
        finally:
            for info in infos:
                client.delete_session(info.session_id)


# --------------------------------------------------------------------------
# loadgen
# --------------------------------------------------------------------------


class TestLoadgen:
    def test_scripts_are_deterministic(self):
        assert build_scripts(3, 4, seed=7) == build_scripts(3, 4, seed=7)
        assert build_scripts(3, 4, seed=7) != build_scripts(3, 4, seed=8)

    def test_mini_run_is_clean_and_deterministic(self, daemon):
        reports = [
            run_loadgen(
                daemon.host, daemon.port,
                tenants=3, requests=3, seed=5, concurrency=3,
            )
            for _ in range(2)
        ]
        for report in reports:
            assert report.ok, (report.errors, report.violations)
            assert report.decisions == 9
            assert report.decisions_per_sec > 0
            assert report.latency_ms(95.0) >= report.latency_ms(50.0)
        assert reports[0].fingerprints == reports[1].fingerprints


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------


class TestSweeps:
    def test_background_sweep_completes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        svc = PlacementService()
        status = svc.start_sweep(
            SweepRequest(
                designs=("Jumanji",),
                lc_workloads=("xapian",),
                loads=("high",),
                mixes=1,
                epochs=2,
                jobs=1,
            )
        )
        assert status.state == "running"
        assert status.total == 1  # one (design, workload, load, mix)
        svc.wait_sweeps(timeout=120)
        done = svc.sweep_status(status.sweep_id)
        assert done.state == "done", done.error
        assert done.completed == done.total
        assert done.gmean_speedups["Jumanji"] > 0
        assert [s.sweep_id for s in svc.list_sweeps()] == [
            status.sweep_id
        ]

    def test_client_cannot_name_a_daemon_file(self, daemon, tmp_path):
        """A sweep request has no path field: the daemon keeps its only
        sweep state in its own result cache and writes nowhere a client
        names."""
        target = tmp_path / "made" / "by" / "client.log"
        payload = json.dumps(
            dict(SweepRequest(jobs=1).to_dict(), checkpoint=str(target))
        )
        conn = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=10
        )
        try:
            conn.request("POST", "/v1/sweeps", body=payload)
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 400
            assert body["error"] == "ConfigError"
            assert "checkpoint" in body["message"]
        finally:
            conn.close()
        assert not (tmp_path / "made").exists()

    def test_unknown_sweep_is_unknown_session(self):
        svc = PlacementService()
        with pytest.raises(UnknownSession):
            svc.sweep_status("w9999")


# --------------------------------------------------------------------------
# satellite: run_model consolidation
# --------------------------------------------------------------------------


class TestRunModel:
    def test_needs_exactly_one_selector(self):
        from repro.model.api import run_model

        with pytest.raises(ConfigError):
            run_model(design="Static")
        from repro.model.workload import make_default_workload

        workload = make_default_workload(["xapian"], mix_seed=0,
                                         load="high")
        with pytest.raises(ConfigError):
            run_model(
                design="Static", workload=workload,
                lc_workload="xapian",
            )

    def test_lc_workload_mode_rejects_batch_only_kwargs(self):
        from repro.model.api import run_model

        with pytest.raises(ConfigError):
            run_model(
                design="Static", lc_workload="xapian", seeds=[1]
            )


# --------------------------------------------------------------------------
# satellite: strict trace_from_spec
# --------------------------------------------------------------------------


class TestTraceSpecStrictness:
    def test_unknown_key_named(self):
        from repro.workloads.traces import trace_from_spec

        with pytest.raises(ConfigError, match="alpa"):
            trace_from_spec(
                {"kind": "zipf", "num_lines": 64, "alpa": 0.9}
            )

    def test_replay_extras_rejected(self):
        from repro.workloads.traces import trace_from_spec

        with pytest.raises(ConfigError, match="extra"):
            trace_from_spec(
                {"kind": "replay", "lines": [1, 2], "extra": 1}
            )
        with pytest.raises(ConfigError, match="lines"):
            trace_from_spec({"kind": "replay"})

    def test_unknown_kind_and_missing_kind(self):
        from repro.workloads.traces import trace_from_spec

        with pytest.raises(ConfigError, match="nope"):
            trace_from_spec({"kind": "nope"})
        with pytest.raises(ConfigError, match="kind"):
            trace_from_spec({})

    def test_valid_specs_still_build(self):
        from repro.workloads.traces import trace_from_spec

        trace = trace_from_spec(
            {"kind": "zipf", "num_lines": 64, "alpha": 0.9, "seed": 1}
        )
        assert len(trace.lines(8)) == 8
