"""Tests for the observability subsystem (``repro.obs``).

Covers the span/event core, the metrics registry, both trace exporters
round-tripping, worker event shipping through the sweep runner, and the
CLI surface (``--trace-out`` / ``--metrics-out`` and
``repro obs summarize``).
"""

import json
import logging
import warnings

import pytest

from repro import cli, obs
from repro.core.designs import make_design
from repro.errors import ConfigError
from repro.model.system import SystemModel
from repro.model.workload import make_default_workload
from repro.obs.exporters import (
    write_chrome_trace,
    write_jsonl,
    write_metrics_text,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.runner import Cell, ResultCache, SweepRunner, register_cell_kind


@pytest.fixture(autouse=True)
def _fresh_obs():
    """Every test starts and ends with collection off and state empty."""
    obs.reset()
    yield
    obs.reset()


@register_cell_kind("obs_probe")
def _obs_probe(x):
    with obs.span("probe.work", x=x):
        return x * x


# --------------------------------------------------------------------------
# span core
# --------------------------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.is_enabled()
        a = obs.span("anything", k=1)
        b = obs.span("else")
        assert a is b  # the singleton: no allocation when disabled
        with a:
            pass
        assert obs.events() == []

    def test_disabled_metrics_are_noops(self):
        obs.counter_inc("c")
        obs.gauge_set("g", 1.0)
        obs.observe("h", 0.5)
        snap = obs.metrics().snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_nesting_depth_and_order(self):
        obs.configure(enabled=True)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        records = obs.events()
        # Spans record on exit: inner first.
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner["depth"] == 1
        assert outer["depth"] == 0
        assert inner["type"] == outer["type"] == "span"

    def test_self_time_excludes_children(self):
        obs.configure(enabled=True)
        with obs.span("outer"):
            with obs.span("inner"):
                sum(range(20_000))
        inner, outer = obs.events()
        assert outer["self_us"] <= outer["dur_us"]
        assert inner["dur_us"] <= outer["dur_us"]
        # Outer's self time is its duration minus inner's share.
        assert outer["self_us"] == pytest.approx(
            outer["dur_us"] - inner["dur_us"], abs=1.0
        )

    def test_span_args_recorded(self):
        obs.configure(enabled=True)
        with obs.span("tagged", design="Jumanji", epoch=3):
            pass
        (record,) = obs.events()
        assert record["args"] == {"design": "Jumanji", "epoch": 3}

    def test_span_records_on_exception(self):
        obs.configure(enabled=True)
        with pytest.raises(RuntimeError):
            with obs.span("failing"):
                raise RuntimeError("boom")
        (record,) = obs.events()
        assert record["name"] == "failing"
        # The stack unwound: a following span is top-level again.
        with obs.span("after"):
            pass
        assert obs.events()[-1]["depth"] == 0


# --------------------------------------------------------------------------
# events
# --------------------------------------------------------------------------


class TestEmit:
    def test_emit_returns_record_and_logs(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            record = obs.emit("cache_corrupt", path="/x", reason="crc")
        assert record == {
            "event": "cache_corrupt", "path": "/x", "reason": "crc",
        }
        logged = json.loads(caplog.records[-1].message)
        assert logged == record

    def test_emit_counts_and_traces_when_enabled(self):
        obs.configure(enabled=True)
        obs.emit("pool_respawn", respawn=1)
        snap = obs.metrics().snapshot()
        assert snap["counters"]["events.pool_respawn"] == 1
        (entry,) = obs.events()
        assert entry["type"] == "event"
        assert entry["event"] == "pool_respawn"
        assert entry["fields"] == {"respawn": 1}

    def test_emit_stringifies_unjsonable_fields(self):
        record = obs.emit("odd", value=object())
        assert isinstance(record["value"], str)
        json.dumps(record)  # the whole record is always JSON-able

    def test_log_event_shim_is_gone(self):
        # The deprecation shim finished its cycle; obs.emit is the only
        # structured-event entry point.
        import repro.errors

        assert not hasattr(repro.errors, "log_event")
        assert "log_event" not in repro.errors.__all__


# --------------------------------------------------------------------------
# metrics registry
# --------------------------------------------------------------------------


class TestMetrics:
    def test_histogram_buckets(self):
        h = Histogram(edges=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.7, 3.0, 10.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 5
        # Per-bucket counts; the final entry is the +inf overflow.
        assert d["counts"] == [1, 2, 1, 1]
        assert d["min"] == 0.5 and d["max"] == 10.0

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ConfigError):
            Histogram(edges=())
        with pytest.raises(ConfigError):
            Histogram(edges=(2.0, 1.0))

    def test_registry_counters_gauges(self):
        reg = MetricsRegistry()
        reg.counter_inc("a")
        reg.counter_inc("a", 2)
        reg.gauge_set("g", 1.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 3}
        assert snap["gauges"] == {"g": 1.5}

    def test_registry_observe_fixes_edges_on_first_use(self):
        reg = MetricsRegistry()
        reg.observe("r", 0.3, edges=obs.RATIO_EDGES)
        reg.observe("r", 0.9)
        snap = reg.snapshot()
        assert snap["histograms"]["r"]["count"] == 2

    def test_render_text_is_sorted_and_versioned(self):
        reg = MetricsRegistry()
        reg.counter_inc("z")
        reg.counter_inc("a")
        text = reg.render_text()
        lines = text.splitlines()
        assert lines[0] == "# repro metrics v1"
        assert lines.index("counter a 1") < lines.index("counter z 1")


# --------------------------------------------------------------------------
# exporters
# --------------------------------------------------------------------------


def _well_formed(records):
    """Every depth>0 span must nest inside an enclosing span's interval."""
    spans = [r for r in records if r["type"] == "span"]
    by_pid = {}
    for s in spans:
        by_pid.setdefault(s["pid"], []).append(s)
    for pid_spans in by_pid.values():
        for s in pid_spans:
            if s["depth"] == 0:
                continue
            enclosing = [
                p
                for p in pid_spans
                if p is not s
                and p["depth"] < s["depth"]
                and p["ts_us"] <= s["ts_us"] + 1.0
                and s["ts_us"] + s["dur_us"]
                <= p["ts_us"] + p["dur_us"] + 1.0
            ]
            if not enclosing:
                return False
    return True


class TestExporters:
    def _sample_records(self):
        obs.configure(enabled=True)
        with obs.span("outer", kind="test"):
            with obs.span("inner"):
                pass
        obs.emit("cell_retry", attempt=1)
        return obs.events()

    def test_jsonl_round_trip_lossless(self, tmp_path):
        records = self._sample_records()
        path = tmp_path / "trace.jsonl"
        write_jsonl(records, path)
        assert obs.load_trace(path) == records

    def test_chrome_round_trip(self, tmp_path):
        records = self._sample_records()
        path = tmp_path / "trace.json"
        write_chrome_trace(records, path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc  # Perfetto-loadable shape
        loaded = obs.load_trace(path)
        spans = [r for r in loaded if r["type"] == "span"]
        assert {s["name"] for s in spans} == {"outer", "inner"}
        outer = next(s for s in spans if s["name"] == "outer")
        assert outer["args"] == {"kind": "test"}
        assert outer["depth"] == 0
        events = [r for r in loaded if r["type"] == "event"]
        assert events[0]["event"] == "cell_retry"

    def test_loaded_trace_is_well_formed(self, tmp_path):
        records = self._sample_records()
        path = tmp_path / "trace.jsonl"
        write_jsonl(records, path)
        assert _well_formed(obs.load_trace(path))

    def test_load_trace_names_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        with pytest.raises(ConfigError, match=r"bad\.jsonl:2"):
            obs.load_trace(path)

    def test_load_trace_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            obs.load_trace(tmp_path / "absent.jsonl")

    def test_metrics_text_export(self, tmp_path):
        obs.configure(enabled=True)
        obs.counter_inc("runtime.reconfigurations", 4)
        path = tmp_path / "metrics.txt"
        write_metrics_text(obs.metrics(), path)
        text = path.read_text()
        assert "counter runtime.reconfigurations 4" in text

    def test_flush_writes_configured_outputs(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.txt"
        obs.configure(trace=trace, metrics=metrics)
        assert obs.is_enabled()
        with obs.span("s"):
            pass
        written = obs.flush()
        assert written == {"trace": str(trace), "metrics": str(metrics)}
        assert trace.exists() and metrics.exists()

    def test_configure_rejects_unknown_format(self):
        with pytest.raises(ConfigError, match="trace_format"):
            obs.configure(trace="x.jsonl", trace_format="protobuf")


# --------------------------------------------------------------------------
# instrumented pipeline: model runs and the sweep runner
# --------------------------------------------------------------------------


def _tiny_model_run(seed=7):
    workload = make_default_workload(["xapian"], mix_seed=0, load="high")
    model = SystemModel(make_design("Jumanji"), workload, seed=seed)
    return model.run(3)


class TestInstrumentation:
    def test_model_run_covers_placer_stages(self):
        obs.configure(enabled=True)
        _tiny_model_run()
        names = {
            r["name"] for r in obs.events() if r["type"] == "span"
        }
        assert {
            "model.epoch",
            "runtime.reconfigure",
            "controller.update",
            "placer.allocate",
            "placer.latcrit",
            "placer.lookahead",
            "placer.jumanji",
        } <= names
        assert _well_formed(obs.events())

    def test_same_seed_runs_identical_snapshots(self):
        obs.configure(enabled=True)
        _tiny_model_run(seed=5)
        first = obs.metrics().snapshot()
        obs.reset()
        obs.configure(enabled=True)
        _tiny_model_run(seed=5)
        second = obs.metrics().snapshot()
        assert first == second
        assert first["counters"]["runtime.reconfigurations"] > 0

    def test_disabled_run_collects_nothing(self):
        _tiny_model_run()
        assert obs.events() == []
        assert obs.metrics().snapshot()["counters"] == {}

    def test_parallel_sweep_ships_worker_spans(self, tmp_path):
        obs.configure(enabled=True)
        runner = SweepRunner(jobs=2, cache=ResultCache(tmp_path))
        cells = [Cell("obs_probe", {"x": i}) for i in range(4)]
        assert runner.map(cells) == [0, 1, 4, 9]
        records = obs.events()
        spans = [r for r in records if r["type"] == "span"]
        names = {s["name"] for s in spans}
        assert {"sweep.map", "sweep.cell", "probe.work"} <= names
        cell_spans = [s for s in spans if s["name"] == "sweep.cell"]
        assert len(cell_spans) == 4
        # The cells ran in forked workers, not the parent.
        parent_pid = next(
            s["pid"] for s in spans if s["name"] == "sweep.map"
        )
        assert any(s["pid"] != parent_pid for s in cell_spans)
        counters = obs.metrics().snapshot()["counters"]
        assert counters["runner.cells"] == 4
        assert counters["runner.computed"] == 4

    def test_serial_sweep_spans_and_counters(self, tmp_path):
        obs.configure(enabled=True)
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        runner.map([Cell("obs_probe", {"x": 3})])
        names = {
            r["name"] for r in obs.events() if r["type"] == "span"
        }
        assert {"sweep.map", "sweep.cell", "probe.work"} <= names
        # A warm re-run is served from the cache.
        runner.map([Cell("obs_probe", {"x": 3})])
        counters = obs.metrics().snapshot()["counters"]
        assert counters["runner.cache_hits"] == 1


# --------------------------------------------------------------------------
# summary + CLI
# --------------------------------------------------------------------------


class TestSummaryAndCli:
    def test_summarize_counts_retries_and_degradations(self):
        obs.configure(enabled=True)
        with obs.span("work"):
            pass
        obs.emit("cell_retry", attempt=1)
        obs.emit("cell_retry", attempt=2)
        obs.emit("degraded_serial", respawns=3)
        summary = obs.summarize(obs.events())
        assert summary["total_spans"] == 1
        assert summary["retries"] == 2
        assert summary["degradations"] == 1
        text = obs.format_summary(summary)
        assert "retries: 2, degradations: 1" in text
        assert "work" in text

    def test_cli_run_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "run.txt"
        rc = cli.main(
            [
                "run", "Jumanji", "--epochs", "2",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"wrote trace {trace}" in out
        assert f"wrote metrics {metrics}" in out
        names = {
            r["name"]
            for r in obs.load_trace(trace)
            if r["type"] == "span"
        }
        assert "placer.jumanji" in names
        assert "counter runtime.reconfigurations" in metrics.read_text()

    def test_cli_env_defaults_enable_capture(
        self, tmp_path, capsys, monkeypatch
    ):
        trace = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        rc = cli.main(["run", "Static", "--epochs", "2"])
        assert rc == 0
        assert trace.exists()
        assert "wrote trace" in capsys.readouterr().out

    def test_cli_obs_summarize(self, tmp_path, capsys):
        obs.configure(enabled=True)
        with obs.span("placer.jumanji"):
            pass
        obs.emit("cell_retry", attempt=1)
        path = tmp_path / "t.jsonl"
        write_jsonl(obs.events(), path)
        rc = cli.main(["obs", "summarize", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "placer.jumanji" in out
        assert "retries: 1" in out

    def test_cli_run_without_flags_stays_disabled(self, capsys):
        rc = cli.main(["run", "Static", "--epochs", "2"])
        assert rc == 0
        assert "wrote trace" not in capsys.readouterr().out
        assert not obs.is_enabled()
