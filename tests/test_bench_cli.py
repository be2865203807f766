"""``repro bench``: the suite table, its report envelope and its gates."""

import dataclasses
import json

import pytest

from repro.bench import SUITES
from repro.cli import main

#: Each suite at its ``make check`` smoke scale.
SMOKE_ARGS = {
    "tracesim": ("--accesses", "1000", "--seeds", "2"),
    "model": ("--mixes", "1", "--epochs", "4"),
    "obs": ("--epochs", "4"),
}


@pytest.fixture()
def bench_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def _run_suite(suite, out, extra=()):
    rc = main(
        ["bench", "--suite", suite, *SMOKE_ARGS[suite],
         "--output", str(out), *extra]
    )
    return rc, json.loads(out.read_text())


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes_at_smoke_scale(suite, bench_env, capsys):
    out = bench_env / f"BENCH_{suite}.json"
    rc, report = _run_suite(suite, out)
    assert rc == 0
    assert report["suite"] == suite
    assert len(report["code_fingerprint"]) == 64
    assert report["version"]
    assert report["ok"] is True
    text = capsys.readouterr().out
    for key in SUITES[suite].headline:
        assert f"  {key}: " in text
    assert f"wrote {out}" in text


def _perturbed_stats(real):
    def stats(self):
        result = dict(real(self))
        first = min(result)
        result[first] = dataclasses.replace(
            result[first], accesses=result[first].accesses + 1
        )
        return result

    return stats


def _break_tracesim(monkeypatch):
    from repro.sim.tracesim import TraceSimulator

    monkeypatch.setattr(
        TraceSimulator, "stats", _perturbed_stats(TraceSimulator.stats)
    )


def _break_model(monkeypatch):
    import repro.bench

    monkeypatch.setattr(
        repro.bench, "_canonical_run_result", lambda result: object()
    )


def _break_obs(monkeypatch):
    import repro.bench

    monkeypatch.setattr(repro.bench, "OBS_OVERHEAD_GATE", -1.0)


#: Forced gate failure per suite: (breaker, the gate it trips).
BREAKERS = {
    "tracesim": (_break_tracesim, "stats_identical"),
    "model": (_break_model, "stats_identical"),
    "obs": (_break_obs, "overhead.ok"),
}


def test_every_suite_has_smoke_args_and_a_breaker():
    assert set(SMOKE_ARGS) == set(BREAKERS) == set(SUITES)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_failed_gate_fails_the_suite(suite, bench_env, monkeypatch, capsys):
    breaker, gate = BREAKERS[suite]
    breaker(monkeypatch)
    out = bench_env / f"BENCH_{suite}.json"
    rc, report = _run_suite(suite, out, extra=("--jobs", "1"))
    assert rc == 1
    assert report["ok"] is False
    value = report
    for key in gate.split("."):
        value = value[key]
    assert value is False, gate
    assert f"{suite.upper()} SUITE FAILED" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["bench"],
        ["bench", "--suite", "sweeps"],
        ["bench", "--suite", "fleet"],
    ],
)
def test_bench_needs_a_known_suite(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--suite" in capsys.readouterr().err


def test_figure_command_accepts_jobs(bench_env, capsys):
    assert main(["figure", "fig18", "--scale", "smoke", "--jobs", "1"]) == 0
    assert "Fig. 18" in capsys.readouterr().out


TRACESIM_REQUIRED_KEYS = {
    "suite",
    "code_fingerprint",
    "jobs",
    "workload",
    "scalar_reference",
    "fast_path",
    "speedup_vs_scalar",
    "stats_identical",
    "sharded_runs",
    "profile",
}


def _run_tracesim_bench(out, extra=()):
    argv = [
        "bench", "--suite", "tracesim", "--accesses", "200",
        "--seeds", "2", "--jobs", "1", "--output", str(out), *extra,
    ]
    assert main(argv) == 0
    return json.loads(out.read_text())


def test_tracesim_bench_schema_and_cache_behaviour(bench_env, capsys):
    out = bench_env / "BENCH_tracesim.json"
    first = _run_tracesim_bench(out)

    assert TRACESIM_REQUIRED_KEYS <= set(first)
    assert first["suite"] == "tracesim"
    assert first["stats_identical"] is True
    assert first["speedup_vs_scalar"] > 0
    assert first["workload"]["accesses_per_core"] == 200
    assert first["scalar_reference"]["accesses_per_sec"] > 0
    assert first["fast_path"]["accesses_per_sec"] > 0
    assert first["sharded_runs"]["seeds"] == 2
    assert first["sharded_runs"]["cells"] == 2
    assert first["profile"] is None

    # A back-to-back rerun computes every sharded cell again: the
    # headline never times a warm cache.
    second = _run_tracesim_bench(out)
    for report in (first, second):
        assert report["sharded_runs"]["computed"] == 2
        assert report["sharded_runs"]["cache_hits"] == 0

    summary = capsys.readouterr().out
    assert "speedup_vs_scalar" in summary
    assert str(out) in summary


def test_tracesim_bench_profile_dumps_pstats(bench_env):
    import pstats

    out = bench_env / "BENCH_tracesim.json"
    report = _run_tracesim_bench(out, extra=("--profile",))
    prof = report["profile"]
    assert prof is not None
    assert prof["total_calls"] > 0
    stats = pstats.Stats(prof["path"])
    assert stats.total_calls == prof["total_calls"]
