"""Tests of the benchmark itself (``python -m pytest bench/tests``).

Not part of the repository's tier-1 suite. Every file these tests
write goes under ``.bench_out/tests`` in the checkout.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from bench import hostspeed, trace
from bench.compare import judge
from bench.workloads import WORKLOADS, ModelBatch

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRATCH = ROOT / ".bench_out" / "tests"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fresh(name: str) -> pathlib.Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", "run", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke():
    """A traced smoke-scale run of all four workloads, seed 0."""
    work = _fresh("smoke")
    start = time.monotonic()
    proc = _bench(
        "--workload", "all", "--seed", "0", "--seconds", "1", "--smoke",
        "--trace", str(work / "trace"), "--out", str(work / "seed0.json"),
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr[-3000:]
    return elapsed, proc, json.loads((work / "seed0.json").read_text())


def test_smoke_reports_every_metric_with_its_unit(smoke):
    elapsed, proc, report = smoke
    assert elapsed < 60.0
    assert set(report["workloads"]) == set(WORKLOADS)
    for name, entry in report["workloads"].items():
        for metric in SPEC["end_to_end"]:
            item = entry["metrics"][metric["name"]]
            assert item["unit"] == metric["unit"]
            assert item["value"] > 0, (name, metric["name"])
        for metric in SPEC["per_layer"]:
            assert metric["name"] in entry["per_layer"], (name, metric)
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert all(entry["checks"].values()), (name, entry["checks"])
        # Wrappers change no output: traced and untraced digests agree.
        assert entry["checks"]["trace_digest_identical"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    for name in WORKLOADS:
        for metric in SPEC["per_layer"]:
            item = line["metrics"][f"{name}.{metric['name']}"]
            assert item["unit"] == metric["unit"]


def test_self_times_add_up_to_the_traced_wall(smoke):
    for entry in smoke[2]["workloads"].values():
        coverage = entry["per_layer"]["bench.self_time_coverage"]
        assert 0.9 <= coverage <= 1.0 + 1e-9


def test_seed_one_changes_every_digest(smoke):
    work = _fresh("seed1")
    proc = _bench(
        "--workload", "all", "--seed", "1", "--seconds", "1", "--smoke",
        "--out", str(work / "seed1.json"),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    seed1 = json.loads((work / "seed1.json").read_text())["workloads"]
    for name, entry in smoke[2]["workloads"].items():
        assert seed1[name]["output_digest"] != entry["output_digest"], name


def _span(sid, parent, start, end, pid=1, tid=1, name="x"):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "pid": pid, "tid": tid, "name": name, "attrs": None}


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),    # overlaps span 2: the union counts once
        _span(4, 2, 2.0, 3.0),    # a grandchild counts against span 2
        _span(5, 1, 9.0, 12.0),   # only the part inside span 1 counts
        _span(1, 0, 0.0, 2.0, pid=2),  # same id in another process
    ]
    selfs = trace.self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[(1, 2)] == pytest.approx(2.0)
    assert selfs[(1, 3)] == pytest.approx(3.0)
    assert selfs[(1, 4)] == pytest.approx(1.0)
    assert selfs[(1, 5)] == pytest.approx(3.0)
    assert selfs[(2, 1)] == pytest.approx(2.0)


def test_coverage_counts_only_layer_self_time_of_busy_driving_threads():
    spans = [
        # Timing thread: 10 s round, 4 s of it inside layers.
        _span(1, 0, 0.0, 10.0, name="bench.round"),
        _span(2, 1, 1.0, 4.0, name="core.jumanji"),
        _span(3, 2, 2.0, 3.0, name="core.lookahead"),
        _span(4, 1, 5.0, 6.0, name="core.lookahead"),
        # A connection thread: 10 s open, 4 s idle, 5 s in the client.
        _span(5, 0, 0.0, 10.0, tid=2, name="bench.connection"),
        _span(6, 5, 0.0, 4.0, tid=2, name="bench.idle"),
        _span(7, 5, 4.0, 9.0, tid=2, name="serve.client_decide"),
        # Another process (a pool worker, the daemon) drives no load.
        _span(1, 0, 0.0, 10.0, pid=2, name="runner.compute_cell"),
    ]
    metrics, _ = trace.layer_metrics(spans, main_pid=1)
    assert metrics["bench.self_time_coverage"] == pytest.approx(9.0 / 16.0)
    assert metrics["core.jumanji.self_s"] == pytest.approx(2.0)
    assert metrics["core.lookahead.self_s"] == pytest.approx(2.0)


@pytest.mark.parametrize("clock", [hostspeed.Bracket, hostspeed.Sampler])
def test_clocks_scale_wall_time_by_the_probe(monkeypatch, clock):
    # A host twice as slow as the reference: a reference second is two
    # wall seconds.
    monkeypatch.setattr(hostspeed, "probe", lambda: 2 * hostspeed.REFERENCE_S)
    monkeypatch.setattr(hostspeed, "INTERVAL_S", 0.01)
    timer = clock()
    try:
        result, wall, ref = timer.time(lambda: time.sleep(0.1) or "done")
    finally:
        timer.close()
    assert result == "done"
    assert wall >= 0.1
    assert ref == pytest.approx(wall / 2)


def test_wrappers_are_transparent_and_removable():
    import repro.core.jumanji as jumanji
    import repro.core.runtime as runtime

    originals = (jumanji.jumanji_lookahead, runtime.JumanjiRuntime.reconfigure)

    def one_round(recorder):
        work = _fresh("transparent")
        workload = ModelBatch(3, work, smoke=True, recorder=recorder)
        workload.setup()
        installed = (
            trace.install(recorder) if recorder is not trace.NULL else None
        )
        try:
            return workload.measure(0.0).digest
        finally:
            if installed is not None:
                installed.uninstall()
            workload.close()

    recorder = trace.Recorder()
    assert one_round(recorder) == one_round(trace.NULL)
    names = {s["name"] for s in recorder.records()}
    assert {"model.run", "core.reconfigure", "core.jumanji",
            "core.jumanji_lookahead", "sim.run_epoch_batch"} <= names
    assert (jumanji.jumanji_lookahead,
            runtime.JumanjiRuntime.reconfigure) == originals


@pytest.mark.parametrize("factor,verdict", [
    (0.80, "REGRESSION"),
    (0.97, "ok"),
    (1.20, "gain"),
])
def test_compare_verdicts(factor, verdict):
    metric = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [v * factor for v in parent]
    assert judge(parent, change, metric)["verdict"] == verdict


def test_compare_calls_a_noisy_metric_unresolved():
    metric = {"name": "op_p95_ms", "better": "lower", "bound": 0.1}
    parent = [50, 150, 80, 120, 100, 60, 140, 90, 110, 100]
    change = [v * 1.05 for v in reversed(parent)]
    assert judge(parent, change, metric)["verdict"] == "unresolved"


def test_without_the_program_it_exits_nonzero_and_prints_nothing():
    bare = _fresh("bare")
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench("--workload", "sweep-cold", "--seed", "0",
                  "--seconds", "1", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
