"""``python -m bench run``: run workloads, check them, report metrics.

Each workload runs in fresh processes started here (``bench.worker``):
``SETUP_SAMPLES - 1`` set-up-only processes, then the measured one, so
``setup_s`` is a median of several cold set-ups. With ``--trace`` a
further, traced process repeats the measured run with span wrappers
installed; its per-layer metrics, and ``bench.trace_overhead`` (the
untraced round rate over the traced one), are reported instead of the
end-to-end metrics, which always come from the untraced process.

Every run writes one result JSON (``--out``, default under
``.bench_out/``) holding the environment, every metric, the correctness
checks and each workload's ``output_digest``. The last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit status is 0 only when every check passed and no
operation failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from .env import environment
from .trace import unit_of
from .workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Reported in every result beside the ``BENCHMARK.json`` metrics, with
#: the bound ``compare`` applies, but not gated there: on the three
#: batch workloads latency only restates the work rate, and on
#: serve-tenants it is bimodal — a ~40 ms delayed-ACK stall (ROADMAP
#: item 1a) hits about half the decisions — so its spread across seeds
#: is wider than any bound it could hold.
REPORTED = (
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "op_p95_ms", "unit": "ms", "better": "lower", "bound": 0.1},
)

#: Wall-clock budget of one workload, all of its processes included.
BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    """A workload process crashed, timed out or wrote no result."""


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC.read_text())


def _worker_env(run_dir: pathlib.Path) -> Dict[str, str]:
    # The program reads REPRO_* settings from the environment; the
    # benchmark fixes every knob itself, so none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(run_dir / "tmp")
    # VM-Part's batch IPCs depend on string-hash order: the partition
    # group's occupancy is summed over a set of app names
    # (Allocation._ways_per_bank_raw), so the last bits of its results
    # vary with the hash seed. Pinning it makes output_digest
    # reproducible from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(
    args: argparse.Namespace,
    name: str,
    run_dir: pathlib.Path,
    tag: str,
    deadline: float,
    extra: List[str],
) -> Dict[str, Any]:
    """Run one ``bench.worker`` process; returns what it wrote."""
    out = run_dir / f"{tag}.json"
    cmd = [
        sys.executable, "-m", "bench.worker",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--run-dir", str(run_dir),
        "--out", str(out),
    ] + (["--smoke"] if args.smoke else []) + extra
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"{name}: out of time before {tag}")
    # A session of its own, so the whole tree (pool workers, the serve
    # daemon) can be stopped together whatever state it is left in.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_worker_env(run_dir),
        stdout=sys.stderr.fileno(), start_new_session=True,
    )
    try:
        code = proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise WorkerFailed(f"{name}: {tag} timed out")
    if code != 0 or not out.is_file():
        raise WorkerFailed(f"{name}: {tag} exited with status {code}")
    return json.loads(out.read_text())


def run_workload(
    args: argparse.Namespace, name: str, spec: Dict[str, Any]
) -> Dict[str, Any]:
    """Every process of one workload; returns its result entry."""
    run_dir = OUT / "runs" / f"{name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    # ``--trace 1`` keeps spans only until the metrics are computed.
    trace_dir = {"0": None, "1": run_dir / "trace"}.get(
        args.trace, pathlib.Path(args.trace).resolve() / name
    )
    deadline = time.monotonic() + BUDGET_S
    try:
        setups = [] if trace_dir else [
            _spawn(args, name, run_dir, f"setup{i}", deadline,
                   ["--setup-only"])
            for i in range(SETUP_SAMPLES - 1)
        ]
        main = _spawn(args, name, run_dir, "main", deadline, [])
        setups.append(main)
        traced = None
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            traced = _spawn(args, name, run_dir, "traced", deadline,
                            ["--trace-dir", str(trace_dir)])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "ops_per_s": main["ops_per_s"],
        "op_p50_ms": main["op_p50_ms"],
        "op_p95_ms": main["op_p95_ms"],
    }
    checks = dict(main["checks"])
    workload = WORKLOADS[name]
    entry: Dict[str, Any] = {
        "op": workload.op,
        "latency_of": workload.latency_of,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in list(spec["end_to_end"]) + list(REPORTED)
        },
        "named": {
            workload.named.get(k, k): v for k, v in values.items()
            if k in workload.named
        },
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_samples_wall_s": [s["setup_wall_s"] for s in setups],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "error_rate": main["failed"] / max(main["attempted"], 1),
        "output_digest": main["output_digest"],
        "samples": {
            k: main[k]
            for k in ("ops", "rounds", "measured_s", "op_samples",
                      "round_rates", "ops_per_wall_s")
        },
        "details": main["details"],
    }
    if traced is not None:
        checks["trace_digest_identical"] = (
            traced["output_digest"] == main["output_digest"]
        )
        per_layer = dict(traced["per_layer"])
        # Round r of both runs ran the same inputs: pairing them cancels
        # the inputs' differences, the median damps the host's noise.
        per_layer["bench.trace_overhead"] = statistics.median(
            u / t for u, t in zip(main["round_rates"], traced["round_rates"])
        )
        entry["per_layer"] = per_layer
        entry["by_design"] = traced["by_design"]
        entry["trace"] = {
            "dir": None if args.trace == "1" else str(trace_dir),
            "spans": traced["spans"],
        }
    entry["checks"] = checks
    entry["correct"] = all(checks.values())
    return entry


def _print_entry(name: str, entry: Dict[str, Any], traced: bool) -> None:
    print(f"{name}: op = {entry['op']}; latency = {entry['latency_of']}")
    for metric, item in entry["metrics"].items():
        print(f"  {metric:<28s} {item['value']:>14.6g} {item['unit']}")
    if traced:
        for metric, value in sorted(entry["per_layer"].items()):
            print(f"  {metric:<36s} {value:>14.6g} {unit_of(metric)}")
    print(f"  attempted {entry['attempted']}, failed {entry['failed']}, "
          f"error_rate {entry['error_rate']:.6g}")
    for check, ok in entry["checks"].items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    print(f"  output_digest {entry['output_digest']}")


def _final_line(entries: Dict[str, Dict[str, Any]], spec: Dict[str, Any],
                traced: bool) -> Dict[str, Any]:
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics: Dict[str, Any] = {}
    for name, entry in entries.items():
        prefix = "" if len(entries) == 1 else f"{name}."
        for m in wanted:
            value = (
                entry["per_layer"].get(m["name"]) if traced
                else entry["metrics"][m["name"]]["value"]
            )
            if value is None:
                raise WorkerFailed(f"{name}: no value for {m['name']}")
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": all(e["correct"] for e in entries.values()),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }


def cmd_run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    # Stopped from outside, unwind through _spawn's cleanup so no worker
    # tree outlives this process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    report: Dict[str, Any] = {
        "argv": sys.argv[1:],
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace != "0",
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "env": environment(ROOT),
        "loadavg_1m_start": os.getloadavg()[0],
        "workloads": {},
    }
    try:
        for name in names:
            report["workloads"][name] = run_workload(args, name, spec)
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    report["loadavg_1m_end"] = os.getloadavg()[0]
    out = pathlib.Path(args.out) if args.out else (
        OUT / f"{args.workload}-seed{args.seed}"
        f"{'-trace' if report['trace'] else ''}-{os.getpid()}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    try:
        line = _final_line(report["workloads"], spec, report["trace"])
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, entry in report["workloads"].items():
        _print_entry(name, entry, report["trace"])
    print(f"result: {out}")
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="input seed (0 is the default; keep 1 for checking claims)",
    )
    # BENCHMARK.json's command is run with
    # ``--workload W --seed S --seconds <run_seconds> --trace 0|1``.
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per run (default: run_seconds of "
        "BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", default="0",
        help="0: untraced; 1 or DIR: add a traced run (spans in DIR)",
    )
    parser.add_argument("--out", help="result JSON path")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, for the benchmark's own tests",
    )
