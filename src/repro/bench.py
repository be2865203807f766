"""``repro bench``: timed sweep benchmarking with a machine-readable report.

Seven suites:

* ``--suite sweeps`` (default) runs the sweep-backed figures
  (Fig. 13-18) through the parallel runner and writes
  ``BENCH_sweeps.json`` recording, per figure: wall-clock seconds,
  cells computed vs. served from the result cache, the estimated serial
  cost (sum of per-cell compute durations), and the resulting speedup
  vs. that serial baseline. The serial estimate comes from the
  durations the cache records for every cell, so warm runs still report
  an honest speedup without re-running the sweep serially.

* ``--suite tracesim`` benchmarks the array-backed trace-simulator fast
  path (``repro.sim.tracesim``) against the frozen scalar reference
  (``repro.sim.reference``) on byte-identical replayed streams, checks
  the aggregate :class:`~repro.sim.tracesim.TraceStats` are
  bit-identical, shards per-seed trace runs over the runner pool
  (capped at 4 workers unless a job count is pinned — the cells are too
  small to amortise a bigger pool), and writes ``BENCH_tracesim.json``.
  ``--profile`` additionally dumps cProfile stats for one closed-loop
  simulated epoch.

* ``--suite model`` benchmarks the vectorised epoch engine against the
  frozen scalar reference (``repro.model.reference``) on the Fig. 13
  epoch loop: every (design, batch-mix) cell is run end-to-end through
  :class:`~repro.model.system.SystemModel` under both engines with the
  same seeds, the two :class:`~repro.model.system.RunResult` objects
  are required to be bit-identical (``stats_identical``), and the
  report records per-design and overall speedups plus placement-memo
  hit counts. Exits non-zero if any cell diverges or the deadline memo
  is unbounded. Writes ``BENCH_model.json``.

* ``--suite faults`` is the chaos smoke: it runs one mini-sweep twice
  on throwaway cache directories — once clean, once under a seeded
  :class:`~repro.faults.FaultPlan` injecting worker crashes, handler
  errors, and corrupt cache entries — and checks the outcomes are
  bit-identical (fault tolerance must never change results, only cost).
  It then re-runs over the now-dirty cache (quarantine + recompute
  path) and finishes with a degraded-runtime drill verifying the
  no-shared-banks security invariant holds through NaN/negative/dropped
  telemetry and injected placer failures. Writes ``BENCH_faults.json``
  and exits non-zero if any invariant breaks, so ``make check-faults``
  can gate on it.

* ``--suite obs`` gates the observability subsystem (``repro.obs``):
  disabled-mode instrumentation overhead on the Fig. 13 epoch loop must
  stay within :data:`OBS_OVERHEAD_GATE` of a fully stubbed run, an
  enabled run must cover every span in :data:`OBS_REQUIRED_SPANS` with
  a loadable trace, and two same-seed enabled runs must produce
  identical metric snapshots. Writes ``BENCH_obs.json`` and exits
  non-zero on any gate failure, so ``make bench-obs`` can gate on it.

* ``--suite fleet`` gates the rack-scale layer (``repro.fleet``): one
  seeded scenario (churn + flash crowds + rack-correlated failures) is
  run twice end to end; the two canonical results must serialise
  byte-identically (same-seed determinism), no conservation/capacity/
  isolation invariant may break in either run, and the report records
  chip-epochs/s throughput. Writes ``BENCH_fleet.json`` and exits
  non-zero on any gate failure, so ``make bench-fleet`` can gate on it.

* ``--suite serve`` gates the placement service (``repro.serve``): an
  in-process daemon is driven twice by the same seeded synthetic-tenant
  load (``N`` tenants x ``M`` telemetry posts each); both runs must
  finish with zero errors and zero invariant violations, the decision
  sequences must be byte-identical (same-seed determinism), and the
  report records decisions/s and client-observed p95 decision latency.
  Writes ``BENCH_serve.json`` and exits non-zero on any gate failure,
  so ``make bench-serve`` can gate on it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import __version__
from .config import Settings
from .runner import (
    ResultCache,
    collecting_stats,
    code_fingerprint,
    resolve_jobs,
)

__all__ = [
    "BENCH_FIGURES",
    "OBS_OVERHEAD_GATE",
    "OBS_REQUIRED_SPANS",
    "run_bench",
    "run_tracesim_bench",
    "run_model_bench",
    "run_faults_bench",
    "run_obs_bench",
    "run_fleet_bench",
    "run_serve_bench",
    "add_bench_arguments",
    "cmd_bench",
]


def _fig13(mixes: Optional[int], epochs: Optional[int],
           jobs: Optional[int]) -> None:
    from .experiments import fig13

    fig13.run(mixes=mixes, epochs=epochs, jobs=jobs)


def _fig14(mixes: Optional[int], epochs: Optional[int],
           jobs: Optional[int]) -> None:
    from .experiments import fig14

    fig14.run(mixes=mixes, epochs=epochs, jobs=jobs)


def _fig15(mixes: Optional[int], epochs: Optional[int],
           jobs: Optional[int]) -> None:
    from .experiments import fig15

    fig15.run(mixes=mixes, epochs=epochs, jobs=jobs)


def _fig16(mixes: Optional[int], epochs: Optional[int],
           jobs: Optional[int]) -> None:
    from .experiments import fig16

    fig16.run(mixes=mixes, epochs=epochs, jobs=jobs)


def _fig17(mixes: Optional[int], epochs: Optional[int],
           jobs: Optional[int]) -> None:
    from .experiments import fig17

    fig17.run(mixes=mixes, epochs=epochs, jobs=jobs)


def _fig18(mixes: Optional[int], epochs: Optional[int],
           jobs: Optional[int]) -> None:
    from .experiments import fig18

    fig18.run(mixes=mixes, epochs=epochs, jobs=jobs)


#: The sweep-backed figures ``repro bench`` can time.
BENCH_FIGURES: Dict[str, Callable[..., None]] = {
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": _fig16,
    "fig17": _fig17,
    "fig18": _fig18,
}


def run_bench(
    figures: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    mixes: Optional[int] = None,
    epochs: Optional[int] = None,
    cold: bool = False,
    output: Optional[os.PathLike] = None,
) -> Dict[str, Any]:
    """Benchmark the requested figures; returns (and writes) the report.

    With ``cold=True`` the result cache is cleared first, so every cell
    is recomputed. ``output`` defaults to ``BENCH_sweeps.json`` in the
    current directory; pass ``output=""``/None-like falsy to skip
    writing.
    """
    figures = list(figures) if figures else list(BENCH_FIGURES)
    unknown = [f for f in figures if f not in BENCH_FIGURES]
    if unknown:
        raise ValueError(
            f"unknown figures {unknown}; choose from "
            f"{sorted(BENCH_FIGURES)}"
        )
    jobs_resolved = resolve_jobs(jobs)
    cache = ResultCache()
    if cold:
        cache.clear()
    report: Dict[str, Any] = {
        "version": __version__,
        "code_fingerprint": code_fingerprint(),
        "jobs": jobs_resolved,
        "mixes": mixes,
        "epochs": epochs,
        "cold": cold,
        "cache_dir": str(cache.directory),
        "figures": {},
    }
    for name in figures:
        with collecting_stats() as stats:
            start = time.perf_counter()
            BENCH_FIGURES[name](mixes=mixes, epochs=epochs, jobs=jobs)
            wall = time.perf_counter() - start
        entry = stats.as_dict()
        # Figure wall-clock includes aggregation outside the runner.
        entry["wall_seconds"] = wall
        entry["speedup_vs_serial"] = (
            entry["serial_seconds_estimate"] / wall
            if wall > 0
            else float("inf")
        )
        report["figures"][name] = entry
    totals = {
        "cells": sum(
            f["cells"] for f in report["figures"].values()
        ),
        "computed": sum(
            f["computed"] for f in report["figures"].values()
        ),
        "cache_hits": sum(
            f["cache_hits"] for f in report["figures"].values()
        ),
        "wall_seconds": sum(
            f["wall_seconds"] for f in report["figures"].values()
        ),
        "serial_seconds_estimate": sum(
            f["serial_seconds_estimate"]
            for f in report["figures"].values()
        ),
    }
    totals["cache_hit_rate"] = (
        totals["cache_hits"] / totals["cells"] if totals["cells"] else 0.0
    )
    totals["speedup_vs_serial"] = (
        totals["serial_seconds_estimate"] / totals["wall_seconds"]
        if totals["wall_seconds"] > 0
        else float("inf")
    )
    report["total"] = totals
    if output is None:
        output = "BENCH_sweeps.json"
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    report["output"] = str(path)
    return report


# --------------------------------------------------------------------------
# tracesim suite
# --------------------------------------------------------------------------


def _tracesim_streams(
    accesses: int, config, seed: int = 0
) -> List[List[int]]:
    """Materialised per-core access streams for the benchmark workload.

    One third each of Zipf reuse, uniform working-set reuse, and
    streaming scans — miss-heavy enough that the LLC banks do real
    eviction/partition work. Generated once so the fast path and the
    scalar reference replay byte-identical streams and the measurement
    excludes trace-generation cost.
    """
    from .workloads.traces import (
        StreamingTrace,
        WorkingSetTrace,
        ZipfTrace,
    )

    streams = []
    for core in range(config.num_cores):
        if core % 3 == 0:
            trace = ZipfTrace(
                40_000, alpha=0.9, seed=seed * 1000 + core,
                base_line=core << 32,
            )
        elif core % 3 == 1:
            trace = WorkingSetTrace(
                30_000, seed=seed * 1000 + core, base_line=core << 32
            )
        else:
            trace = StreamingTrace(50_000, base_line=core << 32)
        streams.append(trace.lines(accesses))
    return streams


def _replay_sim(sim_cls, streams: List[List[int]], config):
    """A simulator instance with every core replaying its stream."""
    from .vtb.vtb import descriptor_from_allocation
    from .workloads.traces import ReplayTrace

    sim = sim_cls(config)
    for core, stream in enumerate(streams):
        group = (core % 4) * 5
        alloc = {bank: 1.0 for bank in range(group, group + 5)}
        sim.add_core(
            core,
            ReplayTrace(stream),
            vc_id=core,
            descriptor=descriptor_from_allocation(alloc),
        )
    return sim


def _timed_run(sim, accesses: int) -> Tuple[float, Dict]:
    start = time.perf_counter()
    sim.run(accesses)
    return time.perf_counter() - start, sim.stats()


def _profile_epoch(
    path: pathlib.Path, accesses_per_core: int
) -> Dict[str, Any]:
    """cProfile one closed-loop epoch; dump pstats to ``path``."""
    import cProfile
    import pstats

    from .core.designs import make_design
    from .sim.epochsim import ClosedLoopSimulation, TraceApp
    from .workloads.traces import WorkingSetTrace, ZipfTrace

    apps = []
    corners = [(0, 1), (4, 3), (15, 16), (19, 18)]
    for vm, (lc_core, batch_core) in enumerate(corners):
        apps.append(
            TraceApp(
                f"lc{vm}", lc_core, vm,
                ZipfTrace(3000, alpha=1.0, seed=vm), is_lc=True,
            )
        )
        apps.append(
            TraceApp(
                f"b{vm}", batch_core, vm,
                WorkingSetTrace(
                    5000, seed=100 + vm, base_line=10**7 * (vm + 1)
                ),
            )
        )
    sim = ClosedLoopSimulation(
        make_design("Jumanji"), apps,
        lat_sizes={f"lc{v}": 0.2 for v in range(4)},
    )
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run_epoch(accesses_per_core=accesses_per_core)
    profiler.disable()
    profiler.dump_stats(str(path))
    stats = pstats.Stats(profiler)
    return {
        "path": str(path),
        "total_calls": int(stats.total_calls),
        "total_seconds": float(stats.total_tt),
    }


def run_tracesim_bench(
    accesses: int = 20_000,
    seeds: int = 4,
    jobs: Optional[int] = None,
    cold: bool = False,
    profile: bool = False,
    output: Optional[os.PathLike] = None,
) -> Dict[str, Any]:
    """Benchmark the trace-simulator fast path; write the report.

    ``accesses`` is the per-core round count of the timed comparison
    (and of each sharded run); ``seeds`` is how many independent
    ``tracesim_run`` cells are fanned over the runner pool. With
    ``cold=True`` the result cache is cleared first. ``output`` defaults
    to ``BENCH_tracesim.json`` in the current directory.
    """
    from .config import SystemConfig
    from .sim.reference import ReferenceTraceSimulator
    from .sim.shard import shard_tracesim_runs
    from .sim.tracesim import TraceSimulator

    if accesses < 1:
        raise ValueError("need at least one access per core")
    if seeds < 1:
        raise ValueError("need at least one sharded seed run")
    jobs_resolved = resolve_jobs(jobs)
    # The sharded phase runs only a handful of small cells; spreading
    # them over a huge default pool pays more in worker spin-up than the
    # parallelism returns (and on busy many-core boxes the measured
    # "speedup" drops below 1x). Unless the caller pinned a job count
    # (arg or REPRO_JOBS), cap the shard pool at 4 workers and record
    # the pool size actually used in the report.
    if jobs is None and Settings.from_env().jobs is None:
        shard_jobs = min(4, os.cpu_count() or 1)
    else:
        shard_jobs = jobs_resolved
    cache = ResultCache()
    if cold:
        cache.clear()
    config = SystemConfig()
    streams = _tracesim_streams(accesses, config)
    total = accesses * config.num_cores

    fast_wall, fast_stats = _timed_run(
        _replay_sim(TraceSimulator, streams, config), accesses
    )
    ref_wall, ref_stats = _timed_run(
        _replay_sim(ReferenceTraceSimulator, streams, config), accesses
    )

    # Sharded per-seed runs through the pool + content-addressed cache.
    run_specs = [
        {
            "cores": [
                {
                    "core_id": core,
                    "trace": {
                        "kind": "zipf",
                        "num_lines": 20_000,
                        "alpha": 0.9,
                        "seed": seed * 1000 + core,
                        "base_line": core << 32,
                    },
                    "banks": [
                        (core % 4) * 5 + off for off in range(5)
                    ],
                    "partition": f"app{core}",
                }
                for core in range(config.num_cores)
            ],
            "rounds": accesses,
            "bank_sets": 64,
        }
        for seed in range(seeds)
    ]
    shard_start = time.perf_counter()
    _, runner = shard_tracesim_runs(run_specs, jobs=shard_jobs)
    shard_wall = time.perf_counter() - shard_start

    report: Dict[str, Any] = {
        "version": __version__,
        "suite": "tracesim",
        "code_fingerprint": code_fingerprint(),
        "jobs": jobs_resolved,
        "cold": cold,
        "cache_dir": str(cache.directory),
        "workload": {
            "cores": config.num_cores,
            "accesses_per_core": accesses,
            "total_accesses": total,
        },
        "scalar_reference": {
            "wall_seconds": ref_wall,
            "accesses_per_sec": total / ref_wall,
        },
        "fast_path": {
            "wall_seconds": fast_wall,
            "accesses_per_sec": total / fast_wall,
        },
        "speedup_vs_scalar": ref_wall / fast_wall,
        "stats_identical": fast_stats == ref_stats,
        "sharded_runs": dict(
            runner.stats.as_dict(),
            seeds=seeds,
            pool_jobs=shard_jobs,
            wall_seconds=shard_wall,
        ),
        "profile": None,
    }
    if output is None:
        output = "BENCH_tracesim.json"
    path = pathlib.Path(output)
    if profile:
        report["profile"] = _profile_epoch(
            path.with_suffix(".prof"), min(accesses, 5000)
        )
    path.write_text(json.dumps(report, indent=2) + "\n")
    report["output"] = str(path)
    return report


def cmd_tracesim_bench(args: argparse.Namespace) -> int:
    """CLI entry point for ``repro bench --suite tracesim``."""
    output = args.output
    if output == "BENCH_sweeps.json":
        # Default output name follows the suite.
        output = "BENCH_tracesim.json"
    report = run_tracesim_bench(
        accesses=args.accesses,
        seeds=args.seeds,
        jobs=args.jobs,
        cold=args.cold,
        profile=args.profile,
        output=output,
    )
    ref = report["scalar_reference"]
    fast = report["fast_path"]
    shards = report["sharded_runs"]
    print(
        f"tracesim: {report['workload']['total_accesses']:,} accesses "
        f"x {report['workload']['cores']} cores, jobs={report['jobs']}"
    )
    print(
        f"  scalar reference: {ref['accesses_per_sec']:,.0f} acc/s "
        f"({ref['wall_seconds']:.2f}s)"
    )
    print(
        f"  fast path:        {fast['accesses_per_sec']:,.0f} acc/s "
        f"({fast['wall_seconds']:.2f}s)"
    )
    print(
        f"  speedup {report['speedup_vs_scalar']:.2f}x, stats "
        f"identical: {report['stats_identical']}"
    )
    print(
        f"  sharded runs: {shards['computed']} computed + "
        f"{shards['cache_hits']} cached cells in "
        f"{shards['wall_seconds']:.2f}s "
        f"(pool of {shards['pool_jobs']})"
    )
    if report["profile"]:
        print(f"  profile: {report['profile']['path']}")
    print(f"wrote {report['output']}")
    return 0


# --------------------------------------------------------------------------
# model suite (vectorised epoch engine vs scalar reference)
# --------------------------------------------------------------------------


def _canonical_run_result(result) -> Tuple:
    """A :class:`~repro.model.system.RunResult` as plain comparable data.

    Covers every per-epoch observable (tails, sizes, IPCs,
    vulnerability, the full energy breakdown) and every post-warmup
    latency sample, so ``==`` between two canonical forms means the two
    engines agreed bit-for-bit.
    """
    return (
        result.design,
        result.load,
        result.warmup_epochs,
        tuple(sorted(result.lc_deadlines.items())),
        tuple(
            (app, tuple(lats))
            for app, lats in sorted(result.lc_all_latencies.items())
        ),
        tuple(
            (
                e.epoch,
                tuple(sorted(e.lc_tails.items())),
                tuple(sorted(e.lc_sizes.items())),
                tuple(sorted(e.batch_ipcs.items())),
                e.vulnerability,
                tuple(sorted(vars(e.energy).items())),
            )
            for e in result.epochs
        ),
    )


#: Per-design speedup floors (batched engine vs scalar reference),
#: enforced when the bench runs at or above :data:`MODEL_FLOOR_MIXES`
#: mixes — an Adaptive-speedup regression fails the bench. Below that
#: scale (CI smoke at 1-2 mixes, where fixed per-run overheads dominate
#: and timings are noisy) only :data:`MODEL_SMOKE_FLOOR` applies.
MODEL_SPEEDUP_FLOORS: Dict[str, float] = {
    "Static": 4.0,
    "Adaptive": 3.0,
    "VM-Part": 8.0,
    "Jigsaw": 10.0,
    "Jumanji": 8.0,
}

#: Overall (sum-of-reference / sum-of-batch) floor at full scale.
MODEL_OVERALL_FLOOR = 10.0

#: Mix count at which the full per-design floors kick in.
MODEL_FLOOR_MIXES = 8

#: Floor applied below :data:`MODEL_FLOOR_MIXES` mixes: catches only a
#: catastrophic regression (batch slower than reference) without making
#: tiny smoke runs flaky.
MODEL_SMOKE_FLOOR = 0.5


def run_model_bench(
    mixes: int = 2,
    epochs: Optional[int] = None,
    designs: Optional[List[str]] = None,
    lc_workload: str = "xapian",
    load: str = "high",
    output: Optional[os.PathLike] = None,
) -> Dict[str, Any]:
    """Benchmark the batched multi-mix epoch engine on the Fig. 13 loop.

    Each design runs once as a single
    :class:`~repro.model.batch.BatchSystemModel` over all ``mixes``
    mixes (one fused queueing kernel per epoch), then once per mix
    under the frozen scalar reference engine with the same seeds and a
    fresh workload each; every per-mix ``RunResult`` pair must be
    bit-identical. Deadlines are prewarmed (they are a shared
    ``lru_cache`` both engines hit) so the timing covers the epoch loop
    itself. Per-design speedups are gated against
    :data:`MODEL_SPEEDUP_FLOORS` when ``mixes`` is at least
    :data:`MODEL_FLOOR_MIXES`. ``output`` defaults to
    ``BENCH_model.json``.
    """
    from .core.designs import make_design
    from .experiments.common import (
        DEFAULT_DESIGNS,
        num_epochs,
        run_seed,
    )
    from .model.batch import BatchSystemModel
    from .model.system import (
        SystemModel,
        compute_deadline_cycles,
        deadline_cache_info,
    )
    from .model.workload import make_default_workload
    from .workloads.mixes import base_app

    if mixes < 1:
        raise ValueError("need at least one batch mix")
    epochs = epochs if epochs is not None else num_epochs()
    designs = list(designs) if designs else list(DEFAULT_DESIGNS)
    at_scale = mixes >= MODEL_FLOOR_MIXES

    # Warm the (shared, bounded) deadline cache outside the timing.
    probe = make_default_workload([lc_workload], mix_seed=0, load=load)
    for app in probe.lc_apps:
        compute_deadline_cycles(
            base_app(app), router_delay=probe.config.router_delay
        )

    seeds = [run_seed(0, m) for m in range(mixes)]
    cells: List[Dict[str, Any]] = []
    per_design: Dict[str, Dict[str, Any]] = {}
    for design_name in designs:
        # One batched run across every mix in lockstep.
        batch_model = BatchSystemModel(
            design_name,
            [
                make_default_workload(
                    [lc_workload], mix_seed=m, load=load
                )
                for m in range(mixes)
            ],
            seeds=seeds,
        )
        start = time.perf_counter()
        batch_results = batch_model.run(epochs)
        batch_wall = time.perf_counter() - start

        # Per-mix scalar reference runs, same seeds, fresh workloads.
        ref_wall = 0.0
        for mix_seed, batch_result in enumerate(batch_results):
            workload = make_default_workload(
                [lc_workload], mix_seed=mix_seed, load=load
            )
            ref_model = SystemModel(
                make_design(design_name), workload,
                seed=seeds[mix_seed], engine="reference",
            )
            start = time.perf_counter()
            ref_result = ref_model.run(epochs)
            cell_wall = time.perf_counter() - start
            ref_wall += cell_wall
            cells.append(
                {
                    "design": design_name,
                    "mix_seed": mix_seed,
                    "reference_seconds": cell_wall,
                    "identical": _canonical_run_result(batch_result)
                    == _canonical_run_result(ref_result),
                }
            )

        floor = (
            MODEL_SPEEDUP_FLOORS.get(design_name, MODEL_SMOKE_FLOOR)
            if at_scale
            else MODEL_SMOKE_FLOOR
        )
        speedup = ref_wall / batch_wall
        placement_hits = batch_model.memo_hits
        subepoch_hits = batch_model.subepoch_hits
        per_design[design_name] = {
            "batch_seconds": batch_wall,
            "reference_seconds": ref_wall,
            "speedup": speedup,
            "speedup_floor": floor,
            "floor_ok": speedup >= floor,
            # Placement-level + sub-epoch (per-app descriptor) hits;
            # both matter — Adaptive memoizes at sub-epoch granularity.
            "memo_hits": placement_hits + subepoch_hits,
            "placement_memo_hits": placement_hits,
            "subepoch_memo_hits": subepoch_hits,
            "memo_misses": sum(
                m.runtime.memo_misses for m in batch_model.models
            ),
            "stages": batch_model.stage_times.as_dict(),
        }

    batch_total = sum(
        e["batch_seconds"] for e in per_design.values()
    )
    ref_total = sum(
        e["reference_seconds"] for e in per_design.values()
    )
    stats_identical = all(c["identical"] for c in cells)
    overall_speedup = ref_total / batch_total
    overall_floor = (
        MODEL_OVERALL_FLOOR if at_scale else MODEL_SMOKE_FLOOR
    )
    floors_ok = (
        all(e["floor_ok"] for e in per_design.values())
        and overall_speedup >= overall_floor
    )
    stages_total: Dict[str, float] = {}
    for entry in per_design.values():
        for stage, seconds in entry["stages"].items():
            stages_total[stage] = (
                stages_total.get(stage, 0.0) + seconds
            )
    info = deadline_cache_info()
    report: Dict[str, Any] = {
        "version": __version__,
        "suite": "model",
        "code_fingerprint": code_fingerprint(),
        "workload": {
            "designs": designs,
            "lc_workload": lc_workload,
            "load": load,
            "mixes": mixes,
            "epochs": epochs,
        },
        "cells": cells,
        "per_design": per_design,
        "batch_seconds": batch_total,
        "reference_seconds": ref_total,
        "speedup": overall_speedup,
        "speedup_floor": overall_floor,
        "floors_enforced": at_scale,
        "floors_ok": floors_ok,
        "stages": stages_total,
        "stats_identical": stats_identical,
        "memo": {
            "hits": sum(
                e["memo_hits"] for e in per_design.values()
            ),
            "misses": sum(
                e["memo_misses"] for e in per_design.values()
            ),
        },
        "deadline_cache": {
            "maxsize": info.maxsize,
            "currsize": info.currsize,
            "bounded": info.maxsize is not None,
        },
        "ok": stats_identical
        and floors_ok
        and info.maxsize is not None,
    }
    if output is None:
        output = "BENCH_model.json"
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    report["output"] = str(path)
    return report


def cmd_model_bench(args: argparse.Namespace) -> int:
    """CLI entry point for ``repro bench --suite model``."""
    settings = Settings.from_env()
    output = args.output
    if output == "BENCH_sweeps.json":
        output = "BENCH_model.json"
    mixes = args.mixes
    if mixes is None:
        mixes = settings.bench_mixes
    if mixes is None:
        mixes = 2
    epochs = args.epochs
    if epochs is None:
        epochs = settings.bench_epochs
    report = run_model_bench(
        mixes=mixes,
        epochs=epochs,
        output=output,
    )
    wl = report["workload"]
    print(
        f"model: {len(wl['designs'])} designs x {wl['mixes']} mixes "
        f"x {wl['epochs']} epochs ({wl['lc_workload']}/{wl['load']})"
    )
    for name, entry in report["per_design"].items():
        flag = "" if entry["floor_ok"] else "  << BELOW FLOOR"
        print(
            f"  {name:<10s} batch {entry['batch_seconds']:.2f}s vs "
            f"reference {entry['reference_seconds']:.2f}s "
            f"({entry['speedup']:.2f}x, floor "
            f"{entry['speedup_floor']:.1f}x, "
            f"{entry['memo_hits']} memo hits){flag}"
        )
        st = entry["stages"]
        print(
            f"  {'':<10s} stages: placer {st['placer']:.2f}s, "
            f"memo {st['memo']:.2f}s, queueing {st['queueing']:.2f}s, "
            f"metrics {st['metrics']:.2f}s"
        )
    print(
        f"  overall: {report['speedup']:.2f}x "
        f"(floor {report['speedup_floor']:.1f}x"
        f"{', enforced' if report['floors_enforced'] else ', smoke'}), "
        f"stats identical: {report['stats_identical']}, "
        f"deadline cache bounded: "
        f"{report['deadline_cache']['bounded']}"
    )
    print(f"wrote {report['output']}")
    if not report["ok"]:
        print(
            "MODEL SUITE FAILED: engines diverged, a speedup floor "
            "was missed, or the deadline cache is unbounded"
        )
        return 1
    return 0


# --------------------------------------------------------------------------
# faults suite (chaos smoke)
# --------------------------------------------------------------------------


def run_faults_bench(
    fault_seed: int = 0,
    jobs: Optional[int] = None,
    mixes: int = 2,
    epochs: int = 3,
    drill_epochs: int = 12,
    output: Optional[os.PathLike] = None,
) -> Dict[str, Any]:
    """The chaos smoke: differential sweep + degraded-runtime drill.

    Runs entirely on throwaway cache directories (the user's result
    cache is never touched), so every invocation exercises the cold
    compute path, the retry/crash-recovery machinery, and — on the
    second faulty pass — the corrupt-entry quarantine path. Sets
    ``report["ok"]`` only if the faulty sweeps are bit-identical to the
    clean one *and* the drill never violated bank isolation.
    """
    import shutil
    import tempfile

    from .chaos import degraded_runtime_cell, differential_sweep
    from .faults import FaultPlan
    from .runner import RetryPolicy, SweepRunner, compute_cell

    jobs_resolved = resolve_jobs(jobs)
    sweep_kwargs = dict(
        designs=("Static", "Jumanji"),
        lc_workloads=("xapian",),
        loads=("high",),
        mixes=mixes,
        epochs=epochs,
    )
    sweep_plan = FaultPlan(
        seed=fault_seed,
        worker_crash=0.3,
        cell_error=0.2,
        cache_corrupt=0.4,
    )
    policy = RetryPolicy(retries=6, backoff_seconds=0.01)
    clean_dir = tempfile.mkdtemp(prefix="repro-faults-clean-")
    faulty_dir = tempfile.mkdtemp(prefix="repro-faults-chaos-")
    try:
        clean_runner = SweepRunner(
            jobs=jobs_resolved, cache=ResultCache(clean_dir)
        )
        faulty_runner = SweepRunner(
            jobs=jobs_resolved,
            cache=ResultCache(faulty_dir),
            policy=policy,
            fault_plan=sweep_plan,
        )
        start = time.perf_counter()
        cold_identical, clean_outcomes, _ = differential_sweep(
            clean_runner, faulty_runner, **sweep_kwargs
        )
        cold_wall = time.perf_counter() - start
        # Second pass over the possibly-corrupted cache: quarantine and
        # recompute instead of failing, still bit-identical.
        warm_runner = SweepRunner(
            jobs=jobs_resolved,
            cache=ResultCache(faulty_dir),
            policy=policy,
            fault_plan=sweep_plan,
        )
        start = time.perf_counter()
        warm_identical, _, _ = differential_sweep(
            clean_runner, warm_runner, **sweep_kwargs
        )
        warm_wall = time.perf_counter() - start
    finally:
        shutil.rmtree(clean_dir, ignore_errors=True)
        shutil.rmtree(faulty_dir, ignore_errors=True)

    drill_plan = FaultPlan(
        seed=fault_seed,
        telemetry_nan=0.25,
        telemetry_negative=0.2,
        telemetry_drop=0.2,
        cell_error=0.3,
    )
    drill = compute_cell(
        degraded_runtime_cell(
            epochs=drill_epochs, plan=drill_plan.as_params()
        )
    )

    ok = bool(cold_identical and warm_identical and drill["isolation_ok"])
    report: Dict[str, Any] = {
        "version": __version__,
        "suite": "faults",
        "code_fingerprint": code_fingerprint(),
        "jobs": jobs_resolved,
        "fault_seed": fault_seed,
        "sweep_plan": sweep_plan.as_params(),
        "drill_plan": drill_plan.as_params(),
        "differential": {
            "cells": len(clean_outcomes),
            "cold_identical": cold_identical,
            "cold_wall_seconds": cold_wall,
            "cold_stats": faulty_runner.stats.as_dict(),
            "warm_identical": warm_identical,
            "warm_wall_seconds": warm_wall,
            "warm_stats": warm_runner.stats.as_dict(),
        },
        "drill": {
            "epochs": drill["epochs"],
            "isolation_ok": drill["isolation_ok"],
            "shared_bank_epochs": drill["shared_bank_epochs"],
            "degraded_epochs": drill["degraded_epochs"],
            "telemetry_events": drill["telemetry_events"],
            "placement_events": drill["placement_events"],
        },
        "ok": ok,
    }
    if output is None:
        output = "BENCH_faults.json"
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    report["output"] = str(path)
    return report


def cmd_faults_bench(args: argparse.Namespace) -> int:
    """CLI entry point for ``repro bench --suite faults``."""
    output = args.output
    if output == "BENCH_sweeps.json":
        output = "BENCH_faults.json"
    report = run_faults_bench(
        fault_seed=args.fault_seed,
        jobs=args.jobs,
        mixes=args.mixes if args.mixes is not None else 2,
        epochs=args.epochs if args.epochs is not None else 3,
        output=output,
    )
    diff = report["differential"]
    drill = report["drill"]
    print(
        f"faults: seed={report['fault_seed']}, jobs={report['jobs']}, "
        f"{diff['cells']} sweep cells"
    )
    print(
        f"  cold chaos sweep: identical={diff['cold_identical']} "
        f"({diff['cold_wall_seconds']:.2f}s, "
        f"{diff['cold_stats']['retries']} retries, "
        f"{diff['cold_stats']['pool_respawns']} pool respawns)"
    )
    print(
        f"  warm chaos sweep: identical={diff['warm_identical']} "
        f"({diff['warm_wall_seconds']:.2f}s, "
        f"{diff['warm_stats']['quarantined']} quarantined)"
    )
    print(
        f"  degraded-runtime drill: isolation_ok={drill['isolation_ok']} "
        f"over {drill['epochs']} epochs "
        f"({len(drill['degraded_epochs'])} degraded, "
        f"{drill['telemetry_events']} telemetry drops)"
    )
    print(f"wrote {report['output']}")
    if not report["ok"]:
        print("FAULT SUITE FAILED: see report above")
        return 1
    return 0


# --------------------------------------------------------------------------
# obs suite (observability overhead gate)
# --------------------------------------------------------------------------


#: Span names a traced model run must produce for the observability
#: subsystem to count as covering the 100 ms loop end to end.
OBS_REQUIRED_SPANS = frozenset(
    {
        "model.epoch",
        "runtime.reconfigure",
        "controller.update",
        "placer.allocate",
        "placer.latcrit",
        "placer.lookahead",
        "placer.jumanji",
    }
)

#: Disabled-mode overhead gate: instrumented-but-disabled must cost at
#: most this fraction more than the same code with the instrumentation
#: stubbed out entirely.
OBS_OVERHEAD_GATE = 0.02


def run_obs_bench(
    epochs: Optional[int] = None,
    repeats: int = 51,
    lc_workload: str = "xapian",
    load: str = "high",
    output: Optional[os.PathLike] = None,
) -> Dict[str, Any]:
    """Gate the observability subsystem: zero-cost off, complete on.

    Three checks on the Fig. 13 epoch loop (Jumanji, one mix):

    * **overhead** — ``repeats`` pairs of the disabled-but-instrumented
      run and the same run with every ``repro.obs`` hook swapped for a
      bare stub (:func:`repro.obs.uninstrumented`); which side runs
      first alternates from pair to pair, so host-speed drift within a
      pair does not land on one side. The median of the per-pair
      ratios must stay within :data:`OBS_OVERHEAD_GATE`; their
      quartiles are reported as the spread.
    * **coverage** — an enabled run must produce every span in
      :data:`OBS_REQUIRED_SPANS` and write a loadable trace + metrics
      snapshot.
    * **determinism** — two enabled same-seed runs must produce
      identical metric snapshots (no wall-clock leaks into values).
    """
    import tempfile

    from . import obs
    from .core.designs import make_design
    from .experiments.common import num_epochs, run_seed
    from .model.system import SystemModel, compute_deadline_cycles
    from .model.workload import make_default_workload
    from .workloads.mixes import base_app

    if repeats < 2:
        raise ValueError("need at least two timing pairs")
    epochs = epochs if epochs is not None else num_epochs()
    seed = run_seed(0, 0)

    def one_run():
        workload = make_default_workload(
            [lc_workload], mix_seed=0, load=load
        )
        model = SystemModel(
            make_design("Jumanji"), workload, seed=seed
        )
        return model.run(epochs)

    # Warm shared caches (deadline lru_cache, imports, numpy) outside
    # the timed region.
    probe = make_default_workload([lc_workload], mix_seed=0, load=load)
    for app in probe.lc_apps:
        compute_deadline_cycles(
            base_app(app), router_delay=probe.config.router_delay
        )
    one_run()

    def timed_run(stubbed: bool) -> float:
        # As timeit does: collect first and keep the collector off while
        # timing, so a collection owed to earlier allocations does not
        # land on one side of a pair.
        gc.collect()
        gc.disable()
        try:
            with obs.uninstrumented() if stubbed else contextlib.nullcontext():
                start = time.perf_counter()
                one_run()
                return time.perf_counter() - start
        finally:
            gc.enable()

    obs.reset()  # ensure disabled for the timing passes
    disabled_times: List[float] = []
    stub_times: List[float] = []
    for i in range(repeats):
        if i % 2 == 0:
            disabled_times.append(timed_run(stubbed=False))
            stub_times.append(timed_run(stubbed=True))
        else:
            stub_times.append(timed_run(stubbed=True))
            disabled_times.append(timed_run(stubbed=False))
    overheads = [d / s - 1.0 for d, s in zip(disabled_times, stub_times)]
    quartiles = statistics.quantiles(overheads, n=4, method="inclusive")
    overhead = statistics.median(overheads)
    overhead_ok = overhead <= OBS_OVERHEAD_GATE

    # Coverage + determinism: two enabled same-seed runs.
    snapshots: List[Dict[str, Any]] = []
    span_names: set = set()
    trace_loadable = False
    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(2):
            obs.reset()
            trace = os.path.join(tmp, f"trace{attempt}.jsonl")
            metrics = os.path.join(tmp, f"metrics{attempt}.txt")
            obs.configure(trace=trace, metrics=metrics)
            try:
                one_run()
            finally:
                obs.flush()
            snapshots.append(obs.metrics().snapshot())
            records = obs.load_trace(trace)
            span_names |= {
                r["name"] for r in records if r.get("type") == "span"
            }
            trace_loadable = bool(records)
            obs.reset()
    missing = sorted(OBS_REQUIRED_SPANS - span_names)
    coverage_ok = not missing and trace_loadable
    deterministic = snapshots[0] == snapshots[1]

    ok = overhead_ok and coverage_ok and deterministic
    report: Dict[str, Any] = {
        "version": __version__,
        "suite": "obs",
        "code_fingerprint": code_fingerprint(),
        "workload": {
            "design": "Jumanji",
            "lc_workload": lc_workload,
            "load": load,
            "epochs": epochs,
            "repeats": repeats,
        },
        "overhead": {
            "disabled_seconds": disabled_times,
            "stub_seconds": stub_times,
            "pair_overheads": overheads,
            "overhead_quartiles": quartiles,
            "overhead": overhead,
            "gate": OBS_OVERHEAD_GATE,
            "ok": overhead_ok,
        },
        "coverage": {
            "spans": sorted(span_names),
            "required": sorted(OBS_REQUIRED_SPANS),
            "missing": missing,
            "trace_loadable": trace_loadable,
            "ok": coverage_ok,
        },
        "determinism": {"identical_snapshots": deterministic},
        "ok": ok,
    }
    if output is None:
        output = "BENCH_obs.json"
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    report["output"] = str(path)
    return report


def cmd_obs_bench(args: argparse.Namespace) -> int:
    """CLI entry point for ``repro bench --suite obs``."""
    output = args.output
    if output == "BENCH_sweeps.json":
        output = "BENCH_obs.json"
    report = run_obs_bench(epochs=args.epochs, output=output)
    wl = report["workload"]
    oh = report["overhead"]
    cov = report["coverage"]
    print(
        f"obs: {wl['design']}/{wl['lc_workload']}/{wl['load']}, "
        f"{wl['epochs']} epochs x {wl['repeats']} repeats"
    )
    q1, _, q3 = oh["overhead_quartiles"]
    print(
        f"  disabled overhead: {oh['overhead']:+.2%} median of "
        f"{wl['repeats']} pairs (gate {oh['gate']:.0%}, quartiles "
        f"{q1:+.2%} / {q3:+.2%})"
    )
    print(
        f"  span coverage: {len(cov['spans'])} names, "
        f"missing: {cov['missing'] or 'none'}"
    )
    print(
        f"  deterministic metrics: "
        f"{report['determinism']['identical_snapshots']}"
    )
    print(f"wrote {report['output']}")
    if not report["ok"]:
        print("OBS SUITE FAILED: see report above")
        return 1
    return 0


def run_fleet_bench(
    chips: Optional[int] = None,
    epochs: Optional[int] = None,
    seed: int = 0,
    output: Optional[os.PathLike] = None,
) -> Dict[str, Any]:
    """Gate the rack-scale fleet layer: determinism + invariants.

    Runs one seeded scenario — diurnal load, Poisson churn, a possible
    flash crowd, and rack-correlated chip failures — twice end to end:

    * **determinism** — the two canonical results must serialise
      byte-identically (``FleetResult.to_json``); any wall-clock or
      iteration-order leak fails the gate.
    * **invariants** — neither run may record a conservation, capacity,
      or isolation violation (``FleetResult.ok``).
    * **throughput** — chip-epochs/s for the slower run is recorded so
      regressions in the hierarchical epoch loop show up in the report.
    * **resilience storm** — a failure-heavy scenario (correlated rack
      failures, repairable chips, stragglers, bounded admission queue)
      must finish with zero invariant violations, at least one
      completed repair, and repaired chips back in service.
    * **checkpoint/resume** — a run killed mid-flight and resumed from
      its ``--checkpoint`` journal must serialise byte-identically to
      an uninterrupted run of the same scenario.
    """
    from .faults import FaultPlan
    from .fleet import Fleet, FleetJournal, Scenario, run_fleet

    settings = Settings.from_env()
    if chips is None:
        chips = settings.fleet_chips or 32
    if epochs is None:
        epochs = settings.fleet_epochs or 10
    scenario = Scenario(
        chips=chips,
        epochs=epochs,
        seed=seed,
        flash_prob=0.1,
        fault_plan=FaultPlan(seed=seed, chip_failure=0.02),
    )

    runs: List[Dict[str, Any]] = []
    payloads: List[str] = []
    for _ in range(2):
        start = time.perf_counter()
        result = run_fleet(scenario)
        wall = time.perf_counter() - start
        payloads.append(result.to_json())
        runs.append(
            {
                "wall_seconds": wall,
                "chip_epochs_per_s": chips * epochs / wall,
                "ok": result.ok,
                "counters": dict(result.counters),
                "invariant_violations": list(
                    result.invariant_violations
                ),
            }
        )

    deterministic = payloads[0] == payloads[1]
    invariants_ok = all(r["ok"] for r in runs)

    # Resilience storm: failures every epoch, most chips repairable,
    # stragglers, and enough churn that repaired sockets are needed
    # again. The gate requires the self-healing loop to demonstrably
    # close: repairs completed, repaired chips back in service, and
    # not a single invariant violated under the storm.
    storm = Scenario(
        chips=chips,
        epochs=epochs,
        seed=seed,
        rack_size=2,
        arrival_rate=2.0,
        flash_prob=0.2,
        admission_patience=3,
        pending_limit=16,
        fault_plan=FaultPlan(
            seed=seed,
            chip_failure=0.08,
            chip_repair=0.9,
            chip_slow=0.1,
            repair_mttr_epochs=2.0,
        ),
    )
    storm_fleet = Fleet(storm)
    storm_result = storm_fleet.run()
    repaired = sorted(storm_fleet.repaired_chips)
    serving = [
        chip_id
        for chip_id in repaired
        if storm_fleet.chips[chip_id].alive
        and storm_fleet.chips[chip_id].tenants
    ]
    storm_ok = (
        storm_result.ok
        and storm_result.counters.get("repairs", 0) > 0
        and bool(serving)
    )

    # Checkpoint/resume: journal a small storm run, abandon it halfway
    # (the in-process stand-in for kill -9; the chaos test suite does
    # the real subprocess kill), then resume from the journal and
    # demand byte-identity with an uninterrupted run.
    ck_scenario = Scenario(
        chips=min(chips, 8),
        epochs=max(4, min(epochs, 8)),
        seed=seed,
        rack_size=2,
        flash_prob=0.1,
        admission_patience=3,
        pending_limit=8,
        fault_plan=FaultPlan(
            seed=seed,
            chip_failure=0.05,
            chip_repair=0.8,
            chip_slow=0.08,
            repair_mttr_epochs=2.0,
        ),
    )
    uninterrupted = run_fleet(ck_scenario).to_json()
    interrupt_at = ck_scenario.epochs // 2
    with tempfile.TemporaryDirectory() as tmp:
        ck_path = pathlib.Path(tmp) / "fleet.journal"
        killed = Fleet(ck_scenario)
        journal = FleetJournal(ck_path)
        journal.write_header(ck_scenario.as_params(), "Jumanji")
        killed.attach_journal(journal)
        killed.setup()
        for epoch in range(interrupt_at):
            killed.step(epoch)
        del killed  # the "crash": only the journal survives
        resumed = run_fleet(
            ck_scenario, checkpoint=ck_path
        ).to_json()
    resume_identical = resumed == uninterrupted

    ok = (
        deterministic and invariants_ok and storm_ok
        and resume_identical
    )
    report: Dict[str, Any] = {
        "version": __version__,
        "suite": "fleet",
        "code_fingerprint": code_fingerprint(),
        "scenario": scenario.as_params(),
        "runs": runs,
        "chip_epochs_per_s": min(
            r["chip_epochs_per_s"] for r in runs
        ),
        "determinism": {"identical_results": deterministic},
        "invariants": {"ok": invariants_ok},
        "resilience": {
            "scenario": storm.as_params(),
            "counters": dict(storm_result.counters),
            "invariant_violations": list(
                storm_result.invariant_violations
            ),
            "repaired_chips": repaired,
            "repaired_serving": serving,
            "ok": storm_ok,
        },
        "checkpoint": {
            "scenario": ck_scenario.as_params(),
            "interrupted_at_epoch": interrupt_at,
            "resume_identical": resume_identical,
            "ok": resume_identical,
        },
        "ok": ok,
    }
    if output is None:
        output = "BENCH_fleet.json"
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    report["output"] = str(path)
    return report


def cmd_fleet_bench(args: argparse.Namespace) -> int:
    """CLI entry point for ``repro bench --suite fleet``."""
    output = args.output
    if output == "BENCH_sweeps.json":
        output = "BENCH_fleet.json"
    report = run_fleet_bench(
        chips=args.chips,
        epochs=args.epochs,
        seed=args.fault_seed,
        output=output,
    )
    sc = report["scenario"]
    print(
        f"fleet: {sc['chips']} chips x {sc['epochs']} epochs, "
        f"seed {sc['seed']}"
    )
    for i, run in enumerate(report["runs"]):
        counters = run["counters"]
        print(
            f"  run {i}: {run['wall_seconds']:.2f}s "
            f"({run['chip_epochs_per_s']:.0f} chip-epochs/s), "
            f"{counters['admissions']} admissions, "
            f"{counters['migrations']} migrations, "
            f"{counters['chips_lost']} chips lost, "
            f"{len(run['invariant_violations'])} violations"
        )
    print(
        f"  deterministic results: "
        f"{report['determinism']['identical_results']}"
    )
    res = report["resilience"]
    print(
        f"  resilience storm: {res['counters']['repairs']} repairs, "
        f"{len(res['repaired_serving'])} repaired chip(s) serving, "
        f"{len(res['invariant_violations'])} violations "
        f"-> {'ok' if res['ok'] else 'FAILED'}"
    )
    ck = report["checkpoint"]
    print(
        f"  checkpoint/resume: killed at epoch "
        f"{ck['interrupted_at_epoch']}, byte-identical resume: "
        f"{ck['resume_identical']}"
    )
    print(f"wrote {report['output']}")
    if not report["ok"]:
        print("FLEET SUITE FAILED: see report above")
        return 1
    return 0


#: Daemon-side stages of one decision, in request order (``obs`` span
#: names without the ``serve.`` prefix). ``other`` in the stage table is
#: ``request`` less these: routing, ``report_latencies`` and building
#: the ``Decision``.
SERVE_STAGES = ("parse", "lock_wait", "decide", "encode", "write")


def _serve_stage_table(scripts) -> Dict[str, Any]:
    """Where a served decision's time goes, next to the in-process cost.

    Replays ``scripts`` twice, one decision at a time: straight into a
    :class:`~repro.serve.PlacementService` (the ceiling: what a decision
    costs without HTTP), then through a fresh daemon. ``obs`` collection
    is on for both passes, so the ratio of the two carries the same
    span cost on each side. Requests never overlap, so each telemetry
    request's stage spans are exactly the ones that closed since the
    previous request's ``serve.request`` span.
    """
    from . import obs
    from .serve import PlacementService, ServeDaemon
    from .serve.loadgen import run_loadgen
    from .sim.queueing import percentile

    ceiling: List[float] = []
    obs.reset()
    obs.configure(enabled=True)
    try:
        service = PlacementService()
        for script in scripts:
            info = service.create_session(script.create)
            for epoch in range(len(script.factors)):
                telemetry = script.telemetry(info, epoch)
                start = time.perf_counter()
                service.decide(info.session_id, telemetry)
                ceiling.append((time.perf_counter() - start) * 1e3)
        # Only the daemon pass's spans go into the stage table.
        obs.reset()
        obs.configure(enabled=True)
        with ServeDaemon(port=0) as daemon:
            staged = run_loadgen(
                daemon.host,
                daemon.port,
                tenants=len(scripts),
                requests=len(scripts[0].factors),
                concurrency=1,
                scripts=scripts,
            )
        records = obs.events()
    finally:
        obs.reset()

    per_stage: Dict[str, List[float]] = {
        name: [] for name in SERVE_STAGES + ("request",)
    }
    pending: Dict[str, float] = {}
    for rec in records:
        name = rec.get("name", "")
        if rec.get("type") != "span" or not name.startswith("serve."):
            continue
        stage = name[len("serve."):]
        ms = rec["dur_us"] / 1e3
        if stage != "request":
            pending[stage] = pending.get(stage, 0.0) + ms
            continue
        if rec.get("args", {}).get("path", "").endswith("/telemetry"):
            per_stage["request"].append(ms)
            for other in SERVE_STAGES:
                per_stage[other].append(pending.get(other, 0.0))
        pending = {}

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    stages = {name: mean(per_stage[name]) for name in SERVE_STAGES}
    stages["other"] = mean(per_stage["request"]) - sum(stages.values())
    roundtrip_mean = mean(staged.latencies_ms)
    ceiling_mean = mean(ceiling)
    return {
        "decisions": len(per_stage["request"]),
        "stage_mean_ms": stages,
        "request_mean_ms": mean(per_stage["request"]),
        "roundtrip_mean_ms": roundtrip_mean,
        "roundtrip_p50_ms": staged.latency_ms(50.0),
        "roundtrip_p95_ms": staged.latency_ms(95.0),
        "inprocess_decide_mean_ms": ceiling_mean,
        "inprocess_decide_p50_ms": percentile(ceiling, 50.0),
        "inprocess_decide_p95_ms": percentile(ceiling, 95.0),
        "http_overhead_ratio": roundtrip_mean / ceiling_mean,
        "ok": staged.ok,
    }


def run_serve_bench(
    tenants: Optional[int] = None,
    requests: Optional[int] = None,
    seed: int = 0,
    output: Optional[os.PathLike] = None,
) -> Dict[str, Any]:
    """Gate the placement service: throughput + determinism.

    Boots an in-process :class:`~repro.serve.ServeDaemon` on a free
    port and drives it twice with the same seeded synthetic-tenant
    script (``repro.serve.loadgen``):

    * **correctness** — both runs must finish with zero client errors
      and zero invariant violations (epoch echo, positive ``lat_sizes``,
      LC apps present in every non-degraded allocation).
    * **determinism** — the per-tenant decision fingerprints (canonical
      JSON of each decision minus the session id) must be
      byte-identical between the runs: same telemetry script in, same
      placement sequence out.
    * **throughput** — decisions/s and client-observed p50/p95 decision
      latency of the slower run are recorded so regressions in the
      request path show up in the report.
    * **stages** — one more, sequential pass splits the daemon's time
      per decision into :data:`SERVE_STAGES` next to the in-process
      ``PlacementService.decide`` ceiling (:func:`_serve_stage_table`);
      reported, not gated.
    """
    from .serve import ServeDaemon
    from .serve.loadgen import build_scripts, run_loadgen

    if tenants is None:
        tenants = 40
    if requests is None:
        requests = 25

    runs: List[Dict[str, Any]] = []
    fingerprints: List[Dict[int, List[str]]] = []
    with ServeDaemon(port=0) as daemon:
        for _ in range(2):
            report_run = run_loadgen(
                daemon.host,
                daemon.port,
                tenants=tenants,
                requests=requests,
                seed=seed,
            )
            fingerprints.append(report_run.fingerprints)
            runs.append(
                {
                    "wall_seconds": report_run.wall_seconds,
                    "decisions": report_run.decisions,
                    "decisions_per_s": report_run.decisions_per_sec,
                    "p50_decision_ms": report_run.latency_ms(50.0),
                    "p95_decision_ms": report_run.latency_ms(95.0),
                    "errors": list(report_run.errors),
                    "invariant_violations": list(
                        report_run.violations
                    ),
                    "ok": report_run.ok,
                }
            )

    stages = _serve_stage_table(
        build_scripts(tenants, requests, seed=seed)
    )
    correct = all(r["ok"] for r in runs)
    complete = all(
        r["decisions"] == tenants * requests for r in runs
    )
    deterministic = fingerprints[0] == fingerprints[1]
    ok = correct and complete and deterministic
    report: Dict[str, Any] = {
        "version": __version__,
        "suite": "serve",
        "code_fingerprint": code_fingerprint(),
        "tenants": tenants,
        "requests_per_tenant": requests,
        "seed": seed,
        "runs": runs,
        "decisions_per_s": min(r["decisions_per_s"] for r in runs),
        "p95_decision_ms": max(r["p95_decision_ms"] for r in runs),
        "determinism": {"identical_decisions": deterministic},
        "invariants": {"ok": correct, "complete": complete},
        "stages": stages,
        "ok": ok,
    }
    if output is None:
        output = "BENCH_serve.json"
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    report["output"] = str(path)
    return report


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """CLI entry point for ``repro bench --suite serve``."""
    output = args.output
    if output == "BENCH_sweeps.json":
        output = "BENCH_serve.json"
    report = run_serve_bench(
        tenants=args.tenants,
        requests=args.requests,
        seed=args.fault_seed,
        output=output,
    )
    print(
        f"serve: {report['tenants']} tenants x "
        f"{report['requests_per_tenant']} requests, "
        f"seed {report['seed']}"
    )
    for i, run in enumerate(report["runs"]):
        print(
            f"  run {i}: {run['decisions']} decisions in "
            f"{run['wall_seconds']:.2f}s "
            f"({run['decisions_per_s']:.0f}/s), "
            f"p95 {run['p95_decision_ms']:.1f} ms, "
            f"{len(run['errors'])} errors, "
            f"{len(run['invariant_violations'])} violations"
        )
    print(
        f"  deterministic decisions: "
        f"{report['determinism']['identical_decisions']}"
    )
    stages = report["stages"]
    print(
        f"  daemon stages, mean ms per decision "
        f"({stages['decisions']} sequential decisions, obs on):"
    )
    for name, ms in stages["stage_mean_ms"].items():
        print(f"    {name:<10} {ms:8.3f}")
    print(f"    {'request':<10} {stages['request_mean_ms']:8.3f}")
    print(
        f"  round trip: mean {stages['roundtrip_mean_ms']:.3f} ms, "
        f"p50 {stages['roundtrip_p50_ms']:.3f}, "
        f"p95 {stages['roundtrip_p95_ms']:.3f}"
    )
    print(
        f"  in-process decide (obs on): mean "
        f"{stages['inprocess_decide_mean_ms']:.3f} ms, "
        f"p50 {stages['inprocess_decide_p50_ms']:.3f}, "
        f"p95 {stages['inprocess_decide_p95_ms']:.3f}"
    )
    print(
        f"  HTTP overhead (round-trip mean / in-process mean): "
        f"{stages['http_overhead_ratio']:.2f}x"
    )
    print(f"wrote {report['output']}")
    if not report["ok"]:
        print("SERVE SUITE FAILED: see report above")
        return 1
    return 0


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro bench`` options to a subparser."""
    parser.add_argument(
        "--suite",
        choices=("sweeps", "tracesim", "model", "faults", "obs",
                 "fleet", "serve"),
        default="sweeps",
        help="what to benchmark: figure sweeps (default), the "
        "trace-simulator fast path, the vectorised epoch engine, "
        "the fault-injection chaos smoke, the observability "
        "overhead gate, the rack-scale fleet gate, or the "
        "placement-service gate",
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        choices=sorted(BENCH_FIGURES),
        default=None,
        help="figures to benchmark (default: all sweep figures)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel workers (default: REPRO_JOBS or cpu count)",
    )
    parser.add_argument("--mixes", type=int, default=None,
                        help="batch mixes per workload")
    parser.add_argument("--epochs", type=int, default=None,
                        help="epochs per run")
    parser.add_argument(
        "--cold",
        action="store_true",
        help="clear the result cache first (force full recompute)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_sweeps.json",
        help="report path (default BENCH_sweeps.json, or "
        "BENCH_tracesim.json for --suite tracesim)",
    )
    parser.add_argument(
        "--accesses",
        type=int,
        default=20_000,
        help="tracesim suite: accesses per core (default 20000)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=4,
        help="tracesim suite: independent sharded seed runs "
        "(default 4)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="tracesim suite: dump cProfile stats for one simulated "
        "epoch next to the report",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="faults/fleet suite: scenario + FaultPlan seed "
        "(default 0)",
    )
    parser.add_argument(
        "--chips",
        type=int,
        default=None,
        help="fleet suite: sockets in the fleet "
        "(default REPRO_FLEET_CHIPS or 32)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="serve suite: concurrent tenant sessions (default 40)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="serve suite: telemetry posts per tenant (default 25)",
    )


def cmd_bench(args: argparse.Namespace) -> int:
    """CLI entry point for ``repro bench``."""
    if args.suite == "tracesim":
        return cmd_tracesim_bench(args)
    if args.suite == "model":
        return cmd_model_bench(args)
    if args.suite == "faults":
        return cmd_faults_bench(args)
    if args.suite == "obs":
        return cmd_obs_bench(args)
    if args.suite == "fleet":
        return cmd_fleet_bench(args)
    if args.suite == "serve":
        return cmd_serve_bench(args)
    report = run_bench(
        figures=args.figures,
        jobs=args.jobs,
        mixes=args.mixes,
        epochs=args.epochs,
        cold=args.cold,
        output=args.output,
    )
    print(
        f"bench: {len(report['figures'])} figure(s), "
        f"jobs={report['jobs']}, cache={report['cache_dir']}"
    )
    for name, entry in report["figures"].items():
        print(
            f"  {name}: {entry['wall_seconds']:.2f}s wall, "
            f"{entry['computed']} computed + "
            f"{entry['cache_hits']} cached cells, "
            f"{entry['speedup_vs_serial']:.1f}x vs serial"
        )
    total = report["total"]
    print(
        f"  total: {total['wall_seconds']:.2f}s wall, "
        f"cache hit rate {total['cache_hit_rate']:.0%}, "
        f"{total['speedup_vs_serial']:.1f}x vs serial"
    )
    print(f"wrote {report['output']}")
    return 0
