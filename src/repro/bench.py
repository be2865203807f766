"""``repro bench``: gated suites, each writing one machine-readable report.

:data:`SUITES` maps each ``--suite`` name to its run function, default
report path, CLI-argument mapping and headline keys; :func:`cmd_bench`
is the one driver. It runs the suite, stamps ``version``, ``suite`` and
``code_fingerprint`` on the report, writes it (``--output``, default
``BENCH_<suite>.json``), prints the headline keys and gates, and exits
non-zero when the report's ``ok`` is false, so ``make check`` can gate
on every suite. Each suite measures something no test does:

* ``tracesim`` — the array-backed trace simulator against the frozen
  scalar reference on identical replayed streams, plus per-seed runs
  sharded over the runner pool (:func:`run_tracesim_bench`);
* ``model`` — the batched epoch engine against the frozen scalar
  reference on the Fig. 13 loop, bit-identity and speedup floors
  (:func:`run_model_bench`);
* ``obs`` — the cost of disabled instrumentation against a stubbed
  run (:func:`run_obs_bench`).

Correctness gates (fault-injected sweeps, the fleet's determinism,
invariants and resume, the daemon's clean and deterministic decisions)
are tests: ``make check-faults`` and ``make check-resilience`` run the
slow ones. End-to-end timing of what users run (cold sweeps, batched
model runs, fleet churn, served decisions) lives in the ``bench``
package at the repository root, not here.
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
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from . import __version__
from .config import Settings
from .runner import ResultCache, SweepRunner, code_fingerprint, resolve_jobs

__all__ = [
    "OBS_OVERHEAD_GATE",
    "SUITES",
    "run_tracesim_bench",
    "run_model_bench",
    "run_obs_bench",
    "add_bench_arguments",
    "cmd_bench",
]


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
    profile: Optional[os.PathLike] = None,
) -> Dict[str, Any]:
    """Benchmark the trace-simulator fast path against the reference.

    ``accesses`` is the per-core round count of the timed comparison
    (and of each sharded run); ``seeds`` is how many independent
    ``tracesim_run`` cells are fanned over the runner pool, on a
    throwaway result cache so every run computes every cell. With
    ``profile`` set, cProfile stats of one closed-loop epoch are dumped
    there.
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
    config = SystemConfig()
    streams = _tracesim_streams(accesses, config)
    total = accesses * config.num_cores

    fast_wall, fast_stats = _timed_run(
        _replay_sim(TraceSimulator, streams, config), accesses
    )
    ref_wall, ref_stats = _timed_run(
        _replay_sim(ReferenceTraceSimulator, streams, config), accesses
    )

    # Sharded per-seed runs through the pool and an empty cache: the
    # user's shared cache would serve a second run without computing.
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
    with tempfile.TemporaryDirectory(prefix="repro-tracesim-") as tmp:
        runner = SweepRunner(jobs=shard_jobs, cache=ResultCache(tmp))
        shard_start = time.perf_counter()
        shard_tracesim_runs(run_specs, runner=runner)
        shard_wall = time.perf_counter() - shard_start

    stats_identical = fast_stats == ref_stats
    return {
        "jobs": jobs_resolved,
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
        "stats_identical": stats_identical,
        "sharded_runs": dict(
            runner.stats.as_dict(),
            seeds=seeds,
            pool_jobs=shard_jobs,
            wall_seconds=shard_wall,
        ),
        "profile": _profile_epoch(
            pathlib.Path(profile), min(accesses, 5000)
        ) if profile else None,
        "ok": stats_identical,
    }


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

#: Timed passes per engine and design; the best one counts.
MODEL_TIMING_REPEATS = 3


def run_model_bench(
    mixes: int = 2,
    epochs: int = 20,
    designs: Optional[List[str]] = None,
    lc_workload: str = "xapian",
    load: str = "high",
) -> Dict[str, Any]:
    """Benchmark the batched multi-mix epoch engine on the Fig. 13 loop.

    Each design runs as a single
    :class:`~repro.model.batch.BatchSystemModel` over all ``mixes``
    mixes (one fused queueing kernel per epoch), and per mix under the
    frozen scalar reference engine with the same seeds and a fresh
    workload each; every per-mix ``RunResult`` pair must be
    bit-identical. Deadlines are prewarmed (they are a shared
    ``lru_cache`` both engines hit), and each design warms both engines
    untimed on one extra mix, so the timing covers the epoch loop
    itself; each engine's time is its best of
    :data:`MODEL_TIMING_REPEATS` passes, every batched pass starting
    from an empty curve-combination cache. Per-design speedups are
    gated against :data:`MODEL_SPEEDUP_FLOORS` when ``mixes`` is at
    least :data:`MODEL_FLOOR_MIXES`.
    """
    from .cache import misscurve
    from .core.designs import make_design
    from .experiments.common import DEFAULT_DESIGNS, run_seed
    from .model.batch import BatchSystemModel
    from .model.reference import ReferenceSystemModel
    from .model.system import compute_deadline_cycles, deadline_cache_info
    from .model.workload import make_default_workload
    from .workloads.mixes import base_app

    if mixes < 1:
        raise ValueError("need at least one batch mix")
    designs = list(designs) if designs else list(DEFAULT_DESIGNS)
    at_scale = mixes >= MODEL_FLOOR_MIXES

    # Warm the (shared, bounded) deadline cache outside the timing.
    probe = make_default_workload([lc_workload], mix_seed=0, load=load)
    for app in probe.lc_apps:
        compute_deadline_cycles(
            base_app(app), router_delay=probe.config.router_delay
        )

    def batch_pass(design_name: str, mix_seeds: Sequence[int]):
        """One timed batched run over ``mix_seeds``, from a cold
        curve-combination cache."""
        model = BatchSystemModel(
            design_name,
            [
                make_default_workload([lc_workload], mix_seed=m, load=load)
                for m in mix_seeds
            ],
            seeds=[run_seed(0, m) for m in mix_seeds],
        )
        with misscurve._COMBINE_LOCK:
            misscurve._COMBINE_CACHE.clear()
        start = time.perf_counter()
        results = model.run(epochs)
        return time.perf_counter() - start, model, results

    def reference_pass(design_name: str, mix_seed: int):
        """One timed scalar reference run of one mix."""
        model = ReferenceSystemModel(
            make_design(design_name),
            make_default_workload([lc_workload], mix_seed=mix_seed, load=load),
            seed=run_seed(0, mix_seed),
        )
        start = time.perf_counter()
        result = model.run(epochs)
        return time.perf_counter() - start, result

    cells: List[Dict[str, Any]] = []
    per_design: Dict[str, Dict[str, Any]] = {}
    for design_name in designs:
        # Warm both engines' code paths untimed, on a mix no timed pass
        # uses; then each engine's time is its best of
        # MODEL_TIMING_REPEATS passes, so one host stall does not decide
        # a gate over millisecond timings.
        batch_pass(design_name, [mixes])
        reference_pass(design_name, mixes)
        batch_wall, batch_model, batch_results = min(
            (
                batch_pass(design_name, range(mixes))
                for _ in range(MODEL_TIMING_REPEATS)
            ),
            key=lambda run: run[0],
        )

        ref_wall = 0.0
        for mix_seed, batch_result in enumerate(batch_results):
            cell_wall, ref_result = min(
                (
                    reference_pass(design_name, mix_seed)
                    for _ in range(MODEL_TIMING_REPEATS)
                ),
                key=lambda run: run[0],
            )
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
    return {
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


#: Disabled-mode overhead gate: instrumented-but-disabled must cost at
#: most this fraction more than the same code with the instrumentation
#: stubbed out entirely.
OBS_OVERHEAD_GATE = 0.02


def run_obs_bench(
    epochs: int = 20,
    repeats: int = 51,
    lc_workload: str = "xapian",
    load: str = "high",
) -> Dict[str, Any]:
    """Gate the observability subsystem's cost when it is switched off.

    Times ``repeats`` pairs of the Fig. 13 epoch loop (Jumanji, one
    mix): the disabled-but-instrumented run and the same run with every
    ``repro.obs`` hook swapped for a bare stub
    (:func:`repro.obs.uninstrumented`). Which side runs first alternates
    from pair to pair, so host-speed drift within a pair does not land
    on one side. The median of the per-pair ratios must stay within
    :data:`OBS_OVERHEAD_GATE`; their quartiles are reported as the
    spread. Span coverage and snapshot determinism of an enabled run
    are tests (``tests/test_obs.py``), not part of this suite.
    """
    from . import obs
    from .core.designs import make_design
    from .experiments.common import run_seed
    from .model.system import SystemModel, compute_deadline_cycles
    from .model.workload import make_default_workload
    from .workloads.mixes import base_app

    if repeats < 2:
        raise ValueError("need at least two timing pairs")
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

    return {
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
        "ok": overhead_ok,
    }


class Suite(NamedTuple):
    """One ``repro bench`` suite: what runs it and what it reports."""

    #: Measures and gates; returns the report with its verdict in ``ok``.
    run: Callable[..., Dict[str, Any]]
    #: Report path when ``--output`` is not given.
    output: str
    #: The run function's keyword arguments from the parsed CLI
    #: arguments and the resolved report path.
    kwargs: Callable[[argparse.Namespace, pathlib.Path], Dict[str, Any]]
    #: Dotted report keys printed after a run: headline numbers, then
    #: the gates behind ``ok``.
    headline: Tuple[str, ...]


def _given(**kwargs: Any) -> Dict[str, Any]:
    """``kwargs`` minus the options left unset on the command line."""
    return {k: v for k, v in kwargs.items() if v is not None}


SUITES: Dict[str, Suite] = {
    "tracesim": Suite(
        run_tracesim_bench,
        "BENCH_tracesim.json",
        lambda a, path: _given(
            accesses=a.accesses, seeds=a.seeds, jobs=a.jobs,
            profile=path.with_suffix(".prof") if a.profile else None,
        ),
        (
            "speedup_vs_scalar", "fast_path.accesses_per_sec",
            "scalar_reference.accesses_per_sec", "sharded_runs.computed",
            "sharded_runs.cache_hits", "sharded_runs.wall_seconds",
            "stats_identical",
        ),
    ),
    "model": Suite(
        run_model_bench,
        "BENCH_model.json",
        lambda a, path: _given(mixes=a.mixes, epochs=a.epochs),
        (
            "speedup", "batch_seconds", "reference_seconds",
            "stages.placer", "speedup_floor", "floors_ok",
            "stats_identical", "deadline_cache.bounded",
        ),
    ),
    "obs": Suite(
        run_obs_bench,
        "BENCH_obs.json",
        lambda a, path: _given(epochs=a.epochs),
        (
            "overhead.overhead", "overhead.overhead_quartiles",
            "overhead.ok",
        ),
    ),
}


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro bench`` options to a subparser."""
    parser.add_argument(
        "--suite",
        choices=list(SUITES),
        required=True,
        help="; ".join(
            f"{name}: {suite.run.__doc__.splitlines()[0].rstrip('.')}"
            for name, suite in SUITES.items()
        ),
    )
    # Unset options fall through to the run function's defaults.
    parser.add_argument("--jobs", type=int,
                        help="tracesim: sharded-run workers (default: "
                        "REPRO_JOBS, else at most 4)")
    parser.add_argument("--mixes", type=int,
                        help="model: mixes per design batch (default 2)")
    parser.add_argument("--epochs", type=int,
                        help="model/obs: epochs per run (default 20)")
    parser.add_argument("--output",
                        help="report path (default BENCH_<suite>.json)")
    parser.add_argument("--accesses", type=int,
                        help="tracesim: accesses per core (default 20000)")
    parser.add_argument("--seeds", type=int,
                        help="tracesim: independent sharded seed runs "
                        "(default 4)")
    parser.add_argument("--profile", action="store_true",
                        help="tracesim: dump cProfile stats for one "
                        "simulated epoch next to the report")

def _lookup(report: Dict[str, Any], dotted: str) -> Any:
    for key in dotted.split("."):
        report = report[key]
    return report


def cmd_bench(args: argparse.Namespace) -> int:
    """CLI entry point for ``repro bench``: run, stamp, write, print."""
    suite = SUITES[args.suite]
    path = pathlib.Path(args.output or suite.output)
    report = {
        "version": __version__,
        "suite": args.suite,
        "code_fingerprint": code_fingerprint(),
        **suite.run(**suite.kwargs(args, path)),
    }
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{args.suite}:")
    for key in suite.headline:
        value = _lookup(report, key)
        print(f"  {key}: {value:.6g}" if isinstance(value, float)
              else f"  {key}: {value}")
    print(f"  ok: {report['ok']}")
    print(f"wrote {path}")
    if not report["ok"]:
        print(f"{args.suite.upper()} SUITE FAILED: see {path}")
        return 1
    return 0
