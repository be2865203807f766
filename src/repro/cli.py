"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``designs``              — list the available LLC designs
* ``run``                  — run one design on one workload, print metrics
* ``figure <name>``        — regenerate one of the paper's figures/tables
* ``fleet run``            — rack-scale fleet simulation over many chips
* ``bench --suite <name>`` — gated benchmark suites
  (:data:`repro.bench.SUITES`): ``tracesim``, ``model``, ``faults``,
  ``obs``, ``fleet`` and ``serve``; each writes ``BENCH_<name>.json``
* ``serve run``            — placement-as-a-service HTTP daemon
  (:mod:`repro.serve`); ``serve loadgen`` drives it with N synthetic
  tenants and prints throughput/latency
* ``deadline <app>``       — print an LC app's computed deadline
* ``report``               — assemble results/ into a single SUMMARY.md
* ``obs summarize <trace>`` — summarize a captured observability trace

``run`` and ``figure`` accept ``--trace-out`` / ``--metrics-out``
(defaults: the ``REPRO_TRACE`` / ``REPRO_METRICS`` env knobs) to record
the run through :mod:`repro.obs`: a span/event trace (``.jsonl`` lines,
or Chrome trace-event JSON when the path ends in ``.json`` — loadable
in Perfetto) and a plain-text metrics snapshot.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .config import CORE_FREQ_HZ
from .core.designs import DESIGNS
from .metrics.speedup import weighted_speedup
from .model.api import run_model
from .model.system import compute_deadline_cycles
from .model.workload import make_default_workload
from .workloads.tailbench import lc_profile_names

__all__ = ["main", "build_parser"]

_FIGURES = (
    "fig2", "fig4", "fig5", "fig8", "fig9", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "table1", "table2", "table3",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Jumanji: The Case for Dynamic NUCA in "
            "the Datacenter' (MICRO 2020)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("designs", help="list available LLC designs")

    run = sub.add_parser("run", help="run one design on one workload")
    run.add_argument("design", choices=sorted(DESIGNS))
    run.add_argument(
        "--lc", default="xapian",
        help="LC app (or 'Mixed'); default xapian",
    )
    run.add_argument("--load", choices=("high", "low"), default="high")
    run.add_argument("--mix", type=int, default=0,
                     help="batch-mix seed")
    run.add_argument("--epochs", type=int, default=20)
    run.add_argument("--seed", type=int, default=0)
    _add_obs_outputs(run)

    fig = sub.add_parser(
        "figure", help="regenerate one of the paper's figures/tables"
    )
    fig.add_argument("name", choices=_FIGURES)
    fig.add_argument("--mixes", type=int, default=None)
    fig.add_argument("--epochs", type=int, default=None)
    fig.add_argument(
        "--jobs", type=int, default=None,
        help="parallel workers for sweep figures "
             "(default: REPRO_JOBS or cpu count)",
    )
    _add_obs_outputs(fig)

    fleet = sub.add_parser(
        "fleet",
        help="rack-scale fleet simulation (many chips, one scheduler)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    frun = fleet_sub.add_parser(
        "run",
        help="run one seeded fleet scenario and print canonical stats",
    )
    frun.add_argument(
        "--chips", type=int, default=None,
        help="sockets in the fleet (default: REPRO_FLEET_CHIPS or 64)",
    )
    frun.add_argument(
        "--epochs", type=int, default=None,
        help="100 ms fleet epochs (default: REPRO_FLEET_EPOCHS or 12)",
    )
    frun.add_argument("--seed", type=int, default=0)
    frun.add_argument(
        "--design", choices=sorted(DESIGNS), default="Jumanji",
        help="per-chip LLC design (default Jumanji)",
    )
    frun.add_argument(
        "--initial-tenants", type=int, default=None,
        help="tenants resident at epoch 0 (default: one per chip)",
    )
    frun.add_argument(
        "--arrival-rate", type=float, default=None,
        help="mean Poisson arrivals per epoch (default: chips/16)",
    )
    frun.add_argument(
        "--flash-prob", type=float, default=0.0,
        help="per-epoch probability a flash crowd starts (default 0)",
    )
    frun.add_argument(
        "--chip-failure", type=float, default=0.0,
        help="per-rack per-epoch failure probability (default 0)",
    )
    frun.add_argument(
        "--chip-repair", type=float, default=0.0,
        help="probability a failed chip is repairable; when it fires "
        "an MTTR delay is drawn and the chip rejoins (default 0)",
    )
    frun.add_argument(
        "--mttr", type=float, default=4.0,
        help="mean epochs a repair takes (exponential; default 4)",
    )
    frun.add_argument(
        "--chip-slow", type=float, default=0.0,
        help="per-chip per-epoch straggler probability: service "
        "times inflate and the scheduler deprioritises (default 0)",
    )
    frun.add_argument(
        "--slow-factor", type=float, default=2.0,
        help="service-time inflation on straggler chips (default 2)",
    )
    frun.add_argument(
        "--rack-size", type=int, default=8,
        help="chips per failure-correlation rack (default 8)",
    )
    frun.add_argument(
        "--admission-patience", type=int, default=4,
        help="epochs a deferred arrival waits before rejection "
        "(default 4)",
    )
    frun.add_argument(
        "--pending-limit", type=int, default=64,
        help="bound on the pending-arrivals queue (default 64)",
    )
    frun.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="crash-safe per-epoch journal; a killed run resumes "
        "from it byte-identically (default: "
        "REPRO_FLEET_CHECKPOINT)",
    )
    frun.add_argument(
        "--stats-out", default=None, metavar="PATH",
        help="also write the canonical fleet stats JSON to PATH",
    )
    _add_obs_outputs(frun)

    from .bench import SUITES, add_bench_arguments

    bench = sub.add_parser(
        "bench", help="gated benchmark suites: " + ", ".join(SUITES)
    )
    add_bench_arguments(bench)

    serve = sub.add_parser(
        "serve",
        help="placement-as-a-service daemon and its load generator",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    srun = serve_sub.add_parser(
        "run",
        help="run the HTTP placement daemon until interrupted",
    )
    srun.add_argument(
        "--host", default=None,
        help="bind address (default: REPRO_SERVE_HOST or 127.0.0.1)",
    )
    srun.add_argument(
        "--port", type=int, default=None,
        help="TCP port, 0 picks a free one "
        "(default: REPRO_SERVE_PORT or 8123)",
    )
    srun.add_argument(
        "--max-body", type=int, default=None,
        help="request-body byte limit before 413 "
        "(default: REPRO_SERVE_MAX_BODY or 1 MiB)",
    )
    sload = serve_sub.add_parser(
        "loadgen",
        help="drive a daemon with synthetic tenants; with no --port, "
        "spawns an in-process daemon on a free port",
    )
    sload.add_argument(
        "--tenants", type=int, default=8,
        help="concurrent tenant sessions (default 8)",
    )
    sload.add_argument(
        "--requests", type=int, default=10,
        help="telemetry posts per tenant (default 10)",
    )
    sload.add_argument("--seed", type=int, default=0)
    sload.add_argument(
        "--concurrency", type=int, default=None,
        help="driver threads (default: min(tenants, 8))",
    )
    sload.add_argument(
        "--host", default=None,
        help="daemon to target (default: spawn in-process)",
    )
    sload.add_argument(
        "--port", type=int, default=None,
        help="daemon port (default: spawn in-process)",
    )

    dl = sub.add_parser(
        "deadline", help="print an LC app's computed deadline"
    )
    dl.add_argument("app", choices=lc_profile_names())

    rep = sub.add_parser(
        "report",
        help="assemble results/ into a single SUMMARY.md",
    )
    rep.add_argument(
        "--results", default="results",
        help="directory holding per-figure reports (default results/)",
    )

    obs_cmd = sub.add_parser(
        "obs", help="inspect observability traces (repro.obs)"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    summ = obs_sub.add_parser(
        "summarize",
        help="top spans by self-time, event counts, retries, "
        "degradations",
    )
    summ.add_argument(
        "trace",
        help="trace file: .jsonl event log or Chrome trace-event .json",
    )
    summ.add_argument(
        "--top", type=int, default=10,
        help="span names to list (default 10)",
    )

    return parser


def _add_obs_outputs(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``repro.obs`` output flags to a subparser."""
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record a span/event trace (.jsonl lines, or Chrome "
        "trace-event JSON if PATH ends in .json; default: the "
        "REPRO_TRACE env knob)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a plain-text metrics snapshot (default: the "
        "REPRO_METRICS env knob)",
    )


def _cmd_designs() -> int:
    for name in DESIGNS:
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.lc == "Mixed":
        from .workloads.mixes import random_lc_mix

        lc_apps = list(random_lc_mix(args.mix))
    else:
        lc_apps = [args.lc]
    workload = make_default_workload(
        lc_apps, mix_seed=args.mix, load=args.load
    )
    static = run_model(
        design="Static", workload=workload, epochs=args.epochs,
        seed=args.seed,
    )
    result = (
        static
        if args.design == "Static"
        else run_model(
            design=args.design, workload=workload, epochs=args.epochs,
            seed=args.seed,
        )
    )
    speedup = weighted_speedup(
        result.batch_ipcs(), static.batch_ipcs()
    )
    print(f"design:            {result.design}")
    print(f"workload:          {args.lc} x4 + mix {args.mix}, "
          f"{args.load} load")
    print(f"batch speedup:     {speedup:.3f} (vs Static)")
    print("tail latency / deadline:")
    for app in sorted(result.lc_deadlines):
        print(f"  {app:<14s} {result.lc_tail_normalized(app):6.2f}")
    print(f"vulnerability:     {result.avg_vulnerability():.2f} "
          "attackers/access")
    print(f"avg LC allocation: {result.avg_lc_size():.2f} MB")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from . import experiments as E

    name = args.name
    kwargs = {}
    if args.mixes is not None:
        kwargs["mixes"] = args.mixes
    if args.epochs is not None:
        kwargs["epochs"] = args.epochs
    if args.jobs is not None and name in (
        "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig18",
    ):
        kwargs["jobs"] = args.jobs
    if name == "table2":
        print(E.tables.format_table2())
        return 0
    if name == "table3":
        print(E.tables.format_table3())
        return 0
    if name == "table1":
        print(E.tables.format_table1(E.tables.run_table1(**kwargs)))
        return 0
    if name in ("fig2", "fig8", "fig11"):
        kwargs.pop("mixes", None)
    if name == "fig2":
        kwargs.pop("epochs", None)
    if name == "fig11":
        kwargs.pop("epochs", None)
    if name == "fig12":
        kwargs.pop("epochs", None)
        if "mixes" in kwargs:
            kwargs["num_mixes"] = kwargs.pop("mixes")
    if name in ("fig4", "fig5", "fig9"):
        kwargs.pop("mixes", None)
    module = getattr(E, name)
    result = module.run(**kwargs)
    print(module.format_table(result))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Assemble the reproduction summary from per-figure reports."""
    import pathlib

    from .experiments.report import collect, write_summary

    results = pathlib.Path(args.results)
    if not results.is_dir():
        print(f"no results directory at {results}; run the benchmarks "
              "first (pytest benchmarks/ --benchmark-only)")
        return 1
    status = collect(results)
    write_summary(results)
    print(
        f"wrote {results / 'SUMMARY.md'} "
        f"({len(status.present)} artifacts, "
        f"{'complete' if status.complete else 'incomplete'})"
    )
    return 0


def _cmd_deadline(args: argparse.Namespace) -> int:
    cycles = compute_deadline_cycles(args.app)
    print(
        f"{args.app}: {cycles:.3g} cycles "
        f"({cycles / CORE_FREQ_HZ * 1e3:.2f} ms at 2.66 GHz)"
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``repro fleet run``: one seeded scenario, canonical stats out.

    Stdout is exactly the result's canonical JSON — no wall-clock, no
    unordered iteration — so two same-seed invocations are
    byte-identical (the acceptance gate). Exits non-zero if any fleet
    invariant (conservation/capacity/isolation) broke during the run.
    With ``--checkpoint`` (or ``REPRO_FLEET_CHECKPOINT``) each epoch
    is journalled as it completes, and a killed run resumes from the
    journal with byte-identical output.
    """
    import pathlib

    from .config import Settings
    from .faults import FaultPlan
    from .fleet import Scenario, run_fleet

    settings = Settings.from_env()
    chips = args.chips
    if chips is None:
        chips = settings.fleet_chips if settings.fleet_chips else 64
    epochs = args.epochs
    if epochs is None:
        epochs = settings.fleet_epochs if settings.fleet_epochs else 12
    plan = None
    if (
        args.chip_failure > 0.0
        or args.chip_repair > 0.0
        or args.chip_slow > 0.0
    ):
        plan = FaultPlan(
            seed=args.seed,
            chip_failure=args.chip_failure,
            chip_repair=args.chip_repair,
            chip_slow=args.chip_slow,
            repair_mttr_epochs=args.mttr,
            slow_service_factor=args.slow_factor,
        )
    scenario = Scenario(
        chips=chips,
        epochs=epochs,
        seed=args.seed,
        initial_tenants=args.initial_tenants,
        arrival_rate=args.arrival_rate,
        flash_prob=args.flash_prob,
        rack_size=args.rack_size,
        admission_patience=args.admission_patience,
        pending_limit=args.pending_limit,
        fault_plan=plan,
    )
    checkpoint = args.checkpoint or settings.fleet_checkpoint
    result = run_fleet(
        scenario, design=args.design, checkpoint=checkpoint
    )
    stats = result.to_json()
    print(stats)
    if args.stats_out:
        pathlib.Path(args.stats_out).write_text(stats + "\n")
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve run`` / ``repro serve loadgen``."""
    from . import obs
    from .serve import ServeDaemon
    from .serve.loadgen import run_loadgen

    if args.serve_command == "run":
        # Live metrics make /v1/metrics useful out of the box.
        obs.configure(enabled=True)
        daemon = ServeDaemon(
            host=args.host, port=args.port, max_body=args.max_body
        )
        print(f"repro serve: listening on "
              f"http://{daemon.host}:{daemon.port} (Ctrl-C to stop)")
        try:
            daemon.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            daemon.close()
        return 0

    # loadgen: target an existing daemon, or spawn one in-process.
    daemon = None
    host, port = args.host, args.port
    if port is None:
        obs.configure(enabled=True)
        daemon = ServeDaemon(host=host, port=0)
        daemon.start()
        host, port = daemon.host, daemon.port
        print(f"repro serve loadgen: in-process daemon on "
              f"http://{host}:{port}")
    try:
        report = run_loadgen(
            host or "127.0.0.1", port,
            tenants=args.tenants,
            requests=args.requests,
            seed=args.seed,
            concurrency=args.concurrency or min(args.tenants, 8),
        )
    finally:
        if daemon is not None:
            daemon.close()
    for key, value in report.summary().items():
        print(f"{key:<22s} {value}")
    for err in report.errors[:5]:
        print(f"error: {err}")
    for violation in report.violations[:5]:
        print(f"violation: {violation}")
    return 0 if report.ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    """``repro obs summarize``: digest a captured trace."""
    from .obs import format_summary, load_trace, summarize

    records = load_trace(args.trace)
    print(format_summary(summarize(records, top=args.top)))
    return 0


def _with_obs_outputs(args: argparse.Namespace, command) -> int:
    """Run ``command(args)`` capturing a trace/metrics if requested.

    The ``--trace-out`` / ``--metrics-out`` flags win; otherwise the
    ``REPRO_TRACE`` / ``REPRO_METRICS`` env knobs (via
    :class:`repro.config.Settings`) apply. With neither, observability
    stays disabled and the command runs untouched.
    """
    from . import obs
    from .config import Settings

    settings = Settings.from_env()
    trace = args.trace_out or settings.trace
    metrics = args.metrics_out or settings.metrics
    if not trace and not metrics:
        return command(args)
    obs.configure(trace=trace, metrics=metrics)
    try:
        return command(args)
    finally:
        written = obs.flush()
        for kind in ("trace", "metrics"):
            if written.get(kind):
                print(f"wrote {kind} {written[kind]}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "designs":
        return _cmd_designs()
    if args.command == "run":
        return _with_obs_outputs(args, _cmd_run)
    if args.command == "figure":
        return _with_obs_outputs(args, _cmd_figure)
    if args.command == "fleet":
        return _with_obs_outputs(args, _cmd_fleet)
    if args.command == "bench":
        from .bench import cmd_bench

        return cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "deadline":
        return _cmd_deadline(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "obs":
        return _cmd_obs(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
