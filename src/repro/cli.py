"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``designs``              — list the available LLC designs
* ``run``                  — run one design on one workload, print metrics
* ``reproduce``            — regenerate every artifact of the paper's
  evaluation into ``results/`` plus ``SUMMARY.md``, checking the
  paper's claims (exit 1 if any fails)
* ``figure <name>``        — regenerate and print one artifact
* ``fleet run``            — rack-scale fleet simulation over many chips
* ``serve run``            — placement-as-a-service HTTP daemon
  (:mod:`repro.serve`); ``serve loadgen`` drives it with N synthetic
  tenants and prints throughput/latency
* ``deadline <app>``       — print an LC app's computed deadline
* ``obs summarize <trace>`` — summarize a captured observability trace

Timing is not a ``repro`` command: the ``bench`` package at the
repository root times what users run end to end
(``python3 -m bench run --workload W``).

``run``, ``reproduce``, ``figure`` and ``fleet run`` accept
``--trace-out`` / ``--metrics-out`` (defaults: the ``REPRO_TRACE`` /
``REPRO_METRICS`` env knobs) to record the run through
:mod:`repro.obs`: a span/event trace (``.jsonl`` lines, or Chrome
trace-event JSON when the path ends in ``.json`` — loadable in
Perfetto) and a plain-text metrics snapshot.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .config import CORE_FREQ_HZ, Settings
from .core.designs import DESIGNS
from .experiments.common import SCALES
from .experiments.report import ARTIFACTS
from .metrics.speedup import weighted_speedup
from .model.api import run_model
from .model.system import compute_deadline_cycles
from .model.workload import make_default_workload
from .workloads.tailbench import lc_profile_names

__all__ = ["main", "build_parser"]


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

    rep = sub.add_parser(
        "reproduce",
        help="regenerate every artifact and SUMMARY.md; exit 1 if any "
        "of the paper's claims fails",
    )
    _add_scale_arguments(rep)
    rep.add_argument(
        "--seed", type=int, default=Settings.from_env().seed,
        help="base RNG seed of the sweep figures "
        "(default: REPRO_SEED or 0)",
    )
    rep.add_argument(
        "--out", default="results",
        help="directory for the artifacts and SUMMARY.md "
        "(default results/)",
    )
    _add_obs_outputs(rep)

    fig = sub.add_parser(
        "figure",
        help="regenerate and print one artifact with its claims",
    )
    fig.add_argument("name", choices=[a.stem for a in ARTIFACTS])
    _add_scale_arguments(fig)
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
        "--chips", type=int, default=64,
        help="sockets in the fleet (default 64)",
    )
    frun.add_argument(
        "--epochs", type=int, default=12,
        help="100 ms fleet epochs (default 12)",
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
        "from it byte-identically",
    )
    frun.add_argument(
        "--stats-out", default=None, metavar="PATH",
        help="also write the canonical fleet stats JSON to PATH",
    )
    _add_obs_outputs(frun)

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


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared reproduction flags to a subparser."""
    parser.add_argument(
        "--scale", choices=list(SCALES), default="paper",
        help="sweep size: "
        + ", ".join(str(s) for s in SCALES.values())
        + " (default paper)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="parallel workers for the sweep figures "
        "(default: REPRO_JOBS or cpu count)",
    )


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


def _print_claims(claims) -> int:
    """Print failed claims and the tally; the exit code they imply."""
    failed = [c for c in claims if not c.ok]
    for c in failed:
        print(f"CLAIM FAILED: {c.name} (value {c.value})")
    print(f"claims: {len(claims) - len(failed)}/{len(claims)} hold")
    return 1 if failed else 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate every artifact and SUMMARY.md under ``--out``."""
    from .experiments import report

    claims = report.reproduce(
        SCALES[args.scale], args.out, seed=args.seed, jobs=args.jobs,
        log=print,
    )
    print(f"wrote {len(claims)} artifacts and SUMMARY.md to {args.out}")
    return _print_claims([c for rows in claims.values() for c in rows])


def _cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate one artifact and print it with its claims."""
    from .experiments import report

    (text, claims), = report.run_artifacts(
        [args.name], SCALES[args.scale], jobs=args.jobs
    ).values()
    print(text, end="")
    return _print_claims(claims)


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
    With ``--checkpoint`` each epoch is journalled as it completes, and
    a killed run resumes from the journal with byte-identical output.
    """
    import pathlib

    from .faults import FaultPlan
    from .fleet import Scenario, run_fleet

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
        chips=args.chips,
        epochs=args.epochs,
        seed=args.seed,
        initial_tenants=args.initial_tenants,
        arrival_rate=args.arrival_rate,
        flash_prob=args.flash_prob,
        rack_size=args.rack_size,
        admission_patience=args.admission_patience,
        pending_limit=args.pending_limit,
        fault_plan=plan,
    )
    result = run_fleet(
        scenario, design=args.design, checkpoint=args.checkpoint
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
    if args.command == "reproduce":
        return _with_obs_outputs(args, _cmd_reproduce)
    if args.command == "figure":
        return _with_obs_outputs(args, _cmd_figure)
    if args.command == "fleet":
        return _with_obs_outputs(args, _cmd_fleet)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "deadline":
        return _cmd_deadline(args)
    if args.command == "obs":
        return _cmd_obs(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
