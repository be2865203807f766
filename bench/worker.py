"""Run one workload in this fresh process and write its result as JSON.

``python -m bench run`` starts one of these per workload (and per
set-up sample, and per traced run), so module-level caches of the
program never carry over from one workload or run to the next.
``setup_s`` counts from the top of this module, before ``repro`` is
imported, to the start of the first timed operation, in reference
seconds (``bench.hostspeed``).
"""

import time

ENTRY = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict  # noqa: E402

from . import hostspeed, trace  # noqa: E402
from .workloads import LOAD_WORKERS, WORKLOADS, Measurement  # noqa: E402


def _summary(m: Measurement) -> Dict[str, Any]:
    lat = sorted(m.latencies_ms)
    return {
        "ops_per_s": m.rate(),
        "ops_per_wall_s": m.wall_rate(),
        "op_p50_ms": trace.percentile(lat, 50),
        "op_p95_ms": trace.percentile(lat, 95),
        "peak_rss_mb": m.peak_rss_mb,
        "attempted": m.attempted,
        "failed": m.failed,
        "ops": m.ops,
        "rounds": m.rounds,
        "measured_s": m.wall_s,
        "op_samples": len(lat),
        "round_rates": m.rates,
        "output_digest": m.digest,
        "details": m.details,
    }


def run(args: argparse.Namespace) -> Dict[str, Any]:
    run_dir = pathlib.Path(args.run_dir)
    trace_dir = pathlib.Path(args.trace_dir) if args.trace_dir else None
    recorder = trace.Recorder(trace_dir) if trace_dir else trace.NULL
    workload = WORKLOADS[args.workload](
        args.seed, run_dir, smoke=args.smoke, recorder=recorder
    )
    result: Dict[str, Any] = {"workload": args.workload, "pid": os.getpid()}
    try:
        workload.setup()
        wall = time.perf_counter() - ENTRY
        # Set-up is one call with nothing to bracket: the probes follow it.
        speed = statistics.median(hostspeed.probe() for _ in range(3))
        result["setup_wall_s"] = wall
        result["setup_s"] = wall * hostspeed.REFERENCE_S / speed
        if args.setup_only:
            return result
        installed = trace.install(recorder) if trace_dir else None
        try:
            m = workload.measure(args.seconds)
        finally:
            if installed is not None:
                installed.uninstall()
        result.update(_summary(m))
        result["checks"] = workload.check()
        extras = workload.layer_extras()
    finally:
        workload.close()
    if trace_dir is not None:
        spans = [
            s for s in recorder.records() + trace.load_spans(trace_dir)
            if m.start <= s["start"] and s["end"] <= m.end
        ]
        per_layer, by_design = trace.layer_metrics(
            spans, main_pid=os.getpid(), jobs=LOAD_WORKERS
        )
        per_layer.update(extras)
        result["per_layer"] = per_layer
        result["by_design"] = by_design
        result["spans"] = len(spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
