"""Launch the serve daemon for the ``serve-tenants`` workload.

``python -m bench.daemon [--trace-dir DIR]`` binds an ephemeral port on
127.0.0.1, prints ``PORT <n>`` on stdout and serves until SIGTERM. With
``--trace-dir`` it first installs the benchmark's span wrappers plus
the daemon-side ones (``trace.DAEMON_TARGETS``); the spans stay in
memory and are written to ``DIR/<pid>.jsonl`` when the daemon stops.
"""

from __future__ import annotations

import argparse
import signal
import sys

from . import trace


def _stop(signum: int, frame) -> None:
    raise SystemExit(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.daemon")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    from repro.serve import ServeDaemon

    recorder = None
    if args.trace_dir:
        recorder = trace.Recorder(args.trace_dir)
        trace.install(
            recorder, trace.BENCH_TARGETS + trace.DAEMON_TARGETS
        )
    daemon = ServeDaemon(host="127.0.0.1", port=0)
    signal.signal(signal.SIGTERM, _stop)
    try:
        print(f"PORT {daemon.port}", flush=True)
        daemon.serve_forever()
    except SystemExit:
        pass
    finally:
        daemon.close()
        if recorder is not None:
            recorder.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
