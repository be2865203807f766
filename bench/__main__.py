"""``python -m bench {run,compare}`` — see ``bench/README.md``."""

import argparse
import sys

from . import compare, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run.add_arguments(
        sub.add_parser("run", help="run workloads and report metrics")
    )
    compare.add_arguments(
        sub.add_parser("compare", help="compare two sets of result files")
    )
    args = parser.parse_args(argv)
    if args.command == "run":
        return run.cmd_run(args)
    return compare.cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
