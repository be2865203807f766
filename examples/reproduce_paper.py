#!/usr/bin/env python
"""Regenerate every figure and table of the paper's evaluation.

The same as ``repro reproduce`` (all flags pass through): one report per
artifact plus ``SUMMARY.md`` with the paper's claims checked; exit 1 if
any claim fails. Run with::

    python examples/reproduce_paper.py --scale smoke --out /tmp/results
"""

import sys

from repro import cli


def main(argv=None) -> int:
    return cli.main(["reproduce", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
