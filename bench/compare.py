"""``python -m bench compare PARENT_DIR CHANGE_DIR``.

Compares result files of two commits measured in a small, noisy
sandbox: run at least ten pairs, alternating which commit runs first,
with ``--out PARENT_DIR/<n>.json`` and ``--out CHANGE_DIR/<n>.json``. For
every end-to-end metric and workload it prints one row with each side's
median and quartiles, the share of pairs each side won (runs paired in
start order; ties count for neither), and a verdict:

* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json`` (``run.REPORTED``
  for the latency metrics; ``error_rate`` may not rise at all);
* ``unresolved`` — the parent's own spread (quartile distance over
  median) is wider than the bound, unless every change run beats every
  parent run;
* ``gain`` — the change won at least 9 in 10 pairs and the medians
  differ by more than the parent's quartile distance;
* ``ok`` — none of the above: no worse than the bound allows.

Exits 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
from typing import Any, Dict, List, Tuple

from .run import REPORTED, load_spec

#: error_rate is reported beside the BENCHMARK.json metrics, bound 0.
ERROR_RATE = {"name": "error_rate", "unit": "fraction", "better": "lower",
              "bound": 0.0}


def load_runs(directory: pathlib.Path) -> Dict[str, List[Dict[str, float]]]:
    """workload -> per-run ``{metric: value}``, in run start order."""
    reports = [
        json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))
    ]
    reports.sort(key=lambda r: r["started"])
    runs: Dict[str, List[Dict[str, float]]] = {}
    for report in reports:
        for name, entry in report["workloads"].items():
            values = {k: v["value"] for k, v in entry["metrics"].items()}
            values["error_rate"] = entry["error_rate"]
            runs.setdefault(name, []).append(values)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def judge(
    parent: List[float], change: List[float], metric: Dict[str, Any]
) -> Dict[str, Any]:
    """Medians, quartiles, pair wins and the verdict for one metric."""
    lower = metric["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    change_wins = sum(1 for p, c in pairs if better(c, p))
    parent_wins = sum(1 for p, c in pairs if better(p, c))
    worse = (cm - pm) if lower else (pm - cm)
    worse_share = worse / abs(pm) if pm else (float("inf") if worse else 0.0)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    dominates = all(better(c, p) for c in change for p in parent)
    if worse_share > metric["bound"]:
        verdict = "REGRESSION"
    elif spread > metric["bound"] and not dominates:
        verdict = "unresolved"
    elif pairs and change_wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        verdict = "gain"
    else:
        verdict = "ok"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "change_won": change_wins / len(pairs) if pairs else 0.0,
        "parent_won": parent_wins / len(pairs) if pairs else 0.0,
        "worse_share": worse_share,
        "parent_spread": spread,
        "verdict": verdict,
    }


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    parent = load_runs(pathlib.Path(args.parent))
    change = load_runs(pathlib.Path(args.change))
    workloads = [w for w in parent if w in change]
    if not workloads:
        print("compare: no workload has results on both sides")
        return 2
    regressions = 0
    for metric in list(spec["end_to_end"]) + list(REPORTED) + [ERROR_RATE]:
        print(f"{metric['name']} ({metric['unit']}, {metric['better']} is "
              f"better, bound {metric['bound']:.0%})")
        print(f"  {'workload':<14s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s} {'worse':>8s} "
              f"{'won c/p':>9s}  verdict")
        for name in workloads:
            p = [run[metric["name"]] for run in parent[name]]
            c = [run[metric["name"]] for run in change[name]]
            row = judge(p, c, metric)
            regressions += row["verdict"] == "REGRESSION"
            print(
                f"  {name:<14s} "
                + "{:>10.4g} {:>10.4g} {:>10.4g} ".format(*row["parent"])
                + "{:>10.4g} {:>10.4g} {:>10.4g} ".format(*row["change"])
                + f"{row['worse_share']:>+8.1%} "
                f"{row['change_won']:>4.0%}/{row['parent_won']:<4.0%} "
                f"{row['verdict']} "
                f"(n={len(p)}/{len(c)}, parent spread "
                f"{row['parent_spread']:.1%})"
            )
    return 1 if regressions else 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("parent", help="directory of the parent's results")
    parser.add_argument("change", help="directory of the change's results")
