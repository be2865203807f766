"""Performance metrics: weighted speedup with fixed-work methodology.

The paper measures batch performance as weighted speedup relative to the
naive Static allocation, using a FIESTA-style fixed-work methodology
(each app's work is fixed at what it completes in 15 B instructions in
isolation; all programs run until all finish). With the analytic model,
per-app progress rates are IPCs, so weighted speedup reduces to the mean
of per-app IPC ratios, and gmean aggregates across workload mixes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping

__all__ = ["weighted_speedup", "gmean", "normalize"]


def weighted_speedup(
    ipcs: Mapping[str, float], baseline_ipcs: Mapping[str, float]
) -> float:
    """FIESTA-style weighted speedup of a mix vs. a baseline.

    ``sum_i (IPC_i / IPC_i^base) / N`` — equal work per app, so each
    app's progress ratio contributes equally.
    """
    if not ipcs:
        raise ValueError("need at least one app")
    missing = set(ipcs) - set(baseline_ipcs)
    if missing:
        raise ValueError(f"baseline missing apps: {sorted(missing)}")
    total = 0.0
    for app, ipc in ipcs.items():
        base = baseline_ipcs[app]
        if base <= 0:
            raise ValueError(f"non-positive baseline IPC for {app!r}")
        if ipc < 0:
            raise ValueError(f"negative IPC for {app!r}")
        total += ipc / base
    return total / len(ipcs)


def gmean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    vals = list(values)
    if not vals:
        raise ValueError("need at least one value")
    if any(v <= 0 for v in vals):
        raise ValueError("gmean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def normalize(
    values: Mapping[str, float], baseline: Mapping[str, float]
) -> Dict[str, float]:
    """Element-wise ratio ``values / baseline`` over shared keys."""
    out = {}
    for key, value in values.items():
        if key not in baseline:
            raise ValueError(f"baseline missing {key!r}")
        base = baseline[key]
        if base <= 0:
            raise ValueError(f"non-positive baseline for {key!r}")
        out[key] = value / base
    return out
