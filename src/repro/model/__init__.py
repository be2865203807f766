"""Analytic model layer: performance model, workloads, system driver."""

from .api import run_model
from .params import DEFAULT_PARAMS, ModelParams
from .performance import BatchPerf, batch_perf, estimate_ipc, snuca_avg_rtt
from .system import (
    EpochMetrics,
    RunResult,
    SystemModel,
    compute_deadline_cycles,
)
from .workload import WorkloadSpec, make_default_workload

__all__ = [
    "ModelParams",
    "DEFAULT_PARAMS",
    "BatchPerf",
    "batch_perf",
    "estimate_ipc",
    "snuca_avg_rtt",
    "WorkloadSpec",
    "make_default_workload",
    "SystemModel",
    "RunResult",
    "EpochMetrics",
    "compute_deadline_cycles",
    "run_model",
]
