"""repro: a reproduction of "Jumanji: The Case for Dynamic NUCA in the
Datacenter" (Schwedock & Beckmann, MICRO 2020).

The package builds, in pure Python, the full system the paper evaluates:
a banked NUCA last-level cache over a mesh NoC, way-partitioning and
DRRIP replacement inside each bank, Jigsaw-style placement hardware
(virtual caches, placement descriptors, VTBs, UMONs), the Jumanji
placement algorithms (feedback control, LatCritPlacer, bank-granular
Lookahead, JumanjiPlacer), the baseline LLC designs it is compared
against, and the experiment harness that regenerates every figure and
table of the paper's evaluation.

Quick start::

    from repro import make_default_workload, run_model

    workload = make_default_workload(["xapian"], mix_seed=0, load="high")
    result = run_model(design="Jumanji", workload=workload, epochs=20)
    print(result.worst_lc_violation())   # < 1.0: deadlines met

Or run placement as a service (see :mod:`repro.serve`)::

    repro serve run          # HTTP daemon
    repro serve loadgen      # drive it with synthetic tenants
"""

from .config import (
    ControllerConfig,
    Engine,
    QPS_TABLE,
    Settings,
    SystemConfig,
    VmSpec,
)
from .errors import (
    AllocationInvalid,
    CellCrashed,
    CellError,
    CellFailed,
    CellTimeout,
    ConfigError,
    PayloadTooLarge,
    PlacementFailed,
    ReproError,
    TelemetryInvalid,
    UnknownSession,
)
from .faults import FaultPlan
from . import fleet
from . import obs
from .core import (
    Allocation,
    AppInfo,
    DESIGNS,
    FeedbackController,
    JumanjiRuntime,
    PlacementContext,
    jumanji_placer,
    lat_crit_placer,
    lookahead,
    make_design,
)
from .model import (
    RunResult,
    SystemModel,
    WorkloadSpec,
    compute_deadline_cycles,
    make_default_workload,
    run_model,
)

__version__ = "1.0.0"

# Imported after __version__: serve stamps it into HTTP responses.
from . import serve  # noqa: E402

__all__ = [
    "SystemConfig",
    "ControllerConfig",
    "Engine",
    "QPS_TABLE",
    "Settings",
    "VmSpec",
    "fleet",
    "obs",
    "serve",
    "Allocation",
    "AppInfo",
    "PlacementContext",
    "FeedbackController",
    "JumanjiRuntime",
    "DESIGNS",
    "make_design",
    "lookahead",
    "lat_crit_placer",
    "jumanji_placer",
    "WorkloadSpec",
    "make_default_workload",
    "SystemModel",
    "RunResult",
    "run_model",
    "compute_deadline_cycles",
    "ReproError",
    "ConfigError",
    "CellError",
    "CellTimeout",
    "CellCrashed",
    "CellFailed",
    "TelemetryInvalid",
    "AllocationInvalid",
    "PlacementFailed",
    "UnknownSession",
    "PayloadTooLarge",
    "FaultPlan",
    "__version__",
]
