"""System and workload configuration for the Jumanji reproduction.

The values in :class:`SystemConfig` mirror Table II of the paper, and the
latency-critical workload parameters in :data:`QPS_TABLE` mirror Table III.
All latencies are expressed in core cycles at 2.66 GHz unless stated
otherwise.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from .errors import ConfigError

#: Core clock frequency in Hz (2.66 GHz Nehalem-class cores).
CORE_FREQ_HZ = 2.66e9

#: Cache line size in bytes.
LINE_BYTES = 64

#: Reconfiguration interval of the Jumanji runtime, in seconds (100 ms).
RECONFIG_INTERVAL_S = 0.1

#: Reconfiguration interval in core cycles.
RECONFIG_INTERVAL_CYCLES = int(RECONFIG_INTERVAL_S * CORE_FREQ_HZ)


@dataclass(frozen=True)
class SystemConfig:
    """Hardware parameters of the simulated multicore (paper Table II).

    The default instance models the 20-core, 20 MB LLC system used in the
    paper's evaluation: a 5x4 mesh of tiles, each with one core and one
    1 MB 32-way LLC bank, four memory controllers at the chip corners.
    """

    num_cores: int = 20
    mesh_cols: int = 5
    mesh_rows: int = 4

    # L1 (split I/D) and L2 private caches.
    l1_size_kb: int = 32
    l1_ways: int = 8
    l1_latency: int = 3
    l2_size_kb: int = 128
    l2_ways: int = 8
    l2_latency: int = 6

    # Shared LLC: one bank per tile.
    llc_bank_mb: float = 1.0
    llc_bank_ways: int = 32
    llc_bank_latency: int = 13
    llc_bank_ports: int = 1

    # Mesh NoC: X-Y routing, 2-cycle pipelined routers, 1-cycle links,
    # 128-bit flits.
    router_delay: int = 2
    link_delay: int = 1
    flit_bits: int = 128

    # Main memory: 4 controllers at the chip corners, fixed latency.
    num_mem_ctrls: int = 4
    mem_latency: int = 120

    def __post_init__(self) -> None:
        if self.mesh_cols * self.mesh_rows != self.num_cores:
            raise ValueError(
                f"mesh {self.mesh_cols}x{self.mesh_rows} does not match "
                f"{self.num_cores} cores"
            )

    @property
    def num_banks(self) -> int:
        """Number of LLC banks (one per tile)."""
        return self.num_cores

    @property
    def llc_size_mb(self) -> float:
        """Total LLC capacity in MB."""
        return self.num_banks * self.llc_bank_mb

    @property
    def bank_sets(self) -> int:
        """Number of sets in one LLC bank."""
        bank_bytes = int(self.llc_bank_mb * 1024 * 1024)
        return bank_bytes // (self.llc_bank_ways * LINE_BYTES)

    @property
    def total_ways(self) -> int:
        """Total partitionable ways across all banks (20 x 32 = 640)."""
        return self.num_banks * self.llc_bank_ways

    def with_router_delay(self, delay: int) -> "SystemConfig":
        """Return a copy with a different NoC router delay (Fig. 18)."""
        return dataclasses.replace(self, router_delay=delay)

    def tile_coords(self, tile: int) -> Tuple[int, int]:
        """(col, row) coordinates of a tile in the mesh."""
        if not 0 <= tile < self.num_cores:
            raise ValueError(f"tile {tile} out of range")
        return tile % self.mesh_cols, tile // self.mesh_cols


@dataclass(frozen=True)
class QpsConfig:
    """Workload configuration for one latency-critical app (Table III)."""

    low_qps: float
    high_qps: float
    num_queries: int


#: Table III of the paper: queries/sec at low (10%) and high (50%) load.
QPS_TABLE: Dict[str, QpsConfig] = {
    "masstree": QpsConfig(300, 1475, 3000),
    "xapian": QpsConfig(130, 570, 1500),
    "img-dnn": QpsConfig(28, 135, 350),
    "silo": QpsConfig(375, 1750, 3500),
    "moses": QpsConfig(34, 155, 300),
}

#: Names of the latency-critical applications evaluated in the paper.
LC_APP_NAMES = tuple(QPS_TABLE)


@dataclass(frozen=True)
class ControllerConfig:
    """Feedback-controller parameters (Sec. V-C, bold values of Fig. 9).

    The controller raises an LC app's allocation by ``step`` when measured
    tail latency exceeds ``target_hi`` x deadline, lowers it when below
    ``target_lo`` x deadline, and "panics" to ``panic_fraction`` of the LLC
    when the tail exceeds ``panic_threshold`` x deadline.
    """

    target_lo: float = 0.85
    target_hi: float = 0.95
    panic_threshold: float = 1.10
    step: float = 0.10
    panic_fraction: float = 1.0 / 8.0
    configuration_interval: int = 20
    percentile: float = 95.0
    #: Max :class:`~repro.core.runtime.ReconfigRecord` entries the
    #: runtime keeps (ring buffer). ``None`` keeps the full history;
    #: million-epoch runs should cap this to bound memory.
    history_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target_lo < self.target_hi:
            raise ValueError("need 0 < target_lo < target_hi")
        if self.panic_threshold < self.target_hi:
            raise ValueError("panic_threshold must be >= target_hi")
        if not 0.0 < self.step < 1.0:
            raise ValueError("step must be in (0, 1)")
        if self.history_limit is not None and self.history_limit < 1:
            raise ValueError("history_limit must be >= 1 (or None)")


@dataclass(frozen=True)
class VmSpec:
    """One VM: which cores it owns and which apps run on them.

    ``lc_apps`` and ``batch_apps`` are app identifiers; core assignment is
    positional (LC apps first, then batch apps, one per core).
    """

    vm_id: int
    cores: Tuple[int, ...]
    lc_apps: Tuple[str, ...]
    batch_apps: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.lc_apps) + len(self.batch_apps) > len(self.cores):
            raise ValueError(
                f"VM {self.vm_id}: {len(self.lc_apps)} LC + "
                f"{len(self.batch_apps)} batch apps exceed "
                f"{len(self.cores)} cores"
            )

    @property
    def apps(self) -> Tuple[str, ...]:
        """All of the VM's app ids, LC apps first."""
        return self.lc_apps + self.batch_apps


DEFAULT_SYSTEM = SystemConfig()
DEFAULT_CONTROLLER = ControllerConfig()


# --------------------------------------------------------------------------
# Engine selection (the one place the fast/reference literal is checked)
# --------------------------------------------------------------------------


class Engine:
    """The implementations every dual-engine entry point accepts.

    ``"fast"`` is the accelerated engine: vectorised kernels (numpy
    placers, batched queueing RNG, memoisation), the dense banks x apps
    allocation matrix (:class:`repro.core.allocation.Allocation`) and
    one epoch loop, :class:`repro.model.batch.BatchSystemModel`, whose
    service, queueing, feedback and metric stages are arrays across
    every mix of a batch (a single model runs as a batch of one).
    ``"reference"`` selects the frozen scalar copies in
    :mod:`repro.model.reference` and :mod:`repro.sim.reference`, the
    dict-of-dicts allocation oracle
    (:mod:`repro.model.reference_allocation`) and the scalar epoch loop
    of :class:`repro.model.reference.ReferenceSystemModel`. The two are
    differentially tested to be bit-identical. Each model class names
    its engine; ``PlacementContext.engine``, ``run_model(engine=...)``
    and the trace-sim cells all validate through :meth:`validate`, so
    an unknown literal fails the same way everywhere.
    """

    FAST = "fast"
    REFERENCE = "reference"
    CHOICES = (FAST, REFERENCE)

    @classmethod
    def accelerated(cls, value: str) -> bool:
        """True for engines that may use caches/vectorised fast paths
        (everything except the frozen scalar reference)."""
        return value != cls.REFERENCE

    @classmethod
    def validate(cls, value: str, source: str = "engine") -> str:
        """Return ``value`` if it names an engine; ConfigError otherwise."""
        if value not in cls.CHOICES:
            raise ConfigError(
                f"unknown engine {value!r} for {source}: expected one "
                f"of {cls.CHOICES!r}"
            )
        return value


# --------------------------------------------------------------------------
# Environment settings (the one place REPRO_* variables are read)
# --------------------------------------------------------------------------


def _clean(env: Mapping[str, str], name: str) -> Optional[str]:
    """The variable's value, with unset and blank both meaning absent."""
    value = env.get(name)
    if value is None or not value.strip():
        return None
    return value


def _positive_int(env: Mapping[str, str], name: str) -> Optional[int]:
    raw = _clean(env, name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {raw!r}")
    return value


def _nonneg_int(env: Mapping[str, str], name: str) -> Optional[int]:
    raw = _clean(env, name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be a non-negative integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {raw!r}")
    return value


@dataclass(frozen=True)
class Settings:
    """Every ``REPRO_*`` environment knob, parsed and validated once.

    :meth:`from_env` is the package's single reader of the environment;
    call sites take the typed field instead of re-parsing
    ``os.environ`` (keeping the "garbage raises
    :class:`~repro.errors.ConfigError` naming the variable" contract in
    one place). ``None`` means the variable is unset (or blank) and the
    call site's own default applies.
    """

    #: ``REPRO_SEED`` — default ``repro reproduce --seed`` (default 0).
    seed: int = 0
    #: ``REPRO_JOBS`` — parallel sweep workers.
    jobs: Optional[int] = None
    #: ``REPRO_CELL_TIMEOUT`` — per-cell wall-clock budget in seconds.
    cell_timeout: Optional[float] = None
    #: ``REPRO_CACHE_DIR`` — result-cache directory.
    cache_dir: Optional[str] = None
    #: ``REPRO_TRACE`` — default ``--trace-out`` path.
    trace: Optional[str] = None
    #: ``REPRO_METRICS`` — default ``--metrics-out`` path.
    metrics: Optional[str] = None
    #: ``REPRO_SERVE_HOST`` — default bind address for ``repro serve``.
    serve_host: Optional[str] = None
    #: ``REPRO_SERVE_PORT`` — default port for ``repro serve`` (0 asks
    #: the OS for an ephemeral port).
    serve_port: Optional[int] = None
    #: ``REPRO_SERVE_MAX_BODY`` — request-body byte bound for the serve
    #: daemon; oversized bodies are rejected with 413.
    serve_max_body: Optional[int] = None

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> "Settings":
        """Parse the environment (or a mapping standing in for it)."""
        env = os.environ if environ is None else environ
        seed_raw = _clean(env, "REPRO_SEED")
        if seed_raw is None:
            seed = 0
        else:
            try:
                seed = int(seed_raw)
            except ValueError:
                raise ConfigError(
                    f"REPRO_SEED must be an integer, got {seed_raw!r}"
                ) from None
        timeout_raw = _clean(env, "REPRO_CELL_TIMEOUT")
        timeout: Optional[float] = None
        if timeout_raw is not None:
            try:
                timeout = float(timeout_raw)
            except ValueError:
                raise ConfigError(
                    "REPRO_CELL_TIMEOUT must be a number of seconds, "
                    f"got {timeout_raw!r}"
                ) from None
            if timeout <= 0:
                raise ConfigError(
                    "REPRO_CELL_TIMEOUT must be a positive number of "
                    f"seconds, got {timeout_raw!r}"
                )
        return cls(
            seed=seed,
            jobs=_positive_int(env, "REPRO_JOBS"),
            cell_timeout=timeout,
            cache_dir=_clean(env, "REPRO_CACHE_DIR"),
            trace=_clean(env, "REPRO_TRACE"),
            metrics=_clean(env, "REPRO_METRICS"),
            serve_host=_clean(env, "REPRO_SERVE_HOST"),
            serve_port=_nonneg_int(env, "REPRO_SERVE_PORT"),
            serve_max_body=_positive_int(env, "REPRO_SERVE_MAX_BODY"),
        )
