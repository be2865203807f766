"""The unified model entry point: one call, ``engine=`` dispatch.

:func:`run_model` is the package's one front door to the analytic
model: one workload, many workloads through the fused batch engine, or
a named LC workload plus the speedup/tail/energy bookkeeping of a
sweep cell, behind one keyword-only signature.

Exactly one of ``workload`` / ``workloads`` / ``lc_workload`` selects
the mode, and the return type follows it:

======================= ==========================================
argument                returns
======================= ==========================================
``workload=``           :class:`~repro.model.system.RunResult`
``workloads=``          ``List[RunResult]`` (batched engine)
``lc_workload=``        ``(WorkloadOutcome, RunResult, ipcs)`` —
                        the sweep-cell triple
======================= ==========================================

``engine`` defaults to the mode's historical engine (``fast`` for a
single workload, ``batch`` otherwise); all engines are bit-identical,
so the choice is purely a performance knob.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..config import ControllerConfig, Engine, SystemConfig
from ..errors import ConfigError
from .system import RunResult, _run_design
from .workload import WorkloadSpec

__all__ = ["run_model"]


def run_model(
    *,
    design: str,
    workload: Optional[WorkloadSpec] = None,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    lc_workload: Optional[str] = None,
    load: str = "high",
    mix_seed: int = 0,
    config: Optional[SystemConfig] = None,
    baseline_ipcs: Optional[Mapping[str, float]] = None,
    epochs: Optional[int] = None,
    seed: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    base_seed: int = 0,
    controller_config: Optional[ControllerConfig] = None,
    engine: Optional[str] = None,
    design_kwargs: Optional[Dict[str, Any]] = None,
):
    """Run ``design`` against exactly one workload selector.

    * ``workload=`` — one :class:`~repro.model.workload.WorkloadSpec`;
      honours ``epochs`` (default 20) and ``seed`` (default 0).
    * ``workloads=`` — a sequence of specs through the fused batch
      engine; honours ``epochs`` and per-mix ``seeds``.
    * ``lc_workload=`` — a named LC workload (``"xapian"``, ...,
      ``"Mixed"``); builds the paper's default mix from ``load`` /
      ``mix_seed`` / ``config`` and returns the sweep-cell triple
      ``(outcome, result, baseline_ipcs)``. ``epochs`` defaults to the
      ``REPRO_EPOCHS`` setting and the cell seed is derived from
      ``base_seed`` / ``mix_seed``.

    ``design_kwargs`` are forwarded to
    :func:`~repro.core.designs.make_design` (sensitivity variants).
    """
    chosen = [
        name
        for name, value in (
            ("workload", workload),
            ("workloads", workloads),
            ("lc_workload", lc_workload),
        )
        if value is not None
    ]
    if len(chosen) != 1:
        raise ConfigError(
            "run_model needs exactly one of workload=, workloads=, "
            f"lc_workload=; got {chosen or 'none'}"
        )
    kwargs = dict(design_kwargs) if design_kwargs else {}

    if workload is not None:
        if engine is None:
            engine = Engine.FAST
        engine = Engine.validate(engine, source="run_model")
        return _run_design(
            design,
            workload,
            num_epochs=epochs if epochs is not None else 20,
            seed=seed if seed is not None else 0,
            controller_config=controller_config,
            engine=engine,
            **kwargs,
        )

    if workloads is not None:
        from .batch import _run_design_batch

        if engine is None:
            engine = Engine.BATCH
        engine = Engine.validate(engine, source="run_model")
        return _run_design_batch(
            design,
            workloads,
            num_epochs=epochs if epochs is not None else 20,
            seeds=list(seeds) if seeds is not None else None,
            controller_config=controller_config,
            engine=engine,
            **kwargs,
        )

    # Named LC workload: the sweep-cell path. Imported lazily — the
    # experiments package imports this module's neighbours.
    from ..experiments.common import _run_workload

    if seeds is not None:
        raise ConfigError(
            "seeds= applies to workloads=; use base_seed/mix_seed "
            "with lc_workload="
        )
    if controller_config is not None:
        raise ConfigError(
            "controller_config= applies to workload=/workloads= modes"
        )
    if engine is None:
        engine = Engine.BATCH
    engine = Engine.validate(engine, source="run_model")
    return _run_workload(
        design,
        lc_workload,
        load,
        mix_seed,
        epochs=epochs,
        config=config,
        baseline_ipcs=baseline_ipcs,
        base_seed=base_seed,
        engine=engine,
        **kwargs,
    )
