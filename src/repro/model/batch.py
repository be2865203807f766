"""Batched multi-mix epoch engine.

Sweeps evaluate one design against many workload mixes. Run naively,
that is N independent epoch loops, each paying per-epoch Python
dispatch for its own handful of LC queueing simulators. The
:class:`BatchSystemModel` drives all N mixes in lockstep instead: every
epoch it runs phase 1 (placement) for each mix, then advances *every*
LC simulator of *every* mix with a single fused
:func:`~repro.sim.queueing.run_epoch_batch` kernel call — the Lindley
recurrence scan runs once over an ``(N x apps, width)`` matrix instead
of ``N x apps`` times over vectors — and finally phase 3 (feedback,
tails, batch perf, vulnerability, energy) per mix.

Because each mix keeps its own :class:`~repro.model.system.SystemModel`
(its own runtime, controller, RNG streams, and caches), and the fused
kernel is bit-identical to per-simulator stepping, every per-mix
:class:`~repro.model.system.RunResult` is bit-identical to running that
mix alone — the batching changes wall-clock, never results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..config import ControllerConfig, Engine, RECONFIG_INTERVAL_CYCLES
from ..core.designs import make_design
from ..sim.queueing import run_epoch_batch
from .system import RunResult, SystemModel
from .workload import WorkloadSpec

__all__ = ["BatchStageTimes", "BatchSystemModel"]


@dataclass
class BatchStageTimes:
    """Wall-clock seconds per pipeline stage of one batched run."""

    #: Placement phases computed from scratch (placer kernels).
    placer: float = 0.0
    #: Placement phases served from the runtime's placement memo.
    memo: float = 0.0
    #: The fused LC queueing kernel across all mixes.
    queueing: float = 0.0
    #: Feedback, tails, batch perf, vulnerability, and energy.
    metrics: float = 0.0

    def total(self) -> float:
        """Seconds across all stages."""
        return self.placer + self.memo + self.queueing + self.metrics

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for JSON reports."""
        return {
            "placer": self.placer,
            "memo": self.memo,
            "queueing": self.queueing,
            "metrics": self.metrics,
        }


class BatchSystemModel:
    """Drive one design over many mixes in lockstep epochs.

    ``seeds`` gives each mix's simulation seed (defaults to ``0`` for
    every mix); results are bit-identical to
    ``SystemModel(design, workloads[i], seed=seeds[i]).run(...)`` per
    mix. The reference engine is refused: it exists to stay a scalar
    baseline, and batching it would leave nothing to differentially
    test the batch kernels against.
    """

    def __init__(
        self,
        design_name: str,
        workloads: Sequence[WorkloadSpec],
        seeds: Optional[Sequence[int]] = None,
        controller_config: Optional[ControllerConfig] = None,
        engine: str = Engine.BATCH,
        epoch_cycles: int = RECONFIG_INTERVAL_CYCLES,
        **design_kwargs,
    ):
        engine = Engine.validate(engine, source="BatchSystemModel")
        if not Engine.accelerated(engine):
            raise ValueError(
                "BatchSystemModel requires an accelerated engine "
                "(the reference engine is the scalar baseline)"
            )
        if seeds is None:
            seeds = [0] * len(workloads)
        if len(seeds) != len(workloads):
            raise ValueError(
                f"{len(workloads)} workloads but {len(seeds)} seeds"
            )
        self.engine = engine
        #: Per-mix models; each holds its own design instance so
        #: design-level state (feedback, memos) never leaks across mixes.
        self.models: List[SystemModel] = [
            SystemModel(
                make_design(design_name, **design_kwargs),
                workload,
                seed=seed,
                controller_config=controller_config,
                epoch_cycles=epoch_cycles,
                engine=engine,
            )
            for workload, seed in zip(workloads, seeds)
        ]
        #: Filled by :meth:`run`.
        self.stage_times = BatchStageTimes()

    # -- bookkeeping ------------------------------------------------------------------

    @property
    def memo_hits(self) -> int:
        """Whole-placement memo hits across all mixes."""
        return sum(m.runtime.memo_hits for m in self.models)

    @property
    def subepoch_hits(self) -> int:
        """Sub-epoch (per-app descriptor) memo hits across all mixes."""
        return sum(m.runtime.subepoch_hits for m in self.models)

    # -- main loop -------------------------------------------------------------------

    def run(self, num_epochs: int = 20) -> List[RunResult]:
        """Advance every mix by ``num_epochs`` lockstep epochs."""
        times = BatchStageTimes()
        self.stage_times = times
        states = [m._run_begin(num_epochs) for m in self.models]
        for epoch in range(num_epochs):
            # Phase 1: placement per mix (timed as memo when the
            # runtime's placement memo supplied the allocation).
            preps = []
            for model in self.models:
                t0 = time.perf_counter()
                prep = model._epoch_begin(epoch)
                dt = time.perf_counter() - t0
                if prep.memo_hit:
                    times.memo += dt
                else:
                    times.placer += dt
                preps.append(prep)
            # Phase 2: one fused queueing kernel across all mixes.
            t0 = time.perf_counter()
            sims, means, spans = [], [], []
            for model, prep in zip(self.models, preps):
                apps = model.workload.lc_apps
                spans.append((len(sims), apps))
                sims.extend(model._lc_sims[a] for a in apps)
                means.extend(prep.services[a] for a in apps)
            results = run_epoch_batch(
                sims, self.models[0].epoch_cycles, means
            ) if sims else []
            lat_maps = [
                {
                    a: list(results[start + i].latencies_cycles)
                    for i, a in enumerate(apps)
                }
                for start, apps in spans
            ]
            times.queueing += time.perf_counter() - t0
            # Phase 3: feedback + metrics per mix.
            t0 = time.perf_counter()
            for model, prep, lc_lats, state in zip(
                self.models, preps, lat_maps, states
            ):
                model._epoch_finish(epoch, prep, lc_lats, state)
            times.metrics += time.perf_counter() - t0
        return [
            m._run_result(s) for m, s in zip(self.models, states)
        ]


def _run_design_batch(
    design_name: str,
    workloads: Sequence[WorkloadSpec],
    num_epochs: int = 20,
    seeds: Optional[Sequence[int]] = None,
    controller_config: Optional[ControllerConfig] = None,
    engine: str = Engine.BATCH,
    **design_kwargs,
) -> List[RunResult]:
    """Run one design over many mixes, batched (internal impl).

    Per-mix results are bit-identical to the single-workload path with
    the same seed.
    """
    model = BatchSystemModel(
        design_name,
        workloads,
        seeds=seeds,
        controller_config=controller_config,
        engine=engine,
        **design_kwargs,
    )
    return model.run(num_epochs)
