"""Chaos drills: prove the stack degrades predictably, not randomly.

Two levels, mirroring the two fault-tolerant layers:

* **Runner level** — differential sweeps: the same cells run through a
  clean :class:`~repro.runner.SweepRunner` and through one loaded with
  a :class:`~repro.faults.FaultPlan` (worker crashes, handler errors,
  corrupt cache entries) must produce *bit-identical* outcomes, because
  retries recompute deterministic cells.
  :func:`differential_sweep` packages that comparison.

* **Runtime level** — :func:`run_degraded_runtime` drives a
  :class:`~repro.core.runtime.JumanjiRuntime` for N epochs while the
  plan mangles its tail telemetry (NaN / negative / dropped samples)
  and sporadically blows up the placer. The drill records, per epoch,
  whether the installed allocation still satisfies the no-shared-banks
  security invariant (``repro.metrics.security``) — the paper's
  guarantee must hold in *every* degraded epoch, not just healthy ones.

Both are exercised by the tests (``tests/test_fault_tolerant_runner.py``
and ``tests/test_degraded_runtime.py``; ``make check-faults`` adds the
slow ``chaos``-marked matrix).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .core.designs import LlcDesign, make_design
from .core.runtime import JumanjiRuntime
from .faults import FaultPlan, corrupt_tail_sample
from .model.workload import make_default_workload
from .runner import SweepRunner

__all__ = [
    "run_degraded_runtime",
    "differential_sweep",
]


class _FlakyDesign:
    """Wraps a design so its placer raises on plan-selected epochs.

    The failure site reuses the plan's ``cell_error`` probability keyed
    by ``placer:<epoch>``, so which epochs fail is deterministic per
    seed and independent of everything else.
    """

    def __init__(self, inner: LlcDesign, plan: Optional[FaultPlan]):
        self._inner = inner
        self._plan = plan
        self._calls = 0

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def uses_feedback(self) -> bool:
        return self._inner.uses_feedback

    def allocate(self, ctx):
        epoch = self._calls
        self._calls += 1
        if self._plan is not None and self._plan.fires(
            "cell_error", f"placer:{epoch}"
        ):
            raise RuntimeError(
                f"injected placer failure at epoch {epoch}"
            )
        return self._inner.allocate(ctx)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


def run_degraded_runtime(
    design: str = "Jumanji",
    lc_workload: str = "xapian",
    load: str = "high",
    mix_seed: int = 0,
    epochs: int = 20,
    deadline_cycles: float = 1e7,
    plan: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Drive a runtime through ``epochs`` reconfigurations under fire.

    Synthetic per-epoch tails (deterministic in ``mix_seed``) span
    0.7x-1.3x the deadline so the controller exercises grow, shrink,
    hold, and panic; the plan then degrades those samples and may blow
    up the placer. Returns a JSON-able summary:

    * ``isolation_ok`` / ``shared_bank_epochs`` — the security
      invariant, checked on the *installed* allocation of every epoch
      (degraded ones included);
    * ``degraded_epochs`` — epochs that fell back to the previous
      allocation;
    * ``telemetry_events`` — samples dropped by sanitization;
    * ``size_trajectory`` — per-epoch LC sizes, for convergence checks.
    """
    plan_obj = FaultPlan.from_params(
        dict(plan) if plan is not None else None
    )
    workload = make_default_workload(
        [lc_workload], mix_seed=mix_seed, load=load
    )
    runtime = JumanjiRuntime(
        _FlakyDesign(make_design(design), plan_obj),
        workload.config,
        context_builder=lambda sizes: workload.build_context(sizes),
        seed=mix_seed,
    )
    for app in workload.lc_apps:
        runtime.register_lc_app(app, deadline_cycles=deadline_cycles)
    vm_map = {
        a: workload.vm_of(a)
        for vm in workload.vms
        for a in vm.apps
    }
    rng = random.Random(1_000_003 * mix_seed + 17)
    shared_bank_epochs: List[int] = []
    degraded_epochs: List[int] = []
    trajectory: List[Dict[str, float]] = []
    for epoch in range(epochs):
        record = runtime.reconfigure()
        if record.degraded:
            degraded_epochs.append(epoch)
        if record.allocation.violates_bank_isolation(vm_map):
            shared_bank_epochs.append(epoch)
        trajectory.append(dict(record.lat_sizes))
        for app in workload.lc_apps:
            base = deadline_cycles * (0.7 + 0.6 * rng.random())
            sample = corrupt_tail_sample(
                plan_obj, f"{app}:{epoch}", base
            )
            if sample is not None:
                runtime.report_tail(app, sample)
    telemetry_events = sum(
        1 for e in runtime.events if e["event"] == "telemetry_invalid"
    )
    return {
        "design": design,
        "epochs": epochs,
        "isolation_ok": not shared_bank_epochs,
        "shared_bank_epochs": shared_bank_epochs,
        "degraded_epochs": degraded_epochs,
        "telemetry_events": telemetry_events,
        "placement_events": sum(
            1 for e in runtime.events if e["event"] == "placement_failed"
        ),
        "size_trajectory": trajectory,
        "final_sizes": trajectory[-1] if trajectory else {},
    }


def differential_sweep(
    clean_runner: SweepRunner,
    faulty_runner: SweepRunner,
    **sweep_kwargs: Any,
) -> Tuple[bool, Sequence[Any], Sequence[Any]]:
    """Run one sweep twice — clean vs fault-injected — and compare.

    Returns ``(identical, clean_outcomes, faulty_outcomes)`` where
    ``identical`` is bit-exact equality of the outcome reprs. The two
    runners must use *separate* cache directories, or the faulty run
    would simply read the clean run's cached values.
    """
    from .experiments.common import run_sweep

    clean = run_sweep(runner=clean_runner, **sweep_kwargs)
    faulty = run_sweep(runner=faulty_runner, **sweep_kwargs)
    identical = [repr(o) for o in clean.outcomes] == [
        repr(o) for o in faulty.outcomes
    ]
    return identical, clean.outcomes, faulty.outcomes
