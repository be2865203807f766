"""The accelerated epoch engine: one design over a batch of mixes.

Sweeps evaluate one design against many workload mixes, and every
accelerated run is such a batch: ``SystemModel.run`` and
``run_model(workload=...)`` are batches of one, and the sweep runner
runs each chunk of same-design cells as one batch (mixes may differ in
LC apps and load). A :class:`BatchSystemModel` drives all its mixes in
lockstep epochs, and
every stage after placement works on arrays that span the whole batch:

1. **Placement** runs per mix (each mix's runtime, controller and
   placement memo). Every LC app's service time then comes from one
   array expression over the stacked size, NoC round-trip and
   associativity terms of each mix's dense
   :class:`~repro.core.allocation.Allocation`.
2. **Queueing**: one :func:`~repro.sim.queueing.advance_epoch_batch`
   call (bound here as ``run_epoch_batch``) advances every LC
   simulator of every mix — the Lindley scan runs once over an
   ``(LC apps, requests)`` matrix — and its latency matrix goes
   straight to phase 3.
3. **Feedback and metrics**: each matrix row feeds its app's controller
   (whose windows are cut and sorted in bulk, see
   :meth:`~repro.core.controller.FeedbackController.ingest_completed`);
   epoch p95 tails, batch IPC and event rates, vulnerability and energy
   are array expressions over every app of every mix, and each mix's
   energy is summed app by app, left to right.

Each mix keeps its own :class:`~repro.model.system.SystemModel` (its
own runtime, controller, RNG streams and caches). Every array stage
performs, per element, the IEEE operations of the scalar code it
replaces, in the same order; the transcendental terms (miss curves)
still call ``math.exp`` once per element. So every per-mix
:class:`~repro.model.system.RunResult` is bit-identical to the frozen
scalar reference engine's run of that mix
(:class:`~repro.model.reference.ReferenceSystemModel`) — the batching
changes wall-clock, never results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..config import ControllerConfig, Engine, RECONFIG_INTERVAL_CYCLES
from ..core.allocation import stacked_app_terms
from ..core.designs import make_design
from ..metrics.security import PotentialAttackers
from ..noc.energy import EnergyBreakdown
from ..sim.queueing import nearest_rank
# Called through this module-level name, which call-site tracers wrap.
from ..sim.queueing import advance_epoch_batch as run_epoch_batch
from ..workloads.tailbench import BANK_LATENCY_CYCLES, MISS_PENALTY_CYCLES
from .system import EpochMetrics, RunResult, SystemModel
from .workload import WorkloadSpec

__all__ = ["BatchStageTimes", "BatchSystemModel"]


@dataclass
class BatchStageTimes:
    """Wall-clock seconds per pipeline stage of one batched run."""

    #: Placement phases computed from scratch (placer kernels).
    placer: float = 0.0
    #: Placement phases served from the runtime's placement memo.
    memo: float = 0.0
    #: The fused queueing scan across all mixes.
    queueing: float = 0.0
    #: Allocation terms (LC service times, batch perf, vulnerability),
    #: feedback, tails, and energy.
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


def _assoc_penalty(
    ways: np.ndarray, beta: np.ndarray, full: np.ndarray
) -> np.ndarray:
    """:meth:`~repro.model.params.ModelParams.assoc_penalty`, elementwise."""
    thin = (ways > 0) & (ways < full)
    safe = np.where(thin, ways, 1.0)
    return np.where(
        thin, 1.0 + beta * (np.minimum(1.0, 1.0 / safe) - 1.0 / full), 1.0
    )


class _Layout:
    """Where each mix's apps sit in the batch-wide arrays, and every
    per-app constant of the model.

    LC rows are every mix's ``lc_apps`` in mix order (also the rows of
    the queueing matrix); batch rows likewise. The allocation terms
    come stacked mix by mix, each mix's LC apps then its batch apps;
    ``lc_rows`` and ``batch_rows`` pick the two row sets out of that.
    Constants are computed once per run with the scalar code's own
    expressions, so each array element is the double the scalar path
    would have used.
    """

    def __init__(self, models: Sequence[SystemModel], states):
        self.apps = [
            m.workload.lc_apps + m.workload.batch_apps for m in models
        ]
        #: Each mix's slice of the LC rows and of the batch rows.
        self.lc: List[slice] = []
        self.batch: List[slice] = []
        self.lc_rows: List[int] = []
        self.batch_rows: List[int] = []
        # Scatter targets into the (mixes, 1 + apps, 5) energy terms,
        # each mix's batch apps then its LC apps: column 0 stays 0.0,
        # the start value of each running sum.
        b_mix: List[int] = []
        b_pos: List[int] = []
        l_mix: List[int] = []
        l_pos: List[int] = []
        start = 0
        for i, m in enumerate(models):
            n_lc = len(m.workload.lc_apps)
            n_b = len(m.workload.batch_apps)
            lc0, b0 = len(self.lc_rows), len(self.batch_rows)
            self.lc.append(slice(lc0, lc0 + n_lc))
            self.batch.append(slice(b0, b0 + n_b))
            self.lc_rows += range(start, start + n_lc)
            self.batch_rows += range(start + n_lc, start + n_lc + n_b)
            start += n_lc + n_b
            b_mix += [i] * n_b
            b_pos += range(1, 1 + n_b)
            l_mix += [i] * n_lc
            l_pos += range(1 + n_b, 1 + n_b + n_lc)
        self.b_mix = np.asarray(b_mix, dtype=np.int64)
        self.b_pos = np.asarray(b_pos, dtype=np.int64)
        self.l_mix = np.asarray(l_mix, dtype=np.int64)
        self.l_pos = np.asarray(l_pos, dtype=np.int64)
        self.energy_width = 1 + max(len(apps) for apps in self.apps)
        # Every stacked row's distances from its app's tile to each
        # bank, zero-padded to the widest chip.
        width = max(m.config.num_banks for m in models)
        self.distances = np.zeros((2, start, width))
        self.snuca = np.zeros((2, start))
        r = 0
        for m, apps in zip(models, self.apps):
            pairs, snuca = m.noc.distance_tables
            tiles = [m.workload.tile_of(a) for a in apps]
            n = m.config.num_banks
            self.distances[:, r : r + len(apps), :n] = pairs[:, tiles, :n]
            self.snuca[:, r : r + len(apps)] = snuca[:, tiles]
            r += len(apps)
        #: Vulnerability over each mix's VM layout, access-weighted.
        self.attackers = PotentialAttackers(
            [state.vm_map for state in states],
            [state.intensity for state in states],
        )
        self.sims = [
            m._lc_sims[a] for m in models for a in m.workload.lc_apps
        ]
        self.lc_profiles = [
            m.workload.lc_profile(a)
            for m in models
            for a in m.workload.lc_apps
        ]
        self.batch_profiles = [
            m.workload.batch_profile(a)
            for m in models
            for a in m.workload.batch_apps
        ]

        # Per-app constants, one row per app, each value the scalar
        # code's own expression: LC service time and energy
        # (lc_service_cycles, _epoch_energy), batch IPC (batch_perf) and
        # energy, and the per-event energies of each app's mix.
        lc_rows, batch_rows = [], []
        for m in models:
            params, config, e = m.params, m.config, m.energy_model
            pj = (
                e.l1_access_pj, e.l2_access_pj, e.llc_bank_access_pj,
                e.noc_hop_pj, e.mem_access_pj,
            )
            for a in m.workload.lc_apps:
                p = m.workload.lc_profile(a)
                lc_rows.append(
                    (p.base_cycles, p.accesses_per_query,
                     params.assoc_beta, config.llc_bank_ways) + pj
                )
            overhead = m.runtime.batch_overhead_factor
            for a in m.workload.batch_apps:
                p = m.workload.batch_profile(a)
                mem_rtt = m.noc.mem_latency_from(m.workload.tile_of(a))
                batch_rows.append(
                    (
                        p.apki,
                        max(p.apki, 1e-9),
                        p.apki * 3,
                        p.cpi_base,
                        p.apki / 1000.0 * params.llc_stall_fraction,
                        config.llc_bank_latency,
                        (config.mem_latency + mem_rtt) / params.mlp,
                        params.assoc_beta,
                        config.llc_bank_ways,
                        params.sharing_penalty,
                        overhead,
                    )
                    + pj
                )
        lc = np.array(lc_rows, dtype=float).reshape(-1, 9).T.copy()
        self.lc_base, self.lc_apq, self.lc_beta, self.lc_full = lc[:4]
        self.lc_pj = lc[4:].T
        batch = np.array(batch_rows, dtype=float).reshape(-1, 16).T.copy()
        (
            self.apki, self.apki_floor, self.apki3, self.cpi_base,
            self.llc_stall, self.bank_latency, self.miss_penalty,
            self.beta, self.full, self.sharing, self.overhead,
        ) = batch[:11]
        self.batch_pj = batch[11:].T


class BatchSystemModel:
    """Drive one design over many mixes in lockstep epochs.

    ``seeds`` gives each mix's simulation seed (defaults to ``0`` for
    every mix); results are bit-identical to
    ``SystemModel(design, workloads[i], seed=seeds[i]).run(...)`` per
    mix, and to the same call on
    :class:`~repro.model.reference.ReferenceSystemModel`, whose scalar
    per-mix loop the batch stages are differentially tested against.
    """

    def __init__(
        self,
        design_name: str,
        workloads: Sequence[WorkloadSpec],
        seeds: Optional[Sequence[int]] = None,
        controller_config: Optional[ControllerConfig] = None,
        epoch_cycles: int = RECONFIG_INTERVAL_CYCLES,
        **design_kwargs,
    ):
        if seeds is None:
            seeds = [0] * len(workloads)
        if len(seeds) != len(workloads):
            raise ValueError(
                f"{len(workloads)} workloads but {len(seeds)} seeds"
            )
        #: Per-mix models; each holds its own design instance so
        #: design-level state (feedback, memos) never leaks across mixes.
        self.models: List[SystemModel] = [
            SystemModel(
                make_design(design_name, **design_kwargs),
                workload,
                seed=seed,
                controller_config=controller_config,
                epoch_cycles=epoch_cycles,
            )
            for workload, seed in zip(workloads, seeds)
        ]
        #: Filled by :meth:`run`.
        self.stage_times = BatchStageTimes()

    @classmethod
    def from_models(
        cls, models: Sequence[SystemModel]
    ) -> "BatchSystemModel":
        """A batch over already-built accelerated models sharing one
        epoch length (``SystemModel.run`` runs as a batch of one)."""
        if any(not Engine.accelerated(m.engine) for m in models):
            raise ValueError("every batched model must be accelerated")
        if len({m.epoch_cycles for m in models}) > 1:
            raise ValueError("batched models must share epoch_cycles")
        batch = cls.__new__(cls)
        batch.models = list(models)
        batch.stage_times = BatchStageTimes()
        return batch

    # -- bookkeeping ------------------------------------------------------------------

    @property
    def subepoch_hits(self) -> int:
        """Sub-epoch (per-app descriptor) memo hits across all mixes."""
        return sum(m.runtime.subepoch_hits for m in self.models)

    # -- main loop -------------------------------------------------------------------

    def run(self, num_epochs: int = 20) -> List[RunResult]:
        """Advance every mix by ``num_epochs`` lockstep epochs."""
        times = BatchStageTimes()
        self.stage_times = times
        models = self.models
        states = [m._run_begin(num_epochs) for m in models]
        if not models:
            return []
        layout = _Layout(models, states)
        #: Post-warm-up latency rows per LC app, joined at the end.
        chunks: List[Dict[str, List[np.ndarray]]] = [
            {a: [] for a in m.workload.lc_apps} for m in models
        ]
        # The allocation terms are pure functions of the installed
        # allocations, so an epoch in which every mix installs the very
        # objects of the last one (placement memo hits) reuses them.
        last = None
        for epoch in range(num_epochs):
            with obs.span(
                "model.epoch", epoch=epoch, design=models[0].design.name,
            ):
                placed = []
                for model in models:
                    t0 = time.perf_counter()
                    record, batch_alloc = model._place()
                    dt = time.perf_counter() - t0
                    if record.memo_hit:
                        times.memo += dt
                    else:
                        times.placer += dt
                    placed.append((record.allocation, batch_alloc))
                t0 = time.perf_counter()
                installed = [a for pair in placed for a in pair]
                if last is None or any(
                    a is not b for a, b in zip(installed, last[0])
                ):
                    last = (installed, self._alloc_terms(layout, placed))
                lc, batch = last[1]
                t1 = time.perf_counter()
                latencies, done = run_epoch_batch(
                    layout.sims, models[0].epoch_cycles, lc["service"]
                )
                t2 = time.perf_counter()
                self._finish(
                    epoch, layout, lc, batch, latencies, done, states,
                    chunks,
                )
                times.queueing += t2 - t1
                times.metrics += time.perf_counter() - t2 + (t1 - t0)
        results = []
        for model, state, rows in zip(models, states, chunks):
            for app, parts in rows.items():
                state.all_latencies[app] = (
                    np.concatenate(parts).tolist() if parts else []
                )
            results.append(model._run_result(state))
        return results

    # -- allocation terms ---------------------------------------------------------

    def _alloc_terms(self, layout: _Layout, placed):
        """Everything an epoch's metrics read off its allocations: the
        LC terms (with service times, as a list) and the batch IPCs,
        event rates and vulnerability of every mix."""
        terms = self._gather(layout, placed)
        lc = self._lc_terms(layout, terms)
        ipcs, rates = self._batch_terms(layout, placed, terms)
        vulns = layout.attackers([batch_alloc for _, batch_alloc in placed])
        return lc, (ipcs.tolist(), rates, vulns)

    def _gather(self, layout: _Layout, placed):
        """Every app's allocation terms (size, ways, NoC round trip and
        hops), stacked over the mixes: LC apps from the placement, batch
        apps from the allocation serving batch traffic."""
        requests = []
        for model, apps, (alloc, batch_alloc) in zip(
            self.models, layout.apps, placed
        ):
            if batch_alloc is alloc:
                requests.append((alloc, apps))
            else:
                n_lc = len(model.workload.lc_apps)
                requests.append((alloc, apps[:n_lc]))
                requests.append((batch_alloc, apps[n_lc:]))
        return stacked_app_terms(requests, layout.distances, layout.snuca)

    def _lc_terms(self, layout: _Layout, terms) -> Dict[str, object]:
        """Every LC app's size, hops, misses per query and service time
        (``lc_service_cycles`` over the stacked allocation terms; the
        service times as a list)."""
        sizes, ways, rtt, hops = terms
        rows = layout.lc_rows
        sizes = [sizes[r] for r in rows]
        size = np.asarray(sizes, dtype=float)
        rtt = rtt[rows]
        if (size < 0).any() or (rtt < 0).any():
            raise ValueError("size and noc_rtt must be non-negative")
        # misses_per_query keeps its scalar math.exp, once per app.
        mpq = np.array(
            [
                p.misses_per_query(s)
                for p, s in zip(layout.lc_profiles, sizes)
            ],
            dtype=float,
        )
        penalty = _assoc_penalty(ways[rows], layout.lc_beta, layout.lc_full)
        service = (
            layout.lc_base
            + layout.lc_apq * (BANK_LATENCY_CYCLES + rtt)
            + mpq * penalty * MISS_PENALTY_CYCLES
        )
        return {
            "sizes": sizes,
            "hops": hops[rows],
            "mpq": mpq,
            "service": service.tolist(),
        }

    # -- feedback and metrics ---------------------------------------------------------

    def _finish(
        self, epoch, layout, lc, batch, latencies, done, states, chunks,
    ) -> None:
        """Feed back, then evaluate every metric of every mix."""
        done_list = done.tolist()
        tails = self._tails(latencies, done_list)
        observe = obs.is_enabled()
        for model, sl, state, rows in zip(
            self.models, layout.lc, states, chunks
        ):
            apps = model.workload.lc_apps
            for r, app in zip(range(sl.start, sl.stop), apps):
                lats = latencies[r, : done_list[r]]
                if model.design.uses_feedback:
                    model.runtime.report_latencies(app, lats)
                if epoch >= state.warmup:
                    rows[app].append(lats.copy())
            if observe:
                # Deterministic for a fixed seed: the ratio comes from
                # the seeded queueing simulation, not a clock.
                for app, tail in zip(apps, tails[sl]):
                    deadline = model._deadlines.get(app)
                    if deadline and tail == tail:  # skip NaN
                        obs.observe(
                            "model.lc_tail_vs_deadline",
                            tail / deadline,
                            edges=obs.RATIO_EDGES,
                        )
        ipc_list, rates, vulns = batch
        energies = self._energy(layout, rates, lc, done)
        for i, (model, state) in enumerate(zip(self.models, states)):
            lc_sl, b_sl = layout.lc[i], layout.batch[i]
            state.epochs.append(
                EpochMetrics(
                    epoch=epoch,
                    lc_tails=dict(zip(model.workload.lc_apps, tails[lc_sl])),
                    lc_sizes=dict(
                        zip(model.workload.lc_apps, lc["sizes"][lc_sl])
                    ),
                    batch_ipcs=dict(
                        zip(model.workload.batch_apps, ipc_list[b_sl])
                    ),
                    vulnerability=vulns[i],
                    energy=EnergyBreakdown(*energies[i]),
                )
            )

    @staticmethod
    def _tails(latencies: np.ndarray, done: List[int]) -> List[float]:
        """Each row's p95 (nearest rank over its completed prefix, as
        ``percentile`` sorts it), NaN for a row that completed
        nothing."""
        if not latencies.size:
            return [float("nan")] * len(done)
        width = latencies.shape[1]
        live = np.arange(width)[None, :] < np.asarray(done)[:, None]
        ordered = np.sort(np.where(live, latencies, np.inf), axis=1)
        ranks = [nearest_rank(n, 95.0) if n else 0 for n in done]
        picked = ordered[np.arange(len(done)), ranks].tolist()
        return [t if n else float("nan") for t, n in zip(picked, done)]

    def _batch_terms(self, layout: _Layout, placed, terms):
        """Batch IPCs (after placement overhead) and per-cycle
        ``(accesses, misses, hops)`` rates (``batch_perf`` over every
        batch app of every mix)."""
        sizes, ways, rtt, hops = terms
        rows = layout.batch_rows
        sizes = [sizes[r] for r in rows]
        partitioned: List[bool] = []
        for model, (_, alloc) in zip(self.models, placed):
            by_way = alloc.partition_mode in ("per-app", "per-vm")
            shared = alloc.shared_batch
            partitioned += [
                by_way and a not in shared for a in model.workload.batch_apps
            ]
        # mpki keeps its scalar math.exp, once per app.
        mpki = np.array(
            [p.mpki(s) for p, s in zip(layout.batch_profiles, sizes)]
        )
        penalty = np.where(
            partitioned,
            _assoc_penalty(ways[rows], layout.beta, layout.full),
            layout.sharing,
        )
        mpki_eff = mpki * penalty
        llc_time = layout.llc_stall * (layout.bank_latency + rtt[rows])
        mem_time = mpki_eff / 1000.0 * layout.miss_penalty
        ipc = 1.0 / (layout.cpi_base + llc_time + mem_time)
        accesses = layout.apki * ipc / 1000.0
        misses = mpki_eff * ipc / 1000.0
        hop_rate = accesses * 2 * hops[rows]
        return ipc * layout.overhead, (accesses, misses, hop_rate)

    def _energy(
        self, layout: _Layout, rates, lc, done: np.ndarray
    ) -> List[List[float]]:
        """Each mix's epoch energy (batch rates plus LC per-query
        events), its apps' terms summed left to right."""
        cycles = self.models[0].epoch_cycles
        accesses, misses, hop_rate = rates
        ipc = accesses / layout.apki_floor * 1000.0
        batch_events = np.stack(
            [
                0.3 * ipc * cycles,
                layout.apki3 * ipc / 1000.0 * cycles,
                accesses * cycles,
                hop_rate * cycles,
                misses * cycles,
            ],
            axis=1,
        )
        queries = done
        lc_accesses = layout.lc_apq * queries
        lc_events = np.stack(
            [
                queries * layout.lc_base * 0.1,
                lc_accesses * 2,
                lc_accesses,
                lc_accesses * (2 * lc["hops"]),
                lc["mpq"] * queries,
            ],
            axis=1,
        )
        terms = np.zeros((len(self.models), layout.energy_width, 5))
        terms[layout.b_mix, layout.b_pos] = batch_events * layout.batch_pj
        terms[layout.l_mix, layout.l_pos] = lc_events * layout.lc_pj
        return terms.cumsum(axis=1)[:, -1].tolist()


def _run_design_batch(
    design_name: str,
    workloads: Sequence[WorkloadSpec],
    num_epochs: int = 20,
    seeds: Optional[Sequence[int]] = None,
    controller_config: Optional[ControllerConfig] = None,
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
        **design_kwargs,
    )
    return model.run(num_epochs)
