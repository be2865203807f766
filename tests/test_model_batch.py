"""Accelerated epoch engine equivalence tests.

The engine's contract is bit-identity: ``run_epoch_batch`` must
produce, per simulator, exactly what ``LcRequestSimulator.run_epoch``
(a batch of one) produces — same latencies, same stream consumption,
same carried backlog — across ragged backlog sizes, empty batches, and
single-epoch runs; ``advance_epoch_rows`` must match the scalar
reference simulator; and each mix of a ``BatchSystemModel`` must reproduce its
reference-engine run and its batch-of-one run observable-for-
observable. Hypothesis drives the kernel-level property and ragged
batches end to end.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RECONFIG_INTERVAL_CYCLES
from repro.core.designs import DESIGNS, make_design
from repro.errors import ConfigError
from repro.model.api import run_model
from repro.model.batch import BatchSystemModel
from repro.model.reference import (
    ReferenceLcRequestSimulator,
    ReferenceSystemModel,
)
from repro.model.system import SystemModel
from repro.model.workload import make_default_workload
from repro.sim import queueing
from repro.sim.queueing import (
    LcRequestSimulator,
    advance_epoch_rows,
    run_epoch_batch,
)

from .helpers import canonical_run, sim_state

EPOCH = 250_000.0  # cycles; small epochs keep hypothesis cases fast


class TestBatchKernelEquivalence:
    """run_epoch_batch == per-sim run_epoch, bit for bit."""

    @given(
        seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6),
        qps_exps=st.lists(st.integers(10, 14), min_size=1, max_size=6),
        cvs=st.lists(
            st.sampled_from([0.0, 0.2, 0.4, 1.0]), min_size=1, max_size=6
        ),
        epochs=st.integers(1, 4),
        mean_exp=st.integers(2, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_ragged_batch_matches_sequential(
        self, seeds, qps_exps, cvs, epochs, mean_exp
    ):
        # Ragged on purpose: each sim gets its own qps (different
        # backlog sizes per epoch), cv (some rows with no service
        # stream at all), and seed.
        n = min(len(seeds), len(qps_exps), len(cvs))
        mk = lambda: [
            LcRequestSimulator(
                qps=float(2**qps_exps[i]),
                service_cv=cvs[i],
                seed=seeds[i],
            )
            for i in range(n)
        ]
        batched, sequential = mk(), mk()
        mean = float(10**mean_exp)
        for _ in range(epochs):
            got = run_epoch_batch(batched, EPOCH, [mean] * n)
            want = [s.run_epoch(EPOCH, mean) for s in sequential]
            for g, w in zip(got, want):
                assert g == w
        for b, s in zip(batched, sequential):
            assert sim_state(b) == sim_state(s)

    def test_empty_batch(self):
        assert run_epoch_batch([], EPOCH, []) == []

    def test_single_sim_single_epoch(self):
        a = LcRequestSimulator(qps=5000.0, seed=7)
        b = LcRequestSimulator(qps=5000.0, seed=7)
        got = run_epoch_batch([a], EPOCH * 10, [1000.0])
        want = b.run_epoch(EPOCH * 10, 1000.0)
        assert got[0] == want
        assert sim_state(a) == sim_state(b)

    def test_mixed_idle_and_busy_rows(self):
        # A row whose epoch has no queued requests must skip the scan
        # exactly as the scalar path does, without disturbing its
        # neighbours in the matrix.
        quiet = LcRequestSimulator(qps=1.0, seed=3)  # ~0 arrivals
        busy = LcRequestSimulator(qps=50_000.0, seed=4)
        quiet_ref = LcRequestSimulator(qps=1.0, seed=3)
        busy_ref = LcRequestSimulator(qps=50_000.0, seed=4)
        got = run_epoch_batch([quiet, busy], EPOCH, [500.0, 500.0])
        want = [
            quiet_ref.run_epoch(EPOCH, 500.0),
            busy_ref.run_epoch(EPOCH, 500.0),
        ]
        for g, w in zip(got, want):
            assert g == w
        assert sim_state(quiet) == sim_state(quiet_ref)
        assert sim_state(busy) == sim_state(busy_ref)

    def test_rejects_bad_inputs(self):
        sim = LcRequestSimulator(qps=100.0)
        with pytest.raises(ValueError, match="duration"):
            run_epoch_batch([sim], 0.0, [1.0])
        with pytest.raises(ValueError, match="one mean"):
            run_epoch_batch([sim], EPOCH, [1.0, 2.0])
        with pytest.raises(ValueError, match="service time"):
            run_epoch_batch([sim], EPOCH, [0.0])


class TestBlockedRowsKernel:
    """advance_epoch_rows == the scalar reference on ragged backlogs."""

    #: (qps, cv, seed): one overloaded stream whose backlog grows far
    #: past the rest, idle streams that queue nothing, and mid-sized
    #: ones in between.
    STREAMS = (
        (200_000.0, 0.4, 1),
        (0.01, 0.4, 2),
        (4_000.0, 0.0, 3),
        (0.01, 0.0, 4),
        (20_000.0, 1.0, 5),
        (9_000.0, 0.2, 6),
        (0.01, 1.0, 7),
        (30_000.0, 0.4, 8),
    )

    def _sims(self, cls=LcRequestSimulator):
        return [
            cls(qps=q, service_cv=cv, seed=seed)
            for q, cv, seed in self.STREAMS
        ]

    @pytest.mark.parametrize("block", [64, 700, 8192])
    def test_rows_match_run_epoch_bit_for_bit(self, monkeypatch, block):
        # Small blocks split the batch at several widths; the default
        # one puts the overloaded stream in a block of its own.
        monkeypatch.setattr(queueing, "_BLOCK_CELLS", block)
        batched = self._sims()
        sequential = self._sims(ReferenceLcRequestSimulator)
        means = [40_000.0, 500.0, 20_000.0, 500.0,
                 30_000.0, 25_000.0, 500.0, 15_000.0]
        for epoch in range(6):
            load = 1.0 + 0.25 * (epoch % 3)
            for sim in batched + sequential:
                sim.qps = sim.qps * load
            rows = advance_epoch_rows(batched, EPOCH, means)
            want = [
                s.run_epoch(EPOCH, m) for s, m in zip(sequential, means)
            ]
            assert len(rows) == len(want)
            for row, w in zip(rows, want):
                assert row.ndim == 1
                assert row.tolist() == w.latencies_cycles
            for b, s in zip(batched, sequential):
                assert sim_state(b)[:4] == sim_state(s)[:4]
                assert b._arrivals.peek(4).tolist() == (
                    s._arrivals.peek(4).tolist()
                )
                if b._services is not None:
                    assert b._services.peek(4).tolist() == (
                        s._services.peek(4).tolist()
                    )
        depths = [s.queue_depth for s in sequential]
        assert max(depths) > 20 * sorted(depths)[-2]
        assert sum(1 for r in rows if not r.size) >= 3

    def test_rows_are_prefix_copies(self):
        rows = advance_epoch_rows(self._sims(), EPOCH, [1000.0] * 8)
        for row in rows:
            assert row.base is None

    def test_empty_and_bad_inputs(self):
        assert advance_epoch_rows([], EPOCH, []) == []
        sim = LcRequestSimulator(qps=100.0)
        with pytest.raises(ValueError, match="duration"):
            advance_epoch_rows([sim], 0.0, [1.0])
        with pytest.raises(ValueError, match="one mean"):
            advance_epoch_rows([sim], EPOCH, [1.0, 2.0])
        with pytest.raises(ValueError, match="service time"):
            advance_epoch_rows([sim], EPOCH, [0.0])


def _workloads(mix_seeds, lc="xapian", load="high"):
    return [
        make_default_workload([lc], mix_seed=m, load=load)
        for m in mix_seeds
    ]


class TestBatchSystemModel:
    """BatchSystemModel == per-mix SystemModel, every observable."""

    @pytest.mark.parametrize(
        "design", ["Static", "Adaptive", "Jigsaw", "Jumanji"]
    )
    def test_matches_per_mix_fast_engine(self, design):
        mixes = [0, 1, 2]
        batch = BatchSystemModel(
            design, _workloads(mixes), seeds=[10 + m for m in mixes]
        )
        got = batch.run(4)
        for m, res in zip(mixes, got):
            solo = SystemModel(
                make_design(design),
                make_default_workload(["xapian"], mix_seed=m),
                seed=10 + m,
            ).run(4)
            assert canonical_run(res) == canonical_run(solo)

    def test_matches_reference_engine(self):
        batch = BatchSystemModel(
            "Jumanji", _workloads([0, 1]), seeds=[3, 4]
        )
        got = batch.run(3)
        for m, seed, res in zip([0, 1], [3, 4], got):
            ref = ReferenceSystemModel(
                make_design("Jumanji"),
                make_default_workload(["xapian"], mix_seed=m),
                seed=seed,
            ).run(3)
            assert canonical_run(res) == canonical_run(ref)

    def test_single_epoch(self):
        batch = BatchSystemModel("Static", _workloads([5]), seeds=[1])
        got = batch.run(1)
        solo = SystemModel(
            make_design("Static"),
            make_default_workload(["xapian"], mix_seed=5),
            seed=1,
        ).run(1)
        assert canonical_run(got[0]) == canonical_run(solo)

    def test_empty_mix_list(self):
        batch = BatchSystemModel("Static", [], seeds=[])
        assert batch.run(3) == []
        assert batch.stage_times.total() >= 0.0

    def test_reference_engine_refused(self):
        with pytest.raises(ConfigError, match="accelerated"):
            run_model(
                design="Static", workloads=_workloads([0]),
                engine="reference",
            )

    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            BatchSystemModel("Static", _workloads([0, 1]), seeds=[1])

    def test_run_design_batch_convenience(self):
        got = run_model(
            design="Static", workloads=_workloads([0, 1]), seeds=[7, 8],
            epochs=2,
        )
        for m, seed, res in zip([0, 1], [7, 8], got):
            solo = SystemModel(
                make_design("Static"),
                make_default_workload(["xapian"], mix_seed=m),
                seed=seed,
            ).run(2)
            assert canonical_run(res) == canonical_run(solo)

    def test_stage_times_cover_the_run(self):
        batch = BatchSystemModel("Adaptive", _workloads([0, 1]))
        batch.run(4)
        t = batch.stage_times
        assert t.total() > 0
        d = t.as_dict()
        assert set(d) >= {"placer", "memo", "queueing", "metrics"}
        assert all(v >= 0 for v in d.values())

    def test_adaptive_subepoch_memo_fires(self):
        batch = BatchSystemModel("Adaptive", _workloads([0, 1]))
        batch.run(5)
        assert batch.subepoch_hits > 0


class TestDescriptorUniformInvariance:
    """The uniform-stripe descriptor key (`_descriptor_for`) is safe:
    one canonical descriptor serves every uniform stripe over the same
    bank set, whatever the per-bank quota."""

    def test_uniform_stripes_share_descriptor(self):
        from repro.config import SystemConfig
        from repro.core.allocation import Allocation

        config = SystemConfig()
        banks = list(range(config.num_banks))
        descs = []
        for size in (8.0, 10.0, 16.0, 20.0):
            alloc = Allocation(config)
            alloc.add_stripe("lc0", [size / len(banks)] * len(banks))
            descs.append(alloc.descriptor_for("lc0"))
        first = descs[0]
        for other in descs[1:]:
            assert other == first

    def test_nonuniform_stripes_differ(self):
        from repro.config import SystemConfig
        from repro.core.allocation import Allocation

        config = SystemConfig()
        n = config.num_banks
        a = Allocation(config)
        a.add_stripe("lc0", [0.5] * n)
        b = Allocation(config)
        grants = [0.5] * n
        grants[0], grants[-1] = 1.0, 0.0
        b.add_stripe("lc0", grants)
        assert a.descriptor_for("lc0") != b.descriptor_for("lc0")


# --------------------------------------------------------------------------
# ragged batches: every array stage against both engines
# --------------------------------------------------------------------------


@st.composite
def _ragged_workload(draw):
    """A 20-core chip with 1-4 VMs, each with its own LC and batch app
    counts (one core per app, within the chip), so mixes in one batch
    stack differently sized row sets."""
    from repro.config import SystemConfig, VmSpec
    from repro.model.workload import WorkloadSpec
    from repro.workloads.spec import profile_names
    from repro.workloads.tailbench import lc_profile_names

    vms, core = [], 0
    for vm_id in range(draw(st.integers(1, 4))):
        n_lc = draw(st.integers(0, min(2, 19 - core)))
        n_batch = draw(st.integers(1, min(4, 20 - core - n_lc)))
        lc = tuple(
            f"{draw(st.sampled_from(lc_profile_names()))}#{vm_id}.{k}"
            for k in range(n_lc)
        )
        batch = tuple(
            f"{draw(st.sampled_from(profile_names()))}#b{vm_id}.{k}"
            for k in range(n_batch)
        )
        cores = tuple(range(core, core + n_lc + n_batch))
        core += len(cores)
        vms.append(VmSpec(vm_id, cores, lc, batch))
    return WorkloadSpec(
        config=SystemConfig(),
        vms=vms,
        load=draw(st.sampled_from(["low", "high"])),
    )


class TestRaggedBatches:
    """Each mix of a ragged batch == its reference run == its batch of
    one: every observable, and the deadline-ratio observations."""

    @staticmethod
    def _observed(run):
        """``run()``'s result and its ``model.lc_tail_vs_deadline``
        observations (sorted: a batch interleaves its mixes)."""
        from repro import obs

        seen = []
        real = obs.observe

        def record(name, value, **kwargs):
            if name == "model.lc_tail_vs_deadline":
                seen.append(value)
            return real(name, value, **kwargs)

        obs.reset()
        obs.configure(enabled=True)
        obs.observe = record
        try:
            return run(), sorted(seen)
        finally:
            obs.observe = real
            obs.reset()

    @given(
        # Every registered design, so none escapes the differential
        # test (Insecure is the only non-isolated Jumanji placement).
        design=st.sampled_from(sorted(DESIGNS)),
        workloads=st.lists(_ragged_workload(), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
        epochs=st.integers(1, 3),
        # Short epochs leave slow LC apps with no completion (NaN
        # tails); full ones fill many controller windows.
        epoch_cycles=st.sampled_from(
            [150_000, 30_000_000, RECONFIG_INTERVAL_CYCLES]
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_ragged_batch_matches_reference_and_solo(
        self, design, workloads, seed, epochs, epoch_cycles
    ):
        seeds = [seed + i for i in range(len(workloads))]
        got, got_seen = self._observed(
            lambda: BatchSystemModel(
                design,
                copy.deepcopy(workloads),
                seeds=seeds,
                epoch_cycles=epoch_cycles,
            ).run(epochs)
        )
        want_seen = []
        for workload, s, res in zip(workloads, seeds, got):
            for model_cls in (ReferenceSystemModel, SystemModel):
                solo, seen = self._observed(
                    lambda: model_cls(
                        make_design(design),
                        copy.deepcopy(workload),
                        seed=s,
                        epoch_cycles=epoch_cycles,
                    ).run(epochs)
                )
                assert canonical_run(res) == canonical_run(solo), (
                    model_cls.engine
                )
                if model_cls is ReferenceSystemModel:
                    want_seen += seen
        assert got_seen == sorted(want_seen)

    def test_idle_lc_epoch_gives_nan_tail(self):
        # One slow LC app on a short epoch completes nothing: its tail
        # is NaN, and no deadline ratio is observed for it.
        workload = make_default_workload(["moses"], mix_seed=0, load="low")
        got, seen = self._observed(
            lambda: BatchSystemModel(
                "Jumanji", [workload], seeds=[0], epoch_cycles=150_000
            ).run(2)
        )
        ref, ref_seen = self._observed(
            lambda: ReferenceSystemModel(
                make_design("Jumanji"),
                make_default_workload(["moses"], mix_seed=0, load="low"),
                seed=0,
                epoch_cycles=150_000,
            ).run(2)
        )
        tails = [t for e in got[0].epochs for t in e.lc_tails.values()]
        assert any(t != t for t in tails)
        assert canonical_run(got[0]) == canonical_run(ref)
        assert seen == ref_seen

    def test_partial_memo_hits_recompute_every_mix(self):
        # The quiet mix's controller never fills a window, so it keeps
        # re-installing its memoised allocation, while the busy mix's
        # allocation moves: the batch must not reuse the last epoch's
        # terms for both.
        busy = make_default_workload(["silo"], mix_seed=1, load="high")
        quiet = make_default_workload(["moses"], mix_seed=2, load="low")
        batch = BatchSystemModel(
            "Jumanji", [copy.deepcopy(busy), copy.deepcopy(quiet)],
            seeds=[5, 6],
        )
        got = batch.run(6)
        hits = [m.runtime.memo_hits for m in batch.models]
        assert hits[1] > hits[0]
        for workload, seed, res in zip([busy, quiet], [5, 6], got):
            solo = ReferenceSystemModel(
                make_design("Jumanji"), workload, seed=seed,
            ).run(6)
            assert canonical_run(res) == canonical_run(solo)
