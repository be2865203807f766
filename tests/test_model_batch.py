"""Batched multi-mix engine equivalence tests.

The batch engine's contract is bit-identity: ``run_epoch_batch`` must
produce, per simulator, exactly what ``LcRequestSimulator.run_epoch``
produces — same latencies, same stream consumption, same carried
backlog — across ragged backlog sizes, empty batches, and single-epoch
runs; and ``BatchSystemModel`` must reproduce per-mix ``SystemModel``
runs observable-for-observable. Hypothesis drives the kernel-level
property; the end-to-end tests pin the whole engine against both the
fast and the frozen reference engines.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import make_design
from repro.model.api import run_model
from repro.model.batch import BatchSystemModel
from repro.model.system import SystemModel
from repro.model.workload import make_default_workload
from repro.sim.queueing import LcRequestSimulator, run_epoch_batch

EPOCH = 250_000.0  # cycles; small epochs keep hypothesis cases fast


def _canonical(result):
    """A RunResult as plain comparable data (every observable)."""
    return (
        result.design,
        result.load,
        result.warmup_epochs,
        sorted(result.lc_deadlines.items()),
        sorted(result.lc_all_latencies.items()),
        [
            (
                e.epoch,
                sorted(e.lc_tails.items()),
                sorted(e.lc_sizes.items()),
                sorted(e.batch_ipcs.items()),
                e.vulnerability,
                sorted(vars(e.energy).items()),
            )
            for e in result.epochs
        ],
    )


def _sim_state(sim):
    """Every piece of cross-epoch simulator state, for exact compare."""
    return (
        sim._server_free_at,
        sim._now,
        sim._next_arrival,
        list(sim._backlog),
        sim._arrivals._pos,
        sim._arrivals._buf.size,
        None if sim._services is None else sim._services._pos,
    )


def _result_tuple(res):
    return (
        list(res.latencies_cycles),
        res.completed,
        res.mean_service_cycles,
        res.utilization,
        res.final_queue_depth,
    )


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
                assert _result_tuple(g) == _result_tuple(w)
        for b, s in zip(batched, sequential):
            assert _sim_state(b) == _sim_state(s)

    def test_empty_batch(self):
        assert run_epoch_batch([], EPOCH, []) == []

    def test_single_sim_single_epoch(self):
        a = LcRequestSimulator(qps=5000.0, seed=7)
        b = LcRequestSimulator(qps=5000.0, seed=7)
        got = run_epoch_batch([a], EPOCH * 10, [1000.0])
        want = b.run_epoch(EPOCH * 10, 1000.0)
        assert _result_tuple(got[0]) == _result_tuple(want)
        assert _sim_state(a) == _sim_state(b)

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
            assert _result_tuple(g) == _result_tuple(w)
        assert _sim_state(quiet) == _sim_state(quiet_ref)
        assert _sim_state(busy) == _sim_state(busy_ref)

    def test_rejects_bad_inputs(self):
        sim = LcRequestSimulator(qps=100.0)
        with pytest.raises(ValueError, match="duration"):
            run_epoch_batch([sim], 0.0, [1.0])
        with pytest.raises(ValueError, match="one mean"):
            run_epoch_batch([sim], EPOCH, [1.0, 2.0])
        with pytest.raises(ValueError, match="service time"):
            run_epoch_batch([sim], EPOCH, [0.0])


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
                engine="fast",
            ).run(4)
            assert _canonical(res) == _canonical(solo)

    def test_matches_reference_engine(self):
        batch = BatchSystemModel(
            "Jumanji", _workloads([0, 1]), seeds=[3, 4]
        )
        got = batch.run(3)
        for m, seed, res in zip([0, 1], [3, 4], got):
            ref = SystemModel(
                make_design("Jumanji"),
                make_default_workload(["xapian"], mix_seed=m),
                seed=seed,
                engine="reference",
            ).run(3)
            assert _canonical(res) == _canonical(ref)

    def test_single_epoch(self):
        batch = BatchSystemModel("Static", _workloads([5]), seeds=[1])
        got = batch.run(1)
        solo = SystemModel(
            make_design("Static"),
            make_default_workload(["xapian"], mix_seed=5),
            seed=1,
            engine="fast",
        ).run(1)
        assert _canonical(got[0]) == _canonical(solo)

    def test_empty_mix_list(self):
        batch = BatchSystemModel("Static", [], seeds=[])
        assert batch.run(3) == []
        assert batch.stage_times.total() >= 0.0

    def test_reference_engine_refused(self):
        with pytest.raises(ValueError, match="accelerated"):
            BatchSystemModel(
                "Static", _workloads([0]), engine="reference"
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
                engine="fast",
            ).run(2)
            assert _canonical(res) == _canonical(solo)

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
            alloc = Allocation(config, accelerated=True)
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
        a = Allocation(config, accelerated=True)
        a.add_stripe("lc0", [0.5] * n)
        b = Allocation(config, accelerated=True)
        grants = [0.5] * n
        grants[0], grants[-1] = 1.0, 0.0
        b.add_stripe("lc0", grants)
        assert a.descriptor_for("lc0") != b.descriptor_for("lc0")
