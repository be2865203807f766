"""Chunked sweep evaluation: batchable cells share one handler call.

The runner groups ``baseline`` and ``workload`` cells that differ only
in LC workload, load and batch mix into chunks, each run as one
:class:`~repro.model.batch.BatchSystemModel`. Chunking may change cost,
never results: every cell keeps its own cache entry, fault rolls,
retries and slot in the results, so a chunked sweep equals per-cell
evaluation whatever the worker count, cache state or injected faults.
"""

import pytest

from repro.chaos import differential_sweep
from repro.experiments.common import (
    DEFAULT_DESIGNS,
    baseline_cell,
    workload_cell,
)
from repro.faults import FaultPlan
from repro.model.batch import BatchSystemModel
from repro.model.system import _run_design
from repro.model.workload import make_default_workload
from repro.runner import (
    CHUNK_CELLS,
    Cell,
    ResultCache,
    RetryPolicy,
    SweepRunner,
    cell_key,
    chunk_cells,
    compute_cell,
    register_cell_kind,
)

#: (lc_workload, load, mix_seed) triples mixing every chunk axis.
TRIPLES = [
    ("xapian", "high", 0),
    ("Mixed", "low", 1),
    ("moses", "high", 2),
    ("xapian", "low", 3),
    ("Mixed", "high", 4),
    ("img-dnn", "low", 5),
    ("silo", "high", 6),
]

EPOCHS = 3


@register_cell_kind("probe_chunk", chunk_over=("x",))
def _probe_chunk(chunk):
    if any(p["x"] < 0 for p in chunk):
        raise ValueError("negative probe")
    return [{"x": p["x"], "sq": p["x"] * p["x"]} for p in chunk]


def _probes(xs, tag="t"):
    return [Cell("probe_chunk", {"x": x, "tag": tag}) for x in xs]


def _fast_policy(**kwargs):
    defaults = dict(retries=8, backoff_seconds=0.002)
    defaults.update(kwargs)
    return RetryPolicy(**defaults)


def _workload(lc_workload, load, mix_seed):
    from repro.experiments.common import _lc_apps_for

    return make_default_workload(
        _lc_apps_for(lc_workload, mix_seed), mix_seed=mix_seed, load=load
    )


class TestBatchAcrossWorkloads:
    @pytest.mark.parametrize("design", DEFAULT_DESIGNS)
    def test_batch_matches_single_runs_per_mix(self, design):
        # Mixes with different LC workloads (one to three LC apps) and
        # loads in one lockstep batch: each mix is bit-identical to its
        # own run.
        triples = TRIPLES[:CHUNK_CELLS]
        seeds = [100 + mix for _, _, mix in triples]
        batched = BatchSystemModel(
            design, [_workload(*t) for t in triples], seeds=seeds
        ).run(EPOCHS)
        for triple, seed, result in zip(triples, seeds, batched):
            single = _run_design(
                design, _workload(*triple), num_epochs=EPOCHS, seed=seed
            )
            assert repr(result) == repr(single), triple


class TestChunking:
    def test_batchable_cells_chunk_across_their_axes(self):
        cells = [
            baseline_cell(lc, load, mix, EPOCHS) for lc, load, mix in TRIPLES
        ] + [
            workload_cell(design, lc, load, mix, EPOCHS)
            for design in ("Static", "Jumanji")
            for lc, load, mix in TRIPLES[:2]
        ]
        chunks = chunk_cells(cells, range(len(cells)))
        # Seven baselines split evenly (4 + 3); each design is its own
        # chunk.
        assert chunks == [(0, 1, 2, 3), (4, 5, 6), (7, 8), (9, 10)]

    def test_shared_params_separate_chunks(self):
        cells = [
            baseline_cell("xapian", "high", 0, EPOCHS),
            baseline_cell("xapian", "high", 1, EPOCHS + 1),
            baseline_cell("xapian", "high", 2, EPOCHS, base_seed=1),
            baseline_cell("xapian", "high", 3, EPOCHS),
        ]
        assert chunk_cells(cells, range(4)) == [(0, 3), (1,), (2,)]

    def test_chunks_hold_at_most_chunk_cells(self):
        cells = _probes(range(4 * CHUNK_CELLS + 1))
        chunks = chunk_cells(cells, range(len(cells)))
        assert len(chunks) == 5
        assert max(map(len, chunks)) <= CHUNK_CELLS
        assert sorted(i for chunk in chunks for i in chunk) == list(
            range(len(cells))
        )

    def test_other_kinds_are_chunks_of_one(self):
        cells = [Cell("leakage_mix", {"mix": m}) for m in range(3)]
        assert chunk_cells(cells, [2, 0]) == [(0,), (2,)]

    def test_compute_cell_on_a_chunk_and_on_one_cell(self):
        cells = _probes([2, 3])
        assert compute_cell(cells) == [compute_cell(c) for c in cells]
        assert compute_cell(cells[0]) == {"x": 2, "sq": 4}


def _sweep_cells():
    return [
        workload_cell(design, lc, load, mix, EPOCHS)
        for design in ("Static", "Jumanji")
        for lc, load, mix in TRIPLES
    ]


class TestChunkedMap:
    @pytest.fixture(scope="class")
    def expected(self, tmp_path_factory):
        # Cell by cell; each reads its Static baseline through the
        # default cache, here a fresh one.
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(
                "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("per-cell"))
            )
            return [repr(compute_cell(c)) for c in _sweep_cells()]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_cache(self, tmp_path, jobs, expected):
        runner = SweepRunner(jobs=jobs, cache=ResultCache(tmp_path))
        assert [repr(o) for o in runner.map(_sweep_cells())] == expected
        assert runner.stats.computed == len(expected)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_some_of_a_chunk_already_cached(self, tmp_path, jobs, expected):
        cells = _sweep_cells()
        cache = ResultCache(tmp_path)
        warm = [1, 4, 9]
        SweepRunner(jobs=1, cache=cache).map([cells[i] for i in warm])
        runner = SweepRunner(jobs=jobs, cache=cache)
        assert [repr(o) for o in runner.map(cells)] == expected
        assert runner.stats.cache_hits == len(warm)
        assert runner.stats.computed == len(cells) - len(warm)

    def test_each_cell_has_its_own_entry_and_duration(self, tmp_path):
        cells = _probes(range(CHUNK_CELLS))
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        runner.map(cells)
        durations = [cache.get(cell_key(c))["duration"] for c in cells]
        # One chunk: each cell is charged an equal share of its CPU time.
        assert len(set(durations)) == 1
        assert runner.stats.serial_seconds == pytest.approx(sum(durations))


def _sibling_failure_plan(site, cells):
    """A plan under which, at attempt 0, some cell of the first chunk
    fails at ``site`` while a sibling does not, and every cell gets
    through within :func:`_fast_policy`'s retries.

    Cell keys carry the code fingerprint, so without the last condition
    a source edit can pick a plan that fails one cell on every attempt.
    """
    keys = [cell_key(c) for c in cells]
    attempts = range(_fast_policy().retries + 1)
    for seed in range(200):
        plan = FaultPlan(seed=seed, **{site: 0.4})
        fired = [plan.fires(site, k, 0) for k in keys]
        clears = all(
            not all(plan.fires(site, k, a) for a in attempts) for k in keys
        )
        if any(fired) and not all(fired) and clears:
            return plan
    raise AssertionError("no plan seed splits the chunk")


class TestFaultsInChunks:
    @pytest.mark.parametrize("site", ["cell_error", "worker_crash"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_differential_sweep_converges(self, tmp_path, site, jobs):
        sweep = dict(
            designs=("Static",),
            lc_workloads=("xapian",),
            loads=("high",),
            mixes=3,
            epochs=2,
        )
        baselines = [
            baseline_cell("xapian", "high", mix, 2) for mix in range(3)
        ]
        clean = SweepRunner(jobs=jobs, cache=ResultCache(tmp_path / "c"))
        faulty = SweepRunner(
            jobs=jobs,
            cache=ResultCache(tmp_path / "f"),
            policy=_fast_policy(),
            fault_plan=_sibling_failure_plan(site, baselines),
        )
        identical, clean_outcomes, _ = differential_sweep(
            clean, faulty, **sweep
        )
        assert identical
        assert len(clean_outcomes) == 3
        assert faulty.stats.retries > 0
        assert clean.stats.retries == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_sibling_retries_alone(self, tmp_path, jobs):
        cells = _probes(range(4))
        plan = _sibling_failure_plan("cell_error", cells)
        runner = SweepRunner(
            jobs=jobs, cache=ResultCache(tmp_path), fault_plan=plan,
            policy=_fast_policy(),
        )
        assert runner.map(cells) == [compute_cell(c) for c in cells]
        failed = {
            e["key"] for e in runner.events if e["event"] == "cell_retry"
        }
        assert failed and len(failed) < len(cells)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_handler_error_fails_only_computed_cells(self, tmp_path, jobs):
        from repro.errors import CellFailed

        cells = _probes([1, -1, 2])
        runner = SweepRunner(
            jobs=jobs, cache=ResultCache(tmp_path),
            policy=_fast_policy(retries=1),
        )
        with pytest.raises(CellFailed, match="negative probe") as info:
            runner.map(cells)
        assert info.value.params["x"] == -1


@pytest.mark.chaos
class TestChunkDeaths:
    def test_dead_chunk_retries_its_cells_one_by_one(self, tmp_path):
        from repro import obs

        cells = _probes(range(8))
        keys = [cell_key(c) for c in cells]
        plan = next(
            p for p in (FaultPlan(seed=s, hard_crash=0.3) for s in range(200))
            if any(p.fires("hard_crash", k, 0) for k in keys)
            and not any(p.fires("hard_crash", k, 1) for k in keys)
        )
        obs.reset()
        obs.configure(enabled=True)
        try:
            runner = SweepRunner(
                jobs=2,
                cache=ResultCache(tmp_path),
                fault_plan=plan,
                policy=_fast_policy(timeout_seconds=0.3, poll_interval=0.01),
            )
            # Two chunks of four; a chunk holding a doomed cell dies.
            assert chunk_cells(cells, range(8)) == [
                (0, 1, 2, 3), (4, 5, 6, 7)
            ]
            assert runner.map(cells) == [compute_cell(c) for c in cells]
            spans = [
                r for r in obs.events()
                if r["type"] == "span" and r["name"] == "sweep.cell"
            ]
        finally:
            obs.reset()
        assert runner.stats.pool_respawns >= 1
        retried = [s["args"] for s in spans if s["args"]["attempt"] >= 1]
        assert retried and all(args["cells"] == 1 for args in retried)
