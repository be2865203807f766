"""Runner equivalence: parallel, serial, and cache-warm runs are
bit-identical, and the content-addressed cache invalidates at exactly
cell granularity.

These tests run a reduced Fig. 13 sweep (one LC workload, one load,
two designs, 8 mixes, 2 epochs) so they stay fast while still going
through the full runner path: baseline cells, nested ``get_or_compute``,
the fork pool, and the on-disk cache.
"""

import pytest

from repro.experiments.common import run_sweep, workload_cell
from repro.runner import (
    Cell,
    ResultCache,
    SweepRunner,
    cell_key,
    collecting_stats,
)

DESIGNS = ("Static", "Jumanji")
SCALE = dict(
    designs=DESIGNS,
    lc_workloads=("xapian",),
    loads=("high",),
    mixes=8,
    epochs=2,
)


def _small_sweep(jobs):
    return run_sweep(jobs=jobs, **SCALE)


def _canon(sweep):
    """Bit-exact canonical form of a sweep (dataclass reprs)."""
    return [repr(o) for o in sweep.outcomes]


class TestEquivalence:
    def test_parallel_serial_and_warm_bit_identical(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        parallel = _canon(_small_sweep(jobs=4))

        with collecting_stats() as warm_stats:
            warm = _canon(_small_sweep(jobs=4))

        # Serial run against a fresh cache: everything recomputed inline.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        with collecting_stats() as serial_stats:
            serial = _canon(_small_sweep(jobs=1))

        assert parallel == serial
        assert parallel == warm
        assert warm_stats.computed == 0
        assert warm_stats.cache_hits == warm_stats.cells > 0
        assert serial_stats.cache_hits == 0
        assert serial_stats.computed == serial_stats.cells > 0

    def test_results_preserve_submission_order(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        sweep = _small_sweep(jobs=4)
        expected = [
            ("xapian", "high", mix, design)
            for mix in range(SCALE["mixes"])
            for design in DESIGNS
        ]
        got = [
            (o.lc_workload, o.load, o.mix_seed, o.design)
            for o in sweep.outcomes
        ]
        assert got == expected


class TestCacheInvalidation:
    def _cells(self, epochs_last=2):
        cells = [
            workload_cell("Jumanji", "xapian", "high", m, epochs=2)
            for m in range(3)
        ]
        cells.append(
            workload_cell("Jumanji", "xapian", "high", 3,
                          epochs=epochs_last)
        )
        return cells

    def test_mutating_one_input_invalidates_exactly_that_cell(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = SweepRunner(jobs=1)
        runner.map(self._cells())

        # Same inputs: every cell is served from the cache.
        with collecting_stats() as stats:
            runner.map(self._cells())
        assert stats.computed == 0
        assert stats.cache_hits == 4

        # One cell's input mutated: exactly that one recomputes.
        with collecting_stats() as stats:
            runner.map(self._cells(epochs_last=3))
        assert stats.computed == 1
        assert stats.cache_hits == 3

        # The original entries were not disturbed by the mutated run.
        with collecting_stats() as stats:
            runner.map(self._cells())
        assert stats.computed == 0
        assert stats.cache_hits == 4

    def test_invalidate_removes_single_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = [
            Cell("baseline", {
                "lc_workload": "xapian", "load": "high",
                "mix_seed": m, "epochs": 2, "base_seed": 0,
                "config": None,
            })
            for m in range(2)
        ]
        runner = SweepRunner(jobs=1, cache=cache)
        runner.map(cells)
        assert cache.size() == 2

        assert cache.invalidate(cell_key(cells[0]))
        assert cache.size() == 1

        with collecting_stats() as stats:
            runner.map(cells)
        assert stats.computed == 1
        assert stats.cache_hits == 1

    def test_key_depends_on_every_param(self):
        base = workload_cell("Jumanji", "xapian", "high", 0, epochs=2)
        assert cell_key(base) == cell_key(
            workload_cell("Jumanji", "xapian", "high", 0, epochs=2)
        )
        variants = [
            workload_cell("Jigsaw", "xapian", "high", 0, epochs=2),
            workload_cell("Jumanji", "moses", "high", 0, epochs=2),
            workload_cell("Jumanji", "xapian", "low", 0, epochs=2),
            workload_cell("Jumanji", "xapian", "high", 1, epochs=2),
            workload_cell("Jumanji", "xapian", "high", 0, epochs=3),
            workload_cell("Jumanji", "xapian", "high", 0, epochs=2,
                          base_seed=1),
        ]
        keys = {cell_key(v) for v in variants}
        assert len(keys) == len(variants)
        assert cell_key(base) not in keys


class TestShardedSimCells:
    """The attack cell kinds shard losslessly."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_leakage_mixes_shard_identically(self):
        from repro.sim.attack import (
            LeakageResult,
            _leakage_mix_cell,
            run_leakage_experiment,
        )

        # The in-process loop the sweep replaces, one mix at a time.
        serial = [
            LeakageResult(**_leakage_mix_cell(
                mix=mix, accesses=1500, victim_ways=4, num_ways=16,
                num_sets=256, shared_bank=True, seed=7,
            ))
            for mix in range(3)
        ]
        sharded = run_leakage_experiment(
            num_mixes=3, accesses=1500, jobs=2
        )
        assert serial == sharded

    def test_port_attack_shards_identically(self):
        from repro.sim.attack import (
            PortAttackConfig,
            run_port_attack,
            run_port_attack_sharded,
        )

        cfg = PortAttackConfig(dwell_accesses=200, pause_accesses=50)
        attack, baseline = run_port_attack_sharded(cfg, jobs=2)
        assert attack == run_port_attack(cfg, include_victim=True)
        assert baseline == run_port_attack(cfg, include_victim=False)
