"""Integration tests for the experiment harness (tiny configurations).

These exercise every figure module end-to-end and assert the *shape*
properties the paper reports, at reduced scale so the suite stays fast.
"""

import pytest

from repro.experiments import (
    fig4,
    fig5,
    fig8,
    fig9,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    tables,
)
from repro.experiments.common import box_stats, run_sweep
from repro.model.api import run_model
from repro.sim.attack import PortAttackConfig


class TestCommon:
    def test_box_stats(self):
        stats = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.minimum == 1.0
        assert stats.median == 3.0
        assert stats.maximum == 5.0
        assert stats.mean == 3.0

    def test_box_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])

    def test_run_workload_reuses_baseline(self):
        outcome, _result, baseline = run_model(
            design="Jumanji", lc_workload="xapian", load="high",
            mix_seed=0, epochs=6,
        )
        assert outcome.speedup > 0
        outcome2, _r, _b = run_model(
            design="Jumanji", lc_workload="xapian", load="high",
            mix_seed=0, epochs=6, baseline_ipcs=baseline,
        )
        assert outcome2.speedup == pytest.approx(outcome.speedup)

    def test_sweep_selection(self):
        sweep = run_sweep(
            designs=("Static", "Jumanji"),
            lc_workloads=("silo",),
            loads=("high",),
            mixes=1,
            epochs=5,
        )
        assert len(sweep.outcomes) == 2
        assert sweep.select(design="Jumanji")[0].design == "Jumanji"
        assert sweep.designs() == ["Jumanji", "Static"]


class TestCaseStudy:
    @pytest.fixture(scope="class")
    def fig5_result(self):
        return fig5.run(epochs=15)

    def test_fig5_jumanji_best_of_all_worlds(self, fig5_result):
        r = fig5_result
        assert r.speedup["Jumanji"] > r.speedup["Adaptive"]

    def test_fig5_jigsaw_violates(self, fig5_result):
        assert fig5_result.worst_tail["Jigsaw"] > 1.3

    def test_fig5_format(self, fig5_result):
        text = fig5.format_table(fig5_result)
        assert "Jumanji" in text and "speedup" in text

    def test_fig4_series_lengths(self):
        result = fig4.run(epochs=6)
        for design in ("Adaptive", "Jigsaw", "Jumanji"):
            assert len(result.latency_series[design]) == 6
            assert len(result.alloc_series[design]) == 6
        assert "Fig. 4" in fig4.format_table(result)

    def test_fig4_jumanji_isolated(self):
        result = fig4.run(epochs=5, designs=("Jumanji",))
        assert all(v == 0.0 for v in result.vuln_series["Jumanji"])


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8.run(
            sizes_mb=(1.0, 1.5, 2.0, 3.0, 6.0, 20.0), epochs=15
        )

    def test_small_allocations_explode(self, result):
        assert result.snuca_tails[0] > 5 * result.deadline_cycles

    def test_dnuca_dominates_everywhere(self, result):
        for s, d in zip(result.snuca_tails, result.dnuca_tails):
            assert d <= s * 1.05

    def test_format(self, result):
        assert "deadline met" in fig8.format_table(result)


class TestFig9:
    def test_format(self):
        result = fig9.run(epochs=10)
        assert "sensitivity" in fig9.format_table(result)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11.run(
            PortAttackConfig(
                num_banks=4, dwell_accesses=1500, pause_accesses=300,
                batch_size=10,
            )
        )

    def test_attack_signal(self, result):
        assert result.same_bank_avg > result.other_bank_avg
        assert result.other_bank_avg > result.quiet_avg - 1e-9
        assert result.signal_cycles > 10

    def test_all_peaks_observed(self, result):
        assert result.num_peaks == 4

    def test_format(self, result):
        assert "port attack" in fig11.format_table(result)


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12.run(num_mixes=6, accesses=8000)

    def test_isolated_is_faster(self, result):
        assert max(result.isolated_tails) < min(result.shared_tails)

    def test_tails_sorted(self, result):
        assert result.shared_tails == sorted(result.shared_tails)

    def test_format(self, result):
        assert "img-dnn" in fig12.format_table(result)


class TestMainResults:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13.run(
            lc_workloads=("xapian",),
            loads=("high",),
            mixes=2,
            epochs=10,
        )

    def test_speedup_ordering(self, result):
        sweep = result.sweep
        assert sweep.gmean_speedup("Jumanji") > sweep.gmean_speedup(
            "Adaptive"
        )
        assert sweep.gmean_speedup("Jigsaw") > 1.05

    def test_tail_aware_designs_meet_deadlines(self, result):
        for design in ("Adaptive", "VM-Part", "Jumanji"):
            box = result.sweep.tail_box(design)
            assert box.median < 1.3

    def test_fig14_from_sweep(self, result):
        vuln = fig14.from_sweep(result.sweep)
        assert 0 < vuln.vulnerability["Jigsaw"] < 3.0
        assert "Fig. 14" in fig14.format_table(vuln)

    def test_fig15_from_sweep(self, result):
        energy = fig15.from_sweep(result.sweep)
        assert energy.normalized_total("Jumanji") < 1.0
        assert energy.normalized_total("Jigsaw") < 1.0
        assert energy.normalized_total(
            "Adaptive"
        ) == pytest.approx(1.0, abs=0.06)
        assert "energy" in fig15.format_table(energy)

    def test_table1_from_sweep(self, result):
        t1 = tables.run_table1(sweep=result.sweep)
        assert "Table I" in tables.format_table1(t1)

    def test_fig13_format(self, result):
        text = fig13.format_table(result)
        assert "gmean" in text


class TestFig16:
    def test_jumanji_close_to_ideal(self):
        result = fig16.run(
            lc_workloads=("xapian",), mixes=1, epochs=10
        )
        assert abs(result.gap_to("Jumanji: Ideal Batch")) < 0.06
        assert "Ideal Batch" in fig16.format_table(result)


class TestFig17:
    def test_scaling_is_gentle(self):
        result = fig17.run(vm_configs=(1, 4, 12), mixes=1, epochs=8)
        assert result.degradation() < 0.10
        assert all(s > 1.0 for s in result.speedups.values())
        assert "VMs" in fig17.format_table(result)


class TestFig18:
    def test_format(self):
        result = fig18.run(
            router_delays=(1, 3), mixes=1, epochs=8
        )
        assert "NoC" in fig18.format_table(result)


class TestTables:
    def test_table2_mentions_key_parameters(self):
        text = tables.format_table2()
        assert "20 cores" in text
        assert "20 MB" in text
        assert "120-cycle" in text

    def test_table3_lists_all_apps(self):
        text = tables.format_table3()
        for app in ("masstree", "xapian", "img-dnn", "silo", "moses"):
            assert app in text
