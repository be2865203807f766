"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "Quicksaw"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    @pytest.mark.parametrize("argv", [
        ["reproduce", "--scale", "huge"],
        ["figure", "fig13", "--mixes", "2"],
        ["figure", "fig13", "--epochs", "2"],
        ["report"],
        ["bench", "--suite", "model"],
    ])
    def test_only_named_scales(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_designs_lists_all(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in ("Static", "Adaptive", "VM-Part", "Jigsaw",
                     "Jumanji"):
            assert name in out

    def test_deadline(self, capsys):
        assert main(["deadline", "silo"]) == 0
        out = capsys.readouterr().out
        assert "silo" in out and "cycles" in out

    def test_run_jumanji(self, capsys):
        assert main(
            ["run", "Jumanji", "--epochs", "6", "--mix", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch speedup" in out
        assert "vulnerability" in out

    def test_run_static_degenerate(self, capsys):
        assert main(["run", "Static", "--epochs", "5"]) == 0
        out = capsys.readouterr().out
        assert "speedup:     1.000" in out

    def test_run_mixed_lc(self, capsys):
        assert main(
            ["run", "Jumanji", "--lc", "Mixed", "--epochs", "5"]
        ) == 0
        assert "Mixed" in capsys.readouterr().out

    def test_figure_table2(self, capsys):
        assert main(["figure", "table2"]) == 0
        assert "20 cores" in capsys.readouterr().out

    def test_figure_table3(self, capsys):
        assert main(["figure", "table3"]) == 0
        assert "masstree" in capsys.readouterr().out

    def test_figure_fig11(self, capsys):
        assert main(["figure", "fig11"]) == 0
        assert "port attack" in capsys.readouterr().out

    def test_figure_command_accepts_jobs(self, capsys, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(
            ["figure", "fig18", "--scale", "smoke", "--jobs", "1"]
        ) == 0
        assert "Fig. 18" in capsys.readouterr().out

    def test_figure_fig5_small(self, capsys):
        assert main(["figure", "fig5", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scale: smoke (2 mixes x 10 epochs); seed: 0")
        assert "Jumanji" in out
        assert "claims: 3/3 hold" in out

    def test_failed_claim_fails_the_command(self, capsys, monkeypatch):
        import dataclasses

        from repro.experiments import report

        failing = [report.Claim("num_cores == 21", "20", False)]
        row = report._BY_STEM["table2"]
        monkeypatch.setitem(report._BY_STEM, "table2", dataclasses.replace(
            row, claims=lambda cfg: failing))
        assert main(["figure", "table2"]) == 1
        out = capsys.readouterr().out
        assert "CLAIM FAILED: num_cores == 21 (value 20)" in out
        assert "claims: 0/1 hold" in out
