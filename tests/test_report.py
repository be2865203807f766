"""Tests for the reproduction-report generator."""

import pathlib

import pytest

from repro.experiments.report import (
    ARTIFACTS,
    Claim,
    collect,
    write_summary,
)


@pytest.fixture
def results_dir(tmp_path):
    (tmp_path / "fig8.txt").write_text("fig8 body\n")
    (tmp_path / "table2.txt").write_text("table2 body\n")
    return tmp_path


class TestCollect:
    def test_present_and_missing(self, results_dir):
        status = collect(results_dir)
        assert "fig8" in status.present
        assert status.present["fig8"] == "fig8 body\n"
        assert "fig13" in status.missing

    def test_empty_dir(self, tmp_path):
        status = collect(tmp_path)
        assert status.present == {}
        assert len(status.missing) == len(ARTIFACTS)
        assert status.coverage == 0.0
        assert not status.complete

    def test_complete_when_all_paper_artifacts_exist(self, tmp_path):
        for a in ARTIFACTS:
            if a.stem.startswith(("fig", "table")):
                (tmp_path / f"{a.stem}.txt").write_text("x\n")
        status = collect(tmp_path)
        assert status.complete
        # Ablations are extras: coverage below 1.0 is fine.
        assert status.coverage < 1.0


class TestWriteSummary:
    def test_writes_summary_file(self, results_dir):
        text = write_summary(results_dir)
        out = results_dir / "SUMMARY.md"
        assert out.is_file()
        assert out.read_text() == text

    def test_contains_checklist_and_bodies(self, results_dir):
        text = write_summary(results_dir)
        assert "- [x] Fig. 8" in text
        assert "- [ ] Fig. 13" in text
        assert "fig8 body" in text

    def test_claims_table(self, results_dir):
        claims = {
            "fig8": [Claim("D-NUCA needs less space", "1.0 vs 2.0", True)],
            "table2": [Claim("num_cores == 20", "19", False)],
        }
        text = write_summary(results_dir, claims=claims)
        assert "1/2 claims hold." in text
        assert "| fig8 | D-NUCA needs less space | 1.0 vs 2.0 | pass |" in text
        assert "| table2 | num_cores == 20 | 19 | FAIL |" in text
        assert text.index("## Claims") < text.index("fig8 body")

    def test_custom_output_path(self, results_dir, tmp_path):
        out = tmp_path / "custom.md"
        write_summary(results_dir, output=out)
        assert out.is_file()

    def test_real_results_dir_if_present(self):
        """The committed results/ assemble into a summary."""
        repo_results = pathlib.Path(__file__).parent.parent / "results"
        if not repo_results.is_dir():
            pytest.skip("no results/ yet")
        status = collect(repo_results)
        assert status.coverage > 0
