"""Tests for the reproduction-report generator."""

import pathlib

import pytest

from repro.experiments.report import Claim, write_summary


@pytest.fixture
def produced():
    return {
        "fig8": ("fig8 body\n", []),
        "table2": ("table2 body\n", []),
    }


class TestWriteSummary:
    def test_writes_summary_file(self, tmp_path, produced):
        text = write_summary(tmp_path, produced)
        out = tmp_path / "SUMMARY.md"
        assert out.is_file()
        assert out.read_text() == text

    def test_contains_checklist_and_bodies(self, tmp_path, produced):
        """Every produced body is embedded under its title; the summary
        keeps no checklist, since it only ever sees complete runs."""
        text = write_summary(tmp_path, produced)
        assert "## Fig. 8 — tail latency vs. allocation" in text
        assert "fig8 body" in text
        assert "table2 body" in text
        assert "## Checklist" not in text

    def test_claims_table(self, tmp_path):
        produced = {
            "fig8": (
                "fig8 body\n",
                [Claim("D-NUCA needs less space", "1.0 vs 2.0", True)],
            ),
            "table2": (
                "table2 body\n", [Claim("num_cores == 20", "19", False)]
            ),
        }
        text = write_summary(tmp_path, produced)
        assert "1/2 claims hold." in text
        assert "| fig8 | D-NUCA needs less space | 1.0 vs 2.0 | pass |" in text
        assert "| table2 | num_cores == 20 | 19 | FAIL |" in text
        assert text.index("## Claims") < text.index("fig8 body")

    def test_real_results_dir_if_present(self):
        """The committed SUMMARY.md embeds every committed artifact."""
        repo_results = pathlib.Path(__file__).parent.parent / "results"
        if not (repo_results / "SUMMARY.md").is_file():
            pytest.skip("no results/ yet")
        summary = (repo_results / "SUMMARY.md").read_text()
        artifacts = sorted(repo_results.glob("*.txt"))
        assert artifacts
        for path in artifacts:
            body = path.read_text().rstrip("\n")
            assert f"```text\n{body}\n```" in summary, path.name
