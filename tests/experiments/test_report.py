"""Tests for the markdown report generator."""

import pytest

from repro.experiments.report import BUDGETS, generate_report
from repro.experiments.registry import EXPERIMENTS


class TestBudgets:
    def test_micro_and_quick_cover_registry(self):
        assert set(BUDGETS["micro"]) == set(EXPERIMENTS)
        assert set(BUDGETS["quick"]) == set(EXPERIMENTS)

    def test_full_budget_is_defaults(self):
        assert BUDGETS["full"] == {}


class TestGenerate:
    def test_unknown_budget(self, tmp_path):
        with pytest.raises(ValueError, match="budget"):
            generate_report(tmp_path / "r.md", budget="bogus")

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(KeyError, match="fig99"):
            generate_report(tmp_path / "r.md", budget="micro", only=["fig99"])

    def test_single_experiment_report(self, tmp_path):
        path = generate_report(tmp_path / "r.md", budget="micro", only=["fig12"])
        text = path.read_text()
        assert "# PriSM reproduction report" in text
        assert "## fig12" in text
        assert "**Paper:**" in text
        assert "Figure 12" in text

    def test_headroom_runs_under_report_jobs(self, tmp_path):
        # The report hands jobs to every experiment; headroom declares
        # none and runs as it does serially.
        path = generate_report(
            tmp_path / "r.md", budget="micro", only=["headroom"], jobs=2
        )
        assert "## headroom" in path.read_text()

    def test_progress_callback(self, tmp_path):
        seen = []
        generate_report(
            tmp_path / "r.md", budget="micro", only=["sec56"], progress=seen.append
        )
        assert any("sec56" in msg for msg in seen)

    def test_module_cli(self, tmp_path, capsys):
        from repro.experiments.report import main

        out = tmp_path / "cli.md"
        assert main(["-o", str(out), "--budget", "micro", "--only", "fig13",
                     "--quiet"]) == 0
        assert out.exists()
        assert "fig13" in out.read_text()
