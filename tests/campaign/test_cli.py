"""Tests for the ``repro-sim campaign`` subcommands and ``--store`` flag."""

import csv

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_defaults(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--store", "s", "--mixes", "Q1", "--schemes", "lru"]
        )
        assert args.seeds == [0]
        assert args.retries == 1
        assert args.timeout is None
        assert args.limit is None

    def test_store_flag_on_fanout_commands(self):
        args = build_parser().parse_args(
            ["compare", "lru", "--mix", "Q1", "--store", "somewhere"]
        )
        assert args.store == "somewhere"


class TestCampaignCommands:
    RUN = ["campaign", "run", "--mixes", "Q1", "--schemes", "lru", "dip",
           "--instructions", "3000", "--quiet"]

    def _store_args(self, tmp_path):
        return ["--store", str(tmp_path / "s")]

    def test_run_status_resume_export(self, capsys, tmp_path):
        store = self._store_args(tmp_path)
        # Run at most one spec (an "interrupted" campaign)...
        assert main(self.RUN + store + ["--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "executed 1" in out and "remaining 1" in out

        # ...status reports the gap (exit 1: incomplete)...
        assert main(["campaign", "status"] + store) == 1
        out = capsys.readouterr().out
        assert "1/2 completed" in out and "1 pending" in out

        # ...resume executes exactly the remainder...
        assert main(["campaign", "resume", "--quiet"] + store) == 0
        out = capsys.readouterr().out
        assert "executed 1" in out and "skipped 1 (cached)" in out

        # ...a second resume recomputes nothing...
        assert main(["campaign", "resume", "--quiet"] + store) == 0
        out = capsys.readouterr().out
        assert "executed 0" in out and "skipped 2 (cached)" in out
        assert main(["campaign", "status"] + store) == 0

        # ...and export writes one row per spec.
        out_csv = tmp_path / "out.csv"
        assert main(["campaign", "export", "-o", str(out_csv)] + store) == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["scheme"] for r in rows] == ["lru", "dip"]
        assert all(r["status"] == "completed" for r in rows)

    def test_run_reports_failures_with_nonzero_exit(self, capsys, tmp_path):
        argv = ["campaign", "run", "--mixes", "Q1", "--schemes", "bogus",
                "--instructions", "3000", "--retries", "0", "--quiet"]
        assert main(argv + self._store_args(tmp_path)) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "bogus" in out

    def test_run_rejects_mixed_core_counts(self, tmp_path):
        argv = ["campaign", "run", "--mixes", "Q1", "S1", "--schemes", "lru",
                "--quiet"] + self._store_args(tmp_path)
        with pytest.raises(SystemExit):
            main(argv)

    def test_status_on_non_campaign_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["campaign", "status", "--store", str(tmp_path / "nope")])


class TestStoreFlag:
    """``--store`` reaches the run grid of every fan-out command."""

    @pytest.mark.parametrize("argv", [
        ["compare", "lru", "dip", "--mix", "Q1"],
        ["experiment", "fig12", "--instructions", "3000"],
        ["sweep", "probability_bits", "6", "8", "--scheme", "prism-h", "--mix", "Q1"],
    ], ids=["compare", "fig12", "sweep"])
    def test_store_flag_caches_runs(self, argv, capsys, tmp_path, monkeypatch):
        store = tmp_path / "s"
        if "--instructions" not in argv:
            argv = argv + ["--instructions", "3000"]
        argv = argv + ["--store", str(store)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (store / "results.jsonl").exists()

        # Second invocation answers from the store without simulating.
        import repro.experiments.parallel as parallel_module

        def boom(*args, **kwargs):
            raise AssertionError("should not simulate: results are cached")

        monkeypatch.setattr(parallel_module, "run_workload", boom)
        assert main(argv) == 0
        assert capsys.readouterr().out == first
