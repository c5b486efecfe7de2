"""Tests for the repro-sim CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--mix", "Q7"])
        assert args.scheme == "prism-h"
        assert args.seed == 0

    def test_experiment_rejects_unknown_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_run_check_flag(self):
        args = build_parser().parse_args(["run", "--mix", "Q7", "--check"])
        assert args.check is True
        assert build_parser().parse_args(["run", "--mix", "Q7"]).check is False

    def test_campaign_run_check_flag(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--store", "s", "--mixes", "Q1",
             "--schemes", "lru", "--check"]
        )
        assert args.check is True

    def test_check_fuzz_defaults(self):
        args = build_parser().parse_args(["check", "fuzz"])
        assert args.cases == 200
        assert args.seed == 0
        assert args.schemes is None
        assert args.backend == "classic"

    def test_run_backend_flag(self):
        args = build_parser().parse_args(["run", "--mix", "Q1",
                                          "--backend", "vector"])
        assert args.backend == "vector"
        assert build_parser().parse_args(["run", "--mix", "Q1"]).backend == "classic"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mix", "Q1",
                                       "--backend", "turbo"])

    def test_check_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check"])


class TestCommands:
    def test_list_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "prism-h" in out
        assert "Q1-Q21" in out
        assert "179.art" in out
        assert "fig13" in out

    def test_list_schemes_only(self, capsys):
        main(["list", "schemes"])
        out = capsys.readouterr().out
        assert "vantage" in out
        assert "179.art" not in out

    def test_run_named_mix(self, capsys):
        assert main(["run", "--mix", "Q1", "--instructions", "20000"]) == 0
        out = capsys.readouterr().out
        assert "ANTT=" in out
        assert "eviction probabilities" in out

    def test_run_custom_mix(self, capsys):
        mix = "179.art,470.lbm,416.gamess,403.gcc"
        assert main(["run", "--mix", mix, "--scheme", "lru",
                     "--instructions", "20000"]) == 0
        out = capsys.readouterr().out
        assert "179.art" in out

    def test_run_telemetry_out(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "trace.jsonl"
        assert main(["run", "--mix", "Q1", "--instructions", "60000",
                     "--telemetry-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "in allocation policy" in out
        rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
        kinds = {row["record"] for row in rows}
        assert kinds == {"interval", "finish"}
        assert sum(1 for r in rows if r["record"] == "finish") == 4

    def test_compare(self, capsys):
        assert main(["compare", "lru", "prism-h", "--mix", "Q1",
                     "--instructions", "20000"]) == 0
        out = capsys.readouterr().out
        assert "lru" in out and "prism-h" in out
        assert "ANTT" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "470.lbm", "--accesses", "5000"]) == 0
        out = capsys.readouterr().out
        assert "streaming" in out
        assert "miss rate vs cache size" in out
        assert "reuse-distance" in out

    def test_report(self, capsys, tmp_path):
        out = tmp_path / "r.md"
        assert main(["report", "-o", str(out), "--budget", "micro",
                     "--only", "fig12", "--quiet"]) == 0
        assert "## fig12" in out.read_text()

    def test_cost(self, capsys):
        assert main(["cost", "--cores", "16", "--paper-scale"]) == 0
        out = capsys.readouterr().out
        assert "vantage" in out and "prism" in out
        # PriSM's line sits at way-partitioning-class cost, below Vantage.
        lines = {line.split()[0]: line for line in out.splitlines() if line.strip()}
        assert float(lines["prism"].split()[-1]) < float(lines["vantage"].split()[-1])

    def test_sweep(self, capsys):
        assert main(["sweep", "probability_bits", "6", "8", "--mix", "Q1",
                     "--instructions", "20000"]) == 0
        out = capsys.readouterr().out
        assert "probability_bits" in out
        assert "vs LRU" in out

    def test_run_with_check(self, capsys):
        assert main(["run", "--mix", "Q1", "--instructions", "20000",
                     "--check"]) == 0
        out = capsys.readouterr().out
        assert "ANTT=" in out

    def test_check_fuzz(self, capsys):
        assert main(["check", "fuzz", "--cases", "4", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "4 cases" in out
        assert "agree on every case" in out

    def test_check_fuzz_vector_backend(self, capsys):
        assert main(["check", "fuzz", "--cases", "3", "--backend", "vector",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "[backend=vector]" in out
        assert "vector engine agrees" in out

    def test_run_vector_backend(self, capsys):
        assert main(["run", "--mix", "Q1", "--scheme", "prism-h",
                     "--instructions", "20000", "--backend", "vector"]) == 0
        out = capsys.readouterr().out
        assert "ANTT=" in out

    def test_check_fuzz_scheme_filter(self, capsys):
        assert main(["check", "fuzz", "--cases", "3", "--schemes", "lru",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "lru=3" in out

    def test_check_fuzz_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit, match="no reference simulator"):
            main(["check", "fuzz", "--cases", "1", "--schemes", "ucp"])

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--jobs", "2"], "--jobs"),
            (["--jobs", "0"], "--jobs"),
            (["--store", "STORE"], "--store"),
            (["--jobs", "2", "--store", "STORE"], "--jobs and --store"),
        ],
    )
    def test_headroom_refuses_jobs_and_store(self, tmp_path, flags, named):
        store = tmp_path / "store"
        flags = [str(store) if f == "STORE" else f for f in flags]
        with pytest.raises(SystemExit, match=f"headroom would ignore {named}"):
            main(["experiment", "headroom", "--instructions", "2000", *flags])
        assert not store.exists()

    def test_experiment_with_csv(self, capsys, tmp_path):
        prefix = tmp_path / "fig12"
        assert main(["experiment", "fig12", "--instructions", "15000",
                     "--csv", str(prefix)]) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out
        assert "wrote" in out
        assert list(tmp_path.glob("fig12*.csv"))
