"""`repro-sim campaign run --hosts`, the worker table of `campaign status`,
the Ctrl-C drain, and `repro-sim herd worker` wiring."""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser, main

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class TestParser:
    def test_worker_flags_default_off(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--store", "s", "--mixes", "Q1", "--schemes", "lru"]
        )
        assert args.hosts is None  # forked workers
        assert args.chaos_kill_worker is None  # hidden chaos hook off
        args = build_parser().parse_args(
            ["campaign", "resume", "--store", "s", "--hosts", "a", "b", "a"]
        )
        assert args.hosts == ["a", "b", "a"]

    def test_top_level_worker_subcommand(self):
        args = build_parser().parse_args(["herd", "worker"])
        assert args.herd_top_command == "worker"

    def test_export_offers_parquet(self):
        args = build_parser().parse_args(
            ["campaign", "export", "--store", "s", "--format", "parquet",
             "-o", "out"]
        )
        assert args.format == "parquet"

    def test_schemes_required_with_mixes(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--store", "s", "--mixes", "Q1"])
        assert "--schemes" in capsys.readouterr().err


class TestHerdCommands:
    RUN = ["campaign", "run", "--mixes", "Q1", "Q4", "--schemes", "lru",
           "--instructions", "3000", "--quiet"]

    def test_run_then_status_then_resume(self, capsys, tmp_path):
        store = ["--store", str(tmp_path / "s")]
        assert main(self.RUN + store + ["--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "executed 2" in out

        assert main(["campaign", "status"] + store) == 0
        out = capsys.readouterr().out
        assert "2/2 completed" in out
        assert re.search(r"fork-0 .* exited", out)  # per-worker rows
        assert re.search(r"fork-1 .* exited", out)

        # Resuming the saved campaign recomputes nothing.
        assert main(["campaign", "resume", "--jobs", "2", "--quiet"] + store) == 0
        out = capsys.readouterr().out
        assert "executed 0" in out and "skipped 2 (cached)" in out

    def test_status_without_herd_run(self, capsys, tmp_path):
        store = ["--store", str(tmp_path / "s")]
        assert main(self.RUN + store + ["--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "status"] + store) == 0
        assert "workers:  none recorded" in capsys.readouterr().out


class TestDrain:
    def test_first_ctrl_c_drains_the_run(self, tmp_path):
        """Ctrl-C reaches the driver's whole process group: the driver stops
        handing out specs, the in-flight ones finish, and the rest stay
        pending for a resume."""
        store = tmp_path / "s"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign", "run", "--store", str(store),
             "--mixes", "Q1", "Q4", "--schemes", "lru", "dip", "prism-h", "ucp",
             "--instructions", "400000", "--jobs", "2", "--quiet"],
            cwd=REPO, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        records = store / "results.jsonl"
        deadline = time.monotonic() + 120
        while not (records.exists() and records.read_text().count("\n") >= 1):
            assert proc.poll() is None, "the run finished before it could be drained"
            assert time.monotonic() < deadline, "no result within 120s"
            time.sleep(0.02)
        os.killpg(proc.pid, signal.SIGINT)
        out, _ = proc.communicate(timeout=120)
        match = re.search(r"executed (\d+), skipped 0 \(cached\), remaining (\d+)", out)
        assert match, out
        executed, remaining = map(int, match.groups())
        assert executed + remaining == 8 and remaining > 0
        assert "failed" not in out.splitlines()[0]  # no worker died of the Ctrl-C
