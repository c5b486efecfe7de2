"""Smoke tests: every example script runs end-to-end at tiny scale."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--instructions", "60000")
        assert "ANTT" in out
        assert "PriSM-H" in out

    def test_hitmax_study(self):
        out = run_example(
            "hitmax_study.py", "--cores", "4", "--mixes", "2",
            "--instructions", "60000",
        )
        assert "geomean" in out
        assert "PriSM-H" in out

    def test_fairness_and_qos(self):
        out = run_example("fairness_and_qos.py", "--instructions", "60000")
        assert "fairness" in out
        assert "QoS target" in out

    def test_custom_policy(self):
        out = run_example("custom_policy.py", "--instructions", "60000")
        assert "achieved" in out

    def test_trace_replay(self, tmp_path):
        out = run_example(
            "trace_replay.py", "--length", "5000",
            "--instructions", "60000", "--dir", str(tmp_path),
        )
        assert "throughput" in out
        assert (tmp_path / "179.art.npz").exists()

    def test_control_loop_trace(self):
        # So short a run completes fewer than two intervals: the phase
        # split must report that instead of dividing by zero.
        out = run_example("control_loop_trace.py", "--phase-length", "5000")
        assert "core 0 mean occupancy" in out

    @pytest.mark.parametrize("experiment", ["fig12", "sec56"])
    def test_reproduce_paper_single(self, experiment):
        out = run_example("reproduce_paper.py", "--only", experiment)
        assert experiment in out
