"""Campaigns over subprocess workers: the ssh byte stream, without the ssh.

``local_commands`` runs ``python -m repro.cli herd worker`` subprocesses
speaking the framed-stdio protocol — exactly what an ssh worker speaks —
so this is the ssh path's integration coverage without needing sshd.
"""

import sys

import pytest

from repro.campaign.campaign import Campaign
from repro.campaign.runner import read_events
from repro.campaign.stdio import ssh_commands
from repro.campaign.store import ResultStore, result_to_dict
from repro.experiments.configs import machine

from tests.herd.conftest import local_commands

CONFIG = machine(4, instructions=3_000)


class TestExecHerd:
    def test_end_to_end_matches_in_process(self, tmp_path):
        campaign = Campaign.grid(
            tmp_path / "fleet", CONFIG, mixes=["Q1", "Q4"], schemes=["lru"]
        )
        run = campaign.run(commands=local_commands(2))
        assert run.executed == 2
        assert run.failed == 0 and run.remaining == 0 and not run.crashed_workers

        serial = Campaign.grid(
            tmp_path / "serial", CONFIG, mixes=["Q1", "Q4"], schemes=["lru"]
        )
        serial.run(jobs=1)
        ours = {
            s.fingerprint: result_to_dict(s.result)
            for s in ResultStore(tmp_path / "fleet").results()
        }
        theirs = {
            s.fingerprint: result_to_dict(s.result)
            for s in ResultStore(tmp_path / "serial").results()
        }
        assert ours == theirs

    def test_worker_stderr_lands_in_events(self, tmp_path):
        """What a worker says outside the protocol is kept per worker in
        ``events.jsonl``, and its last words explain a crash."""
        script = ("import sys\nprint('cannot reach the store', file=sys.stderr, "
                  "flush=True)\nsys.exit(3)\n")
        campaign = Campaign.grid(
            tmp_path / "store", CONFIG, mixes=["Q1"], schemes=["lru"], retries=0
        )
        run = campaign.run(commands=[("exec", [sys.executable, "-c", script])])
        [failure] = run.failures
        assert failure.error_type == "WorkerCrash"
        assert failure.message == (
            "worker exited with code 3 before reporting: cannot reach the store"
        )
        logs = [e for e in read_events(tmp_path / "store") if e["event"] == "log"]
        assert [(e["worker"], e["text"]) for e in logs] == [
            ("exec-0", "cannot reach the store")
        ]


class TestTransportResolution:
    def test_ssh_requires_hosts(self, tmp_path):
        campaign = Campaign.grid(tmp_path / "s", CONFIG, mixes=["Q1"], schemes=["lru"])
        with pytest.raises(ValueError, match="host"):
            campaign.run(commands=ssh_commands([]))

    def test_ssh_worker_names_and_argv(self):
        commands = ssh_commands(["alpha", "beta", "alpha"])
        assert [label for label, _ in commands] == ["alpha", "beta", "alpha"]
        label, argv = commands[2]
        assert argv[:3] == ["ssh", "-o", "BatchMode=yes"]
        assert argv[-2:] == ["alpha", "repro-sim herd worker"]
