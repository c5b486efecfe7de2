"""Subprocess workers obey every rule of the one dispatch loop.

``timeout``, ``check``, crash-and-retry and heartbeat liveness hold for
``repro-sim herd worker`` subprocesses exactly as for forked workers.
"""

import collections
import os
import signal
import sys
import threading
import time

import repro.campaign.stdio as stdio
from repro.campaign.campaign import Campaign
from repro.campaign.runner import read_events
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec

from tests.herd.conftest import local_commands, patched_workers

CONFIG = machine(4, instructions=3_000)


def result_records(store_root):
    return collections.Counter(
        record["fingerprint"]
        for record in Campaign.load(store_root).store.iter_records()
        if record["record"] == "result"
    )


class TestTimeoutAndCheck:
    def test_timeout_holds_for_subprocess_workers(self, tmp_path):
        """Regression: the sharded herd never read ``campaign.timeout`` and
        executed this grid to completion."""
        campaign = Campaign.grid(tmp_path / "s", CONFIG, mixes=["Q1"],
                                 schemes=["lru", "prism-h"], retries=0, timeout=0.05)
        run = campaign.run(commands=local_commands(2))
        assert run.executed == 0 and run.failed == 2
        assert {f.error_type for f in run.failures} == {"Timeout"}
        assert all(f.timed_out for f in run.failures)
        assert not result_records(tmp_path / "s")
        timeouts = [e for e in read_events(tmp_path / "s") if e["event"] == "timeout"]
        assert len(timeouts) == 2

    def test_check_flag_reaches_the_subprocess_worker(self, tmp_path):
        refuse = (
            "import repro.check.invariants as invariants\n"
            "def refuse(cache):\n"
            "    raise RuntimeError('checker attached')\n"
            "invariants.attach_checker = refuse\n"
        )
        specs = [RunSpec("Q1"), RunSpec("Q2", check=True)]
        run = Campaign(tmp_path / "s", CONFIG, specs, retries=0).run(
            commands=patched_workers(2, refuse)
        )
        assert run.executed == 1
        [failure] = run.failures
        assert failure.spec == specs[1]
        assert failure.error_type == "RuntimeError"
        assert failure.message == "checker attached"


class TestCrash:
    def test_sigkilled_worker_is_replaced_and_its_spec_retried(self, tmp_path):
        marker = tmp_path / "busy"
        # The first spec any worker starts stalls, after publishing that
        # worker's pid, so the test can SIGKILL it mid-spec.
        stall_once = (
            "import os, time\n"
            "import repro.experiments.parallel as parallel_module\n"
            "original = parallel_module.run_workload\n"
            "def stall_once(*args, **kwargs):\n"
            f"    marker = {str(marker)!r}\n"
            "    if not os.path.exists(marker):\n"
            "        with open(marker + '.tmp', 'w') as fh:\n"
            "            fh.write(str(os.getpid()))\n"
            "        os.rename(marker + '.tmp', marker)\n"
            "        time.sleep(120)\n"
            "    return original(*args, **kwargs)\n"
            "parallel_module.run_workload = stall_once\n"
        )
        campaign = Campaign.grid(tmp_path / "s", CONFIG, mixes=["Q1"],
                                 schemes=["lru", "dip"], retries=1)
        runs = []
        driver = threading.Thread(
            target=lambda: runs.append(campaign.run(commands=patched_workers(1, stall_once)))
        )
        driver.start()
        deadline = time.monotonic() + 60
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        os.kill(int(marker.read_text()), signal.SIGKILL)
        driver.join(timeout=120)
        assert not driver.is_alive()

        [run] = runs
        assert run.crashed_workers == ["exec-0"]
        assert run.executed == 2 and run.failed == 0
        counts = result_records(tmp_path / "s")
        assert set(counts) == set(campaign.fingerprints())
        assert set(counts.values()) == {1}
        events = [(e["event"], e["worker"]) for e in read_events(tmp_path / "s")
                  if e["event"] in ("start", "crash")]
        assert events == [("start", "exec-0"), ("crash", "exec-0"), ("start", "exec-1")]

    def test_silent_worker_counts_as_crashed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(stdio, "DEAD_AFTER_SECONDS", 1.0)
        hung = "import sys, time\nsys.stdin.readline()\ntime.sleep(120)\n"
        campaign = Campaign.grid(tmp_path / "s", CONFIG, mixes=["Q1"],
                                 schemes=["lru"], retries=0)
        start = time.monotonic()
        run = campaign.run(commands=[("exec", [sys.executable, "-c", hung])])
        assert time.monotonic() - start < 30
        [failure] = run.failures
        assert failure.error_type == "WorkerCrash"
        assert failure.message == "worker heartbeats stopped"
        assert run.crashed_workers == ["exec-0"]
