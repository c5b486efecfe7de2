"""The CI smoke scenario as a test: kill a campaign mid-way, resume it.

A real ``SIGKILL`` — no atexit handlers, no flushing — lands between (or
inside) spec executions; the store must come back with every completed
record intact and the resume must execute exactly the remainder.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.experiments.parallel as parallel_module
from repro.campaign import Campaign
from repro.experiments.configs import machine

CONFIG = machine(4, instructions=3_000)

#: Driver script: a 2-spec campaign with instruction windows long enough
#: (~seconds each) that the parent test can kill it between spec 1
#: completing and spec 2 finishing.
_DRIVER = """
import sys
from repro.campaign import Campaign
from repro.experiments.configs import machine

store = sys.argv[1]
config = machine(4, instructions=250_000)
camp = Campaign.grid(store, config, mixes=["Q1"], schemes=["lru", "dip"],
                     seeds=[0], retries=0)
camp.run(jobs=1)
"""


def test_sigkill_mid_campaign_then_resume(tmp_path):
    store = tmp_path / "s"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _DRIVER, str(store)],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    )
    records = store / "results.jsonl"
    try:
        # Wait for the first result record, then SIGKILL the driver while
        # it is simulating the second spec.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail(
                    "campaign driver finished before it could be killed; "
                    "raise the instruction window"
                )
            if records.exists() and records.read_text().count("\n") >= 1:
                break
            time.sleep(0.02)
        else:
            pytest.fail("campaign driver produced no result within 120s")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # The store alone is enough to resume.
    camp = Campaign.load(store)
    status = camp.status()
    assert status.completed == 1, status.describe()
    assert status.pending == 1

    run = camp.run(jobs=1)
    assert run.executed == 1  # exactly n - k
    assert run.skipped == 1
    assert Campaign.load(store).status().done

    # Zero recomputed fingerprints on the next pass.
    assert Campaign.load(store).run(jobs=1).executed == 0

    # And the record completed before the kill was never re-simulated:
    # the log holds exactly one record per fingerprint.
    lines = [json.loads(line) for line in records.read_text().splitlines()]
    fingerprints = [r["fingerprint"] for r in lines if r["record"] == "result"]
    assert len(fingerprints) == len(set(fingerprints)) == 2


#: The same campaign on two warm workers, with a third spec queued.
_WARM_DRIVER = _DRIVER.replace('"dip"]', '"dip", "prism-h"]').replace(
    "jobs=1", "jobs=2"
)


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs /proc/<pid>/task/<tid>/children")
def test_sigkill_driver_with_warm_workers_then_resume(tmp_path):
    """SIGKILL the driver mid-flight: its warm workers exit at pipe EOF."""
    store = tmp_path / "s"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _WARM_DRIVER, str(store)],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    )
    records = store / "results.jsonl"
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail("campaign driver finished before it could be killed")
            if records.exists() and records.read_text().count("\n") >= 1:
                break
            time.sleep(0.02)
        else:
            pytest.fail("campaign driver produced no result within 120s")
        with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
            workers = [int(pid) for pid in fh.read().split()]
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert len(workers) == 2

    deadline = time.monotonic() + 60
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = [pid for pid in workers if _running(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert not orphans, "orphaned workers kept running"

    camp = Campaign.load(store)
    done = camp.status().completed
    assert 1 <= done < 3
    run = camp.run(jobs=2)
    assert run.executed == 3 - done and run.skipped == done
    assert Campaign.load(store).run(jobs=2).executed == 0
    lines = [json.loads(line) for line in records.read_text().splitlines()]
    fingerprints = [r["fingerprint"] for r in lines if r["record"] == "result"]
    assert len(fingerprints) == len(set(fingerprints)) == 3


def test_driver_crash_between_specs_equivalent(tmp_path, monkeypatch):
    """Deterministic in-process variant: the driver dies after spec k."""
    camp = Campaign.grid(tmp_path / "s", CONFIG, mixes=["Q1", "Q2"],
                         schemes=["lru"], seeds=[0])

    original = parallel_module.run_workload
    calls = []

    def die_after_first(*args, **kwargs):
        if calls:
            raise KeyboardInterrupt("driver interrupted")
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(parallel_module, "run_workload", die_after_first)
    with pytest.raises(KeyboardInterrupt):
        camp.run(jobs=1)

    monkeypatch.setattr(parallel_module, "run_workload", original)
    resumed = Campaign.load(tmp_path / "s")
    assert resumed.status().completed == 1
    run = resumed.run(jobs=1)
    assert run.executed == 1 and run.skipped == 1
    assert resumed.status().done
