"""SIGKILL a campaign driver mid-run: its workers must exit.

A forked worker reads its pipe until EOF. Fork hands every worker a copy
of the driver's end of its own pipe (and of each earlier worker's), so
unless the worker closes those copies, the pipe never reaches EOF when
the driver dies and the worker runs on. A subprocess worker reads its
stdin until EOF, which the driver's death closes.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

#: Driver script: four long-ish specs over two workers of the kind named
#: in argv[2], so the test can kill the driver while both are mid-spec.
_DRIVER = """
import sys
from repro.campaign import Campaign
from repro.experiments.configs import machine

camp = Campaign.grid(sys.argv[1], machine(4, instructions=250_000), mixes=["Q1"],
                     schemes=["lru", "dip", "prism-h", "ucp"], seeds=[0], retries=0)
if sys.argv[2] == "fork":
    camp.run(jobs=2)
else:
    worker = [sys.executable, "-m", "repro.cli", "herd", "worker"]
    camp.run(commands=[("exec", worker), ("exec", worker)])
"""

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

needs_children = pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<tid>/children",
)


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _kill_driver_then_watch_workers(store, kind):
    proc = subprocess.Popen(
        [sys.executable, "-c", _DRIVER, str(store), kind],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in ["src", os.environ.get("PYTHONPATH", "")] if p)},
        cwd=REPO,
    )
    records = store / "results.jsonl"
    workers = []
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

    # A worker that sees EOF finishes its in-flight spec (a few seconds
    # here) and exits.
    deadline = time.monotonic() + 60
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = [pid for pid in workers if _running(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert not orphans, f"{kind} workers outlived the killed driver"


@needs_children
def test_local_workers_exit_after_controller_sigkill(tmp_path):
    _kill_driver_then_watch_workers(tmp_path / "s", "fork")


@needs_children
def test_subprocess_workers_exit_after_driver_sigkill(tmp_path):
    _kill_driver_then_watch_workers(tmp_path / "s", "exec")
