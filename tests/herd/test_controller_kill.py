"""SIGKILL a herd controller mid-run: its local workers must exit.

Each local worker reads its control pipe until EOF. Fork hands every
worker a copy of the controller's end of its own pipe (and of each
earlier worker's), so unless the worker closes those copies, the pipe
never reaches EOF when the controller dies and the worker runs on.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

#: Controller script: four long-ish specs over two local workers, so the
#: test can kill the controller while both workers are mid-shard.
_CONTROLLER = """
import sys
from repro.campaign import Campaign
from repro.experiments.configs import machine
from repro.herd.controller import HerdController
from repro.herd.transport import LocalTransport

camp = Campaign.grid(sys.argv[1], machine(4, instructions=250_000), mixes=["Q1"],
                     schemes=["lru", "dip", "prism-h", "ucp"], seeds=[0], retries=0)
HerdController(camp, transport=LocalTransport(), workers=2).run()
"""


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs /proc/<pid>/task/<tid>/children")
def test_local_workers_exit_after_controller_sigkill(tmp_path):
    store = tmp_path / "s"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _CONTROLLER, str(store)],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    )
    records = store / "results.jsonl"
    workers = []
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail("herd controller finished before it could be killed")
            if records.exists() and records.read_text().count("\n") >= 1:
                break
            time.sleep(0.02)
        else:
            pytest.fail("herd controller produced no result within 120s")
        with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
            workers = [int(pid) for pid in fh.read().split()]
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert len(workers) == 2

    # A worker that sees EOF drains: it finishes its in-flight spec (a few
    # seconds here) and exits.
    deadline = time.monotonic() + 60
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = [pid for pid in workers if _running(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert not orphans, "herd workers outlived the killed controller"
