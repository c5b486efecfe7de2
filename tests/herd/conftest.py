"""Shared isolation and worker helpers for the worker-fleet tests.

Every test here runs campaigns through the one dispatch loop
(:func:`repro.campaign.executor.iter_isolated`) over forked workers,
subprocess workers (``python -m repro.cli herd worker``), or both.
"""

import os
import sys

import pytest

from repro.experiments.runner import DEFAULT_STANDALONE_CACHE

#: The two kinds of worker every end-to-end property must hold for.
KINDS = ("fork", "exec")


def local_commands(count):
    """``count`` subprocess workers on this machine: the byte stream an
    ssh worker speaks, without the ssh."""
    argv = [sys.executable, "-m", "repro.cli", "herd", "worker"]
    return [("exec", list(argv)) for _ in range(count)]


def workers(kind, count):
    """``Campaign.run`` keyword arguments for ``count`` workers of ``kind``."""
    if kind == "fork":
        return {"jobs": count}
    return {"commands": local_commands(count)}


def patched_workers(count, patch):
    """``count`` subprocess workers that run ``patch`` (Python source, in
    the worker's globals) before serving: a monkeypatch for a process
    that fork cannot carry one into."""
    source = f"{patch}\nimport sys\nfrom repro.campaign.stdio import serve\nsys.exit(serve())\n"
    return [("exec", [sys.executable, "-c", source]) for _ in range(count)]


@pytest.fixture(autouse=True)
def _isolate_env(monkeypatch):
    """A cold stand-alone memo, and subprocess workers that import repro
    the way this process does."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in sys.path if p))
    DEFAULT_STANDALONE_CACHE.clear()
    yield
    DEFAULT_STANDALONE_CACHE.clear()
