"""Cold-start guard: the paper path runs without importing numpy.

numpy costs a fresh process about 0.1 s and 12 MiB before it simulates
anything, and only the trace families, the trace encoder, the vector
engine and the ``check`` state views use it. Each case runs in a fresh
interpreter and reports which modules it ended up loading.
"""

import json
import os
import subprocess
import sys

import pytest

PROBE = """
import json, sys
{code}
print(json.dumps(sorted(sys.modules)))
"""


def _loaded(code: str) -> set:
    """Module names loaded after running ``code`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def _cli(*argv: str) -> str:
    return (
        "from repro.cli import main\n"
        "try:\n"
        f"    main({list(argv)!r})\n"
        "except SystemExit:\n"
        "    pass"
    )


NUMPY_FREE = {
    "import": "import repro",
    "paper-mix": (
        "from repro import machine, run_workload\n"
        "for scheme in ('lru', 'prism-h'):\n"
        "    run_workload('Q1', machine(4), scheme, instructions=2000)"
    ),
    "belady-hierarchy": (
        "from repro import machine, run_workload\n"
        "config = machine(4, l1='inclusive', dram_banks=4, dram_row_blocks=8)\n"
        "run_workload('Q1', config, 'belady', instructions=2000)"
    ),
    # The forked workers' imports are invisible here, so the probe blocks
    # numpy first: a worker importing it would fail its spec.
    "campaign": (
        "import sys, tempfile\n"
        "sys.modules['numpy'] = None\n"
        "from repro import machine\n"
        "from repro.campaign import Campaign\n"
        "with tempfile.TemporaryDirectory() as store:\n"
        "    run = Campaign.grid(store, machine(4), ['Q1'], ['lru', 'prism-h'],\n"
        "                        instructions=2000).run(jobs=2)\n"
        "assert run.executed == 2 and not run.failed, run.describe()\n"
        "del sys.modules['numpy']"
    ),
    "cli-help": _cli("--help"),
    "cli-run": _cli("run", "--mix", "Q1", "--instructions", "2000"),
}


@pytest.mark.parametrize("case", sorted(NUMPY_FREE))
def test_paper_path_leaves_numpy_unloaded(case):
    loaded = _loaded(NUMPY_FREE[case])
    assert "numpy" not in loaded
    if case == "cli-run":
        figures = sorted(m for m in loaded if m.startswith("repro.experiments.fig"))
        assert figures == []


@pytest.mark.parametrize("ref", ["tenants:web8", "shared:scale16"])
def test_trace_families_load_numpy_at_resolution(ref):
    loaded = _loaded(
        f"from repro.workloads.registry import resolve_workload\nresolve_workload({ref!r})"
    )
    assert "numpy" in loaded


def test_grid_modules_load_neither_numpy_nor_campaign():
    """Every figure imports the grid helpers; the executor and the store
    load only when a grid runs."""
    loaded = _loaded("import repro.experiments.common, repro.experiments.parallel")
    assert "numpy" not in loaded
    assert not [m for m in loaded if m.startswith("repro.campaign")]
