"""Smoke test of the end-to-end benchmark at 5% of its sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import PRELOAD, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and one traced round of every workload at scale 0.05."""
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.05", "--rounds", "1",
         "--trace", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    (record_path,) = out.glob("e2e-*.json")
    with open(record_path) as fh:
        record = json.load(fh)
    return proc, record


def test_exits_zero_with_a_correct_result_line(smoke):
    proc, _ = smoke
    assert proc.returncode == 0, proc.stdout
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    layer_names = {name for name, _ in run.LAYERS}
    assert {key.split("/", 1)[1] for key in line["metrics"]} == layer_names


def test_every_metric_is_printed_with_its_unit(smoke):
    proc, _ = smoke
    printed = {}  # workload -> {(metric, unit)} from its table rows
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            rows = printed.setdefault(line[3:].split(":")[0], set())
        elif line.startswith("  ") and len(line.split()) > 2:
            metric, _, unit = line.split()[:3]
            rows.add((metric, unit))
    expected = set(run.E2E + run.LAYERS) | {("fail_rate", "failed/attempted")}
    for name in WORKLOADS:
        assert expected <= printed[name], (name, expected - printed[name])


def test_no_failures_and_pinned_digests_checked(smoke):
    _, record = smoke
    for name, entry in record["workloads"].items():
        assert entry["e2e"]["fail_rate"]["max"] == 0, entry["problems"]
        assert entry["pinned"], f"no pinned digests for {name} at scale 0.05"


def test_traced_round_reproduces_untraced_digests(smoke):
    _, record = smoke
    for entry in record["workloads"].values():
        assert entry["traced_digests"] == entry["digests"]


def _snapshot() -> dict:
    """Every attribute of every loaded ``repro`` module and of its classes."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            state[(name, attr)] = value
            if isinstance(value, type):
                for key, member in vars(value).items():
                    state[(name, attr, key)] = member
    return state


def test_tracer_restores_every_patched_attribute():
    from repro.campaign.store import result_to_dict
    from repro.experiments import runner
    from repro.experiments.configs import machine

    def one_run():
        result = runner.run_workload(
            "Q1", machine(4), "prism-h", seed=1, instructions=20_000,
            standalone_cache=runner.StandaloneIPCCache(),
        )
        return digest(result_to_dict(result))

    untraced = one_run()
    for module in PRELOAD + tuple(target[1] for target in TARGETS):
        importlib.import_module(module)
    before = _snapshot()
    original = runner.run_workload
    with Tracer() as tracer:
        assert runner.run_workload is not original
        traced = one_run()
    assert traced == untraced
    assert tracer.spans()["cache.access"]["calls"] > 0
    after = _snapshot()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed


def test_benchmark_json_matches_the_command():
    with open(HERE.parents[1] / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYERS)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, why) for name, (why, _) in WORKLOADS.items()
    ]
