"""ResultStore round-trip and durability semantics."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import pytest

from repro.campaign.fingerprint import spec_fingerprint
from repro.campaign.store import (
    FailedRun,
    ResultStore,
    result_from_dict,
    result_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.cpu.system import CoreResult
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import WorkloadResult, run_workload

CONFIG = machine(4, instructions=3_000)


def make_result(mix="Q1", scheme="lru", antt=1.5):
    """A synthetic WorkloadResult (no simulation: for tests that care about
    payload identity and size, not physics)."""
    cores = [
        CoreResult(
            name=f"prog{i}", ipc=0.5 + i / 10, cpi=2.0, llc_stall_cpi=0.4,
            instructions=3_000, cycles=6_000.0, hits=100 + i, misses=10 + i,
            occupancy_at_finish=0.25,
        )
        for i in range(4)
    ]
    return WorkloadResult(
        mix=mix, scheme=scheme, benchmarks=[c.name for c in cores],
        cores=cores, standalone=[1.0, 1.1, 1.2, 1.3], antt=antt,
        fairness=0.9, throughput=2.4, weighted_speedup=3.1, intervals=12,
    )


@pytest.fixture(scope="module")
def prism_result():
    """A result rich in optional diagnostics (probabilities, stats...)."""
    return run_workload("Q1", CONFIG, "prism-h", seed=1)


@pytest.fixture(scope="module")
def telemetry_result():
    return run_workload("Q1", CONFIG, "prism-h", seed=1, telemetry=True)


@pytest.fixture(scope="module")
def tenant_result():
    """A multi-tenant result: the tenant_slo scorecard must round-trip."""
    return run_workload("tenants:smoke4", CONFIG, "prism-h", seed=1)


class TestRoundTrip:
    def test_result_dict_round_trip_field_for_field(self, prism_result):
        clone = result_from_dict(result_to_dict(prism_result))
        assert clone == prism_result  # dataclass eq: every field, exactly

    def test_round_trip_survives_json(self, prism_result):
        text = json.dumps(result_to_dict(prism_result))
        clone = result_from_dict(json.loads(text))
        assert clone == prism_result

    def test_telemetry_round_trips(self, telemetry_result):
        clone = result_from_dict(result_to_dict(telemetry_result))
        assert clone.telemetry is not None
        assert clone.telemetry == telemetry_result.telemetry
        assert clone == telemetry_result

    def test_tenant_slo_round_trips(self, tenant_result):
        assert tenant_result.tenant_slo is not None
        clone = result_from_dict(result_to_dict(tenant_result))
        assert clone.tenant_slo == tenant_result.tenant_slo
        assert clone == tenant_result

    def test_tenant_result_survives_json(self, tenant_result):
        text = json.dumps(result_to_dict(tenant_result))
        assert result_from_dict(json.loads(text)) == tenant_result

    def test_pre_tenancy_records_load_without_slo(self, prism_result):
        """Stores written before the tenant_slo field must still load."""
        data = result_to_dict(prism_result)
        del data["tenant_slo"]
        clone = result_from_dict(data)
        assert clone.tenant_slo is None
        assert clone == prism_result

    def test_tenant_store_round_trip(self, tmp_path, tenant_result):
        spec = RunSpec(mix="tenants:smoke4", scheme="prism-h", seed=1)
        fp = spec_fingerprint(spec, CONFIG)
        store = ResultStore(tmp_path / "s")
        store.add_result(fp, spec, tenant_result)
        reopened = ResultStore(tmp_path / "s")
        assert reopened.get(fp) == tenant_result
        assert reopened.get(fp).tenant_slo.tenants == [
            "alpha", "bravo", "sweeper", "shifty",
        ]

    def test_store_round_trip(self, tmp_path, prism_result):
        spec = RunSpec(mix="Q1", scheme="prism-h", seed=1)
        fp = spec_fingerprint(spec, CONFIG)
        store = ResultStore(tmp_path / "s")
        store.add_result(fp, spec, prism_result, wall_seconds=1.5)
        reopened = ResultStore(tmp_path / "s")
        assert fp in reopened
        assert reopened.get(fp) == prism_result
        stored = reopened.record_for(fp)
        assert stored.spec == spec
        assert stored.meta.wall_seconds == 1.5
        assert stored.meta.repro_version
        assert stored.meta.host
        assert stored.meta.engine == "classic"
        assert reopened.get(fp).engine.engine == "classic"

    @pytest.mark.parametrize("edit", ["format-1", "unknown-key"])
    def test_other_format_meta_loads(self, tmp_path, prism_result, edit):
        """A format-1 record (no engine keys) and a record whose meta
        carries a key this version does not know both load."""
        spec = RunSpec(mix="Q1", scheme="prism-h", seed=1)
        fp = spec_fingerprint(spec, CONFIG)
        ResultStore(tmp_path / "s").add_result(fp, spec, prism_result)
        path = tmp_path / "s" / "results.jsonl"
        record = json.loads(path.read_text())
        if edit == "format-1":
            record["format"] = 1
            del record["meta"]["engine"], record["meta"]["engine_declined"]
        else:
            record["meta"]["added_later"] = {"any": "value"}
        path.write_text(json.dumps(record) + "\n")
        stored = ResultStore(tmp_path / "s").record_for(fp)
        assert stored.result == prism_result
        assert stored.meta.engine == (None if edit == "format-1" else "classic")

    def test_trace_lands_next_to_store(self, tmp_path, telemetry_result):
        spec = RunSpec(mix="Q1", scheme="prism-h", seed=1, telemetry=True)
        fp = spec_fingerprint(spec, CONFIG)
        store = ResultStore(tmp_path / "s")
        store.add_result(fp, spec, telemetry_result)
        trace = store.trace_path(fp)
        assert trace.exists()
        # The stored trace is byte-identical to a fresh write of the run.
        fresh = tmp_path / "fresh.jsonl"
        telemetry_result.telemetry.write(fresh)
        assert trace.read_bytes() == fresh.read_bytes()


#: A non-default value for every RunSpec field.
NON_DEFAULT = {
    "mix": ("mcf", "lbm", "milc", "gcc"),
    "scheme": "prism-h",
    "seed": 7,
    "instructions": 1234,
    "scheme_kwargs": {"probability_bits": 6},
    "telemetry": True,
    "check": True,
    "backend": "vector",
    "clusters": 2,
}

#: The keys every stored spec has carried since the first store format.
PARENT_KEYS = ["mix", "scheme", "seed", "instructions", "scheme_kwargs", "telemetry", "check"]


class TestSpecCodec:
    @pytest.mark.parametrize("name", [f.name for f in fields(RunSpec)])
    def test_every_field_round_trips(self, name):
        spec = replace(RunSpec("Q1"), **{name: NON_DEFAULT[name]})
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_default_spec_encodes_to_the_parent_keys(self):
        data = spec_to_dict(RunSpec("Q1"))
        assert list(data) == PARENT_KEYS
        assert json.dumps(data) == (
            '{"mix": "Q1", "scheme": "lru", "seed": 0, "instructions": null, '
            '"scheme_kwargs": null, "telemetry": false, "check": false}'
        )

    def test_parent_format_loads(self):
        parent = {"mix": ["mcf", "lbm"], "scheme": "dip", "seed": 1,
                  "instructions": 500, "scheme_kwargs": None, "telemetry": False,
                  "check": False}
        assert spec_from_dict(parent) == RunSpec(
            ("mcf", "lbm"), "dip", seed=1, instructions=500
        )

    def test_unknown_key_raises(self):
        data = dict(spec_to_dict(RunSpec("Q1")), from_the_future=1)
        with pytest.raises(ValueError, match="from_the_future"):
            spec_from_dict(data)


class TestFailures:
    SPEC = RunSpec(mix="Q1", scheme="nope", seed=0)

    def _failure(self, fp):
        return FailedRun(
            fingerprint=fp,
            spec=self.SPEC,
            error_type="KeyError",
            message="unknown scheme 'nope'",
            traceback="Traceback ...",
            attempts=2,
            timed_out=False,
        )

    def test_failure_round_trip(self, tmp_path):
        fp = spec_fingerprint(self.SPEC, CONFIG)
        store = ResultStore(tmp_path / "s")
        store.add_failure(self._failure(fp))
        reopened = ResultStore(tmp_path / "s")
        assert fp not in reopened  # failures are not results
        failure = reopened.failure_for(fp)
        assert failure == self._failure(fp)
        assert "after 2 attempts" in failure.describe()

    def test_result_supersedes_failure(self, tmp_path, prism_result):
        spec = RunSpec(mix="Q1", scheme="prism-h", seed=1)
        fp = spec_fingerprint(spec, CONFIG)
        store = ResultStore(tmp_path / "s")
        store.add_failure(self._failure(fp))
        store.add_result(fp, spec, prism_result)
        reopened = ResultStore(tmp_path / "s")
        assert reopened.failure_for(fp) is None
        assert reopened.get(fp) == prism_result


class TestDurability:
    def test_torn_trailing_line_is_skipped(self, tmp_path, prism_result):
        """A SIGKILL mid-append must not poison the completed records."""
        spec = RunSpec(mix="Q1", scheme="prism-h", seed=1)
        fp = spec_fingerprint(spec, CONFIG)
        store = ResultStore(tmp_path / "s")
        store.add_result(fp, spec, prism_result)
        with open(store.records_path, "a") as fh:
            fh.write('{"record": "result", "fingerprint": "abc", "trunc')
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened) == 1
        assert reopened.get(fp) == prism_result

    def test_last_record_wins(self, tmp_path, prism_result, telemetry_result):
        spec = RunSpec(mix="Q1", scheme="prism-h", seed=1)
        fp = spec_fingerprint(spec, CONFIG)
        store = ResultStore(tmp_path / "s")
        store.add_result(fp, spec, prism_result)
        store.add_result(fp, spec, telemetry_result)
        reopened = ResultStore(tmp_path / "s")
        assert reopened.get(fp) == telemetry_result
        assert reopened.get(fp).telemetry is not None

    def test_empty_directory_is_a_valid_store(self, tmp_path):
        store = ResultStore(tmp_path / "fresh")
        assert len(store) == 0
        assert store.failures() == []


_APPENDER = """
import sys
from repro.campaign.store import ResultStore
from tests.campaign.test_store import CONFIG, make_result
from repro.campaign.fingerprint import spec_fingerprint
from repro.experiments.parallel import RunSpec

root, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = ResultStore(root)
for i in range(count):
    # A distinct seed per record => distinct fingerprint; the large
    # telemetry-free payload still spans several kilobytes, which is what
    # would tear under unlocked interleaved appends.
    spec = RunSpec(mix="Q1", scheme=tag, seed=i)
    store.add_result(spec_fingerprint(spec, CONFIG), spec, make_result(scheme=tag))
"""


class TestConcurrentAppend:
    def test_two_processes_append_without_torn_lines(self, tmp_path):
        """Regression: pre-flock, concurrent appenders could interleave
        torn lines mid-file; now every line must parse and every record
        must survive."""
        root = tmp_path / "shared"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _APPENDER, str(root), tag, "25"],
                env={**os.environ,
                     "PYTHONPATH": os.pathsep.join(sys.path)},
            )
            for tag in ("lru", "ucp")
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        lines = (root / "results.jsonl").read_text().splitlines()
        assert len(lines) == 50
        for line in lines:
            json.loads(line)  # no torn / interleaved lines anywhere
        reopened = ResultStore(root)
        assert len(reopened) == 50
