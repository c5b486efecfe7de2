"""Tests for the parallel experiment executor.

The load-bearing property is *bit-identical determinism*: a parallel run
must be indistinguishable from the serial loop it replaces, whatever the
worker count or completion order. ``WorkloadResult`` and ``CoreResult``
are plain dataclasses of primitives, so ``==`` compares every reported
figure exactly (no tolerances).
"""

import os
from dataclasses import fields

import pytest

from repro.experiments.common import compare_schemes
from repro.experiments.configs import machine
from repro.experiments.options import RunOptions
from repro.experiments.parallel import (
    RunSpec,
    SpecRunError,
    resolve_jobs,
    run_spec,
    run_specs,
)
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import DEFAULT_STANDALONE_CACHE, run_workload

CONFIG = machine(4, instructions=3_000)
INSTR = 3_000


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Isolate the memoised stand-alone IPCs."""
    DEFAULT_STANDALONE_CACHE.clear()
    yield
    DEFAULT_STANDALONE_CACHE.clear()


class TestResolveJobs:
    """``jobs`` is an argument only: no environment variable is read."""

    def test_default_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_explicit_value(self):
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 1

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(2) == 2

    def test_invalid_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) >= 1

    def test_resolution_matrix(self):
        """``None`` -> 1, any value ``<= 0`` -> all cores, ``n`` -> ``n``."""
        all_cpus = os.cpu_count() or 1
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == all_cpus
        assert resolve_jobs(-1) == all_cpus
        assert resolve_jobs(-128) == all_cpus
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3


class TestSpecRunError:
    """Worker failures must name the spec that died (satellite fix)."""

    GOOD = RunSpec(mix="Q1", scheme="lru", instructions=INSTR)
    BAD = RunSpec(mix="Q2", scheme="no-such-scheme", instructions=INSTR)

    def test_serial_failure_wrapped_with_spec_context(self):
        with pytest.raises(SpecRunError) as excinfo:
            run_specs([self.GOOD, self.BAD], CONFIG, jobs=1)
        error = excinfo.value
        assert error.spec == self.BAD
        assert error.index == 1
        assert error.error_type == "KeyError"
        assert self.BAD.describe() in str(error)
        assert "no-such-scheme" in str(error)
        # The original exception is chained on the serial path.
        assert isinstance(error.__cause__, KeyError)

    def test_pool_failure_wrapped_with_spec_context(self):
        with pytest.raises(SpecRunError) as excinfo:
            run_specs([self.GOOD, self.BAD, self.GOOD], CONFIG, jobs=2)
        error = excinfo.value
        assert error.spec == self.BAD
        assert error.index == 1
        assert self.BAD.describe() in str(error)
        # The worker's formatted traceback crosses the process boundary.
        assert "KeyError" in error.worker_traceback
        assert "no-such-scheme" in error.worker_traceback


class TestRunSpecs:
    def test_serial_matches_run_workload(self):
        spec = RunSpec(mix="Q1", scheme="lru", instructions=INSTR)
        [result] = run_specs([spec], CONFIG, jobs=1)
        expected = run_workload("Q1", CONFIG, "lru", instructions=INSTR)
        assert result == expected

    def test_results_in_spec_order(self):
        specs = [
            RunSpec(mix="Q1", scheme="lru", instructions=INSTR),
            RunSpec(mix="Q2", scheme="lru", instructions=INSTR),
            RunSpec(mix="Q1", scheme="prism-h", instructions=INSTR),
        ]
        results = run_specs(specs, CONFIG, jobs=2)
        assert [r.mix for r in results] == ["Q1", "Q2", "Q1"]
        assert [r.scheme for r in results] == ["lru", "lru", "prism-h"]

    def test_empty_specs(self):
        assert run_specs([], CONFIG, jobs=2) == []

    def test_progress_called_per_run(self):
        messages = []
        specs = [
            RunSpec(mix="Q1", scheme="lru", instructions=INSTR),
            RunSpec(mix="Q1", scheme="dip", instructions=INSTR),
        ]
        run_specs(specs, CONFIG, jobs=1, progress=messages.append)
        assert len(messages) == 2
        assert "Q1" in messages[0] and "lru" in messages[0]


#: A clustered shared-data spec: ``clusters`` changes its result.
CLUSTERED = RunSpec("shared:smoke4", "prism-h", seed=1, instructions=20_000, clusters=2)


class TestRunSpec:
    """``run_spec`` is the one RunSpec -> run_workload translation."""

    def test_every_field_reaches_run_workload(self, monkeypatch):
        import repro.experiments.parallel as parallel_module

        seen = {}
        monkeypatch.setattr(
            parallel_module, "run_workload", lambda **kwargs: seen.update(kwargs)
        )
        spec = RunSpec("Q1", "dip", seed=3, instructions=7, scheme_kwargs={"a": 1},
                       telemetry=True, check=True, backend="vector", clusters=2)
        run_spec(spec, CONFIG)
        assert seen.pop("config") is CONFIG
        assert seen == {f.name: getattr(spec, f.name) for f in fields(RunSpec)}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_clustered_spec_keeps_clusters(self, jobs):
        from repro.campaign import iter_isolated

        config = machine(4)
        [expected] = run_specs([CLUSTERED], config, jobs=1)
        assert expected == run_workload(
            "shared:smoke4", config, "prism-h", seed=1, instructions=20_000, clusters=2
        )
        per_core = run_workload("shared:smoke4", config, "prism-h", seed=1,
                                instructions=20_000)
        assert expected.antt != per_core.antt  # clusters changes the result
        [outcome] = iter_isolated([CLUSTERED], config, jobs=jobs)
        assert outcome.result == expected
        [both, _] = run_specs([CLUSTERED, RunSpec("Q1", instructions=INSTR)], config,
                              jobs=jobs)
        assert both == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_check_flag_attaches_the_checker(self, jobs, monkeypatch):
        import repro.check.invariants as invariants

        def refuse(cache):
            raise RuntimeError("checker attached")

        # Fork carries the patch into the workers.
        monkeypatch.setattr(invariants, "attach_checker", refuse)
        specs = [RunSpec("Q1", instructions=INSTR),
                 RunSpec("Q2", instructions=INSTR, check=True)]
        with pytest.raises(SpecRunError) as excinfo:
            run_specs(specs, CONFIG, jobs=jobs)
        assert excinfo.value.index == 1
        assert "checker attached" in str(excinfo.value)


class TestParallelIdenticalToSerial:
    """The acceptance property: pool results == serial results, exactly."""

    MIXES = ["Q1", "Q2"]
    SCHEMES = ["lru", "prism-h"]

    def test_compare_schemes_bit_identical(self):
        serial = compare_schemes(
            self.MIXES, CONFIG, self.SCHEMES, instructions=INSTR, jobs=1
        )
        DEFAULT_STANDALONE_CACHE.clear()
        parallel = compare_schemes(
            self.MIXES, CONFIG, self.SCHEMES, instructions=INSTR, jobs=2
        )
        assert set(serial) == set(parallel)
        for mix in serial:
            for scheme in serial[mix]:
                # Dataclass equality: every metric, per-core counter and
                # extra diagnostic must match exactly.
                assert serial[mix][scheme] == parallel[mix][scheme]

    @pytest.mark.parametrize("figure, instructions, kwargs", [
        ("fig11", 50_000, {"mixes": ["Q1", "Q2"]}),
        ("fig12", 25_000, {"mixes": ["Q1", "Q2"], "bit_widths": (6, 8)}),
    ])
    def test_figure_results_bit_identical(self, figure, instructions, kwargs):
        """A figure's whole result dict is the same at ``jobs=1`` and 2."""
        run = EXPERIMENTS[figure].run
        serial = run(options=RunOptions(instructions=instructions, jobs=1), **kwargs)
        DEFAULT_STANDALONE_CACHE.clear()
        parallel = run(options=RunOptions(instructions=instructions, jobs=2), **kwargs)
        assert serial == parallel
        if figure == "fig11":
            # The probability stats come from telemetry that crossed the
            # worker pipes: the path is only covered if intervals ran.
            assert serial["recomputations_min"] > 0
            assert any(row["mean"] > 0 for row in serial["rows"])

    def test_compare_schemes_shape(self):
        results = compare_schemes(["Q1"], CONFIG, ["lru", "dip"], instructions=INSTR, jobs=2)
        assert list(results) == ["Q1"]
        assert list(results["Q1"]) == ["lru", "dip"]

    def test_telemetry_traces_bit_identical(self, tmp_path):
        """A --jobs trace must be byte-identical to the serial trace."""
        specs = [
            RunSpec(mix=mix, scheme=scheme, instructions=INSTR, telemetry=True)
            for mix in self.MIXES
            for scheme in self.SCHEMES
        ]
        serial = run_specs(specs, CONFIG, jobs=1)
        DEFAULT_STANDALONE_CACHE.clear()
        parallel = run_specs(specs, CONFIG, jobs=2)
        for i, (a, b) in enumerate(zip(serial, parallel)):
            # RunTelemetry equality covers every sample; timing is excluded.
            assert a.telemetry == b.telemetry, specs[i]
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        serial[0].telemetry.write(serial_path)
        parallel[0].telemetry.write(parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()
