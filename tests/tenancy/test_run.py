"""Tests for the multi-tenant replay driver."""

import math
import warnings

import pytest

from repro.experiments.configs import machine
from repro.experiments.runner import (
    DEFAULT_STANDALONE_CACHE,
    StandaloneIPCCache,
    run_workload,
)
from repro.tenancy import run_tenant_workload, tenant_standalone
from repro.workloads.tenants import DEFAULT_CHUNK, get_tenant_workload

CFG = machine(4, instructions=20_000)


class TestRunTenantWorkload:
    def test_result_shape(self):
        result = run_tenant_workload("tenants:smoke4", CFG, "lru", seed=1)
        assert result.mix == "tenants:smoke4"
        assert result.scheme == "lru"
        assert result.benchmarks == ["alpha", "bravo", "sweeper", "shifty"]
        assert [c.name for c in result.cores] == result.benchmarks
        assert sum(c.instructions for c in result.cores) == CFG.instructions
        assert result.antt > 0 and result.throughput > 0
        assert 0 < result.fairness <= 1.0

    def test_tenant_slo_populated(self):
        result = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=1)
        slo = result.tenant_slo
        assert slo is not None
        assert slo.tenants == result.benchmarks
        assert len(slo.hit_rates) == 4
        assert all(0.0 <= a <= 1.0 for a in slo.slo_attainment)
        assert all(p >= 0 for p in slo.p99_miss_run)
        assert sum(slo.requests) == CFG.instructions
        for rate, core in zip(slo.hit_rates, result.cores):
            assert rate == pytest.approx(core.hits / (core.hits + core.misses))

    def test_core_count_mismatch(self):
        with pytest.raises(ValueError, match="cores"):
            run_tenant_workload("tenants:smoke4", machine(8, instructions=20_000))

    def test_deterministic_in_seed(self):
        a = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=3)
        DEFAULT_STANDALONE_CACHE.clear()
        b = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=3)
        assert a == b
        c = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=4)
        assert a != c

    def test_prism_diagnostics_survive(self):
        result = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=1)
        assert result.eviction_probabilities is not None
        assert sum(result.eviction_probabilities) == pytest.approx(1.0)
        assert result.intervals > 0

    def test_unmanaged_runs_tick_window_intervals(self):
        """LRU never fires miss-driven intervals; the driver windows them."""
        result = run_tenant_workload(
            "tenants:smoke4", CFG, "lru", seed=1, telemetry=True
        )
        assert result.intervals == math.ceil(CFG.instructions / DEFAULT_CHUNK)
        assert len(result.telemetry.samples) == 4 * result.intervals
        assert sum(s.hits + s.misses for s in result.telemetry.samples) == (
            CFG.instructions
        )

    def test_telemetry_recording(self):
        result = run_tenant_workload(
            "tenants:smoke4", CFG, "prism-h", seed=1, telemetry=True
        )
        assert result.telemetry is not None
        assert result.telemetry.num_cores == 4
        assert result.telemetry.benchmarks == result.benchmarks
        quiet = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=1)
        assert quiet.telemetry is None

    def test_checked_vector_run_equals_checked_classic(self):
        classic = run_tenant_workload(
            "tenants:smoke4", CFG, "prism-h", seed=1, check=True
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vector = run_tenant_workload(
                "tenants:smoke4", CFG, "prism-h", seed=1, backend="vector",
                check=True,
            )
        assert vector == classic

    def test_dispatches_through_run_workload(self):
        """The runner's mix seam routes tenant refs to this driver."""
        via_runner = run_workload("tenants:smoke4", CFG, "lru", seed=2)
        direct = run_tenant_workload("tenants:smoke4", CFG, "lru", seed=2)
        assert via_runner == direct


class TestBackendEquivalence:
    @pytest.mark.parametrize("scheme", ["lru", "prism-h", "prism-q", "cliff"])
    def test_vector_matches_classic_bit_for_bit(self, scheme):
        classic = run_tenant_workload("tenants:smoke4", CFG, scheme, seed=3)
        vector = run_tenant_workload(
            "tenants:smoke4", CFG, scheme, seed=3, backend="vector"
        )
        assert classic == vector  # dataclass eq: every field, exactly

    def test_solo_baselines_match_across_backends(self):
        classic = tenant_standalone(
            "tenants:smoke4", CFG, cache=StandaloneIPCCache()
        )
        vector = tenant_standalone(
            "tenants:smoke4", CFG, cache=StandaloneIPCCache(), backend="vector"
        )
        assert classic == vector


class TestStandaloneBaselines:
    def test_memoised_per_tenant(self):
        private = StandaloneIPCCache()
        ipcs, rates = tenant_standalone("tenants:smoke4", CFG, cache=private)
        assert len(ipcs) == len(rates) == 4
        assert len(private) == 8  # ipc + hit_rate per tenant
        assert len(DEFAULT_STANDALONE_CACHE) == 0
        again = tenant_standalone("tenants:smoke4", CFG, cache=private)
        assert again == (ipcs, rates)
        assert len(private) == 8

    def test_solo_hit_rates_feed_slo_targets(self):
        private = StandaloneIPCCache()
        _, rates = tenant_standalone("tenants:smoke4", CFG, cache=private)
        result = run_tenant_workload(
            "tenants:smoke4", CFG, "lru", standalone_cache=private
        )
        assert result.tenant_slo.solo_hit_rates == rates
        for target, solo in zip(result.tenant_slo.slo_targets, rates):
            assert target == pytest.approx(result.tenant_slo.slo_fraction * solo)

    def test_identity_keys_the_memo(self):
        """Distinct workloads must not share solo baselines."""
        private = StandaloneIPCCache()
        tenant_standalone("tenants:smoke4", CFG, cache=private)
        size = len(private)
        tenant_standalone(
            get_tenant_workload("web8"), machine(8, instructions=20_000),
            cache=private,
        )
        assert len(private) == size + 16
