"""Tests for the workload runner."""

import warnings

import pytest

from repro.experiments.configs import machine
from repro.experiments.options import RunOptions
from repro.experiments.runner import (
    DEFAULT_STANDALONE_CACHE,
    StandaloneIPCCache,
    run_workload,
    standalone_ipcs,
)
from repro.workloads.spec import get_profile

CFG = machine(4, instructions=40_000)
#: 1,024 LLC sets: the smallest machine a vector request builds the vector
#: engine on, so the backend tests reach it.
WIDE = machine(4, scale_factor=4, instructions=40_000)


class TestRunWorkload:
    def test_named_mix(self):
        result = run_workload("Q1", CFG, "lru")
        assert result.mix == "Q1"
        assert len(result.cores) == 4
        assert result.antt >= 1.0 or result.antt > 0

    def test_custom_mix_by_names(self):
        result = run_workload(
            ["179.art", "470.lbm", "416.gamess", "403.gcc"], CFG, "lru"
        )
        assert result.mix == "custom"
        assert result.benchmarks[0] == "179.art"

    def test_custom_mix_by_profiles(self):
        profiles = [get_profile(n) for n in ("179.art", "470.lbm", "416.gamess", "403.gcc")]
        result = run_workload(profiles, CFG, "lru")
        assert result.benchmarks == [p.name for p in profiles]

    def test_mix_size_mismatch(self):
        with pytest.raises(ValueError, match="cores"):
            run_workload(["179.art", "470.lbm"], CFG, "lru")

    def test_metrics_populated(self):
        result = run_workload("Q1", CFG, "lru")
        assert result.antt > 0
        assert 0 < result.fairness <= 1.0
        assert result.throughput > 0
        assert result.weighted_speedup > 0
        assert len(result.standalone) == 4

    def test_slowdown_helper(self):
        result = run_workload("Q1", CFG, "lru")
        for core in range(4):
            assert result.slowdown(core) == pytest.approx(
                result.cores[core].ipc / result.standalone[core]
            )

    def test_prism_diagnostics_typed(self):
        result = run_workload("Q1", CFG, "prism-h")
        assert result.eviction_probabilities is not None
        assert sum(result.eviction_probabilities) == pytest.approx(1.0)
        assert result.victim_not_found_rate is not None
        assert result.probability_stats is not None
        assert result.targets is not None

    def test_lru_diagnostics_absent(self):
        result = run_workload("Q1", CFG, "lru")
        assert result.eviction_probabilities is None
        assert result.victim_not_found_rate is None
        assert result.quotas is None
        assert result.telemetry is None

    def test_ucp_quotas_typed(self):
        result = run_workload("Q1", CFG, "ucp")
        assert sum(result.quotas) == CFG.geometry.assoc

    def test_deterministic(self):
        a = run_workload("Q1", CFG, "prism-h", seed=3)
        DEFAULT_STANDALONE_CACHE.clear()
        b = run_workload("Q1", CFG, "prism-h", seed=3)
        assert a.shared_ipcs() == b.shared_ipcs()

    def test_scheme_kwargs_forwarded(self):
        result = run_workload(
            "Q1", CFG, "prism-h", scheme_kwargs={"interval_len": 128}
        )
        assert result.intervals > run_workload("Q1", CFG, "prism-h").intervals

    def test_options_supply_defaults(self):
        options = RunOptions(seed=3, instructions=40_000)
        a = run_workload("Q1", CFG, "prism-h", options=options)
        b = run_workload("Q1", CFG, "prism-h", seed=3, instructions=40_000)
        assert a == b

    def test_explicit_kwargs_beat_options(self):
        options = RunOptions(seed=5)
        a = run_workload("Q1", CFG, "prism-h", seed=3, options=options)
        b = run_workload("Q1", CFG, "prism-h", seed=3)
        assert a == b

    def test_explicit_default_values_beat_options(self, monkeypatch):
        """Arguments equal to their old defaults still override options."""
        from repro.check import invariants

        explicit = run_workload("Q1", CFG, "prism-h", seed=0)
        merged = run_workload(
            "Q1", CFG, "prism-h", seed=0, options=RunOptions(seed=5)
        )
        assert merged == explicit
        with warnings.catch_warnings():
            # options' vector backend cannot represent UCP (a fallback
            # warning), so the explicit classic backend must win.
            warnings.simplefilter("error", RuntimeWarning)
            run_workload(
                "Q1", WIDE, "ucp", backend="classic",
                options=RunOptions(backend="vector"),
            )

        def no_checker(cache, every=1024):
            raise AssertionError("explicit check=False attached a checker")

        # options' check=True would attach the checker.
        monkeypatch.setattr(invariants, "attach_checker", no_checker)
        run_workload(
            "Q1", CFG, "dip", backend="vector", check=False,
            options=RunOptions(check=True),
        )

    def test_options_telemetry(self):
        result = run_workload(
            "Q1", CFG, "prism-h", options=RunOptions(telemetry=True)
        )
        assert result.telemetry is not None
        assert result.telemetry.num_cores == 4


class TestRemovedDeprecatedAPIs:
    """The PR-2-era shims are gone; the replacement paths hold."""

    def test_extra_alias_removed(self):
        result = run_workload("Q1", CFG, "lru")
        with pytest.raises(AttributeError):
            result.extra

    def test_clear_standalone_cache_removed(self):
        import repro.experiments.runner as runner

        assert not hasattr(runner, "clear_standalone_cache")

    def test_resolve_mix_shim_removed(self):
        import repro.experiments.runner as runner

        assert not hasattr(runner, "_resolve_mix")


class TestStandaloneCache:
    def test_memoisation(self):
        profiles = [get_profile("179.art")]
        cfg = machine(4, instructions=30_000)
        standalone_ipcs(profiles, cfg)
        size = len(DEFAULT_STANDALONE_CACHE)
        standalone_ipcs(profiles, cfg)
        assert len(DEFAULT_STANDALONE_CACHE) == size

    def test_policy_kind_keys_separately(self):
        profiles = [get_profile("179.art")]
        cfg = machine(4, instructions=30_000)
        lru_ipc = standalone_ipcs(profiles, cfg, scheme="lru")[0]
        ts_ipc = standalone_ipcs(profiles, cfg, scheme="tslru")[0]
        # Keys must not collide: both present in the cache.
        kinds = {key[2] for key in DEFAULT_STANDALONE_CACHE.keys()}
        assert {"LRUPolicy", "TimestampLRUPolicy"} <= kinds
        assert lru_ipc > 0 and ts_ipc > 0

    def test_duplicate_profiles_share_one_run(self):
        profiles = [get_profile("470.lbm")] * 3
        cfg = machine(4, instructions=30_000)
        ipcs = standalone_ipcs(profiles, cfg)
        assert ipcs[0] == ipcs[1] == ipcs[2]

    def test_private_cache_instance(self):
        profiles = [get_profile("179.art")]
        cfg = machine(4, instructions=30_000)
        private = StandaloneIPCCache()
        ipcs = standalone_ipcs(profiles, cfg, cache=private)
        assert len(private) == 1
        assert len(DEFAULT_STANDALONE_CACHE) == 0  # default untouched
        assert ipcs == standalone_ipcs(profiles, cfg, cache=private)

    def test_options_carry_private_cache(self):
        private = StandaloneIPCCache()
        run_workload(
            "Q1", CFG, "lru", options=RunOptions(standalone_cache=private)
        )
        assert len(private) == 4
        assert len(DEFAULT_STANDALONE_CACHE) == 0


class TestBackendSelection:
    """run_workload's backend axis: bit-exact results, loud fallbacks."""

    def test_vector_backend_matches_classic(self):
        classic = run_workload("Q1", WIDE, "prism-h")
        vector = run_workload("Q1", WIDE, "prism-h", backend="vector")
        assert vector.engine.engine == "vector"
        assert vector.antt == classic.antt
        assert vector.fairness == classic.fairness
        for a, b in zip(classic.cores, vector.cores):
            assert (a.hits, a.misses, a.instructions) == (b.hits, b.misses, b.instructions)
            assert a.ipc == b.ipc

    def test_options_supply_backend(self):
        explicit = run_workload("Q1", WIDE, "dip", backend="vector")
        via_options = run_workload(
            "Q1", WIDE, "dip", options=RunOptions(backend="vector")
        )
        assert via_options.engine == explicit.engine
        assert via_options.engine.engine == "vector"
        assert via_options.antt == explicit.antt

    def test_checked_vector_run_equals_checked_classic(self):
        """--check audits the vector engine itself: no fallback, same run."""
        classic = run_workload("Q1", WIDE, "lru", check=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vector = run_workload("Q1", WIDE, "lru", backend="vector", check=True)
        assert vector.engine.engine == "vector"
        assert vector == classic

    def test_unsupported_scheme_falls_back_loudly(self):
        """UCP is not vectorisable: classic fallback plus a RuntimeWarning."""
        with pytest.warns(RuntimeWarning, match="falling back"):
            fell_back = run_workload("Q1", WIDE, "ucp", backend="vector")
        classic = run_workload("Q1", WIDE, "ucp")
        assert fell_back.engine.declined.startswith("unsupported: ")
        assert fell_back.antt == classic.antt
