"""Tests for backend selection (``repro.cache.backends``).

``build_cache`` is the single place the classic/vector choice is made;
these tests pin its contract: valid names resolve, unknown names fail
loudly, a vector request below ``VECTOR_MIN_SETS`` sets quietly builds the
classic engine, unsupported vector configurations fall back to the
classic engine with a ``RuntimeWarning`` (or raise under ``strict=True``,
which builds the vector engine at any size), the fallback re-binds the
caller's policy/scheme objects intact, and the drivers record the choice.
"""

import random
import warnings

import pytest

from repro.cache import BACKENDS, build_cache, resolve_backend
from repro.cache.backends import VECTOR_MIN_SETS, EngineChoice
from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.srrip import SRRIPPolicy
from repro.cache.vector import VectorCache, VectorUnsupported
from repro.core import HitMaxPolicy
from repro.core.prism import PrismScheme

GEO = CacheGeometry(1 << 14, 64, 4)  # 64 sets, like every default machine()
#: The smallest geometry a non-strict vector request builds the vector engine at.
WIDE = CacheGeometry(VECTOR_MIN_SETS * 64 * 4, 64, 4)


class TestResolveBackend:
    def test_none_means_classic(self):
        assert resolve_backend(None) == "classic"

    def test_known_names_pass_through(self):
        for name in BACKENDS:
            assert resolve_backend(name) == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown cache backend"):
            resolve_backend("turbo")


class TestBuildCache:
    def test_classic_default(self):
        cache, used = build_cache(GEO, 4)
        assert isinstance(cache, SharedCache)
        assert used == EngineChoice("classic")

    def test_classic_attaches_scheme(self):
        scheme = PrismScheme(HitMaxPolicy(), seed=1, interval_len=257)
        cache, used = build_cache(GEO, 4, scheme=scheme, backend="classic")
        assert used == EngineChoice("classic")
        assert cache.scheme is scheme

    def test_vector_when_supported(self):
        """Supported, and exactly at the threshold: the vector engine."""
        assert WIDE.num_sets == VECTOR_MIN_SETS
        scheme = PrismScheme(HitMaxPolicy(), seed=1, interval_len=257)
        cache, used = build_cache(WIDE, 4, scheme=scheme, backend="vector")
        assert isinstance(cache, VectorCache)
        assert used == EngineChoice("vector")

    def test_vector_declined_below_the_threshold(self):
        """Below the threshold the classic engine is a speed decision, not
        a capability failure: no warning, and the reason is recorded."""
        half = CacheGeometry(WIDE.size_bytes // 2, 64, 4)
        assert half.num_sets == VECTOR_MIN_SETS // 2
        scheme = PrismScheme(HitMaxPolicy(), seed=1, interval_len=257)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache, used = build_cache(half, 4, scheme=scheme, backend="vector")
        assert isinstance(cache, SharedCache)
        assert cache.scheme is scheme
        assert used.engine == "classic"
        assert used.declined == (
            f"{VECTOR_MIN_SETS // 2} LLC sets, below the vector engine's "
            f"{VECTOR_MIN_SETS}"
        )

    def test_strict_builds_vector_below_the_threshold(self):
        scheme = PrismScheme(HitMaxPolicy(), seed=1, interval_len=257)
        cache, used = build_cache(GEO, 4, scheme=scheme, backend="vector", strict=True)
        assert isinstance(cache, VectorCache)
        assert used == EngineChoice("vector")

    def test_vector_fallback_warns_and_builds_classic(self):
        with pytest.warns(RuntimeWarning, match="falling back"):
            cache, used = build_cache(
                WIDE, 4, policy=SRRIPPolicy(), backend="vector"
            )
        assert isinstance(cache, SharedCache)
        assert used.engine == "classic"
        assert used.declined.startswith("unsupported: ")

    def test_strict_reraises_instead_of_falling_back(self):
        for geometry in (GEO, WIDE):
            with pytest.raises(VectorUnsupported):
                build_cache(geometry, 4, policy=SRRIPPolicy(), backend="vector",
                            strict=True)

    def test_fallback_cache_is_functional(self):
        """After the fallback, the classic cache runs with the same objects."""
        scheme = PrismScheme(HitMaxPolicy(), seed=1, interval_len=129)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cache, used = build_cache(
                WIDE, 4, policy=SRRIPPolicy(), scheme=scheme, backend="vector"
            )
        assert used.engine == "classic"
        assert cache.scheme is scheme
        rng = random.Random(5)
        for _ in range(900):
            cache.access(rng.randrange(4), rng.randrange(WIDE.num_blocks * 2))
        assert sum(cache.stats.misses) > 0
        assert cache.intervals_completed > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown cache backend"):
            build_cache(GEO, 4, backend="gpu")


class TestEngineProvenance:
    """The drivers record the engine that ran, outside equality and digests."""

    def test_run_workload_records_the_choice(self):
        from repro.campaign.store import result_to_dict
        from repro.experiments.configs import machine
        from repro.experiments.runner import StandaloneIPCCache, run_workload

        def run(config, backend):
            return run_workload(
                "Q1", config, "prism-h", backend=backend,
                standalone_cache=StandaloneIPCCache(),
            )

        narrow = machine(4, instructions=5_000)
        declined = run(narrow, "vector")
        assert declined.engine == EngineChoice(
            "classic",
            f"64 LLC sets, below the vector engine's {VECTOR_MIN_SETS}",
        )
        classic = run(narrow, "classic")
        assert classic.engine == EngineChoice("classic")
        assert declined == classic
        assert result_to_dict(declined) == result_to_dict(classic)
        assert "engine" not in result_to_dict(declined)
        wide = run(machine(4, scale_factor=4, instructions=5_000), "vector")
        assert wide.engine == EngineChoice("vector")

    def test_belady_and_trace_runs_record_the_choice(self):
        from repro.experiments.configs import machine
        from repro.experiments.runner import StandaloneIPCCache, run_workload

        wide = machine(4, scale_factor=4, instructions=5_000)
        belady = run_workload(
            "Q1", wide, "belady", backend="vector",
            standalone_cache=StandaloneIPCCache(),
        )
        assert belady.engine == EngineChoice("vector")
        with pytest.warns(RuntimeWarning, match="falling back"):
            ucp = run_workload(
                "tenants:smoke4", wide, "ucp", backend="vector",
                standalone_cache=StandaloneIPCCache(),
            )
        assert ucp.engine.engine == "classic"
        assert ucp.engine.declined.startswith("unsupported: ")
        tenants = run_workload(
            "tenants:smoke4", wide, "prism-h", backend="vector",
            standalone_cache=StandaloneIPCCache(),
        )
        assert tenants.engine == EngineChoice("vector")

    def test_store_meta_keeps_the_choice(self, tmp_path):
        import json

        from repro.campaign.store import ResultStore
        from repro.experiments.configs import machine
        from repro.experiments.parallel import RunSpec
        from repro.experiments.runner import StandaloneIPCCache, run_workload

        result = run_workload(
            "tenants:smoke4", machine(4, instructions=5_000), "lru",
            backend="vector", standalone_cache=StandaloneIPCCache(),
        )
        store = ResultStore(tmp_path)
        spec = RunSpec("tenants:smoke4", "lru", backend="vector")
        store.add_result("fp", spec, result, wall_seconds=1.0)
        (record,) = (json.loads(line) for line in open(store.records_path))
        assert record["meta"]["engine"] == "classic"
        assert record["meta"]["engine_declined"] == result.engine.declined
        assert "engine" not in record["result"]
        reopened = ResultStore(tmp_path).record_for("fp")
        assert reopened.result.engine == result.engine
        assert reopened.meta.engine_declined == result.engine.declined
