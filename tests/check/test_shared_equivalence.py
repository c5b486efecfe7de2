"""Cross-backend equivalence and determinism on shared-data traces.

The shared family is the scale-out counterpart of the tenant family
(tests/check/test_tenant_equivalence.py): cores touch private regions
*and* group-shared regions, so blocks accumulate sharer sets and — under
a ``core_map`` — charge a cluster-level accounting owner. This slice of
the matrix certifies that

- the vector engine agrees with the classic engine access for access on
  a shared trace, with sharer tracking and a cluster map installed;
- the full scale-out driver reports bit-identical results under either
  backend, clustered or not;
- two runs of the same spec are byte-identical (the determinism the
  campaign store's fingerprint cache relies on) — including the pinned
  16-core scale-out smoke digest.
"""

import warnings

import pytest

from repro.campaign.fingerprint import spec_fingerprint
from repro.check.differential import (
    DifferentialCase,
    _build_engine,
    _build_vector_engine,
    compare_batched,
)
from repro.clustering.scaleout import run_shared_workload, shared_standalone
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import (
    DEFAULT_STANDALONE_CACHE,
    StandaloneIPCCache,
    run_workload,
)
from repro.workloads.shared import get_shared_workload

CFG = machine(4, instructions=20_000)


def shared_stream(requests=1500, seed=7, chunk_size=512):
    """The smoke4 shared trace flattened to the oracle's (core, addr) form."""
    workload = get_shared_workload("smoke4")
    stream = []
    for cores, addrs in workload.chunks(requests, seed, chunk_size=chunk_size):
        stream.extend(zip(cores.tolist(), addrs.tolist()))
    return stream


class TestSharedStreamEquivalence:
    """Vector vs classic engine over the same shared trace."""

    @pytest.mark.parametrize("scheme", ["lru", "prism-h"])
    @pytest.mark.parametrize("core_map", [None, (0, 1, 0, 1)])
    def test_backends_agree_with_sharers_and_clusters(self, scheme, core_map):
        case = DifferentialCase(
            scheme=scheme, num_cores=4, num_sets=16, assoc=4, seed=7, accesses=0,
            scheme_kwargs={"seed": 1} if scheme.startswith("prism") else None,
            core_map=core_map, track_sharers=True,
        )
        engine = _build_vector_engine(case, None, None)
        classic = _build_engine(case, None, None)
        divergences = compare_batched(engine, classic, shared_stream())
        assert divergences == [], "\n".join(str(d) for d in divergences)

    def test_stream_exercises_every_core(self):
        assert {core for core, _ in shared_stream()} == {0, 1, 2, 3}


class TestRunSharedWorkload:
    def test_result_shape(self):
        result = run_shared_workload(get_shared_workload("smoke4"), CFG, "lru", seed=1)
        assert result.mix == "shared:smoke4"
        assert result.benchmarks == ["core0", "core1", "core2", "core3"]
        assert sum(c.instructions for c in result.cores) == CFG.instructions
        assert result.antt > 0 and result.throughput > 0
        assert 0 < result.fairness <= 1.0

    def test_core_count_mismatch(self):
        with pytest.raises(ValueError, match="cores"):
            run_shared_workload(
                get_shared_workload("smoke4"), machine(8, instructions=20_000)
            )

    def test_dispatches_through_run_workload(self):
        via_runner = run_workload("shared:smoke4", CFG, "lru", seed=2)
        direct = run_shared_workload(get_shared_workload("smoke4"), CFG, "lru", seed=2)
        assert via_runner == direct

    def test_clusters_rejected_for_other_families(self):
        with pytest.raises(ValueError, match="clusters"):
            run_workload("tenants:smoke4", CFG, "lru", clusters=2)

    def test_checked_vector_run_equals_checked_classic(self):
        source = get_shared_workload("smoke4")
        classic = run_shared_workload(
            source, CFG, "prism-h", seed=1, check=True, clusters=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vector = run_shared_workload(
                source, CFG, "prism-h", seed=1, backend="vector", check=True,
                clusters=2,
            )
        assert vector == classic

    def test_clustering_changes_managed_runs(self):
        """A managed scheme at cluster granularity is a different run."""
        per_core = run_shared_workload(
            get_shared_workload("smoke4"), CFG, "prism-h", seed=1
        )
        clustered = run_shared_workload(
            get_shared_workload("smoke4"), CFG, "prism-h", seed=1, clusters=2
        )
        assert per_core != clustered


class TestBackendEquivalence:
    @pytest.mark.parametrize("scheme", ["lru", "prism-h", "prism-f"])
    @pytest.mark.parametrize("clusters", [None, 2])
    def test_vector_matches_classic_bit_for_bit(self, scheme, clusters):
        source = get_shared_workload("smoke4")
        classic = run_shared_workload(source, CFG, scheme, seed=3, clusters=clusters)
        vector = run_shared_workload(
            source, CFG, scheme, seed=3, clusters=clusters, backend="vector"
        )
        assert classic == vector  # dataclass eq: every field, exactly

    def test_solo_baselines_match_across_backends(self):
        source = get_shared_workload("smoke4")
        classic = shared_standalone(source, CFG, cache=StandaloneIPCCache())
        vector = shared_standalone(
            source, CFG, cache=StandaloneIPCCache(), backend="vector"
        )
        assert classic == vector


class TestDeterminism:
    @pytest.mark.parametrize("backend", ["classic", "vector"])
    def test_two_runs_byte_identical(self, backend):
        """Same spec twice (cold solo cache both times) -> equal results."""
        source = get_shared_workload("smoke4")
        a = run_shared_workload(
            source, CFG, "prism-f", seed=3, clusters=2, backend=backend
        )
        DEFAULT_STANDALONE_CACHE.clear()
        b = run_shared_workload(
            source, CFG, "prism-f", seed=3, clusters=2, backend=backend
        )
        assert a == b
        c = run_shared_workload(
            source, CFG, "prism-f", seed=4, clusters=2, backend=backend
        )
        assert a != c

    def test_scaleout_smoke_fingerprint_pinned(self):
        """The 16-core scale-out smoke spec's content address, byte for
        byte. Moving it silently would orphan every stored campaign
        result for the scale-out panels; change SHARED_FAMILY_VERSION or
        FINGERPRINT_VERSION instead."""
        spec = RunSpec(mix="shared:scale16", scheme="prism-f", seed=0, clusters=4)
        config = machine(16, instructions=30_000)
        assert spec_fingerprint(spec, config) == (
            "b5a812074d09681ba1fbce5859fef5c4c6d7de8e9ae4b4c5b328a8f809e69363"
        )
