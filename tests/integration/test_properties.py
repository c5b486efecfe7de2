"""Property-based invariants over the full cache + scheme stack.

Hypothesis drives randomized access streams through every management
scheme and checks the invariants DESIGN.md §6 lists: occupancy
conservation, lookup-structure integrity, statistics consistency, and
distribution validity — the properties that must hold for *any* input,
not just the workloads the figures use.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import (
    DIPPolicy,
    LRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    TimestampLRUPolicy,
)
from repro.core import HitMaxPolicy, PrismScheme
from repro.partitioning import (
    FairWayPartitionScheme,
    PIPPScheme,
    UCPScheme,
    VantageScheme,
    WayPartitionScheme,
)

GEOMETRY = CacheGeometry(8 << 10, 64, 8)  # 128 blocks, 16 sets
NUM_CORES = 3


def build_cache(scheme_name: str) -> SharedCache:
    """A 3-core cache under the named scheme (fresh state)."""
    if scheme_name == "vantage":
        cache = SharedCache(GEOMETRY, NUM_CORES, policy=TimestampLRUPolicy())
        cache.set_scheme(VantageScheme(interval_len=64, sample_shift=1))
        return cache
    cache = SharedCache(GEOMETRY, NUM_CORES, policy=LRUPolicy())
    schemes = {
        "none": None,
        "waypart": WayPartitionScheme(),
        "ucp": UCPScheme(interval_len=64, sample_shift=1),
        "pipp": PIPPScheme(interval_len=64, sample_shift=1),
        "fair": FairWayPartitionScheme(interval_len=64, sample_shift=1),
        "prism": PrismScheme(HitMaxPolicy(), interval_len=64, sample_shift=1),
        "prism-paper": PrismScheme(
            HitMaxPolicy(pure=True),
            interval_len=64,
            sample_shift=1,
            fallback="paper",
            bias_correction=False,
        ),
    }
    scheme = schemes[scheme_name]
    if scheme is not None:
        cache.set_scheme(scheme)
    return cache


access_streams = st.lists(
    st.tuples(st.integers(0, NUM_CORES - 1), st.integers(0, 400)),
    min_size=50,
    max_size=1500,
)

ALL_SCHEMES = ["none", "waypart", "ucp", "pipp", "fair", "prism", "prism-paper", "vantage"]


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stream=access_streams)
def test_stack_invariants(scheme_name, stream):
    cache = build_cache(scheme_name)
    for core, addr in stream:
        # Per-core address offset, as the system driver applies.
        cache.access(core, (core << 20) + addr)

    # Occupancy conservation: counters match a full scan and never exceed
    # the cache; per-set the lookup dict matches the recency list.
    assert cache.occupancy == cache.state().recount()
    assert sum(cache.occupancy) <= cache.geometry.num_blocks
    for cset in cache.sets:
        assert len(cset.blocks) <= cset.assoc
        assert len(cset._by_tag) == len(cset.blocks)
        for block in cset.blocks:
            assert block.valid
            assert cset.lookup(block.tag) is block
            assert 0 <= block.core < NUM_CORES

    # Statistics consistency.
    stats = cache.stats
    assert sum(stats.hits) + sum(stats.misses) == len(stream)
    assert sum(stats.evictions) == sum(stats.misses) - sum(cache.occupancy)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stream=access_streams)
def test_prism_distribution_stays_valid(stream):
    cache = build_cache("prism")
    scheme = cache.scheme
    for core, addr in stream:
        cache.access(core, (core << 20) + addr)
        probs = scheme.manager.probabilities
        assert sum(probs) == pytest.approx(1.0)
        assert all(0.0 <= p <= 1.0 + 1e-9 for p in probs)
        assert sum(scheme.targets) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stream=access_streams)
def test_waypart_eviction_attribution(stream):
    """Way-partitioning never victimises a strictly-under-quota core on
    behalf of another core: the victim is either the requester itself or a
    core holding at least its quota in that set. (Quotas bind only under
    competition — a lone core may legitimately fill a whole set.)"""
    cache = build_cache("waypart")
    quotas = cache.scheme.quotas
    geometry = cache.geometry
    for core, addr in stream:
        block_addr = (core << 20) + addr
        cset = cache.sets[geometry.set_index(block_addr)]
        counts = [cset.count_core(c) for c in range(NUM_CORES)]
        full_before = cset.full
        result = cache.access(core, block_addr)
        if not full_before or result.hit:
            continue
        victim = result.evicted_core
        assert victim == core or counts[victim] >= quotas[victim]


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stream=access_streams, seed=st.integers(0, 2**31))
def test_same_stream_same_result(stream, seed):
    """Bit-level determinism of the managed cache under a fixed seed."""

    def run():
        cache = SharedCache(GEOMETRY, NUM_CORES, policy=LRUPolicy())
        cache.set_scheme(
            PrismScheme(HitMaxPolicy(), interval_len=64, sample_shift=1, seed=seed)
        )
        hits = 0
        for core, addr in stream:
            hits += cache.access(core, (core << 20) + addr).hit
        return hits, list(cache.occupancy), list(cache.scheme.manager.probabilities)

    assert run() == run()


@pytest.mark.parametrize("policy_cls", [LRUPolicy, DIPPolicy, SRRIPPolicy, RandomPolicy])
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stream=access_streams)
def test_prism_agnostic_to_policy(policy_cls, stream):
    """PriSM's invariants hold over every baseline replacement policy."""
    cache = SharedCache(GEOMETRY, NUM_CORES, policy=policy_cls())
    cache.set_scheme(PrismScheme(HitMaxPolicy(), interval_len=64, sample_shift=1))
    for core, addr in stream:
        cache.access(core, (core << 20) + addr)
    assert cache.occupancy == cache.state().recount()
    probs = cache.scheme.manager.probabilities
    assert sum(probs) == pytest.approx(1.0)
