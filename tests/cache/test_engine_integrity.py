"""Randomized integrity properties of the linked-list cache engine.

The intrusive recency list replaced an explicit Python list ordering, and
per-core residency counts went from scans to incremental updates. These
tests drive randomized access streams through every (policy, scheme)
pairing the experiments use and then verify the invariants the fast paths
rely on:

- ``state().recount() == occupancy`` — the incremental per-core occupancy
  counters agree with a recount of every resident block;
- :meth:`CacheSet.check_integrity` — forward/backward link order agree,
  the tag index maps every resident block, no ways leak, and the per-set
  ``_core_counts`` match a recount.
"""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import DIPPolicy, LRUPolicy, SRRIPPolicy
from repro.core import HitMaxPolicy, PrismScheme
from repro.experiments.schemes import build_scheme
from repro.util.rng import make_rng

GEOMETRY = CacheGeometry(16 << 10, 64, 8)  # 32 sets x 8 ways
CORES = 4
ACCESSES = 6_000

#: Registry schemes covering every victim-selection/insertion variant:
#: unmanaged recency baselines, PriSM over LRU and DIP, UCP's way quotas,
#: PIPP's positional inserts, Vantage's partition demotions.
SCHEME_NAMES = [
    "lru",
    "dip",
    "tslru",
    "prism-h",
    "prism-h-dip",
    "ucp",
    "pipp",
    "vantage",
    "waypart",
]


def _drive(cache: SharedCache, seed: int, accesses: int = ACCESSES) -> SharedCache:
    """A mixed stream: mostly per-core private addresses, some shared."""
    rng = make_rng(seed, "engine-integrity")
    access = cache.access
    for _ in range(accesses):
        core = rng.randrange(CORES)
        if rng.random() < 0.75:
            addr = (core << 16) + rng.randrange(700)
        else:
            addr = rng.randrange(1 << 13)  # contended region, all cores
        access(core, addr)
    return cache


def _assert_invariants(cache: SharedCache) -> None:
    assert cache.state().recount() == cache.occupancy
    assert cache.valid_blocks() == sum(cache.occupancy)
    assert cache.valid_blocks() <= cache.geometry.num_blocks
    cache.check_integrity()


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_registry_schemes_keep_engine_invariants(scheme_name, seed):
    scheme, policy = build_scheme(scheme_name, CORES, [1.0] * CORES)
    cache = SharedCache(GEOMETRY, CORES, policy=policy)
    if scheme is not None:
        cache.set_scheme(scheme)
    _drive(cache, seed)
    assert cache.stats.total_misses() > 0
    _assert_invariants(cache)


@pytest.mark.parametrize(
    "policy_factory", [LRUPolicy, DIPPolicy, SRRIPPolicy], ids=["lru", "dip", "srrip"]
)
def test_unmanaged_policies_keep_engine_invariants(policy_factory):
    cache = SharedCache(GEOMETRY, CORES, policy=policy_factory())
    _drive(cache, seed=2)
    _assert_invariants(cache)


def test_prism_over_srrip_keeps_engine_invariants():
    """PriSM's manager on a non-recency order (the slow victim path)."""
    cache = SharedCache(GEOMETRY, CORES, policy=SRRIPPolicy())
    cache.set_scheme(PrismScheme(HitMaxPolicy(), sample_shift=1))
    _drive(cache, seed=3)
    assert cache.intervals_completed > 0
    _assert_invariants(cache)


def test_invariants_hold_mid_stream():
    """Integrity is not just an end-state property: probe while running."""
    cache = SharedCache(GEOMETRY, CORES)
    cache.set_scheme(PrismScheme(HitMaxPolicy(), sample_shift=1))
    rng = make_rng(7, "engine-integrity-mid")
    for i in range(5):
        for _ in range(800):
            core = rng.randrange(CORES)
            cache.access(core, (core << 16) + rng.randrange(500))
        _assert_invariants(cache)
