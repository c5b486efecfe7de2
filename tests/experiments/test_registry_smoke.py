"""Registry-wide smoke: every scheme runs and conserves occupancy.

One tiny 4-core workload drives every registered scheme end to end. A
cache-level monitor audits occupancy conservation at every interval
boundary (the moment re-allocation mutates scheme state), so a scheme
whose bookkeeping drifts exactly at its own boundary cannot pass by
luck of the final-state check alone.
"""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.check.differential import SyntheticPerf
from repro.experiments.schemes import SCHEMES, build_scheme
from repro.util.rng import make_rng

GEOMETRY = CacheGeometry(16 << 10, 64, 8)  # 256 blocks, 32 sets
NUM_CORES = 4
STANDALONE_IPCS = [1.0, 0.9, 0.8, 0.7]

#: Schemes that re-allocate on an interval; pinned short so the smoke run
#: crosses many boundaries. The rest take no interval knobs.
INTERVAL_KWARGS = {"interval_len": 64, "sample_shift": 1}
SCHEME_KWARGS = {
    name: INTERVAL_KWARGS
    for name in (
        "prism-h", "prism-f", "prism-q", "prism-ucpx", "prism-h-dip",
        "ucp", "pipp", "fair-waypart", "vantage",
        "waypart-hitmax", "waypart-fair",
    )
}


class ConservationMonitor:
    """Asserts the occupancy counters survive every interval boundary."""

    def __init__(self, cache):
        self.cache = cache
        self.boundaries = 0

    def observe(self, core, set_index, tag, hit):
        pass

    def end_interval(self):
        self.boundaries += 1
        cache = self.cache
        assert cache.occupancy == cache.state().recount()
        assert 0 <= sum(cache.occupancy) <= cache.geometry.num_blocks


def build(name):
    scheme, policy = build_scheme(
        name, NUM_CORES, STANDALONE_IPCS, **SCHEME_KWARGS.get(name, {})
    )
    cache = SharedCache(GEOMETRY, NUM_CORES, policy=policy)
    if scheme is not None:
        if hasattr(scheme, "perf"):
            scheme.perf = SyntheticPerf(NUM_CORES, seed=0)
        cache.set_scheme(scheme)
    monitor = ConservationMonitor(cache)
    cache.add_monitor(monitor)
    return cache, monitor


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_scheme_completes_and_conserves_occupancy(name):
    cache, monitor = build(name)
    rng = make_rng(0, "registry-smoke", name)
    for _ in range(4000):
        core = rng.randrange(NUM_CORES)
        # Per-core hot region plus a shared tail: hits, misses and
        # cross-core contention for every scheme.
        if rng.random() < 0.7:
            addr = (core << 16) | (rng.getrandbits(12) & ~0x3F)
        else:
            addr = rng.getrandbits(14)
        cache.access(core, addr)

    assert cache.occupancy == cache.state().recount()
    assert 0 < sum(cache.occupancy) <= GEOMETRY.num_blocks
    stats = cache.stats
    assert sum(stats.hits) + sum(stats.misses) == 4000
    if name.startswith("prism"):
        # PriSM schemes must actually cross boundaries in 4000 accesses
        # with a 64-miss interval, and every boundary was audited.
        assert monitor.boundaries > 0
        assert monitor.boundaries == cache.intervals_completed
        probs = cache.scheme.manager.probabilities
        assert sum(probs) == pytest.approx(1.0)
