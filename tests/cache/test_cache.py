"""Unit tests for the SharedCache access path."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.lru import LRUPolicy
from repro.partitioning.base import ManagementScheme
from repro.util.rng import make_rng


def addr_for(geometry, set_index, tag):
    return geometry.block_addr(set_index, tag)


class TestHitsAndMisses:
    def test_first_access_misses(self, tiny_cache):
        result = tiny_cache.access(0, 100)
        assert not result.hit
        assert tiny_cache.stats.misses[0] == 1

    def test_second_access_hits(self, tiny_cache):
        tiny_cache.access(0, 100)
        result = tiny_cache.access(0, 100)
        assert result.hit
        assert tiny_cache.stats.hits[0] == 1

    def test_hit_requires_same_block(self, tiny_cache):
        tiny_cache.access(0, 100)
        assert not tiny_cache.access(0, 101).hit

    def test_cross_core_hit(self, tiny_cache):
        # The cache is shared: core 1 can hit on a block core 0 brought in.
        tiny_cache.access(0, 100)
        assert tiny_cache.access(1, 100).hit
        assert tiny_cache.stats.hits[1] == 1

    def test_hit_does_not_change_owner(self, tiny_cache):
        tiny_cache.access(0, 100)
        tiny_cache.access(1, 100)
        g = tiny_cache.geometry
        block = tiny_cache.sets[g.set_index(100)].lookup(g.tag(100))
        assert block.core == 0

    def test_no_eviction_until_set_full(self, tiny_geometry):
        cache = SharedCache(tiny_geometry, 1)
        s = tiny_geometry.num_sets
        for i in range(tiny_geometry.assoc):
            result = cache.access(0, i * s)  # all map to set 0
            assert result.evicted_core == -1
        result = cache.access(0, tiny_geometry.assoc * s)
        assert result.evicted_core == 0

    def test_lru_victim_selected(self, tiny_geometry):
        cache = SharedCache(tiny_geometry, 1)
        s = tiny_geometry.num_sets
        for i in range(tiny_geometry.assoc):
            cache.access(0, i * s)
        cache.access(0, 0)  # touch the oldest -> now MRU
        cache.access(0, tiny_geometry.assoc * s)  # evicts tag of addr s (2nd oldest)
        assert cache.access(0, 0).hit           # survived
        assert not cache.access(0, s).hit       # evicted


class TestOccupancyAccounting:
    def test_occupancy_counts_fills(self, tiny_cache):
        tiny_cache.access(0, 1)
        tiny_cache.access(0, 2)
        tiny_cache.access(1, 3)
        assert tiny_cache.occupancy == [2, 1]

    def test_occupancy_conserved_under_churn(self, tiny_cache):
        rng = make_rng(7, "churn")
        for _ in range(5000):
            tiny_cache.access(rng.randrange(2), rng.randrange(500))
        assert tiny_cache.occupancy == tiny_cache.state().recount()
        assert sum(tiny_cache.occupancy) <= tiny_cache.geometry.num_blocks

    def test_occupancy_fractions_sum_to_one_when_warm(self, tiny_cache):
        rng = make_rng(8, "warm")
        for _ in range(4000):
            tiny_cache.access(rng.randrange(2), rng.randrange(1000))
        assert sum(tiny_cache.occupancy_fractions()) == pytest.approx(1.0)

    def test_eviction_decrements_victim_core(self, tiny_geometry):
        cache = SharedCache(tiny_geometry, 2)
        s = tiny_geometry.num_sets
        for i in range(tiny_geometry.assoc):
            cache.access(0, i * s)
        cache.access(1, tiny_geometry.assoc * s)
        assert cache.occupancy[0] == tiny_geometry.assoc - 1
        assert cache.occupancy[1] == 1
        assert cache.stats.evictions[0] == 1


class TestMonitors:
    class Recorder:
        def __init__(self):
            self.events = []

        def observe(self, core, set_index, tag, hit):
            self.events.append((core, set_index, tag, hit))

    def test_monitor_sees_every_access(self, tiny_cache):
        recorder = self.Recorder()
        tiny_cache.add_monitor(recorder)
        tiny_cache.access(0, 5)
        tiny_cache.access(0, 5)
        assert len(recorder.events) == 2
        assert recorder.events[0][3] is False
        assert recorder.events[1][3] is True

    def test_monitor_gets_correct_core_and_tag(self, tiny_cache):
        recorder = self.Recorder()
        tiny_cache.add_monitor(recorder)
        g = tiny_cache.geometry
        tiny_cache.access(1, 77)
        core, set_index, tag, hit = recorder.events[0]
        assert core == 1
        assert set_index == g.set_index(77)
        assert tag == g.tag(77)


class _CountingScheme(ManagementScheme):
    """Evicts LRU; counts interval callbacks."""

    name = "counting"

    def __init__(self, interval_len):
        super().__init__()
        self.interval_len = interval_len
        self.calls = 0
        self.interval_miss_snapshot = []

    def end_interval(self, cache):
        self.calls += 1
        self.interval_miss_snapshot = list(cache.stats.interval_misses)


class TestIntervals:
    def test_interval_fires_every_w_misses(self, tiny_geometry):
        cache = SharedCache(tiny_geometry, 1)
        scheme = _CountingScheme(interval_len=10)
        cache.set_scheme(scheme)
        for i in range(35):  # distinct addresses -> all misses
            cache.access(0, i)
        assert scheme.calls == 3
        assert cache.intervals_completed == 3

    def test_hits_do_not_advance_interval(self, tiny_geometry):
        cache = SharedCache(tiny_geometry, 1)
        scheme = _CountingScheme(interval_len=5)
        cache.set_scheme(scheme)
        cache.access(0, 1)
        for _ in range(100):
            cache.access(0, 1)  # hits
        assert scheme.calls == 0

    def test_interval_counters_live_during_callback(self, tiny_geometry):
        cache = SharedCache(tiny_geometry, 1)
        scheme = _CountingScheme(interval_len=4)
        cache.set_scheme(scheme)
        for i in range(4):
            cache.access(0, i)
        assert scheme.interval_miss_snapshot == [4]

    def test_interval_counters_reset_after_callback(self, tiny_geometry):
        cache = SharedCache(tiny_geometry, 1)
        scheme = _CountingScheme(interval_len=4)
        cache.set_scheme(scheme)
        for i in range(5):
            cache.access(0, i)
        assert cache.stats.interval_misses == [1]

    def test_zero_interval_never_fires(self, tiny_geometry):
        cache = SharedCache(tiny_geometry, 1)
        scheme = _CountingScheme(interval_len=0)
        cache.set_scheme(scheme)
        for i in range(50):
            cache.access(0, i)
        assert scheme.calls == 0


class TestValidation:
    def test_rejects_zero_cores(self, tiny_geometry):
        with pytest.raises(ValueError):
            SharedCache(tiny_geometry, 0)

    def test_default_policy_is_lru(self, tiny_geometry):
        cache = SharedCache(tiny_geometry, 1)
        assert isinstance(cache.policy, LRUPolicy)

    def test_unscheme_cache_behaves_like_lru(self):
        g = CacheGeometry(2 << 10, 64, 4)
        managed = SharedCache(g, 1, policy=LRUPolicy())
        rng = make_rng(3, "cmp")
        stream = [rng.randrange(200) for _ in range(3000)]
        hits = sum(managed.access(0, a).hit for a in stream)
        # Re-running the identical stream gives identical hit counts.
        again = SharedCache(g, 1, policy=LRUPolicy())
        assert sum(again.access(0, a).hit for a in stream) == hits
