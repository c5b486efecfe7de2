"""Tests for the shadow-tag / UMON monitor."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.shadow import ShadowTagMonitor
from repro.util.rng import make_rng


class TestSampling:
    def test_sample_selection(self):
        monitor = ShadowTagMonitor(2, num_sets=32, assoc=4, sample_shift=3)
        sampled = [i for i in range(32) if monitor.is_sampled(i)]
        assert sampled == [0, 8, 16, 24]
        assert monitor.sample_ratio == 8

    def test_shift_zero_samples_everything(self):
        monitor = ShadowTagMonitor(1, num_sets=8, assoc=4, sample_shift=0)
        assert all(monitor.is_sampled(i) for i in range(8))

    def test_shift_clamped_for_tiny_set_counts(self):
        monitor = ShadowTagMonitor(1, num_sets=4, assoc=64, sample_shift=5)
        assert sum(monitor.is_sampled(i) for i in range(4)) >= 2

    def test_unsampled_sets_ignored(self):
        monitor = ShadowTagMonitor(1, num_sets=32, assoc=4, sample_shift=3)
        monitor.observe(0, 1, tag=5, shared_hit=False)
        assert monitor.sampled_accesses(0) == 0
        assert monitor.standalone_misses(0) == 0

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            ShadowTagMonitor(1, 8, 4, sample_shift=-1)


class TestStandaloneEmulation:
    def test_first_touch_misses_then_hits(self):
        monitor = ShadowTagMonitor(1, num_sets=8, assoc=4, sample_shift=0)
        monitor.observe(0, 0, tag=7, shared_hit=False)
        assert monitor.standalone_misses(0) == 1
        monitor.observe(0, 0, tag=7, shared_hit=False)
        assert monitor.standalone_hits(0) == 1

    def test_hit_position_tracks_recency_depth(self):
        monitor = ShadowTagMonitor(1, num_sets=8, assoc=4, sample_shift=0)
        for tag in (1, 2, 3):
            monitor.observe(0, 0, tag, shared_hit=False)
        monitor.observe(0, 0, 1, shared_hit=False)  # depth 2 (0-indexed position 2)
        assert monitor.position_hits[0][2] == 1

    def test_lru_eviction_at_assoc(self):
        monitor = ShadowTagMonitor(1, num_sets=8, assoc=2, sample_shift=0)
        for tag in (1, 2, 3):  # tag 1 falls off a 2-way stack
            monitor.observe(0, 0, tag, shared_hit=False)
        monitor.observe(0, 0, 1, shared_hit=False)
        assert monitor.standalone_hits(0) == 0
        assert monitor.standalone_misses(0) == 4

    def test_cores_isolated(self):
        monitor = ShadowTagMonitor(2, num_sets=8, assoc=4, sample_shift=0)
        monitor.observe(0, 0, tag=1, shared_hit=False)
        monitor.observe(1, 0, tag=1, shared_hit=False)
        # Each core's private shadow array misses on its own first touch.
        assert monitor.standalone_misses(0) == 1
        assert monitor.standalone_misses(1) == 1

    def test_utility_curve_is_prefix_sum(self):
        monitor = ShadowTagMonitor(1, num_sets=8, assoc=4, sample_shift=0)
        monitor.position_hits[0] = [10, 5, 2, 1]
        assert monitor.hits_with_ways(0, 0) == 0
        assert monitor.hits_with_ways(0, 1) == 10
        assert monitor.hits_with_ways(0, 3) == 17
        assert monitor.hits_with_ways(0, 4) == 18
        assert monitor.hits_with_ways(0, 99) == 18  # clamped at assoc

    def test_utility_curve_monotone(self):
        monitor = ShadowTagMonitor(1, num_sets=8, assoc=8, sample_shift=0)
        rng = make_rng(5, "util")
        for _ in range(2000):
            monitor.observe(0, rng.randrange(8), rng.randrange(40), shared_hit=False)
        curve = [monitor.hits_with_ways(0, w) for w in range(9)]
        assert curve == sorted(curve)

    def test_negative_ways_rejected(self):
        monitor = ShadowTagMonitor(1, 8, 4, sample_shift=0)
        with pytest.raises(ValueError):
            monitor.hits_with_ways(0, -1)


class TestSharedCounters:
    def test_shared_hit_miss_split(self):
        monitor = ShadowTagMonitor(1, num_sets=8, assoc=4, sample_shift=0)
        monitor.observe(0, 0, 1, shared_hit=True)
        monitor.observe(0, 0, 1, shared_hit=False)
        assert monitor.shared_hits[0] == 1
        assert monitor.shared_misses[0] == 1
        assert monitor.sampled_accesses(0) == 2

    def test_end_interval_resets_counters_keeps_arrays(self):
        monitor = ShadowTagMonitor(1, num_sets=8, assoc=4, sample_shift=0)
        monitor.observe(0, 0, 1, shared_hit=False)
        monitor.end_interval()
        assert monitor.standalone_misses(0) == 0
        assert monitor.shared_misses[0] == 0
        # The warm shadow array survives the reset: the next touch hits.
        monitor.observe(0, 0, 1, shared_hit=False)
        assert monitor.standalone_hits(0) == 1

class TestAgainstRealCache:
    def test_shadow_matches_private_cache_exactly(self):
        """On sampled sets, the shadow emulation must equal a real private
        LRU cache serving the same single-core stream."""
        geometry = CacheGeometry(4 << 10, 64, 4)  # 16 sets
        cache = SharedCache(geometry, 1)
        monitor = ShadowTagMonitor(1, geometry.num_sets, geometry.assoc, sample_shift=1)
        cache.add_monitor(monitor)
        rng = make_rng(6, "vs-real")
        real_hits_on_sampled = 0
        for _ in range(5000):
            addr = rng.randrange(400)
            result = cache.access(0, addr)
            if monitor.is_sampled(result.set_index) and result.hit:
                real_hits_on_sampled += 1
        # Single core, same replacement policy: shadow == reality.
        assert monitor.standalone_hits(0) == real_hits_on_sampled
        assert monitor.shared_hits[0] == real_hits_on_sampled
