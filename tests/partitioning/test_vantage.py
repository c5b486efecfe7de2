"""Tests for the set-associative Vantage adaptation."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.timestamp_lru import TimestampLRUPolicy
from repro.partitioning.vantage import VantageScheme
from repro.util.rng import make_rng


def make(num_cores=2, **kwargs):
    geometry = CacheGeometry(8 << 10, 64, 8)
    cache = SharedCache(geometry, num_cores, policy=TimestampLRUPolicy())
    scheme = VantageScheme(interval_len=kwargs.pop("interval_len", 128),
                           sample_shift=1, **kwargs)
    cache.set_scheme(scheme)
    return cache, scheme


class TestConstruction:
    def test_requires_timestamp_lru(self):
        geometry = CacheGeometry(8 << 10, 64, 8)
        cache = SharedCache(geometry, 2, policy=LRUPolicy())
        with pytest.raises(TypeError, match="timestamp-LRU"):
            cache.set_scheme(VantageScheme())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            VantageScheme(unmanaged_frac=1.5)
        with pytest.raises(ValueError):
            VantageScheme(max_aperture=-0.1)
        with pytest.raises(ValueError):
            VantageScheme(granularity=0)

    def test_initial_targets_split_managed_region(self):
        cache, scheme = make(unmanaged_frac=0.2)
        expected = cache.geometry.num_blocks * 0.8 / 2
        assert scheme.targets == [expected, expected]


class TestAperture:
    def test_zero_below_target(self):
        cache, scheme = make()
        scheme.targets = [100.0, 100.0]
        scheme.managed_count = [50, 100]
        assert scheme.aperture(0) == 0.0
        assert scheme.aperture(1) == 0.0

    def test_grows_with_overshoot(self):
        cache, scheme = make(max_aperture=0.4, slack=0.1)
        scheme.targets = [100.0, 100.0]
        scheme.managed_count = [105, 100]
        assert scheme.aperture(0) == pytest.approx(0.2)

    def test_saturates_at_max(self):
        cache, scheme = make(max_aperture=0.4, slack=0.1)
        scheme.targets = [100.0, 100.0]
        scheme.managed_count = [200, 100]
        assert scheme.aperture(0) == 0.4

    def test_zero_target_means_full_aperture(self):
        cache, scheme = make()
        scheme.targets = [0.0, 200.0]
        scheme.managed_count = [5, 0]
        assert scheme.aperture(0) == scheme.max_aperture


class TestReplacementBehaviour:
    def test_fill_enters_managed(self):
        cache, scheme = make()
        cache.access(0, 1)
        assert scheme.managed_count[0] == 1

    def test_unmanaged_hit_promotes(self):
        cache, scheme = make()
        cache.access(0, 1)
        g = cache.geometry
        block = cache.sets[g.set_index(1)].lookup(g.tag(1))
        block.managed = False
        scheme.managed_count[0] -= 1
        cache.access(0, 1)  # hit promotes back
        assert block.managed
        assert scheme.managed_count[0] == 1

    def test_victim_prefers_unmanaged(self):
        cache, scheme = make()
        cset = cache.sets[0]
        s = cache.geometry.num_sets
        for i in range(8):
            cache.access(0, i * s)
        # Demote one specific block by hand.
        target = list(cset)[3]
        target.managed = False
        scheme.managed_count[0] -= 1
        scheme.targets = [1e9, 1e9]  # apertures 0: no further demotions
        victim = scheme.select_victim(cset, 1)
        assert victim is target

    def test_forced_eviction_counted_when_no_unmanaged(self):
        cache, scheme = make()
        scheme.targets = [1e9, 1e9]  # nothing ever demotes
        cset = cache.sets[0]
        s = cache.geometry.num_sets
        for i in range(9):  # 9th access forces an eviction
            cache.access(0, i * s)
        assert scheme.forced_evictions == 1

    def test_managed_count_stays_consistent(self):
        cache, scheme = make(interval_len=64)
        rng = make_rng(11, "vantage")
        for _ in range(20000):
            core = rng.randrange(2)
            cache.access(core, (core << 20) + rng.randrange(1500))
        actual = [0, 0]
        for cset in cache.sets:
            for block in list(cset):
                if block.managed:
                    actual[block.core] += 1
        assert scheme.managed_count == actual

    def test_partition_sizes_track_targets(self):
        """The aperture feedback should hold a partition near its target."""
        cache, scheme = make(interval_len=1 << 30)  # freeze targets
        n = cache.geometry.num_blocks
        scheme.targets = [0.7 * 0.9 * n, 0.3 * 0.9 * n]
        rng = make_rng(12, "vtg")
        for _ in range(50000):
            core = rng.randrange(2)
            cache.access(core, (core << 20) + rng.randrange(2000))
        share0 = scheme.managed_count[0] / max(1, sum(scheme.managed_count))
        assert share0 == pytest.approx(0.7, abs=0.12)

    def test_demotions_counted(self):
        cache, scheme = make(interval_len=64)
        rng = make_rng(13, "vtg2")
        for _ in range(10000):
            core = rng.randrange(2)
            cache.access(core, (core << 20) + rng.randrange(1500))
        assert scheme.demotions > 0
