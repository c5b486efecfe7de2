"""Tests for the scheme base class and the unmanaged scheme."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.lru import LRUPolicy
from repro.partitioning.base import ManagementScheme
from repro.partitioning.unmanaged import UnmanagedScheme
from repro.util.rng import make_rng

GEOMETRY = CacheGeometry(4 << 10, 64, 4)


class TestBaseScheme:
    def test_default_victim_is_policy_victim(self):
        cache = SharedCache(GEOMETRY, 2)
        scheme = ManagementScheme()
        cache.set_scheme(scheme)
        s = GEOMETRY.num_sets
        for i in range(4):
            cache.access(0, i * s)
        result = cache.access(0, 4 * s)
        assert result.evicted_core == 0  # LRU victim

    def test_first_victim_of_filters_by_core(self):
        cache = SharedCache(GEOMETRY, 3)
        scheme = ManagementScheme()
        cache.set_scheme(scheme)
        cset = cache.sets[0]
        s = GEOMETRY.num_sets
        cache.access(0, 0)
        cache.access(1, s)
        cache.access(2, 2 * s)
        cache.access(0, 3 * s)
        # LRU order (best victim first): core0(addr 0), core1, core2, core0.
        assert scheme.first_victim_of(cset, {1}).core == 1
        assert scheme.first_victim_of(cset, {0, 2}).core == 0
        assert scheme.first_victim_of(cset, {9}) is None

    def test_attach_invokes_on_attach(self):
        events = []

        class Probe(ManagementScheme):
            def on_attach(self):
                events.append(self.cache)

        cache = SharedCache(GEOMETRY, 1)
        cache.set_scheme(Probe())
        assert events == [cache]


class TestUnmanagedEquivalence:
    def test_unmanaged_scheme_equals_no_scheme(self):
        """Attaching UnmanagedScheme must be behaviourally identical to a
        bare cache: same hits, same final contents."""
        rng = make_rng(10, "unmanaged")
        stream = [(rng.randrange(2), rng.randrange(300)) for _ in range(6000)]

        def run(scheme):
            cache = SharedCache(GEOMETRY, 2, policy=LRUPolicy())
            if scheme is not None:
                cache.set_scheme(scheme)
            hits = sum(cache.access(c, (c << 20) + a).hit for c, a in stream)
            contents = [
                sorted((b.tag, b.core) for b in list(cset)) for cset in cache.sets
            ]
            return hits, contents

        assert run(None) == run(UnmanagedScheme())

    def test_unmanaged_has_no_intervals(self):
        cache = SharedCache(GEOMETRY, 1)
        cache.set_scheme(UnmanagedScheme())
        for i in range(500):
            cache.access(0, i)
        assert cache.intervals_completed == 0
