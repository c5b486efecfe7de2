"""Tests for inclusive-hierarchy back-invalidation."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cpu.system import MultiCoreSystem

LLC = CacheGeometry(4 << 10, 64, 4)
L1 = CacheGeometry(1 << 10, 64, 2)


class TestEvictedAddr:
    def test_access_result_reports_victim_address(self):
        cache = SharedCache(LLC, 1)
        s = LLC.num_sets
        for i in range(LLC.assoc):
            cache.access(0, i * s)
        result = cache.access(0, LLC.assoc * s)
        assert result.evicted_addr == 0  # LRU victim was block address 0

    def test_no_eviction_reports_minus_one(self):
        cache = SharedCache(LLC, 1)
        result = cache.access(0, 7)
        assert result.evicted_addr == -1
        assert cache.access(0, 7).evicted_addr == -1  # hit


class TestInclusiveHierarchy:
    def test_back_invalidation_clears_l1(self, friendly_profile):
        cache = SharedCache(LLC, 1)
        system = MultiCoreSystem(
            cache, [friendly_profile], seed=1, l1_geometry=L1, inclusive=True
        )
        system.run(40_000)
        l1 = system.l1s[0]
        # Inclusion: every L1-resident block is also LLC-resident.
        for block_addr in l1.resident_addrs():
            llc_set = cache.sets[LLC.set_index(block_addr)]
            assert llc_set.lookup(LLC.tag(block_addr)) is not None

    @pytest.mark.parametrize("inclusive", [True, False])
    def test_scripted_eviction_scenario(self, friendly_profile, inclusive):
        """Block A stays hot in L1 (so the LLC never sees it again) while
        conflicting blocks push it out of the LLC. Inclusive mode must
        back-invalidate A; non-inclusive leaves it L1-resident."""

        class Scripted:
            def __init__(self, addrs):
                self.addrs = list(addrs)
                self.pos = 0

            def take(self, n):
                last = len(self.addrs) - 1
                addrs = [self.addrs[min(self.pos + i, last)] for i in range(n)]
                self.pos += n
                return [1] * n, addrs

        sets = LLC.num_sets
        a = 0
        conflicts = [sets * i for i in range(1, LLC.assoc + 1)]
        script = [a]
        for b in conflicts[:-1]:
            script += [b, a]  # keep A the L1-MRU between conflict fills
        script += [conflicts[-1]]  # the fill that evicts A from the LLC
        script += [999]  # tail filler (re-served if the run needs more)

        cache = SharedCache(LLC, 1)
        system = MultiCoreSystem(
            cache, [friendly_profile], l1_geometry=L1, inclusive=inclusive
        )
        system.streams = [Scripted(script)]
        system.run(len(script))

        llc_resident = cache.sets[0].lookup(LLC.tag(a)) is not None
        assert not llc_resident  # conflicts evicted A from the LLC
        assert system.l1s[0].resident(a) == (not inclusive)

    def test_inclusive_flag_ignored_without_l1(self, friendly_profile):
        cache = SharedCache(LLC, 1)
        system = MultiCoreSystem(cache, [friendly_profile], inclusive=True)
        assert not system.inclusive
        system.run(5_000)  # runs fine
