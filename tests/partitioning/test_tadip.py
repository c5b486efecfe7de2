"""Tests for TA-DIP (thread-aware dynamic insertion)."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.partitioning.tadip import TADIPPolicy
from repro.util.rng import make_rng


def make(num_cores=2, **kwargs):
    geometry = CacheGeometry(16 << 10, 64, 4)  # 64 sets
    policy = TADIPPolicy(num_cores, **kwargs)
    cache = SharedCache(geometry, num_cores, policy=policy)
    return cache, policy


class TestLeaderLayout:
    def test_every_core_has_both_leader_kinds(self):
        cache, policy = make(num_cores=4, leader_sets=2)
        kinds = {}
        for role in policy._role.values():
            kinds.setdefault(role[0], set()).add(role[1])
        for core in range(4):
            assert kinds[core] == {"lru", "bip"}

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            TADIPPolicy(0)


class TestPerCorePsel:
    def test_psel_updates_only_for_owner_core(self):
        cache, policy = make()
        lru_leader = next(
            s for s, (core, kind) in policy._role.items() if core == 0 and kind == "lru"
        )
        start = list(policy.psel)
        policy.record_miss(cache.sets[lru_leader], core=1)  # not the owner
        assert policy.psel == start
        policy.record_miss(cache.sets[lru_leader], core=0)
        assert policy.psel[0] == start[0] + 1
        assert policy.psel[1] == start[1]

    def test_bip_leader_decrements(self):
        cache, policy = make()
        bip_leader = next(
            s for s, (core, kind) in policy._role.items() if core == 0 and kind == "bip"
        )
        start = policy.psel[0]
        policy.record_miss(cache.sets[bip_leader], core=0)
        assert policy.psel[0] == start - 1

    def test_follower_obeys_own_psel(self):
        cache, policy = make()
        follower = next(s for s in range(64) if s not in policy._role)
        cset = cache.sets[follower]
        policy.psel[0] = policy.psel_max  # core 0 -> BIP
        policy.psel[1] = 0                # core 1 -> LRU
        assert policy.insertion_position(cset, 1) == 0
        positions = {policy.insertion_position(cset, 0) for _ in range(100)}
        assert cset.assoc in positions  # mostly LRU-insert under BIP

    def test_leader_set_pins_owner_policy(self):
        cache, policy = make()
        lru_leader = next(
            s for s, (core, kind) in policy._role.items() if core == 0 and kind == "lru"
        )
        policy.psel[0] = policy.psel_max  # PSEL says BIP...
        # ...but in its own LRU leader set, core 0 must use LRU insertion.
        assert policy.insertion_position(cache.sets[lru_leader], 0) == 0


class TestEndToEnd:
    def test_thrashing_core_learns_bip(self):
        """A core cycling a too-big working set should drive its PSEL toward
        BIP while a reuse-friendly core stays on LRU."""
        cache, policy = make(num_cores=2)
        rng = make_rng(14, "tadip")
        for i in range(60000):
            if rng.random() < 0.5:
                cache.access(0, rng.randrange(40))          # fits: LRU fine
            else:
                cache.access(1, (1 << 20) + (i % 6000))      # cyclic thrash
        mid = policy.psel_max // 2
        assert policy.psel[1] > mid  # thrasher wants BIP

    def test_shared_cache_functional_under_tadip(self):
        cache, policy = make(num_cores=2)
        rng = make_rng(15, "tadip2")
        for _ in range(10000):
            core = rng.randrange(2)
            cache.access(core, (core << 20) + rng.randrange(800))
        assert cache.occupancy == cache.state().recount()
        assert cache.stats.total_hits() > 0
