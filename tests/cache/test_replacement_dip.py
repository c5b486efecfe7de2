"""Tests for LIP / BIP / DIP insertion policies."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.cacheset import CacheSet
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.dip import BIPPolicy, DIPPolicy, LIPPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.util.rng import make_rng


def lands_at_mru(policy, cset, core=0):
    """Fill one block through ``policy.insert_fill`` into a set that already
    holds another, report whether it landed at MRU, and evict it again."""
    block = policy.insert_fill(cset, 1 << 30, core)
    at_mru = next(iter(cset)) is block
    cset.evict(block)
    return at_mru


class TestLIP:
    def test_inserts_at_lru_end(self):
        policy = LIPPolicy()
        cset = CacheSet(0, 4)
        policy.insert_fill(cset, 1, 0)
        policy.insert_fill(cset, 2, 0)
        assert [b.tag for b in cset] == [1, 2]

    def test_protects_working_set_from_scan(self):
        """LIP's raison d'etre: a one-pass scan cannot displace the hot set."""
        geometry = CacheGeometry(2 << 10, 64, 8)  # 32 blocks

        def run(policy):
            cache = SharedCache(geometry, 1, policy=policy)
            rng = make_rng(11, "lipscan")
            hits = 0
            scan_pos = 1000
            for i in range(20000):
                if rng.random() < 0.7:
                    addr = rng.randrange(28)  # hot set, fits in cache
                else:
                    addr = scan_pos
                    scan_pos += 1  # endless scan, never reused
                hits += cache.access(0, addr).hit
            return hits

        assert run(LIPPolicy()) > run(LRUPolicy())


class TestBIP:
    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            BIPPolicy(epsilon=0.0)
        with pytest.raises(ValueError):
            BIPPolicy(epsilon=1.5)

    def test_mostly_lru_inserts(self):
        policy = BIPPolicy(epsilon=1 / 32, seed=1)
        cset = CacheSet(0, 16)
        cset.fill(0, core=0)
        at_mru = [lands_at_mru(policy, cset) for _ in range(3200)]
        mru_fraction = sum(at_mru) / len(at_mru)
        assert mru_fraction == pytest.approx(1 / 32, abs=0.02)

    def test_epsilon_one_is_plain_lru_insertion(self):
        policy = BIPPolicy(epsilon=1.0, seed=1)
        cset = CacheSet(0, 4)
        cset.fill(0, core=0)
        assert all(lands_at_mru(policy, cset) for _ in range(50))


class TestDIPDueling:
    def make_cache(self, **kwargs):
        geometry = CacheGeometry(8 << 10, 64, 4)  # 32 sets
        policy = DIPPolicy(**kwargs)
        return SharedCache(geometry, 1, policy=policy), policy

    def test_leader_sets_assigned_both_roles(self):
        _, policy = self.make_cache(leader_sets=4)
        roles = [policy.role_of(i) for i in range(32)]
        assert roles.count("lru") == 4
        assert roles.count("bip") == 4
        assert roles.count("follow") == 24

    def test_psel_moves_toward_bip_on_lru_leader_misses(self):
        cache, policy = self.make_cache(leader_sets=1)
        lru_leader = next(i for i in range(32) if policy.role_of(i) == "lru")
        start = policy.psel
        cset = cache.sets[lru_leader]
        for _ in range(10):
            policy.record_miss(cset, core=0)
        assert policy.psel == start + 10

    def test_psel_saturates(self):
        cache, policy = self.make_cache(leader_sets=1, psel_bits=4)
        lru_leader = next(i for i in range(32) if policy.role_of(i) == "lru")
        for _ in range(100):
            policy.record_miss(cache.sets[lru_leader], core=0)
        assert policy.psel == 15

    def test_followers_switch_with_psel(self):
        cache, policy = self.make_cache(leader_sets=1)
        follower = next(i for i in range(32) if policy.role_of(i) == "follow")
        policy.psel = 0
        assert not policy._uses_bip(follower)
        policy.psel = policy.psel_max
        assert policy._uses_bip(follower)

    def test_leaders_ignore_psel(self):
        cache, policy = self.make_cache(leader_sets=1)
        lru_leader = next(i for i in range(32) if policy.role_of(i) == "lru")
        bip_leader = next(i for i in range(32) if policy.role_of(i) == "bip")
        policy.psel = policy.psel_max
        assert not policy._uses_bip(lru_leader)
        policy.psel = 0
        assert policy._uses_bip(bip_leader)

    def test_dip_tracks_best_of_lru_and_bip_on_thrash(self):
        """On a thrashing working set DIP should approach BIP, beating LRU."""
        geometry = CacheGeometry(2 << 10, 64, 8)  # 32 blocks

        def run(policy):
            cache = SharedCache(geometry, 1, policy=policy)
            hits = 0
            # Cyclic working set slightly larger than the cache: worst case
            # for LRU (0% hits), good for BIP (retains a resident subset).
            for i in range(30000):
                hits += cache.access(0, i % 40).hit
            return hits

        lru_hits = run(LRUPolicy())
        dip_hits = run(DIPPolicy(seed=2))
        assert dip_hits > lru_hits * 2

    def test_rejects_zero_leader_sets(self):
        with pytest.raises(ValueError):
            DIPPolicy(leader_sets=0)
