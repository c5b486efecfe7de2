"""Tests for BRRIP and DRRIP (the RRIP family extensions)."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.cacheset import CacheSet
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import make_policy
from repro.cache.replacement.srrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.util.rng import make_rng


class TestBRRIP:
    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            BRRIPPolicy(epsilon=0.0)

    def test_mostly_distant_inserts(self):
        policy = BRRIPPolicy(m=2, epsilon=1 / 32, seed=1)
        cset = CacheSet(0, 4)
        distant = 0
        for tag in range(3200):
            block = cset.fill(tag, core=0)
            policy.on_fill(cset, block, core=0)
            distant += block.rrpv == policy.max_rrpv
            cset.evict(block)
        assert distant / 3200 == pytest.approx(1 - 1 / 32, abs=0.02)

    def test_resists_thrashing_better_than_srrip(self):
        geometry = CacheGeometry(2 << 10, 64, 8)  # 32 blocks

        def hits(policy):
            cache = SharedCache(geometry, 1, policy=policy)
            total = 0
            for i in range(30000):
                total += cache.access(0, i % 40).hit  # cyclic thrash
            return total

        assert hits(BRRIPPolicy(seed=2)) > hits(SRRIPPolicy()) * 2


class TestDRRIP:
    def make(self, **kwargs):
        geometry = CacheGeometry(8 << 10, 64, 4)  # 32 sets
        policy = DRRIPPolicy(**kwargs)
        return SharedCache(geometry, 1, policy=policy), policy

    def test_leader_layout(self):
        _, policy = self.make(leader_sets=4)
        roles = [policy.role_of(i) for i in range(32)]
        assert roles.count("srrip") == 4
        assert roles.count("brrip") == 4

    def test_psel_dynamics(self):
        cache, policy = self.make(leader_sets=1)
        srrip_leader = next(i for i in range(32) if policy.role_of(i) == "srrip")
        brrip_leader = next(i for i in range(32) if policy.role_of(i) == "brrip")
        start = policy.psel
        policy.record_miss(cache.sets[srrip_leader], core=0)
        assert policy.psel == start + 1
        policy.record_miss(cache.sets[brrip_leader], core=0)
        policy.record_miss(cache.sets[brrip_leader], core=0)
        assert policy.psel == start - 1

    def test_followers_switch(self):
        cache, policy = self.make(leader_sets=1)
        follower = next(i for i in range(32) if policy.role_of(i) == "follow")
        policy.psel = 0
        assert not policy._uses_brrip(follower)
        policy.psel = policy.psel_max
        assert policy._uses_brrip(follower)

    def test_adapts_to_thrashing(self):
        geometry = CacheGeometry(2 << 10, 64, 8)
        policy = DRRIPPolicy(seed=3)
        cache = SharedCache(geometry, 1, policy=policy)
        for i in range(30000):
            cache.access(0, i % 40)
        assert policy.psel > policy.psel_max // 2  # learned BRRIP

    def test_registry_names(self):
        assert isinstance(make_policy("brrip"), BRRIPPolicy)
        assert isinstance(make_policy("drrip"), DRRIPPolicy)

    def test_prism_composes_with_drrip(self):
        """PriSM invariants hold over DRRIP too (policy agnosticism)."""
        from repro.core import HitMaxPolicy, PrismScheme

        geometry = CacheGeometry(8 << 10, 64, 4)
        cache = SharedCache(geometry, 2, policy=DRRIPPolicy(seed=4))
        cache.set_scheme(PrismScheme(HitMaxPolicy(), interval_len=64, sample_shift=1))
        rng = make_rng(5, "drrip-prism")
        for _ in range(10000):
            core = rng.randrange(2)
            cache.access(core, (core << 20) + rng.randrange(800))
        assert cache.occupancy == cache.state().recount()
        assert sum(cache.scheme.manager.probabilities) == pytest.approx(1.0)
