"""Tests for LRU replacement, including the stack property."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.cacheset import CacheSet
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.lru import LRUPolicy
from repro.util.rng import make_rng


class TestLRUPolicy:
    def test_insertion_at_mru(self):
        policy = LRUPolicy()
        cset = CacheSet(0, 4)
        cset.fill(1, core=0)
        block = policy.insert_fill(cset, 2, core=0)
        assert list(cset) == [block, cset.lookup(1)]

    def test_eviction_order_is_reverse_recency(self):
        policy = LRUPolicy()
        cset = CacheSet(0, 4)
        for tag in range(3):
            cset.fill(tag, core=0)
        order = policy.eviction_order(cset)
        assert [b.tag for b in order] == [0, 1, 2]

    def test_victim_is_lru(self):
        policy = LRUPolicy()
        cset = CacheSet(0, 4)
        for tag in range(4):
            cset.fill(tag, core=0)
        assert policy.victim(cset).tag == 0

    def test_victim_of_empty_set_raises(self):
        policy = LRUPolicy()
        with pytest.raises(RuntimeError, match="empty"):
            policy.victim(CacheSet(0, 4))

    def test_on_hit_promotes_to_mru(self):
        policy = LRUPolicy()
        cset = CacheSet(0, 4)
        for tag in range(3):
            cset.fill(tag, core=0)
        policy.on_hit(cset, cset.lookup(0), core=0)
        assert list(cset)[0].tag == 0


class TestStackProperty:
    """LRU inclusion: a larger cache's hits are a superset of a smaller's."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_inclusion_across_associativity(self, seed):
        rng = make_rng(seed, "stack")
        stream = [rng.randrange(300) for _ in range(4000)]
        small_hits = None
        for assoc in (2, 4, 8, 16):
            geometry = CacheGeometry(64 * assoc * 8, 64, assoc)  # 8 sets, growing ways
            cache = SharedCache(geometry, 1, policy=LRUPolicy())
            hits = {i for i, a in enumerate(stream) if cache.access(0, a).hit}
            if small_hits is not None:
                assert small_hits <= hits
            small_hits = hits

