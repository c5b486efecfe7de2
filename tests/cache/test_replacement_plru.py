"""Tests for the tree pseudo-LRU policy (the hierarchy baseline)."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.plru import PLRUPolicy
from repro.core.allocation import HitMaxPolicy
from repro.core.prism import PrismScheme
from repro.util.rng import make_rng


class NaivePLRU:
    """An independent transcription of tree PLRU for differential tests.

    Ways fill in index order while free; on a full-set miss the victim way
    is found by following the tree bits root to leaf; every touch points
    the bits on the way's root path at the sibling subtree.
    """

    def __init__(self, geometry):
        self.geometry = geometry
        self.sets = [
            {"ways": [None] * geometry.assoc, "bits": [0] * (geometry.assoc - 1)}
            for _ in range(geometry.num_sets)
        ]

    def _touch(self, state, way):
        node = self.geometry.assoc - 1 + way
        while node:
            parent = (node - 1) // 2
            side = 0 if node == 2 * parent + 1 else 1
            state["bits"][parent] = 1 - side  # point at the sibling
            node = parent

    def victim_way(self, state):
        node = 0
        while node < self.geometry.assoc - 1:
            node = 2 * node + 1 + state["bits"][node]
        return node - (self.geometry.assoc - 1)

    def access(self, addr):
        state = self.sets[self.geometry.set_index(addr)]
        tag = self.geometry.tag(addr)
        ways = state["ways"]
        if tag in ways:
            self._touch(state, ways.index(tag))
            return True
        if None in ways:
            way = ways.index(None)
        else:
            way = self.victim_way(state)
        ways[way] = tag
        self._touch(state, way)
        return False


class TestPLRUUnit:
    def test_rejects_non_power_of_two_assoc(self):
        class FakeGeometry:
            assoc = 3
            num_sets = 4

        class FakeCache:
            geometry = FakeGeometry()

        with pytest.raises(ValueError, match="power-of-two"):
            PLRUPolicy().bind(FakeCache())

    def test_victim_is_never_the_most_recent_touch(self):
        geometry = CacheGeometry(1 << 10, 64, 4)  # 4 sets, 4 ways
        cache = SharedCache(geometry, 1, policy=PLRUPolicy())
        sets = geometry.num_sets
        for i in range(4):
            cache.access(0, i * sets)  # fill set 0
        cache.access(0, 2 * sets)  # touch way 2 last
        order = cache.policy.eviction_order(cache.sets[0])
        assert len(order) == 4
        assert order[-1].tag == geometry.tag(2 * sets)  # MRU-most is last
        assert order[0].tag != geometry.tag(2 * sets)

    def test_eviction_order_covers_each_resident_block_once(self):
        geometry = CacheGeometry(1 << 10, 64, 8)
        cache = SharedCache(geometry, 1, policy=PLRUPolicy())
        rng = make_rng(5, "plru-order")
        for _ in range(500):
            cache.access(0, rng.randrange(256))
        for cset in cache.sets:
            order = cache.policy.eviction_order(cset)
            assert len(order) == len(cset)
            assert {b.tag for b in order} == {b.tag for b in cset}

    def test_two_way_plru_is_exact_lru(self):
        geometry = CacheGeometry(1 << 10, 64, 2)
        plru = SharedCache(geometry, 1, policy=PLRUPolicy())
        lru = SharedCache(geometry, 1, policy=LRUPolicy())
        rng = make_rng(11, "plru-2way")
        for _ in range(5000):
            addr = rng.randrange(128)
            assert plru.access(0, addr).hit == lru.access(0, addr).hit


class TestPLRUDifferential:
    @pytest.mark.parametrize("assoc", [1, 2, 4, 8, 16])
    def test_matches_naive_transcription(self, assoc):
        geometry = CacheGeometry(assoc << 8, 64, assoc)  # 4 sets
        engine = SharedCache(geometry, 1, policy=PLRUPolicy())
        naive = NaivePLRU(geometry)
        rng = make_rng(assoc, "plru-diff")
        for step in range(8000):
            addr = rng.randrange(8 * geometry.num_blocks)
            assert engine.access(0, addr).hit == naive.access(addr), (
                f"divergence at step {step} (assoc {assoc})"
            )
        # End state: resident tags agree set for set.
        for index, cset in enumerate(engine.sets):
            engine_tags = {b.tag for b in cset}
            naive_tags = {t for t in naive.sets[index]["ways"] if t is not None}
            assert engine_tags == naive_tags

    def test_plru_approximates_lru_hit_rate(self):
        geometry = CacheGeometry(4 << 10, 64, 8)
        rng_a, rng_b = make_rng(3, "a"), make_rng(3, "a")
        plru = SharedCache(geometry, 1, policy=PLRUPolicy())
        lru = SharedCache(geometry, 1, policy=LRUPolicy())
        for _ in range(30000):
            plru.access(0, rng_a.randrange(512))
            lru.access(0, rng_b.randrange(512))
        plru_rate = plru.stats.hits[0] / plru.stats.accesses(0)
        lru_rate = lru.stats.hits[0] / lru.stats.accesses(0)
        assert plru_rate == pytest.approx(lru_rate, abs=0.05)


class TestPLRUUnderPriSM:
    def test_prism_composes_with_plru(self):
        """PriSM's core-selection step must work from PLRU's preference
        order (recency_ordered is False, so the manager scans candidates)."""
        geometry = CacheGeometry(4 << 10, 64, 8)
        cache = SharedCache(
            geometry, 2, policy=PLRUPolicy(), scheme=PrismScheme(HitMaxPolicy())
        )
        rng = make_rng(9, "plru-prism")
        for _ in range(30000):
            cache.access(0, rng.randrange(300))
            cache.access(1, rng.randrange(600))
        assert sum(cache.occupancy) <= geometry.num_blocks
        assert cache.state().recount() == list(cache.occupancy)
        assert cache.intervals_completed > 0
