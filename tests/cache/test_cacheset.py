"""Unit tests for CacheSet mechanics."""

import pytest

from repro.cache.cacheset import CacheSet


@pytest.fixture
def cset():
    return CacheSet(index=0, assoc=4)


class TestFill:
    def test_empty_set_lookup_misses(self, cset):
        assert cset.lookup(1) is None
        assert len(cset) == 0
        assert not cset.full

    def test_fill_inserts_at_mru_by_default(self, cset):
        cset.fill(1, core=0)
        cset.fill(2, core=0)
        assert [b.tag for b in cset] == [2, 1]

    def test_fill_at_position(self, cset):
        cset.fill(1, core=0)
        cset.fill(2, core=0)
        cset.fill(3, core=0, position=2)  # LRU end
        assert [b.tag for b in cset] == [2, 1, 3]

    def test_fill_position_past_end_clamps_to_lru(self, cset):
        cset.fill(1, core=0)
        cset.fill(2, core=0, position=99)
        assert [b.tag for b in cset] == [1, 2]

    def test_fill_duplicate_tag_raises(self, cset):
        cset.fill(7, core=0)
        with pytest.raises(RuntimeError, match="already present"):
            cset.fill(7, core=1)

    def test_fill_full_set_raises(self, cset):
        for tag in range(4):
            cset.fill(tag, core=0)
        assert cset.full
        with pytest.raises(RuntimeError, match="full"):
            cset.fill(99, core=0)

    def test_fill_sets_owner(self, cset):
        block = cset.fill(5, core=3)
        assert block.core == 3
        assert block.valid


class TestEvict:
    def test_evict_frees_way(self, cset):
        for tag in range(4):
            cset.fill(tag, core=0)
        victim = list(cset)[-1]
        cset.evict(victim)
        assert not cset.full
        assert cset.lookup(victim.tag) is None
        assert len(cset) == 3

    def test_evicted_block_reusable(self, cset):
        block = cset.fill(1, core=0)
        cset.evict(block)
        new = cset.fill(2, core=1)
        assert new is block  # pooled, not reallocated
        assert new.tag == 2 and new.core == 1

    def test_evict_invalidates(self, cset):
        block = cset.fill(1, core=0)
        cset.evict(block)
        assert not block.valid
        assert block.core == -1


class TestRecency:
    def test_lru_block(self, cset):
        cset.fill(1, core=0)
        cset.fill(2, core=0)
        assert cset.lru_block().tag == 1

    def test_lru_block_empty_raises(self, cset):
        with pytest.raises(RuntimeError, match="empty"):
            cset.lru_block()


class TestOccupancyQueries:
    def test_count_core(self, cset):
        cset.fill(1, core=0)
        cset.fill(2, core=1)
        cset.fill(3, core=1)
        assert cset.count_core(0) == 1
        assert cset.count_core(1) == 2
        assert cset.count_core(2) == 0

    def test_iteration_covers_valid_blocks(self, cset):
        for tag in range(3):
            cset.fill(tag, core=0)
        assert {b.tag for b in cset} == {0, 1, 2}
