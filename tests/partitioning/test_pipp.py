"""Tests for PIPP."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.partitioning.pipp import PIPPScheme
from repro.util.rng import make_rng


def make(num_cores=2, **kwargs):
    geometry = CacheGeometry(8 << 10, 64, 8)
    cache = SharedCache(geometry, num_cores)
    scheme = PIPPScheme(interval_len=kwargs.pop("interval_len", 128),
                        sample_shift=1, **kwargs)
    cache.set_scheme(scheme)
    return cache, scheme


def position(cset, block):
    """Recency position of ``block`` (0 = MRU)."""
    return len(cset) - 1 - list(cset.iter_lru_to_mru()).index(block)


def fill_position(scheme, cset, core):
    """Where ``scheme.insert_fill`` places a fill by ``core``; undone after."""
    block = scheme.insert_fill(cset, 1 << 30, core)
    at = position(cset, block)
    cset.evict(block)
    return at


class TestInsertion:
    def test_insertion_position_inverts_priority(self):
        cache, scheme = make()
        scheme.pi = [6, 2]
        cset = cache.sets[0]
        for tag in range(7):
            cset.fill(tag, core=0, position=len(cset))
        assert fill_position(scheme, cset, 0) == 2  # assoc 8 - pi 6
        assert fill_position(scheme, cset, 1) == 6

    def test_streaming_core_inserts_at_priority_one(self):
        cache, scheme = make()
        scheme.pi = [6, 6]
        scheme.streaming[1] = True
        cset = cache.sets[0]
        for tag in range(7):
            cset.fill(tag, core=0, position=len(cset))
        assert fill_position(scheme, cset, 1) == 7  # assoc 8 - 1

    def test_initial_pi_is_equal_split(self):
        cache, scheme = make(num_cores=4)
        assert scheme.pi == [2, 2, 2, 2]


class TestPromotion:
    def test_single_step_promotion(self):
        cache, scheme = make(prom_prob=1.0)
        cset = cache.sets[0]
        for tag in range(4):
            cset.fill(tag, core=0, position=len(cset))
        block = list(cset)[2]
        scheme.on_hit(cset, block, core=0)
        assert position(cset, block) == 1

    def test_no_promotion_past_mru(self):
        cache, scheme = make(prom_prob=1.0)
        cset = cache.sets[0]
        cset.fill(1, core=0)
        block = list(cset)[0]
        scheme.on_hit(cset, block, core=0)
        assert position(cset, block) == 0

    def test_promotion_probability_respected(self):
        cache, scheme = make(prom_prob=0.0)
        cset = cache.sets[0]
        for tag in range(4):
            cset.fill(tag, core=0, position=len(cset))
        block = list(cset)[3]
        for _ in range(20):
            scheme.on_hit(cset, block, core=0)
        assert position(cset, block) == 3  # never promoted


class TestAllocationAndStreaming:
    def test_streaming_detection(self):
        cache, scheme = make(interval_len=64)
        rng = make_rng(6, "pipp")
        scan = 0
        for _ in range(6000):
            if rng.random() < 0.5:
                cache.access(0, rng.randrange(60))      # high reuse
            else:
                cache.access(1, (1 << 20) + scan)       # pure stream
                scan += 1
        assert scheme.streaming[1]
        assert not scheme.streaming[0]

    def test_pi_tracks_utility(self):
        cache, scheme = make(interval_len=128)
        rng = make_rng(7, "pipp2")
        scan = 0
        for _ in range(20000):
            if rng.random() < 0.5:
                cache.access(0, rng.randrange(100))
            else:
                cache.access(1, (1 << 20) + scan)
                scan += 1
        assert scheme.pi[0] > scheme.pi[1]

    def test_victim_is_baseline_lru(self):
        cache, scheme = make()
        cset = cache.sets[0]
        for tag in range(8):
            cset.fill(tag, core=0, position=len(cset))
        assert scheme.select_victim(cset, 1) is list(cset)[-1]

    def test_pseudo_partition_protects_reuse_core(self):
        """End-to-end: the reuse core keeps a larger share than the
        streamer under PIPP's insertion discipline."""
        cache, scheme = make(interval_len=128)
        rng = make_rng(8, "pipp3")
        scan = 0
        for _ in range(30000):
            if rng.random() < 0.5:
                cache.access(0, rng.randrange(100))
            else:
                cache.access(1, (1 << 20) + scan)
                scan += 1
        fractions = cache.occupancy_fractions()
        assert fractions[0] > fractions[1]
