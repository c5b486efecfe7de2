"""Statistical properties of the probabilistic manager's fallbacks.

The design rationale for the resampling fallback (DESIGN.md §3) is that
realised per-core eviction fractions track ``E`` even when the sampled
core is often absent. These tests measure that directly on adversarial
set compositions.
"""

import pytest

from repro.cache.cacheset import CacheSet
from repro.cache.replacement.lru import LRUPolicy
from repro.core.manager import ProbabilisticCacheManager


def fixed_set(owners):
    cset = CacheSet(0, len(owners))
    for tag, core in enumerate(owners):
        cset.fill(tag, core=core, position=len(cset))
    return cset


def eviction_fractions(manager, owners, draws=20000):
    """Victim-core frequencies over repeated selections on a fixed set."""
    policy = LRUPolicy()
    counts = [0] * manager.num_cores
    for _ in range(draws):
        cset = fixed_set(owners)  # fresh set each draw (no state carryover)
        victim = manager.select_victim(cset, policy)
        counts[victim.core] += 1
    total = sum(counts)
    return [c / total for c in counts]


class TestRealisedEvictionRates:
    def test_resample_matches_e_when_everyone_present(self):
        manager = ProbabilisticCacheManager(3, seed=1)
        manager.set_distribution([0.5, 0.3, 0.2])
        fractions = eviction_fractions(manager, [0, 1, 2, 0, 1, 0, 2, 1])
        assert fractions[0] == pytest.approx(0.5, abs=0.02)
        assert fractions[1] == pytest.approx(0.3, abs=0.02)
        assert fractions[2] == pytest.approx(0.2, abs=0.02)

    def test_resample_redistributes_absent_core_proportionally(self):
        """Core 2 (E=0.2) never present: its mass must split between cores
        0 and 1 in proportion 0.5 : 0.3 (resampling), so realised fractions
        are 0.625 / 0.375."""
        manager = ProbabilisticCacheManager(3, seed=2)
        manager.set_distribution([0.5, 0.3, 0.2])
        fractions = eviction_fractions(manager, [0, 1, 0, 1, 0, 1, 0, 1])
        assert fractions[0] == pytest.approx(0.625, abs=0.02)
        assert fractions[1] == pytest.approx(0.375, abs=0.02)
        assert fractions[2] == 0.0

    def test_paper_fallback_biases_toward_lru_owner(self):
        """The paper's first-candidate rule hands every fallback to the
        core owning the LRU-most block — here core 0 owns the LRU end, so
        it absorbs all of core 2's 0.2 mass."""
        manager = ProbabilisticCacheManager(3, seed=3, fallback="paper")
        manager.set_distribution([0.5, 0.3, 0.2])
        # MRU -> LRU order: [1, 1, 0, 0]; LRU-most is core 0.
        fractions = eviction_fractions(manager, [1, 1, 0, 0])
        assert fractions[0] == pytest.approx(0.7, abs=0.02)
        assert fractions[1] == pytest.approx(0.3, abs=0.02)

    def test_not_found_rate_counts_absences(self):
        manager = ProbabilisticCacheManager(2, seed=4)
        manager.set_distribution([0.75, 0.25])
        eviction_fractions(manager, [0, 0, 0, 0], draws=4000)
        # Core 1 sampled ~25% of the time but never present.
        assert manager.victim_not_found_rate() == pytest.approx(0.25, abs=0.02)
