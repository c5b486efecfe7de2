"""LIP / BIP / DIP insertion policies (Qureshi et al., ISCA 2007 [13]).

- **LIP** inserts every fill at the LRU position; a block must be reused to
  be promoted to MRU.
- **BIP** is LIP that inserts at MRU with a small probability ``epsilon``
  (1/32 in the paper), which lets it retain part of a thrashing working set.
- **DIP** (dynamic insertion policy) set-duels LRU against BIP: a few leader
  sets always use LRU, a few always use BIP, and a saturating policy
  selector (PSEL) updated on leader-set misses decides what the follower
  sets do.

DIP does **not** exhibit the stack property, which is exactly why the paper
uses it in Section 5.6 to show PriSM is replacement-policy agnostic (UCP,
by contrast, cannot run on top of DIP).
"""

from __future__ import annotations

from typing import List

from repro.cache.cacheset import CacheSet
from repro.cache.replacement.base import ReplacementPolicy
from repro.util.rng import make_rng

__all__ = ["LIPPolicy", "BIPPolicy", "DIPPolicy"]


class LIPPolicy(ReplacementPolicy):
    """LRU-insertion policy: fills land at the LRU end."""

    name = "lip"
    recency_ordered = True

    insert_fill = staticmethod(CacheSet.fill_lru)
    replace_fill = staticmethod(CacheSet.replace_lru)
    on_hit = staticmethod(CacheSet.hit_promote)

    def victim(self, cset):
        return cset.lru_block()

    def eviction_candidates(self, cset):
        return cset.iter_lru_to_mru()

    def eviction_order(self, cset) -> List:
        return list(cset.iter_lru_to_mru())


class BIPPolicy(LIPPolicy):
    """Bimodal insertion: LRU-insert, except MRU-insert with prob ``epsilon``."""

    name = "bip"

    def __init__(self, epsilon: float = 1.0 / 32.0, seed: int = 0) -> None:
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        self.epsilon = epsilon
        self._rng = make_rng(seed, "bip")

    def insert_fill(self, cset, tag: int, core: int):
        if self._rng.random() < self.epsilon:
            return cset.fill_mru(tag, core)
        return cset.fill_lru(tag, core)

    def replace_fill(self, cset, victim, tag: int, core: int):
        if self._rng.random() < self.epsilon:
            return cset.replace_mru(victim, tag, core)
        return cset.replace_lru(victim, tag, core)


class DIPPolicy(ReplacementPolicy):
    """Dynamic insertion policy with set dueling.

    Args:
        epsilon: BIP's bimodal probability.
        leader_sets: leader sets *per policy*; spread evenly over the cache.
        psel_bits: width of the saturating policy selector.
        seed: RNG seed for the bimodal draws.
    """

    name = "dip"
    recency_ordered = True

    on_hit = staticmethod(CacheSet.hit_promote)

    def __init__(
        self,
        epsilon: float = 1.0 / 32.0,
        leader_sets: int = 4,
        psel_bits: int = 10,
        seed: int = 0,
    ) -> None:
        if leader_sets < 1:
            raise ValueError(f"leader_sets must be >= 1, got {leader_sets}")
        self.epsilon = epsilon
        self.leader_sets = leader_sets
        self.psel_max = (1 << psel_bits) - 1
        self.psel = self.psel_max // 2
        self._rng = make_rng(seed, "dip")
        self._role = {}  # set index -> "lru" | "bip" | "follow"

    def bind(self, cache) -> None:
        super().bind(cache)
        num_sets = cache.geometry.num_sets
        leaders = min(self.leader_sets, max(1, num_sets // 2))
        stride = max(1, num_sets // (2 * leaders))
        self._role = {}
        for i in range(leaders):
            self._role[(2 * i) * stride % num_sets] = "lru"
            self._role[(2 * i + 1) * stride % num_sets] = "bip"

    def role_of(self, set_index: int) -> str:
        """Dueling role of a set: ``lru``, ``bip`` or ``follow``."""
        return self._role.get(set_index, "follow")

    def _uses_bip(self, set_index: int) -> bool:
        role = self.role_of(set_index)
        if role == "lru":
            return False
        if role == "bip":
            return True
        # PSEL above midpoint means LRU-leader sets missed more -> use BIP.
        return self.psel > self.psel_max // 2

    def record_miss(self, cset, core: int) -> None:
        role = self.role_of(cset.index)
        if role == "lru" and self.psel < self.psel_max:
            self.psel += 1
        elif role == "bip" and self.psel > 0:
            self.psel -= 1

    def insert_fill(self, cset, tag: int, core: int):
        if self._uses_bip(cset.index) and self._rng.random() >= self.epsilon:
            return cset.fill_lru(tag, core)
        return cset.fill_mru(tag, core)

    def replace_fill(self, cset, victim, tag: int, core: int):
        if self._uses_bip(cset.index) and self._rng.random() >= self.epsilon:
            return cset.replace_lru(victim, tag, core)
        return cset.replace_mru(victim, tag, core)

    def victim(self, cset):
        return cset.lru_block()

    def eviction_candidates(self, cset):
        return cset.iter_lru_to_mru()

    def eviction_order(self, cset) -> List:
        return list(cset.iter_lru_to_mru())
