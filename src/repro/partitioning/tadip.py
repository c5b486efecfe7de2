"""TA-DIP — Thread-Aware Dynamic Insertion Policy, Jaleel et al. [7].

TA-DIP generalises DIP to shared caches: every core has its *own* policy
selector (PSEL) choosing between LRU- and BIP-insertion for that core's
fills, trained by per-core leader sets (the set-dueling-monitor layout of
the TA-DIP paper). Like PIPP, TA-DIP fuses the allocation decision into
the replacement policy itself, which is why the paper classes it among the
monolithic schemes that cannot express fairness or QoS goals.

Implemented as a :class:`~repro.cache.replacement.base.ReplacementPolicy`
(not a scheme): TA-DIP has no victim-selection or interval component, only
insertion behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cache.cacheset import CacheSet
from repro.cache.replacement.base import ReplacementPolicy
from repro.util.rng import make_rng

__all__ = ["TADIPPolicy"]


class TADIPPolicy(ReplacementPolicy):
    """Thread-aware DIP with per-core set dueling (TA-DIP-F "feedback").

    Args:
        num_cores: number of cores sharing the cache.
        epsilon: BIP bimodal probability.
        leader_sets: leader sets per (core, policy) pair.
        psel_bits: PSEL width.
        seed: RNG seed for bimodal draws.
    """

    name = "tadip"
    recency_ordered = True

    on_hit = staticmethod(CacheSet.hit_promote)

    def __init__(
        self,
        num_cores: int,
        epsilon: float = 1.0 / 32.0,
        leader_sets: int = 2,
        psel_bits: int = 10,
        seed: int = 0,
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {num_cores}")
        self.num_cores = num_cores
        self.epsilon = epsilon
        self.leader_sets = leader_sets
        self.psel_max = (1 << psel_bits) - 1
        self.psel: List[int] = [self.psel_max // 2] * num_cores
        self._rng = make_rng(seed, "tadip")
        # set index -> (core, "lru" | "bip")
        self._role: Dict[int, Tuple[int, str]] = {}

    def bind(self, cache) -> None:
        super().bind(cache)
        num_sets = cache.geometry.num_sets
        slots = 2 * self.leader_sets * self.num_cores
        stride = max(1, num_sets // slots)
        self._role = {}
        slot = 0
        for core in range(self.num_cores):
            for _ in range(self.leader_sets):
                self._role[(slot * stride) % num_sets] = (core, "lru")
                slot += 1
                self._role[(slot * stride) % num_sets] = (core, "bip")
                slot += 1

    def _uses_bip(self, set_index: int, core: int) -> bool:
        role = self._role.get(set_index)
        if role is not None and role[0] == core:
            return role[1] == "bip"
        return self.psel[core] > self.psel_max // 2

    def record_miss(self, cset, core: int) -> None:
        role = self._role.get(cset.index)
        if role is None or role[0] != core:
            return
        owner, kind = role
        if kind == "lru" and self.psel[owner] < self.psel_max:
            self.psel[owner] += 1
        elif kind == "bip" and self.psel[owner] > 0:
            self.psel[owner] -= 1

    def insert_fill(self, cset, tag: int, core: int):
        if self._uses_bip(cset.index, core) and self._rng.random() >= self.epsilon:
            return cset.fill_lru(tag, core)
        return cset.fill_mru(tag, core)

    def replace_fill(self, cset, victim, tag: int, core: int):
        if self._uses_bip(cset.index, core) and self._rng.random() >= self.epsilon:
            return cset.replace_lru(victim, tag, core)
        return cset.replace_mru(victim, tag, core)

    def victim(self, cset):
        return cset.lru_block()

    def eviction_candidates(self, cset):
        return cset.iter_lru_to_mru()

    def eviction_order(self, cset) -> List:
        return list(cset.iter_lru_to_mru())
