"""PIPP — Promotion/Insertion Pseudo-Partitioning, Xie & Loh, ISCA 2009 [20].

PIPP enforces an implicit partition purely through insertion and promotion:

- core ``i`` inserts new blocks at priority position ``pi_i`` (its target
  allocation in ways, computed with UCP's lookahead over UMON curves);
  higher priority = closer to MRU;
- on a hit, a block is promoted by a single position with probability
  ``p_prom`` (3/4);
- the victim is always the lowest-priority (LRU-most) block;
- *stream-sensitive* cores — those that mostly miss even with the whole
  cache to themselves — are demoted to insertion position 1 and promotion
  probability 1/128 so they cannot pollute the cache.

The paper (Section 5.1) observes PIPP's weakness at high core counts: many
cores inserting near LRU churn each other's lines out before promotion can
rescue them. That emergent behaviour is exactly what this implementation
reproduces.
"""

from __future__ import annotations

from typing import List

from repro.cache.shadow import ShadowTagMonitor
from repro.partitioning.base import ManagementScheme
from repro.partitioning.ucp import lookahead_allocate
from repro.util.rng import make_rng

__all__ = ["PIPPScheme"]


class PIPPScheme(ManagementScheme):
    """PIPP with UCP-lookahead target allocations and stream detection.

    Args:
        prom_prob: single-step promotion probability (paper: 3/4).
        stream_prom_prob: promotion probability for streaming cores (1/128).
        stream_hit_rate: stand-alone hit-rate threshold below which a core
            is classified stream-sensitive.
        interval_len: misses between target recomputations; ``None`` uses
            the number of cache blocks.
        sample_shift: UMON set sampling.
        seed: RNG seed for the promotion coin flips.
    """

    name = "pipp"

    def __init__(
        self,
        prom_prob: float = 0.75,
        stream_prom_prob: float = 1.0 / 128.0,
        stream_hit_rate: float = 0.25,
        interval_len: int = None,
        sample_shift: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.prom_prob = prom_prob
        self.stream_prom_prob = stream_prom_prob
        self.stream_hit_rate = stream_hit_rate
        self._interval_override = interval_len
        self._sample_shift = sample_shift
        self._rng = make_rng(seed, "pipp")
        self.umon: ShadowTagMonitor = None
        self.pi: List[int] = []
        self.streaming: List[bool] = []

    def on_attach(self) -> None:
        geometry = self.cache.geometry
        num_cores = self.cache.num_cores
        self.interval_len = self._interval_override or geometry.num_blocks
        self.umon = ShadowTagMonitor(
            num_cores, geometry.num_sets, geometry.assoc, sample_shift=self._sample_shift
        )
        self.cache.add_monitor(self.umon)
        base, extra = divmod(geometry.assoc, num_cores)
        self.pi = [max(1, base + (1 if c < extra else 0)) for c in range(num_cores)]
        self.streaming = [False] * num_cores

    # -- enforcement ------------------------------------------------------

    def insert_fill(self, cset, tag: int, core: int):
        """Priority pi counts from the LRU end; recency position inverts it."""
        pi = 1 if self.streaming[core] else self.pi[core]
        return cset.fill(tag, core, max(0, cset.assoc - pi))

    def on_hit(self, cset, block, core: int) -> None:
        prob = self.stream_prom_prob if self.streaming[block.core] else self.prom_prob
        if self._rng.random() < prob:
            cset.promote_one(block)

    def select_victim(self, cset, core: int):
        return self.cache.policy.victim(cset)

    # -- allocation ----------------------------------------------------------

    def end_interval(self, cache) -> None:
        self.pi = lookahead_allocate(
            self.umon.hits_with_ways, cache.num_cores, cache.geometry.assoc
        )
        for core in range(cache.num_cores):
            hits = self.umon.standalone_hits(core)
            misses = self.umon.standalone_misses(core)
            accesses = hits + misses
            if accesses:
                self.streaming[core] = hits / accesses < self.stream_hit_rate
