"""SRRIP — static re-reference interval prediction (Jaleel et al. [8]).

Included as an extension beyond the paper's LRU/timestamp-LRU/DIP set to
demonstrate (and test) that PriSM's core-selection step composes with a
policy whose eviction order is not a recency-list walk.
"""

from __future__ import annotations

from typing import List

from repro.cache.cacheset import CacheSet
from repro.cache.replacement.base import ReplacementPolicy

__all__ = ["SRRIPPolicy"]


class SRRIPPolicy(ReplacementPolicy):
    """SRRIP with ``m``-bit re-reference prediction values (RRPV).

    Fills get RRPV ``2^m - 2`` (long re-reference), hits reset RRPV to 0
    (hit-priority variant), and the victim is the first block with maximal
    RRPV; if none exists all RRPVs age until one saturates.
    """

    name = "srrip"

    def __init__(self, m: int = 2) -> None:
        if m < 1:
            raise ValueError(f"RRPV width must be >= 1, got {m}")
        self.max_rrpv = (1 << m) - 1

    insert_fill = staticmethod(CacheSet.fill_mru)
    replace_fill = staticmethod(CacheSet.replace_mru)

    def on_fill(self, cset, block, core: int) -> None:
        block.rrpv = self.max_rrpv - 1

    def on_hit(self, cset, block, core: int) -> None:
        block.rrpv = 0
        cset.promote(block)

    def eviction_order(self, cset) -> List:
        # LRU→MRU walk, aged in place until one block saturates (as the
        # hardware's aging loop would), then ranked highest-RRPV first with
        # LRU-most first among ties (stable sort over the LRU-first walk).
        blocks = list(cset.iter_lru_to_mru())
        if not blocks:
            return []
        oldest = max(b.rrpv for b in blocks)
        if oldest < self.max_rrpv:
            delta = self.max_rrpv - oldest
            for b in blocks:
                b.rrpv += delta
        blocks.sort(key=lambda b: b.rrpv, reverse=True)
        return blocks
