"""Replacement-policy interface.

A policy answers three questions about a set:

1. where does a newly filled block land in the recency order
   (:meth:`insert_fill`, fused with an eviction in :meth:`replace_fill`),
2. what happens to a block on a hit (:meth:`on_hit`),
3. in what order would the policy prefer to evict the resident blocks
   (:meth:`eviction_candidates`, a lazy best-victim-first iterable;
   :meth:`eviction_order` is its materialised form).

Question 3 is the key to PriSM's policy-agnosticism: the probabilistic
manager asks for the preference order and takes the first block owned by
the sampled victim core, so any policy that can rank blocks works unchanged
underneath PriSM (Section 3.1 of the paper). Keeping the order *lazy* is
the key to speed: recency-list policies never materialise it, so the common
"victim is near the LRU end" case costs O(1) instead of O(assoc).

Hot-path no-ops (``notify_access``, ``record_miss``, ``on_fill``) are
tagged with ``_hot_noop`` so :class:`~repro.cache.cache.SharedCache` can
skip the call entirely for policies that do not override them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.block import CacheBlock
    from repro.cache.cache import SharedCache
    from repro.cache.cacheset import CacheSet

__all__ = ["ReplacementPolicy"]


class ReplacementPolicy(ABC):
    """Base class for baseline replacement policies."""

    name = "base"
    #: True when :meth:`eviction_candidates` is exactly the set's LRU→MRU
    #: recency walk. Lets PriSM's manager replace the candidate scan with a
    #: direct walk of the set's linked recency list.
    recency_ordered = False

    def bind(self, cache: "SharedCache") -> None:
        """Attach the policy to its cache.

        Called once by :class:`~repro.cache.cache.SharedCache`; policies that
        need global state (set dueling, timestamp counters) size it here.
        """
        self.cache = cache

    def notify_access(self, cset: "CacheSet") -> None:
        """Called on every access, hit or miss, before the lookup result is used."""

    notify_access._hot_noop = True

    def record_miss(self, cset: "CacheSet", core: int) -> None:
        """Called on every miss (set-dueling policies update selectors here)."""

    record_miss._hot_noop = True

    def insert_fill(self, cset: "CacheSet", tag: int, core: int) -> "CacheBlock":
        """Fill (``tag``, ``core``) into ``cset`` at the policy's position.

        The default inserts at MRU; insertion policies override this with
        :meth:`~repro.cache.cacheset.CacheSet.fill_lru` or
        :meth:`~repro.cache.cacheset.CacheSet.fill`.
        """
        return cset.fill_mru(tag, core)

    def replace_fill(
        self, cset: "CacheSet", victim: "CacheBlock", tag: int, core: int
    ) -> "CacheBlock":
        """Evict ``victim`` and fill (``tag``, ``core``) in one step.

        Fast policies override this with the fused
        :meth:`~repro.cache.cacheset.CacheSet.replace_mru` /
        :meth:`~repro.cache.cacheset.CacheSet.replace_lru`, which reuse the
        victim's way without a free-pool round trip.
        """
        cset.evict(victim)
        return self.insert_fill(cset, tag, core)

    def on_hit(self, cset: "CacheSet", block: "CacheBlock", core: int) -> None:
        """Promotion behaviour on a hit; default is move-to-MRU."""
        cset.promote(block)

    def on_fill(self, cset: "CacheSet", block: "CacheBlock", core: int) -> None:
        """Hook after a fill was placed (policies stamp metadata here)."""

    on_fill._hot_noop = True

    def eviction_candidates(self, cset: "CacheSet") -> Iterable["CacheBlock"]:
        """Resident blocks, best victim first, as a lazy iterable.

        The default defers to :meth:`eviction_order` so legacy policies
        that only materialise a list keep working; recency-list policies
        override this with :meth:`CacheSet.iter_lru_to_mru`.
        """
        return self.eviction_order(cset)

    @abstractmethod
    def eviction_order(self, cset: "CacheSet") -> List["CacheBlock"]:
        """Resident blocks ordered best-victim-first (materialised)."""

    def victim(self, cset: "CacheSet") -> "CacheBlock":
        """The policy's preferred victim in ``cset``.

        Raises:
            RuntimeError: if the set holds no valid blocks.
        """
        for block in self.eviction_candidates(cset):
            return block
        raise RuntimeError(f"set {cset.index}: victim requested from empty set")
