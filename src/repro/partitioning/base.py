"""Management-scheme interface.

A scheme owns the *policy decisions* of a shared cache — who loses a block
on a miss, where fills land, how hits promote — while delegating the
baseline ordering to the cache's replacement policy. This is the decoupling
the paper argues for: allocation policies (how much space each core should
get) are separated from the enforcement mechanism (way quotas, PIPP
insertion points, Vantage apertures, or PriSM's eviction probabilities).

Schemes that reallocate periodically set ``interval_len`` (in shared-cache
misses); the cache calls :meth:`end_interval` every ``interval_len`` misses,
*before* interval statistics are reset.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.block import CacheBlock
    from repro.cache.cache import SharedCache
    from repro.cache.cacheset import CacheSet

__all__ = ["ManagementScheme"]


class ManagementScheme:
    """Base scheme: defers everything to the baseline replacement policy."""

    name = "base"
    #: Misses between allocation-policy invocations; 0 disables intervals.
    interval_len = 0

    def __init__(self) -> None:
        self.cache: Optional["SharedCache"] = None

    # -- wiring -----------------------------------------------------------

    def attach(self, cache: "SharedCache") -> None:
        """Bind the scheme to ``cache`` and run scheme-specific setup."""
        self.cache = cache
        cls = type(self)
        base = ManagementScheme
        # Resolve the per-access hooks once (before on_attach, which may
        # already re-wire the cache by registering monitors): a scheme that
        # does not override a hook hands the cache the *policy's* bound
        # method directly, so the hot path never pays for a delegation hop
        # through this base class.
        policy = cache.policy
        defers_insert = cls.insert_fill is base.insert_fill
        self._resolved_insert = policy.insert_fill if defers_insert else self.insert_fill
        self._resolved_replace = (
            policy.replace_fill
            if defers_insert and cls.replace_fill is base.replace_fill
            else self.replace_fill
        )
        self._resolved_on_hit = (
            policy.on_hit if cls.on_hit is base.on_hit else self.on_hit
        )
        self._resolved_select = (
            None if cls.select_victim is base.select_victim else self.select_victim
        )
        self.on_attach()

    def on_attach(self) -> None:
        """Scheme-specific setup; ``self.cache`` is valid here."""

    # -- per-access hooks -----------------------------------------------------

    def select_victim(self, cset: "CacheSet", core: int) -> "CacheBlock":
        """Choose the victim block for a miss by ``core`` in a full set."""
        return self.cache.policy.victim(cset)

    def insert_fill(self, cset: "CacheSet", tag: int, core: int) -> "CacheBlock":
        """Fill (``tag``, ``core``) into ``cset`` where the scheme wants it.

        Defaults to the baseline policy's placement.
        """
        return self.cache.policy.insert_fill(cset, tag, core)

    def replace_fill(
        self, cset: "CacheSet", victim: "CacheBlock", tag: int, core: int
    ) -> "CacheBlock":
        """Evict ``victim`` and place the incoming block in one step."""
        cset.evict(victim)
        return self.insert_fill(cset, tag, core)

    def on_hit(self, cset: "CacheSet", block: "CacheBlock", core: int) -> None:
        """Hit behaviour; default is the baseline policy's promotion."""
        self.cache.policy.on_hit(cset, block, core)

    def on_fill(self, cset: "CacheSet", block: "CacheBlock", core: int) -> None:
        """Post-fill hook (stamp scheme metadata on the new block)."""

    on_fill._hot_noop = True

    # -- interval hook ---------------------------------------------------------

    def end_interval(self, cache: "SharedCache") -> None:
        """Recompute allocations; interval stats are still live here."""

    # -- shared helpers ----------------------------------------------------------

    def first_victim_of(self, cset: "CacheSet", cores: Iterable[int]) -> Optional["CacheBlock"]:
        """First block in baseline eviction order owned by any of ``cores``."""
        wanted = set(cores)
        for block in self.cache.policy.eviction_candidates(cset):
            if block.core in wanted:
                return block
        return None
