"""Sampled per-core shadow tags (a.k.a. auxiliary tag directory / UMON).

For each core, the monitor maintains what the cache contents *would be* if
that core had the whole cache to itself, but only for a sampled subset of
sets (dynamic set sampling [14]; the paper samples 1/32 of sets). Per-
recency-position hit counters make the same structure serve two masters:

- PriSM's allocation policies need ``StandAloneHits`` and the shadow-tag
  miss counts (Algorithms 1 and 2),
- UCP's lookahead allocation needs the full utility curve
  ``hits(core, ways)`` — the prefix sums of the position counters.

The monitor also counts each core's *shared* hits and misses restricted to
the same sampled sets, so stand-alone and shared figures are directly
comparable (same sample, same scale).
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["ShadowTagMonitor"]


class ShadowTagMonitor:
    """Per-core stand-alone cache emulation on sampled sets.

    Args:
        num_cores: number of cores sharing the cache.
        num_sets: number of sets in the monitored cache.
        assoc: associativity of the shadow arrays (defaults to the cache's).
        sample_shift: sample sets whose index is 0 mod ``2**sample_shift``.
            ``sample_shift=3`` samples 1/8 of sets (the scaled default per
            DESIGN.md; the paper's 1/32 is ``sample_shift=5``). Clamped so
            at least two sets are sampled on very-high-associativity
            (few-set) caches like Fig. 1(b)'s 256-way configuration.
    """

    def __init__(self, num_cores: int, num_sets: int, assoc: int, sample_shift: int = 3) -> None:
        if sample_shift < 0:
            raise ValueError(f"sample_shift must be >= 0, got {sample_shift}")
        if num_sets < 1:
            raise ValueError(f"num_sets must be >= 1, got {num_sets}")
        self.num_cores = num_cores
        self.num_sets = num_sets
        self.assoc = assoc
        while num_sets <= (1 << sample_shift) and sample_shift > 0:
            sample_shift -= 1
        self.sample_mask = (1 << sample_shift) - 1
        # _tags[core][set_index] -> (stack, members): the stack is a list of
        # tags, MRU first; members mirrors it as a set so the frequent miss
        # case is an O(1) probe instead of an O(assoc) list scan. One dict
        # holds both, pre-populated for every sampled set so the observe
        # path is a single unconditional subscript.
        self._tags: List[Dict[int, tuple]] = [
            {s: ([], set()) for s in range(0, num_sets, self.sample_mask + 1)}
            for _ in range(num_cores)
        ]
        self._zero_row: List[int] = [0] * assoc
        # Interval counters.
        self.position_hits: List[List[int]] = [[0] * assoc for _ in range(num_cores)]
        self.shadow_misses: List[int] = [0] * num_cores
        self.shared_hits: List[int] = [0] * num_cores
        self.shared_misses: List[int] = [0] * num_cores
        #: Specialised per-instance observe (shadows no class method; built
        #: last so every pinned structure above exists).
        self.observe = self._build_observe()

    @property
    def sample_ratio(self) -> int:
        """Denominator of the sampling fraction (e.g. 8 for 1/8)."""
        return self.sample_mask + 1

    def is_sampled(self, set_index: int) -> bool:
        """Whether ``set_index`` belongs to the sampled subset."""
        return (set_index & self.sample_mask) == 0

    # -- observation -------------------------------------------------------

    def _build_observe(self):
        """Build the per-instance ``observe`` with its state pinned.

        The counters and shadow arrays are mutated in place everywhere (see
        :meth:`end_interval`), so pinning them as default arguments is safe
        and turns every per-access attribute chain into a LOAD_FAST.
        """

        def observe(
            core: int,
            set_index: int,
            tag: int,
            shared_hit: bool,
            _mask=self.sample_mask,
            _tags=self._tags,
            _shared_hits=self.shared_hits,
            _shared_misses=self.shared_misses,
            _position_hits=self.position_hits,
            _shadow_misses=self.shadow_misses,
            _assoc=self.assoc,
        ) -> None:
            """Record one access by ``core``; no-op for unsampled sets."""
            if set_index & _mask:
                return
            if shared_hit:
                _shared_hits[core] += 1
            else:
                _shared_misses[core] += 1
            stack, members = _tags[core][set_index]
            if tag in members:
                if stack[0] == tag:
                    # MRU re-reference: the common hit needs no list churn.
                    _position_hits[core][0] += 1
                    return
                position = stack.index(tag)
                _position_hits[core][position] += 1
                del stack[position]
            else:
                _shadow_misses[core] += 1
                if len(stack) >= _assoc:
                    members.discard(stack.pop())
                members.add(tag)
            stack.insert(0, tag)

        return observe

    # -- queries -------------------------------------------------------------

    def standalone_hits(self, core: int) -> int:
        """Interval stand-alone hits of ``core`` on the sampled sets."""
        return sum(self.position_hits[core])

    def standalone_misses(self, core: int) -> int:
        """Interval stand-alone misses of ``core`` on the sampled sets."""
        return self.shadow_misses[core]

    def hits_with_ways(self, core: int, ways: int) -> int:
        """Utility curve: interval hits ``core`` would see with ``ways`` ways.

        This is the UMON prefix sum UCP's lookahead algorithm consumes.
        """
        if ways < 0:
            raise ValueError(f"ways must be >= 0, got {ways}")
        return sum(self.position_hits[core][: min(ways, self.assoc)])

    def sampled_accesses(self, core: int) -> int:
        """Interval accesses by ``core`` that fell in sampled sets."""
        return self.shared_hits[core] + self.shared_misses[core]

    def end_interval(self) -> None:
        """Reset the interval counters in place (keep the shadow arrays warm).

        Zeroing the existing rows instead of allocating fresh lists keeps any
        outstanding references (and the allocator) happy across the thousands
        of intervals a long run completes.
        """
        zero = self._zero_row
        for core, row in enumerate(self.position_hits):
            row[:] = zero
            self.shadow_misses[core] = 0
            self.shared_hits[core] = 0
            self.shared_misses[core] = 0
