"""The shared last-level cache.

:class:`SharedCache` owns the sets, the per-core occupancy counters the
PriSM analytical model reads (``C_i``), the statistics, and the interval
machinery: the allocation policies in this repo recompute their targets
every ``W`` misses, where ``W`` is chosen by the attached management
scheme (the paper's default is ``W = N``, one interval per cache's worth
of misses).

Division of labour on a miss:

- the **scheme** (:mod:`repro.partitioning` / :mod:`repro.core`) picks the
  victim block and the insertion position — this is where way-partitioning
  quotas, PIPP's insertion points or PriSM's core-selection live;
- the **replacement policy** (:mod:`repro.cache.replacement`) supplies the
  baseline eviction-preference order and promotion behaviour the scheme
  builds on.

A cache with no scheme attached behaves exactly like an unmanaged cache
under its baseline policy.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, NamedTuple, Optional, Sequence

from repro.cache.cacheset import CacheSet
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.stats import CacheStats

__all__ = ["AccessResult", "SharedCache"]


def _active(callback):
    """``callback`` itself, or ``None`` when it is a tagged no-op.

    Methods marked ``_hot_noop = True`` on their defining class are base-class
    stubs; eliding the call entirely keeps them off the per-access hot path.
    Plain callables (e.g. per-instance closures) are always active.
    """
    func = getattr(callback, "__func__", callback)
    if getattr(func, "_hot_noop", False):
        return None
    return callback


class AccessResult(NamedTuple):
    """Outcome of one cache access."""

    hit: bool
    set_index: int
    evicted_core: int  # -1 when nothing was evicted
    evicted_addr: int = -1  # block address of the victim (-1 if none)


class SharedCache:
    """A set-associative cache shared by ``num_cores`` cores.

    Args:
        geometry: size/associativity description.
        num_cores: number of *accounting owners* — the width of every
            per-core array the management machinery reads (occupancy,
            stats, ``E_i``/``T_i``). Without ``core_map`` this is simply
            the number of sharing cores.
        policy: baseline replacement policy; defaults to true LRU.
        scheme: management scheme; ``None`` means unmanaged.
        core_map: optional cluster map for many-core scale-out
            (:mod:`repro.clustering`): ``core_map[real_core]`` is the
            accounting group the core's blocks are charged to. Its length
            is the real core count; its values must lie in
            ``[0, num_cores)``. Every access is translated at entry, so
            all downstream accounting — occupancy, stats, shadow tags,
            PriSM's E/T — runs at cluster granularity.
        track_sharers: maintain per-block sharer bitmasks (shared-data
            workloads): a fill seeds ``block.sharers`` with the filling
            owner's bit, every hit ORs the hitting owner's bit in.
            Occupancy stays charged to the accounting owner (conservation
            is preserved); the sharer set is observational.

    Attributes:
        occupancy: per-accounting-owner count of blocks currently resident.
        stats: hit/miss/eviction counters (accounting-owner indexed).
        monitors: observers probed on every access (shadow tags, tracers).
        real_num_cores: number of real cores issuing accesses
            (``len(core_map)``, or ``num_cores`` when unmapped).
    """

    # Slotted: the access loop is ~20 attribute loads per call, and slot
    # descriptors resolve faster than instance-dict lookups. Subclasses
    # may still add their own attributes — they get a __dict__ of their
    # own.
    __slots__ = (
        "geometry",
        "num_cores",
        "real_num_cores",
        "_core_map",
        "track_sharers",
        "_set_mask",
        "_tag_shift",
        "policy",
        "sets",
        "occupancy",
        "stats",
        "_hits",
        "_misses",
        "_evictions",
        "_hit_results",
        "monitors",
        "scheme",
        "telemetry",
        "intervals_completed",
        "_interval_len",
        "_interval_left",
        "_notify_access",
        "_record_miss",
        "_policy_on_fill",
        "_scheme_on_fill",
        "_on_hit",
        "_insert_fill",
        "_replace_fill",
        "_select_victim",
        "_lru_victim",
        "_observers",
        "_observers_at",
        "_interval_monitors",
        "_hot",
    )

    def __init__(
        self,
        geometry: CacheGeometry,
        num_cores: int,
        policy: Optional[ReplacementPolicy] = None,
        scheme=None,
        core_map: Optional[Sequence[int]] = None,
        track_sharers: bool = False,
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {num_cores}")
        if core_map is not None:
            core_map = list(core_map)
            if not core_map:
                raise ValueError("core_map must map at least one core")
            bad = [g for g in core_map if not 0 <= g < num_cores]
            if bad:
                raise ValueError(
                    f"core_map groups must lie in [0, {num_cores}), got {bad}"
                )
        self.geometry = geometry
        self.num_cores = num_cores
        self._core_map = core_map
        self.real_num_cores = len(core_map) if core_map is not None else num_cores
        self.track_sharers = bool(track_sharers)
        # Hot-path copies of the geometry arithmetic (num_sets is a derived
        # property; the access loop runs millions of times).
        self._set_mask = geometry.num_sets - 1
        self._tag_shift = self._set_mask.bit_length()
        self.policy = policy if policy is not None else LRUPolicy()
        self.sets: List[CacheSet] = [
            CacheSet(i, geometry.assoc) for i in range(geometry.num_sets)
        ]
        self.occupancy: List[int] = [0] * num_cores
        self.stats = CacheStats(num_cores)
        # Direct references to the lifetime counter lists: CacheStats never
        # reassigns them (interval views are derived), so the access loop can
        # skip the two-attribute hop on every hit/miss/eviction.
        self._hits = self.stats.hits
        self._misses = self.stats.misses
        self._evictions = self.stats.evictions
        # AccessResult is immutable and a hit's fields depend only on the
        # set index, so hits return pre-built results.
        self._hit_results = [
            AccessResult(True, i, -1) for i in range(geometry.num_sets)
        ]
        self.monitors: list = []
        self.scheme = None
        self.telemetry = None
        self.intervals_completed = 0
        self._interval_len = 0
        self._interval_left = 0
        self.policy.bind(self)
        self._rewire()
        if scheme is not None:
            self.set_scheme(scheme)

    # -- wiring ------------------------------------------------------------

    def _rewire(self) -> None:
        """Re-resolve the per-access callbacks.

        The access loop runs millions of times; resolving which hooks are
        real (vs. ``_hot_noop``-tagged base-class stubs) once per wiring
        change keeps dead calls out of it entirely.
        """
        policy = self.policy
        scheme = self.scheme
        self._notify_access = _active(policy.notify_access)
        self._record_miss = _active(policy.record_miss)
        self._policy_on_fill = _active(policy.on_fill)
        self._scheme_on_fill = _active(scheme.on_fill) if scheme is not None else None
        if scheme is None:
            self._on_hit = policy.on_hit
            self._insert_fill = policy.insert_fill
            self._replace_fill = policy.replace_fill
            self._select_victim = None
        else:
            # Bound methods resolved by ManagementScheme.attach(): the
            # policy's own hooks wherever the scheme does not override them.
            self._on_hit = scheme._resolved_on_hit
            self._insert_fill = scheme._resolved_insert
            self._replace_fill = scheme._resolved_replace
            self._select_victim = scheme._resolved_select
        # When no scheme overrides victim selection and the policy's order is
        # the recency order, the victim is always the LRU-end block — inlined
        # into the access loop as a direct linked-list peek.
        self._lru_victim = self._select_victim is None and policy.recency_ordered
        # Observer dispatch is per set: a sampling monitor (one exposing
        # is_sampled) is only wired into the sets it samples, so unsampled
        # sets skip its observe call entirely.
        active = [m for m in self.monitors if _active(m.observe) is not None]
        self._observers = tuple(m.observe for m in active)
        if active:
            self._observers_at = [
                tuple(
                    m.observe
                    for m in active
                    if not hasattr(m, "is_sampled") or m.is_sampled(s)
                )
                for s in range(self.geometry.num_sets)
            ]
        else:
            self._observers_at = None
        self._interval_monitors = tuple(
            m.end_interval
            for m in self.monitors
            if getattr(m, "end_interval", None) is not None
        )
        # Everything access() reads that is fixed between wiring changes,
        # packed into one tuple: a single attribute load plus an unpack
        # replaces ~18 attribute loads per access. Every pinned container
        # is mutated in place only (occupancy, stat lists, sets).
        self._hot = (
            self._set_mask,
            self._tag_shift,
            self.sets,
            self._hits,
            self._misses,
            self._evictions,
            self._hit_results,
            self._notify_access,
            self._observers_at,
            self._on_hit,
            self._record_miss,
            self._select_victim,
            self._lru_victim,
            self._insert_fill,
            self._replace_fill,
            self._policy_on_fill,
            self._scheme_on_fill,
            self.occupancy,
            policy.victim,
            self._interval_len,
            self._core_map,
            self.track_sharers,
        )

    def set_scheme(self, scheme) -> None:
        """Attach a management scheme (calls ``scheme.attach(self)``)."""
        self.scheme = scheme
        scheme.attach(self)
        # Latched once: schemes fix interval_len during construction/attach.
        self._interval_len = getattr(scheme, "interval_len", 0) or 0
        self._interval_left = self._interval_len
        self._rewire()

    def set_telemetry(self, recorder) -> None:
        """Attach a telemetry recorder (fired at each interval boundary).

        Off the hot path entirely: the recorder is consulted only inside
        :meth:`_end_interval`, so an unattached cache pays nothing and an
        attached one pays only at allocation-interval granularity.
        """
        self.telemetry = recorder

    def add_monitor(self, monitor) -> None:
        """Register an access observer with an ``observe(core, set, tag, hit)`` method."""
        self.monitors.append(monitor)
        self._rewire()

    # -- derived state -------------------------------------------------------

    @property
    def interval_miss_count(self) -> int:
        """Misses so far in the current allocation interval."""
        interval_len = self._interval_len
        return (interval_len - self._interval_left) if interval_len else 0

    @interval_miss_count.setter
    def interval_miss_count(self, value: int) -> None:
        self._interval_left = self._interval_len - value

    def occupancy_fractions(self) -> List[float]:
        """``C_i``: fraction of all cache blocks owned by each core."""
        n = self.geometry.num_blocks
        return [occ / n for occ in self.occupancy]

    def valid_blocks(self) -> int:
        """Total valid blocks (equals ``sum(occupancy)``)."""
        return sum(self.occupancy)

    # -- the access path -------------------------------------------------------

    def access(self, core: int, block_addr: int) -> AccessResult:
        """Simulate one access by ``core`` to ``block_addr``.

        Returns:
            An :class:`AccessResult`; ``evicted_core`` identifies whose block
            was displaced (or -1 for a fill into an empty way / a hit).
        """
        (
            set_mask,
            tag_shift,
            sets,
            hits_l,
            misses_l,
            evictions_l,
            hit_results,
            notify_access,
            observers_at,
            on_hit,
            record_miss,
            select_victim,
            lru_victim,
            insert_fill,
            replace_fill,
            policy_on_fill,
            scheme_on_fill,
            occupancy,
            policy_victim,
            interval_len,
            core_map,
            track_sharers,
        ) = self._hot
        real_core = core
        if core_map is not None:
            core = core_map[core]
        set_index = block_addr & set_mask
        tag = block_addr >> tag_shift
        cset = sets[set_index]

        if notify_access is not None:
            notify_access(cset)
        block = cset.lookup_tag(tag)
        hit = block is not None
        if observers_at is not None:
            for observe in observers_at[set_index]:
                observe(core, set_index, tag, hit)

        if hit:
            hits_l[core] += 1
            if track_sharers:
                block.sharers |= 1 << core
            on_hit(cset, block, core)
            return hit_results[set_index]

        misses_l[core] += 1
        if record_miss is not None:
            record_miss(cset, core)

        evicted_core = -1
        evicted_addr = -1
        if not cset._free:
            if lru_victim:
                victim = cset._tail.prev
            elif select_victim is not None:
                victim = select_victim(cset, core)
            else:
                victim = policy_victim(cset)
            evicted_core = victim.core
            evicted_addr = (victim.tag << tag_shift) | set_index
            occupancy[evicted_core] -= 1
            evictions_l[evicted_core] += 1
            new_block = replace_fill(cset, victim, tag, core)
        else:
            new_block = insert_fill(cset, tag, core)
        occupancy[core] += 1
        if core_map is not None:
            new_block.filler = real_core
        if track_sharers:
            new_block.sharers = 1 << core
        if policy_on_fill is not None:
            policy_on_fill(cset, new_block, core)
        if scheme_on_fill is not None:
            scheme_on_fill(cset, new_block, core)

        if interval_len:
            # Countdown form: one read-modify-write per miss.
            left = self._interval_left - 1
            if left:
                self._interval_left = left
            else:
                self._end_interval()
        # NamedTuple.__new__ goes through _make-style kwargs plumbing;
        # building the tuple directly skips that on the dominant miss path.
        return tuple.__new__(
            AccessResult, (False, set_index, evicted_core, evicted_addr)
        )

    def access_many(self, cores, addrs=None, collect: bool = False):
        """Replay many accesses through the classic engine.

        Same contract as :meth:`repro.cache.vector.VectorCache.access_many`:
        both backends consume the same pre-encoded stream, so a driver can
        switch engines without re-encoding. The classic engine still
        processes one access at a time, but the batch loop sheds the
        per-call overhead (one ``_hot`` unpack and the geometry arithmetic
        per batch instead of per access). Wiring must not change
        mid-batch — exactly the assumption ``access`` already makes within
        one call.

        Args:
            cores: an :class:`~repro.cache.encode.EncodedTrace`, or the
                per-access core ids.
            addrs: block addresses (required unless ``cores`` is already
                an encoded trace).
            collect: build a :class:`~repro.cache.vector.BatchResults`;
                leave off on throughput-critical replays.

        Returns:
            A ``BatchResults`` when ``collect``, else ``None``.
        """
        from repro.cache.encode import EncodedTrace, encode_accesses

        if isinstance(cores, EncodedTrace):
            trace = cores
        else:
            if addrs is None:
                raise TypeError("access_many needs addrs unless given an EncodedTrace")
            trace = encode_accesses(cores, addrs, self.geometry)
        n = len(trace)
        hit_out = ec_out = ea_out = None
        if collect:
            hit_out = [False] * n
            ec_out = [-1] * n
            ea_out = [-1] * n
        (
            _set_mask,
            tag_shift,
            sets,
            hits_l,
            misses_l,
            evictions_l,
            _hit_results,
            notify_access,
            observers_at,
            on_hit,
            record_miss,
            select_victim,
            lru_victim,
            insert_fill,
            replace_fill,
            policy_on_fill,
            scheme_on_fill,
            occupancy,
            policy_victim,
            interval_len,
            core_map,
            track_sharers,
        ) = self._hot
        # Plain-int lists iterate faster than numpy scalars in this loop.
        cores_l = trace.cores.tolist()
        sets_l = trace.set_indices.tolist()
        tags_l = trace.tags.tolist()
        for i in range(n):
            real_core = core = cores_l[i]
            if core_map is not None:
                core = core_map[core]
            set_index = sets_l[i]
            tag = tags_l[i]
            cset = sets[set_index]
            if notify_access is not None:
                notify_access(cset)
            block = cset.lookup_tag(tag)
            hit = block is not None
            if observers_at is not None:
                for observe in observers_at[set_index]:
                    observe(core, set_index, tag, hit)
            if hit:
                hits_l[core] += 1
                if track_sharers:
                    block.sharers |= 1 << core
                on_hit(cset, block, core)
                if collect:
                    hit_out[i] = True
                continue
            misses_l[core] += 1
            if record_miss is not None:
                record_miss(cset, core)
            if not cset._free:
                if lru_victim:
                    victim = cset._tail.prev
                elif select_victim is not None:
                    victim = select_victim(cset, core)
                else:
                    victim = policy_victim(cset)
                evicted_core = victim.core
                occupancy[evicted_core] -= 1
                evictions_l[evicted_core] += 1
                if collect:
                    ec_out[i] = evicted_core
                    ea_out[i] = (victim.tag << tag_shift) | set_index
                new_block = replace_fill(cset, victim, tag, core)
            else:
                new_block = insert_fill(cset, tag, core)
            occupancy[core] += 1
            if core_map is not None:
                new_block.filler = real_core
            if track_sharers:
                new_block.sharers = 1 << core
            if policy_on_fill is not None:
                policy_on_fill(cset, new_block, core)
            if scheme_on_fill is not None:
                scheme_on_fill(cset, new_block, core)
            if interval_len:
                left = self._interval_left - 1
                if left:
                    self._interval_left = left
                else:
                    self._end_interval()
        if not collect:
            return None
        import numpy as np

        from repro.cache.vector import BatchResults

        return BatchResults(
            np.asarray(hit_out, dtype=bool),
            trace.set_indices,
            np.asarray(ec_out, dtype=np.int64),
            np.asarray(ea_out, dtype=np.int64),
        )

    def _end_interval(self) -> None:
        """Fire the allocation-policy interval: scheme first, then resets.

        The telemetry hook sits between the scheme call and the resets:
        the scheme has just installed its new ``E``/``T``, and the interval
        counter views (and the system's interval perf snapshots, rolled by
        the monitors below) are still live.
        """
        telemetry = self.telemetry
        if telemetry is None:
            self.scheme.end_interval(self)
        else:
            start = perf_counter()
            self.scheme.end_interval(self)
            telemetry.note_alloc_seconds(perf_counter() - start)
            telemetry.record_interval(self)
        self.stats.reset_interval()
        for end_interval in self._interval_monitors:
            end_interval()
        self._interval_left = self._interval_len
        self.intervals_completed += 1

    # -- state view and integrity (invariant checker, differential suite) ------

    def group_of(self, core: int) -> int:
        """Accounting owner a real core's fills are charged to."""
        return self._core_map[core] if self._core_map is not None else core

    @property
    def core_map(self) -> Optional[List[int]]:
        """The cluster map in force (``None`` when unclustered)."""
        return list(self._core_map) if self._core_map is not None else None

    def state(self):
        """Every resident block as an :class:`~repro.cache.state.EngineState`.

        Read from each set's tag index; :meth:`check_integrity` audits
        that the recency lists and per-core counts agree with it.
        """
        import numpy as np

        from repro.cache.state import EngineState

        by_tags = [cset._by_tag for cset in self.sets]
        sets = np.repeat(np.arange(len(by_tags)), [len(by_tag) for by_tag in by_tags])
        tags = [tag for by_tag in by_tags for tag in by_tag]
        blocks = [block for by_tag in by_tags for block in by_tag.values()]
        return EngineState.of(
            self, sets, tags, [block.core for block in blocks],
            filler=[b.filler for b in blocks] if self._core_map is not None else None,
            sharers=[b.sharers for b in blocks] if self.track_sharers else None,
        )

    def check_integrity(self) -> None:
        """Audit every set's links, tag index, counts and free ways.

        Raises:
            AssertionError: on any inconsistency.
        """
        for cset in self.sets:
            cset.check_integrity()
