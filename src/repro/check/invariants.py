"""Runtime invariant checking for the shared cache, on either engine.

The checker is an ordinary access monitor (wired in through
``cache.add_monitor``, same hook the shadow tags use), so it costs
nothing when not attached. Every ``every`` accesses — and on demand via
:meth:`InvariantChecker.check_now` — it audits the whole cache. Apart
from each engine's own ``check_integrity()``, every audit reads the
engine-neutral snapshot ``cache.state()``
(:class:`~repro.cache.state.EngineState`), so the classic and the vector
engine are audited by the same code:

``set-integrity``
    the engine's private bookkeeping agrees with its resident blocks
    (``cache.check_integrity()``: the classic engine's recency links, tag
    index and per-core counts; the vector engine's valid-way counts,
    PriSM residency counts and MRU hints), no set holds a tag twice, and
    no set holds more than ``assoc`` blocks;
``occupancy-recount``
    the per-core ``C_i`` counters the analytical model reads equal a
    full recount of the resident blocks' owners;
``occupancy-bounds``
    total occupancy never exceeds the cache's block count;
``distribution``
    the installed eviction distribution ``E`` has one entry per core,
    no negative entries, and sums to 1 (post-clamp renormalisation);
``cumulative``
    the manager's sampling prefix sums are non-decreasing and pinned to
    exactly 1.0 at the top;
``shadow-monotone``
    the shadow-tag interval counters only ever grow within an interval
    (they may reset only at an interval boundary);
``inclusion``
    with a hierarchy bound via :meth:`InvariantChecker.bind_hierarchy`
    and the system running inclusive, every block resident in any
    private L1 is also resident in the shared LLC (the back-invalidate
    path never leaks a stale L1 line);
``sharer-consistency``
    when the cache tracks sharer bitmasks (``track_sharers=True``),
    every resident block has a non-empty sharer set and its accounting
    owner is a member of it (a hit can widen the mask but never detach
    the owner);
``cluster-conservation``
    when the cache runs under a cluster map (``core_map``) and keeps
    fillers (the classic engine; the vector engine translates core ids
    at entry and keeps none), every resident block's filler is a real
    core that maps to the block's accounting owner — with
    ``occupancy-recount`` this conserves occupancy across the
    core→cluster translation.

Violations raise :class:`InvariantViolation` — a subclass of
``AssertionError``, so plain ``assert``-style handling works, but typed
so the campaign executor can recognise a deterministic engine bug and
skip pointless retries.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["InvariantChecker", "InvariantViolation", "attach_checker"]


class InvariantViolation(AssertionError):
    """A cache-engine invariant failed.

    Attributes:
        invariant: short name of the violated invariant (see module
            docstring for the catalogue).
        detail: what the audit actually saw.
    """

    def __init__(self, invariant: str, detail: str) -> None:
        super().__init__(f"invariant {invariant!r} violated: {detail}")
        self.invariant = invariant
        self.detail = detail


class InvariantChecker:
    """Access monitor that audits a cache's internal consistency.

    Args:
        cache: the engine to audit (anything with ``state()`` and
            ``check_integrity()``: the classic or the vector engine).
        every: run a full audit every this many observed accesses. Each
            audit is O(cache size), so the overhead knob is this period;
            ``1`` audits after every access (see ``docs/testing.md`` for
            measured overheads).
    """

    def __init__(self, cache, every: int = 1024) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.cache = cache
        self.every = every
        self.checks_run = 0
        self._countdown = every
        self._shadow_floor: Optional[Tuple[int, ...]] = None
        self._system = None
        self._inflight: Optional[Tuple[int, int, int]] = None

    def bind_hierarchy(self, system) -> None:
        """Audit ``system``'s cache hierarchy too (inclusion invariant).

        Call after constructing the :class:`~repro.cpu.system.MultiCoreSystem`
        that owns the private L1s in front of the audited LLC; only
        meaningful when the system runs with ``inclusive=True``.
        """
        self._system = system

    # -- monitor hooks ------------------------------------------------------

    def observe(self, core: int, set_index: int, tag: int, hit: bool) -> None:
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.every
            # The monitor fires mid-access: on an LLC miss the owner's L1
            # has already filled this block but the LLC has not — exempt
            # exactly that block from the inclusion audit.
            self._inflight = (core, set_index, tag)
            self.check_now()
            self._inflight = None

    def end_interval(self) -> None:
        # The shadow monitor registered before us has just zeroed its
        # interval counters; forget the monotonicity floor with them.
        self._shadow_floor = None

    # -- the audit ----------------------------------------------------------

    def check_now(self) -> None:
        """Audit everything once; raises :class:`InvariantViolation`."""
        self.checks_run += 1
        cache = self.cache
        try:
            cache.check_integrity()
        except AssertionError as exc:
            raise InvariantViolation("set-integrity", str(exc)) from None
        state = cache.state()
        self._check_sets(state, cache.geometry.assoc)
        self._check_occupancy(state, cache.geometry.num_blocks)
        if state.sharers is not None:
            self._check_sharers(state)
        if state.filler is not None:
            self._check_cluster_conservation(state)

        manager = getattr(cache.scheme, "manager", None)
        if manager is not None:
            self._check_distribution(manager, cache.num_cores)

        shadow = getattr(cache.scheme, "shadow", None)
        if shadow is not None:
            self._check_shadow_monotone(shadow)

        system = self._system
        if system is not None and system.inclusive and system.l1s is not None:
            self._check_inclusion(system, state)

    @staticmethod
    def _check_sets(state, assoc: int) -> None:
        sets, tags = state.set_index, state.tag
        twice = np.flatnonzero((sets[1:] == sets[:-1]) & (tags[1:] == tags[:-1]))
        if len(twice):
            raise InvariantViolation("set-integrity", f"{_block(state, twice[0])} twice")
        per_set = np.bincount(sets)
        if len(per_set) and per_set.max() > assoc:
            s = per_set.argmax()
            raise InvariantViolation(
                "set-integrity", f"set {s} holds {per_set[s]} blocks in {assoc} ways"
            )

    @staticmethod
    def _check_occupancy(state, num_blocks: int) -> None:
        owner = state.owner
        stray = np.flatnonzero((owner < 0) | (owner >= state.num_cores))
        if len(stray):
            k = stray[0]
            raise InvariantViolation(
                "occupancy-recount",
                f"{_block(state, k)} is charged to owner {owner[k]}, "
                f"outside [0, {state.num_cores})",
            )
        recount = state.recount()
        if recount != state.occupancy:
            raise InvariantViolation(
                "occupancy-recount", f"counters {state.occupancy} != recount {recount}"
            )
        total = sum(state.occupancy)
        if not 0 <= total <= num_blocks:
            raise InvariantViolation(
                "occupancy-bounds",
                f"{total} blocks resident in a {num_blocks}-block cache",
            )

    def _check_inclusion(self, system, state) -> None:
        geometry = self.cache.geometry
        shift = (geometry.num_sets - 1).bit_length()
        resident = set(((state.tag << shift) | state.set_index).tolist())
        inflight = self._inflight
        if inflight is not None:
            inflight = (inflight[0], geometry.block_addr(inflight[1], inflight[2]))
        for core, l1 in enumerate(system.l1s):
            for addr in l1.resident_addrs():
                if addr not in resident and (core, addr) != inflight:
                    raise InvariantViolation(
                        "inclusion",
                        f"core {core} holds block {addr:#x} in its L1 but the "
                        "block is not resident in the (inclusive) shared LLC",
                    )

    @staticmethod
    def _check_sharers(state) -> None:
        sharers = state.sharers
        owned = (sharers >> state.owner.astype(np.uint64)) & np.uint64(1)
        bad = np.flatnonzero(owned == 0)  # an empty mask never holds the owner
        if len(bad):
            k = bad[0]
            raise InvariantViolation(
                "sharer-consistency",
                f"{_block(state, k)}: accounting owner {state.owner[k]} not in "
                f"sharer mask {int(sharers[k]):#b}",
            )

    @staticmethod
    def _check_cluster_conservation(state) -> None:
        filler = state.filler
        real = state.real_num_cores
        stray = np.flatnonzero((filler < 0) | (filler >= real))
        if len(stray):
            k = stray[0]
            raise InvariantViolation(
                "cluster-conservation",
                f"{_block(state, k)} has filler {filler[k]}, outside [0, {real})",
            )
        cluster = np.asarray(state.core_map, dtype=np.int64)[filler]
        wrong = np.flatnonzero(cluster != state.owner)
        if len(wrong):
            k = wrong[0]
            raise InvariantViolation(
                "cluster-conservation",
                f"{_block(state, k)}: filler {filler[k]} maps to cluster "
                f"{cluster[k]} but is charged to {state.owner[k]}",
            )

    def _check_distribution(self, manager, num_cores: int) -> None:
        probabilities = manager.probabilities
        if len(probabilities) != num_cores:
            raise InvariantViolation(
                "distribution",
                f"{len(probabilities)} entries for {num_cores} cores",
            )
        if any(p < 0.0 for p in probabilities):
            raise InvariantViolation(
                "distribution", f"negative entry in {probabilities!r}"
            )
        total = sum(probabilities)
        if abs(total - 1.0) > 1e-6:
            raise InvariantViolation(
                "distribution", f"E sums to {total!r}, expected 1"
            )
        cumulative = manager._cumulative
        if any(b < a for a, b in zip(cumulative, cumulative[1:])):
            raise InvariantViolation(
                "cumulative", f"prefix sums decrease: {cumulative!r}"
            )
        if cumulative[-1] != 1.0:
            raise InvariantViolation(
                "cumulative", f"top prefix sum is {cumulative[-1]!r}, expected 1.0"
            )

    def _check_shadow_monotone(self, shadow) -> None:
        snapshot = self._shadow_snapshot(shadow)
        floor = self._shadow_floor
        if floor is not None and any(
            now < before for now, before in zip(snapshot, floor)
        ):
            raise InvariantViolation(
                "shadow-monotone",
                "an interval counter decreased mid-interval "
                f"(before {floor}, now {snapshot})",
            )
        self._shadow_floor = snapshot

    @staticmethod
    def _shadow_snapshot(shadow) -> Tuple[int, ...]:
        counters = []
        for core in range(shadow.num_cores):
            counters.extend(shadow.position_hits[core])
            counters.append(shadow.shadow_misses[core])
            counters.append(shadow.shared_hits[core])
            counters.append(shadow.shared_misses[core])
        return tuple(counters)


def _block(state, k) -> str:
    """Name the ``k``-th block of a state view in a violation message."""
    return f"block tag={state.tag[k]:#x} in set {state.set_index[k]}"


def attach_checker(cache, every: int = 1024) -> InvariantChecker:
    """Attach an :class:`InvariantChecker` to ``cache`` and return it.

    Registers the checker as an access monitor (after any monitors the
    scheme installed, so at interval boundaries the shadow counters reset
    before the checker forgets its monotonicity floor).
    """
    checker = InvariantChecker(cache, every=every)
    cache.add_monitor(checker)
    return checker
