"""Offline Belady/MIN optimal replacement over recorded post-L1 traces.

Belady's algorithm evicts the resident block whose next use lies farthest
in the future — unrealisable online, but on a *recorded* trace it is the
provable hit-count optimum among demand-fill policies, which makes it the
yardstick every online scheme's remaining headroom is measured against
(cf. "Optimal Eviction Policies for Stochastic Address Traces" in
PAPERS.md). The module provides:

- :class:`BeladyCache` — the fast implementation: next-use indices are
  precomputed with one backward scan, each resident block carries the
  index of its next access (updated on every hit, so it is always
  current), and the victim is the stored maximum. O(assoc) per miss.
- :class:`NaiveBelady` — an independent, obviously-correct transcription
  that rescans the *future trace* at every eviction. O(n) per miss; the
  reference the fast implementation is differential-tested against,
  in the same spirit as :mod:`repro.check.reference`.
- :func:`replay_trace` — replay a :class:`~repro.cpu.system.RecordedTrace`
  through any registry scheme (or ``"belady"``) on a fresh cache, so
  every contender sees the *same* access stream.
- :func:`assert_belady_bound` — certify Belady's hit count is >= every
  online policy's on the same trace (raises
  :class:`~repro.check.invariants.InvariantViolation` otherwise).
- :func:`belady_workload_run` — the ``scheme="belady"`` path of
  :func:`repro.experiments.runner.run_workload`: record a reference run
  (LRU timing machine, the config's hierarchy), replay the trace under
  Belady, and reconstruct per-core timing in trace order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cache.geometry import CacheGeometry
from repro.cpu.core_model import CoreTimingModel
from repro.cpu.memory import MemoryModel
from repro.cpu.system import CoreResult, RecordedTrace, SystemResult

__all__ = [
    "BeladyCache",
    "NaiveBelady",
    "ReplayResult",
    "next_use_indices",
    "replay_trace",
    "assert_belady_bound",
    "belady_workload_run",
]


def next_use_indices(addrs: Sequence[int]) -> List[int]:
    """``next_use[i]`` = index of the next access to ``addrs[i]`` after
    ``i``, or ``len(addrs)`` when it is never accessed again."""
    n = len(addrs)
    next_use = [n] * n
    last_seen: Dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        addr = addrs[i]
        next_use[i] = last_seen.get(addr, n)
        last_seen[addr] = i
    return next_use


class BeladyCache:
    """Belady/MIN over a fixed address sequence, stepped access by access.

    Args:
        geometry: cache geometry (set indexing/tags as the real LLC).
        num_cores: owner universe for the per-core counters.
        addrs: the full address sequence that will be replayed; accesses
            must then be fed in exactly this order via :meth:`access`.
    """

    def __init__(
        self, geometry: CacheGeometry, num_cores: int, addrs: Sequence[int]
    ) -> None:
        self.geometry = geometry
        self.num_cores = num_cores
        self._next_use = next_use_indices(addrs)
        # Per set: block address -> [stored next use, owner core].
        # Insertion order is fill order; never-used-again blocks tie at
        # n and the earliest-filled one wins (strict-> comparison below).
        self._sets: List[Dict[int, List[int]]] = [
            {} for _ in range(geometry.num_sets)
        ]
        self.hits = [0] * num_cores
        self.misses = [0] * num_cores
        self.occupancy = [0] * num_cores

    def access(self, index: int, core: int, addr: int) -> bool:
        """Access ``addr`` as trace position ``index``; True on a hit."""
        resident = self._sets[self.geometry.set_index(addr)]
        entry = resident.get(addr)
        if entry is not None:
            entry[0] = self._next_use[index]
            entry[1] = core
            self.hits[core] += 1
            return True
        self.misses[core] += 1
        if len(resident) >= self.geometry.assoc:
            victim_addr, victim_entry = None, None
            for block_addr, candidate in resident.items():
                if victim_entry is None or candidate[0] > victim_entry[0]:
                    victim_addr, victim_entry = block_addr, candidate
            self.occupancy[victim_entry[1]] -= 1
            del resident[victim_addr]
        resident[addr] = [self._next_use[index], core]
        self.occupancy[core] += 1
        return False

    def total_hits(self) -> int:
        return sum(self.hits)

    def total_misses(self) -> int:
        return sum(self.misses)


class NaiveBelady:
    """Belady by literal forward rescan of the remaining trace.

    Keeps each set as a plain fill-ordered list and, on every full-set
    miss, scans the future of the trace to find each resident block's
    next use. Quadratic — for differential tests on short traces only.
    """

    def __init__(
        self, geometry: CacheGeometry, num_cores: int, addrs: Sequence[int]
    ) -> None:
        self.geometry = geometry
        self.addrs = list(addrs)
        self._sets: List[List[int]] = [[] for _ in range(geometry.num_sets)]
        self.hits = [0] * num_cores
        self.misses = [0] * num_cores

    def _next_use_after(self, addr: int, index: int) -> int:
        for i in range(index + 1, len(self.addrs)):
            if self.addrs[i] == addr:
                return i
        return len(self.addrs)

    def access(self, index: int, core: int, addr: int) -> bool:
        resident = self._sets[self.geometry.set_index(addr)]
        if addr in resident:
            self.hits[core] += 1
            return True
        self.misses[core] += 1
        if len(resident) >= self.geometry.assoc:
            uses = [self._next_use_after(block, index) for block in resident]
            # Farthest next use; the earliest-filled block wins ties.
            victim = uses.index(max(uses))
            resident.pop(victim)
        resident.append(addr)
        return False

    def total_hits(self) -> int:
        return sum(self.hits)


@dataclass
class ReplayResult:
    """Hit/miss outcome of one scheme replayed over one recorded trace."""

    scheme: str
    hits: List[int]
    misses: List[int]
    extra: dict = field(default_factory=dict)

    @property
    def total_hits(self) -> int:
        return sum(self.hits)

    @property
    def total_misses(self) -> int:
        return sum(self.misses)


def replay_trace(
    trace: RecordedTrace,
    geometry: CacheGeometry,
    scheme: str = "belady",
    seed: int = 0,
    scheme_kwargs: Optional[dict] = None,
    standalone_ipcs: Optional[Sequence[float]] = None,
) -> ReplayResult:
    """Replay a recorded post-L1 trace through one scheme, pure trace mode.

    Every scheme sees byte-for-byte the same access sequence (no timing
    feedback — schemes that read performance counters get the
    deterministic :class:`~repro.check.differential.SyntheticPerf`), so
    hit counts are directly comparable and the gap to ``"belady"`` is the
    scheme's optimality headroom on that trace.
    """
    num_cores = trace.num_cores
    if scheme == "belady":
        belady = BeladyCache(geometry, num_cores, trace.addrs)
        for i, (core, addr) in enumerate(zip(trace.cores, trace.addrs)):
            belady.access(i, core, addr)
        return ReplayResult("belady", list(belady.hits), list(belady.misses))

    # Imported lazily: repro.experiments imports this module's sibling.
    from repro.cache.cache import SharedCache
    from repro.check.differential import SyntheticPerf
    from repro.experiments.schemes import build_scheme

    if standalone_ipcs is None:
        standalone_ipcs = [1.0] * num_cores
    scheme_obj, policy = build_scheme(
        scheme, num_cores, list(standalone_ipcs), **(scheme_kwargs or {})
    )
    cache = SharedCache(geometry, num_cores, policy=policy, scheme=scheme_obj)
    if scheme_obj is not None and hasattr(scheme_obj, "perf"):
        scheme_obj.perf = SyntheticPerf(num_cores, seed=seed)
    for core, addr in zip(trace.cores, trace.addrs):
        cache.access(core, addr)
    hits = [cache.stats.hits[c] for c in range(num_cores)]
    misses = [cache.stats.misses[c] for c in range(num_cores)]
    return ReplayResult(scheme, hits, misses)


def assert_belady_bound(
    trace: RecordedTrace,
    geometry: CacheGeometry,
    schemes: Sequence[str],
    seed: int = 0,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
) -> Dict[str, ReplayResult]:
    """Certify Belady is hit-count optimal vs every scheme on ``trace``.

    Returns the per-scheme replay results (including ``"belady"``).

    Raises:
        InvariantViolation: (``"belady-bound"``) if any online policy
            beats Belady's total hit count — which would mean the offline
            simulator is broken, since MIN is provably optimal.
    """
    from repro.check.invariants import InvariantViolation  # imports numpy; replays do not

    results = {"belady": replay_trace(trace, geometry, "belady")}
    bound = results["belady"].total_hits
    for scheme in schemes:
        if scheme == "belady":
            continue
        kwargs = (scheme_kwargs or {}).get(scheme)
        result = replay_trace(trace, geometry, scheme, seed=seed, scheme_kwargs=kwargs)
        results[scheme] = result
        if result.total_hits > bound:
            raise InvariantViolation(
                "belady-bound",
                f"scheme {scheme!r} scored {result.total_hits} hits, above "
                f"the Belady optimum {bound} on the same {len(trace)}-access trace",
            )
    return results


def belady_workload_run(
    trace: RecordedTrace,
    profiles: Sequence,
    geometry: CacheGeometry,
    memory: MemoryModel,
    instructions_per_core: int,
    llc_hit_latency: float = 8.0,
) -> SystemResult:
    """Replay ``trace`` under Belady and reconstruct per-core timing.

    The trace is walked in recorded order with fresh
    :class:`~repro.cpu.core_model.CoreTimingModel`\\ s and a fresh
    ``memory`` model: L1-hit bundles replay through ``advance_local``,
    LLC accesses resolve against :class:`BeladyCache`, and each core's
    statistics freeze at its instruction target exactly like the live
    system's. ``intervals`` is 0 — Belady has no allocation intervals.
    """
    num_cores = trace.num_cores
    belady = BeladyCache(geometry, num_cores, trace.addrs)
    cores = [
        CoreTimingModel(i, p, llc_hit_latency=llc_hit_latency)
        for i, p in enumerate(profiles)
    ]
    occupancy_at_finish = [0.0] * num_cores
    num_blocks = geometry.num_blocks

    def check_finish(cid: int, core: CoreTimingModel) -> None:
        if not core.finished and core.instructions >= instructions_per_core:
            core.mark_finished()
            occupancy_at_finish[cid] = belady.occupancy[cid] / num_blocks

    for i in range(len(trace)):
        cid = trace.cores[i]
        core = cores[cid]
        l1_gap, l1_lat = trace.l1_gaps[i], trace.l1_lats[i]
        if l1_gap or l1_lat:
            core.advance_local(l1_gap, l1_lat)
            check_finish(cid, core)
        gap = trace.gaps[i]
        if belady.access(i, cid, trace.addrs[i]):
            core.advance(gap, True)
        else:
            issue_time = core.cycles + gap * core.profile.cpi_base
            core.advance(gap, False, memory.miss_latency(trace.addrs[i], issue_time))
        check_finish(cid, core)

    results = []
    for i, core in enumerate(cores):
        reported_instructions = (
            core.finish_instructions if core.finished else core.instructions
        )
        reported_cycles = core.finish_cycles if core.finished else core.cycles
        stall_cpi = (
            core.llc_stall_cycles / reported_instructions
            if reported_instructions
            else 0.0
        )
        results.append(
            CoreResult(
                name=profiles[i].name,
                ipc=core.ipc(),
                cpi=core.cpi(),
                llc_stall_cpi=stall_cpi,
                instructions=reported_instructions,
                cycles=reported_cycles,
                hits=belady.hits[i],
                misses=belady.misses[i],
                occupancy_at_finish=occupancy_at_finish[i],
            )
        )
    return SystemResult(
        cores=results,
        scheme_name="belady",
        total_accesses=len(trace),
        intervals=0,
    )
