"""The multicore system driver.

:class:`MultiCoreSystem` interleaves per-core access streams over the
shared cache on a global cycle clock (an event queue ordered by each
core's next-ready cycle), models DRAM contention, and doubles as the
performance-counter provider for allocation policies that need CPI/IPC
(PriSM-F and PriSM-Q read *interval* counters, rolled every allocation
interval).

Streams are read only through ``take``: each core consumes a buffered
chunk of ``_CHUNK`` accesses and draws the next chunk when it runs out.
A stream's ``(gap, address)`` sequence never depends on cache outcomes,
so this returns exactly what one draw per access would.

Methodology mirrors the paper: every program runs until it retires its
instruction target; programs that finish early keep executing (their
streams keep generating cache pressure) but their reported statistics are
frozen at the finish line — "statistics are reported only for the first
500M/200M instructions for each program".
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable, List, Optional, Sequence

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cpu.core_model import CoreTimingModel
from repro.cpu.memory import MemoryModel
from repro.util.rng import derive_seed
from repro.workloads.benchmark import BenchmarkProfile

__all__ = [
    "MultiCoreSystem",
    "SystemResult",
    "CoreResult",
    "RecordedTrace",
    "run_standalone",
]

#: Address-space stride between cores; a power of two far above any
#: footprint, and a multiple of every set count, so per-core streams map
#: uniformly over sets but never collide.
_CORE_ADDRESS_STRIDE = 1 << 36

#: Accesses drawn per stream ``take`` (see the module docstring).
_CHUNK = 512


@dataclass
class CoreResult:
    """Reported figures for one core (frozen at its finish line)."""

    name: str
    ipc: float
    cpi: float
    llc_stall_cpi: float
    instructions: int
    cycles: float
    hits: int
    misses: int
    occupancy_at_finish: float


@dataclass
class RecordedTrace:
    """The post-L1 (LLC-visible) access stream of one shared run.

    One entry per LLC access, in global issue order. ``gaps[i]`` is the
    stream gap of the access itself; ``l1_gaps[i]``/``l1_lats[i]``
    accumulate the instructions and absorbed latency of the L1 hits the
    core served since its previous LLC access, so a replay can reproduce
    the core's cycle accounting exactly
    (:meth:`~repro.cpu.core_model.CoreTimingModel.advance_local` is linear
    in both). This is the input format of :mod:`repro.check.belady`.

    The columns are typed :class:`array.array`\\ s — ``H`` cores, ``q``
    addresses, ``I`` gaps, ``d`` latencies: 26 bytes per access instead
    of boxed list items — and appending a value its typecode cannot hold
    raises ``OverflowError``. Readers only index, iterate and take
    ``len``, so a trace built from plain lists replays identically.
    """

    num_cores: int
    cores: Sequence[int] = field(default_factory=partial(array, "H"))
    addrs: Sequence[int] = field(default_factory=partial(array, "q"))
    gaps: Sequence[int] = field(default_factory=partial(array, "I"))
    l1_gaps: Sequence[int] = field(default_factory=partial(array, "I"))
    l1_lats: Sequence[float] = field(default_factory=partial(array, "d"))

    def __len__(self) -> int:
        return len(self.addrs)


@dataclass
class SystemResult:
    """Outcome of one multiprogrammed run."""

    cores: List[CoreResult]
    scheme_name: str
    total_accesses: int
    intervals: int
    extra: dict = field(default_factory=dict)

    def ipcs(self) -> List[float]:
        return [c.ipc for c in self.cores]


class _IntervalListener:
    """Cache monitor that rolls the system's interval counter snapshots."""

    __slots__ = ("system",)

    def __init__(self, system: "MultiCoreSystem") -> None:
        self.system = system

    def observe(self, core: int, set_index: int, tag: int, hit: bool) -> None:
        pass

    observe._hot_noop = True  # only end_interval matters; skip per-access calls

    def end_interval(self) -> None:
        self.system.roll_interval_snapshots()


class MultiCoreSystem:
    """A machine: cores + streams + shared LLC + memory controllers.

    Args:
        cache: the shared cache (with its scheme already attached, or
            attach one later via ``cache.set_scheme``).
        profiles: one benchmark profile per core.
        seed: top-level seed; per-core stream seeds derive from it.
        scale: workload footprint scale (1.0 = the reference calibration).
        llc_hit_latency: exposed cycles per LLC hit.
        memory: DRAM model; defaults to one controller.
        l1_geometry: when set, each core gets a private L1 of this
            geometry that filters its stream before the shared LLC. Leave
            ``None`` (the default) for the catalog workloads — their
            streams are calibrated as post-L1 reference streams; enable it
            when replaying raw (unfiltered) traces.
        l1_hit_latency: exposed cycles per L1 hit.
        inclusive: enforce an inclusive hierarchy — an LLC eviction
            back-invalidates the victim block in its owner's L1 (only
            meaningful with ``l1_geometry``).
        telemetry: a :class:`~repro.telemetry.TelemetryRecorder` to bind,
            giving it per-interval instruction/IPC counters and per-core
            finish events on top of the cache's interval samples.
        record_trace: collect the post-L1 access stream into
            ``self.recorded_trace`` (a :class:`RecordedTrace`) while
            running — the input of the offline Belady baseline
            (:mod:`repro.check.belady`).

    The system registers itself as the scheme's performance-counter
    provider when the scheme exposes a ``perf`` attribute (PriSM does).
    """

    def __init__(
        self,
        cache: SharedCache,
        profiles: Sequence[BenchmarkProfile],
        seed: int = 0,
        scale: float = 1.0,
        llc_hit_latency: float = 8.0,
        memory: Optional[MemoryModel] = None,
        l1_geometry=None,
        l1_hit_latency: float = 2.0,
        inclusive: bool = False,
        telemetry=None,
        record_trace: bool = False,
    ) -> None:
        # Under a cluster map the cache's num_cores is the ACCOUNTING width
        # (clusters); the machine still has one profile per real core.
        real_cores = getattr(cache, "real_num_cores", cache.num_cores)
        if len(profiles) != real_cores:
            raise ValueError(
                f"cache has {real_cores} cores but {len(profiles)} profiles given"
            )
        self.cache = cache
        self.num_cores = real_cores
        self.profiles = list(profiles)
        self.memory = memory if memory is not None else MemoryModel()
        self.cores = [
            CoreTimingModel(i, p, llc_hit_latency=llc_hit_latency)
            for i, p in enumerate(profiles)
        ]
        self.streams = [
            p.stream(seed=derive_seed(seed, "stream", i, p.name), scale=scale)
            for i, p in enumerate(profiles)
        ]
        if l1_geometry is not None:
            from repro.cpu.l1 import L1Cache

            self.l1s = [L1Cache(l1_geometry) for _ in range(real_cores)]
        else:
            self.l1s = None
        self.l1_hit_latency = l1_hit_latency
        self.inclusive = inclusive and self.l1s is not None
        if record_trace:
            self.recorded_trace = RecordedTrace(num_cores=real_cores)
            self._pending_l1_gap = [0] * real_cores
            self._pending_l1_lat = [0.0] * real_cores
        else:
            self.recorded_trace = None
        # Per core: the drawn, not yet consumed rest of its last chunk.
        self._drawn = [iter(()) for _ in range(real_cores)]
        self._snap_cycles = [0.0] * real_cores
        self._snap_instructions = [0] * real_cores
        self._snap_stall = [0.0] * real_cores
        self.total_accesses = 0
        cache.add_monitor(_IntervalListener(self))
        if cache.scheme is not None and hasattr(cache.scheme, "perf"):
            cache.scheme.perf = self
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.bind(self)

    # -- performance-counter provider (interval granularity) ----------------

    def roll_interval_snapshots(self) -> None:
        """Advance the interval baselines (called at each interval end)."""
        for i, core in enumerate(self.cores):
            self._snap_cycles[i] = core.cycles
            self._snap_instructions[i] = core.instructions
            self._snap_stall[i] = core.llc_stall_cycles

    def cpi(self, core: int) -> float:
        """CPI of ``core`` over the current interval (0 if it retired nothing)."""
        instructions = self.cores[core].instructions - self._snap_instructions[core]
        if instructions <= 0:
            return 0.0
        return (self.cores[core].cycles - self._snap_cycles[core]) / instructions

    def ipc(self, core: int) -> float:
        """IPC of ``core`` over the current interval."""
        cycles = self.cores[core].cycles - self._snap_cycles[core]
        if cycles <= 0.0:
            return 0.0
        return (self.cores[core].instructions - self._snap_instructions[core]) / cycles

    def interval_instructions(self, core: int) -> int:
        """Instructions ``core`` retired in the current interval."""
        return self.cores[core].instructions - self._snap_instructions[core]

    def llc_stall_cpi(self, core: int) -> float:
        """LLC-miss stall CPI of ``core`` over the current interval."""
        instructions = self.cores[core].instructions - self._snap_instructions[core]
        if instructions <= 0:
            return 0.0
        return (self.cores[core].llc_stall_cycles - self._snap_stall[core]) / instructions

    # -- simulation -----------------------------------------------------------

    def run(self, instructions_per_core: int, max_accesses: Optional[int] = None) -> SystemResult:
        """Run until every core retires ``instructions_per_core``.

        Args:
            instructions_per_core: the per-program instruction target.
            max_accesses: safety valve; raises if the target is not reached
                within this many total accesses (default: no limit).

        Returns:
            A :class:`SystemResult` with per-core reported figures.
        """
        if instructions_per_core < 1:
            raise ValueError(
                f"instructions_per_core must be >= 1, got {instructions_per_core}"
            )
        cache = self.cache
        access = cache.access
        miss_latency = self.memory.miss_latency
        recorder = self.telemetry
        trace = self.recorded_trace
        streams = self.streams
        drawn = self._drawn
        l1s = self.l1s
        l1_hit_latency = self.l1_hit_latency
        inclusive = self.inclusive
        heapreplace = heapq.heapreplace
        run_start = perf_counter()
        start_accesses = self.total_accesses
        occupancy_at_finish = [0.0] * self.num_cores
        unfinished = sum(1 for c in self.cores if not c.finished)
        # (cycle, core id) orders the heap; core ids are unique, so the
        # core and its drawn accesses riding along are never compared.
        heap = [
            (core.cycles, core.core_id, core, drawn[core.core_id])
            for core in self.cores
            if not core.finished
        ]
        heapq.heapify(heap)

        while unfinished > 0:
            now, cid, core, accesses = heap[0]
            pair = next(accesses, None)
            if pair is None:
                gaps, addrs = streams[cid].take(_CHUNK)
                offset = cid * _CORE_ADDRESS_STRIDE
                accesses = zip(gaps, [addr + offset for addr in addrs])
                drawn[cid] = accesses
                pair = next(accesses)
            gap, addr = pair
            if l1s is not None and l1s[cid].access(addr):
                core.advance_local(gap, l1_hit_latency)
                if trace is not None:
                    self._pending_l1_gap[cid] += gap
                    self._pending_l1_lat[cid] += l1_hit_latency
            else:
                if trace is not None:
                    trace.cores.append(cid)
                    trace.addrs.append(addr)
                    trace.gaps.append(gap)
                    trace.l1_gaps.append(self._pending_l1_gap[cid])
                    trace.l1_lats.append(self._pending_l1_lat[cid])
                    self._pending_l1_gap[cid] = 0
                    self._pending_l1_lat[cid] = 0.0
                result = access(cid, addr)
                self.total_accesses += 1
                if inclusive and result.evicted_core >= 0:
                    l1s[result.evicted_core].invalidate(result.evicted_addr)
                if result.hit:
                    core.advance(gap, True)
                else:
                    issue_time = now + gap * core.profile.cpi_base
                    core.advance(gap, False, miss_latency(addr, issue_time))
            if not core.finished and core.instructions >= instructions_per_core:
                core.mark_finished()
                occupancy_at_finish[cid] = (
                    cache.occupancy[cache.group_of(cid)]
                    / cache.geometry.num_blocks
                )
                if recorder is not None:
                    recorder.record_finish(
                        cid,
                        core.finish_instructions,
                        core.finish_cycles,
                        occupancy_at_finish[cid],
                    )
                unfinished -= 1
                if unfinished == 0:
                    break
            heapreplace(heap, (core.cycles, cid, core, accesses))
            if max_accesses is not None and self.total_accesses > max_accesses:
                raise RuntimeError(
                    f"exceeded {max_accesses} accesses with {unfinished} cores unfinished"
                )

        if recorder is not None:
            recorder.finalize(
                perf_counter() - run_start, self.total_accesses - start_accesses
            )
        return self._collect(occupancy_at_finish)

    def _collect(self, occupancy_at_finish: List[float]) -> SystemResult:
        cores = []
        for i, core in enumerate(self.cores):
            instructions = core.finish_instructions if core.finished else core.instructions
            cycles = core.finish_cycles if core.finished else core.cycles
            stall_cpi = core.llc_stall_cycles / instructions if instructions else 0.0
            cores.append(
                CoreResult(
                    name=self.profiles[i].name,
                    ipc=core.ipc(),
                    cpi=core.cpi(),
                    llc_stall_cpi=stall_cpi,
                    instructions=instructions,
                    cycles=cycles,
                    # Counters are accounting-indexed: under a cluster map
                    # a core reports its cluster's totals.
                    hits=self.cache.stats.hits[self.cache.group_of(i)],
                    misses=self.cache.stats.misses[self.cache.group_of(i)],
                    occupancy_at_finish=occupancy_at_finish[i],
                )
            )
        scheme = self.cache.scheme
        return SystemResult(
            cores=cores,
            scheme_name=getattr(scheme, "name_with_policy", None)
            or getattr(scheme, "name", "unmanaged"),
            total_accesses=self.total_accesses,
            intervals=self.cache.intervals_completed,
        )


def run_standalone(
    profile: BenchmarkProfile,
    geometry: CacheGeometry,
    instructions: int,
    policy_factory: Callable[[], ReplacementPolicy] = LRUPolicy,
    num_controllers: int = 1,
    seed: int = 0,
    scale: float = 1.0,
    llc_hit_latency: float = 8.0,
    memory: Optional[MemoryModel] = None,
    l1_geometry: Optional[CacheGeometry] = None,
    l1_hit_latency: float = 2.0,
    inclusive: bool = False,
) -> CoreResult:
    """Run one program alone on the whole cache (the ``IPC^SP`` runs).

    The stand-alone machine keeps the shared configuration's memory
    controllers — and, when the shared machine models a hierarchy, its
    private-L1 and DRAM-bank configuration (pass ``memory=`` to override
    the flat default) — matching how the paper obtains per-program
    baselines.
    """
    cache = SharedCache(geometry, num_cores=1, policy=policy_factory())
    system = MultiCoreSystem(
        cache,
        [profile],
        seed=seed,
        scale=scale,
        llc_hit_latency=llc_hit_latency,
        memory=memory if memory is not None else MemoryModel(num_controllers=num_controllers),
        l1_geometry=l1_geometry,
        l1_hit_latency=l1_hit_latency,
        inclusive=inclusive,
    )
    return system.run(instructions).cores[0]
