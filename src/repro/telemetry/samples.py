"""Typed telemetry records and the per-run container.

PriSM's contribution lives in per-interval quantities — occupancies
``C_i``, miss fractions ``M_i``, eviction probabilities ``E_i``, targets
``T_i`` (Eq. 1) — so the telemetry subsystem records exactly those, one
:class:`IntervalSample` per core per allocation interval, plus one
:class:`FinishSample` per core at its instruction-target finish line (the
moment Fig. 4 reports occupancy for).

Everything here is a plain dataclass of primitives: samples pickle
cleanly through :mod:`repro.experiments.parallel` workers, and equal
simulations produce bit-equal samples, so a ``--jobs`` trace can be
byte-identical to the serial one. The single deliberately *non*-
deterministic record, :class:`RunTiming` (wall-clock profiling), is
excluded from equality comparison and from serialized traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

__all__ = [
    "IntervalSample",
    "FinishSample",
    "RunTiming",
    "RunTelemetry",
    "TRACE_FIELDS",
]

#: Column order for tabular (CSV) traces; the union of interval-row and
#: finish-row fields. ``record`` discriminates the row kind.
TRACE_FIELDS = (
    "record",
    "interval",
    "core",
    "benchmark",
    "occupancy",
    "miss_fraction",
    "eviction_probability",
    "target",
    "hits",
    "misses",
    "evictions",
    "instructions",
    "ipc",
    "cycles",
)


@dataclass(frozen=True)
class IntervalSample:
    """One core's view of one allocation interval, taken at the boundary.

    Captured after the scheme has reallocated but before interval counters
    reset, so ``eviction_probability``/``target`` are the values installed
    *for the next interval* (exactly what the scheme just computed from
    this interval's ``occupancy``/``miss_fraction``).
    """

    interval: int  #: 0-based interval index
    core: int
    benchmark: str
    occupancy: float  #: ``C_i``: fraction of cache blocks owned at the boundary
    miss_fraction: float  #: ``M_i``: share of this interval's misses
    eviction_probability: Optional[float]  #: ``E_i`` (None when the scheme has none)
    target: Optional[float]  #: ``T_i`` occupancy target (None when the scheme has none)
    hits: int  #: interval hits
    misses: int  #: interval misses
    evictions: int  #: interval evictions suffered
    instructions: int  #: instructions retired this interval (0 without a timing model)
    ipc: float  #: interval IPC (0.0 without a timing model)

    def to_row(self) -> Dict:
        """Flat dict for trace sinks (field order matches TRACE_FIELDS)."""
        return {
            "record": "interval",
            "interval": self.interval,
            "core": self.core,
            "benchmark": self.benchmark,
            "occupancy": self.occupancy,
            "miss_fraction": self.miss_fraction,
            "eviction_probability": self.eviction_probability,
            "target": self.target,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "instructions": self.instructions,
            "ipc": self.ipc,
        }


@dataclass(frozen=True)
class FinishSample:
    """A core's state the moment it retired its instruction target.

    This is the sampling point the paper's Fig. 4 reports: programs finish
    at different times, so these occupancies need not sum to 1.
    """

    core: int
    benchmark: str
    instructions: int
    cycles: float
    occupancy: float  #: fraction of cache blocks owned at the finish line

    def to_row(self) -> Dict:
        return {
            "record": "finish",
            "core": self.core,
            "benchmark": self.benchmark,
            "occupancy": self.occupancy,
            "instructions": self.instructions,
            "cycles": self.cycles,
        }


@dataclass
class RunTiming:
    """Run-level wall-clock profiling counters (non-deterministic).

    Excluded from trace files and from :class:`RunTelemetry` equality:
    two identical simulations produce identical samples but different
    timings, and the byte-identical ``--jobs`` guarantee must hold.
    """

    wall_seconds: float = 0.0  #: total time inside ``MultiCoreSystem.run``
    alloc_seconds: float = 0.0  #: time inside ``scheme.end_interval`` calls
    accesses: int = 0  #: shared-cache accesses issued during the run

    @property
    def access_seconds(self) -> float:
        """Time on the access path (everything outside allocation)."""
        return max(0.0, self.wall_seconds - self.alloc_seconds)

    @property
    def accesses_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.accesses / self.wall_seconds

    @property
    def alloc_share(self) -> float:
        """Fraction of run time spent in the allocation policy."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.alloc_seconds / self.wall_seconds

    def describe(self) -> str:
        return (
            f"{self.accesses} accesses in {self.wall_seconds:.2f}s "
            f"({self.accesses_per_sec:,.0f} acc/s; "
            f"{self.alloc_share:.1%} in allocation policy)"
        )


@dataclass
class RunTelemetry:
    """Everything one run's recorder captured.

    Equality compares the deterministic payload only (``samples`` and
    ``finishes``); ``timing`` is profiling and varies run to run.
    """

    num_cores: int
    benchmarks: List[str]
    samples: List[IntervalSample] = field(default_factory=list)
    finishes: List[FinishSample] = field(default_factory=list)
    timing: RunTiming = field(default_factory=RunTiming, compare=False)

    # -- views --------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Allocation intervals recorded (= scheme recomputations)."""
        if not self.samples:
            return 0
        return self.samples[-1].interval + 1

    def per_core(self, core: int) -> List[IntervalSample]:
        """This core's interval samples, in interval order."""
        return [s for s in self.samples if s.core == core]

    def series(self, field_name: str, core: int) -> List:
        """One field of one core's samples as a list (plotting helper)."""
        return [getattr(s, field_name) for s in self.per_core(core)]

    def occupancy_at_finish(self, core: int) -> float:
        """The Fig. 4 number: occupancy fraction when ``core`` finished."""
        for sample in self.finishes:
            if sample.core == core:
                return sample.occupancy
        return 0.0

    def probability_stats(self) -> List[Dict]:
        """Per-core mean/std of ``E_i`` across intervals (the Fig. 11 view).

        Accumulates in interval order with the same running-sum formula the
        scheme's own reporting uses, so the numbers are bit-equal to
        ``PrismScheme.probability_stats()`` for the same run.
        """
        n = self.num_intervals
        sums = [0.0] * self.num_cores
        sumsqs = [0.0] * self.num_cores
        for sample in self.samples:
            p = sample.eviction_probability
            if p is None:
                continue
            sums[sample.core] += p
            sumsqs[sample.core] += p * p
        stats = []
        for core in range(self.num_cores):
            if n == 0:
                stats.append({"mean": 0.0, "std": 0.0, "samples": 0})
                continue
            mean = sums[core] / n
            variance = max(0.0, sumsqs[core] / n - mean * mean)
            stats.append({"mean": mean, "std": math.sqrt(variance), "samples": n})
        return stats

    # -- serialization -----------------------------------------------------

    def rows(self) -> Iterator[Dict]:
        """Deterministic trace rows: interval samples, then finish samples.

        This is the canonical trace order — the same order a streaming sink
        observes (finish rows are flushed at run end), so a post-hoc write
        of a worker-returned ``RunTelemetry`` is byte-identical to a live
        serial recording.
        """
        for sample in self.samples:
            yield sample.to_row()
        for sample in self.finishes:
            yield sample.to_row()

    def write(self, path: Union[str, Path]) -> Path:
        """Write the trace, picking the format from the extension.

        ``.csv`` writes CSV; anything else (``.jsonl`` recommended) writes
        JSON lines. The rows go through the same file sink a live
        recording streams into (:func:`~repro.telemetry.sinks.open_sink`).
        """
        from repro.telemetry.sinks import open_sink

        sink = open_sink(path)
        try:
            for row in self.rows():
                sink.write_row(row)
        finally:
            sink.close()
        return sink.path
