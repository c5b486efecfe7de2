"""One engine-neutral snapshot of a shared cache's resident contents.

The classic :class:`~repro.cache.cache.SharedCache`, the numpy
:class:`~repro.cache.vector.VectorCache` and the reference oracle
(:class:`~repro.check.reference.ReferenceCache`) each return an
:class:`EngineState` from ``state()``. The runtime invariant checker
(:mod:`repro.check.invariants`) audits that view and the differential
harness (:mod:`repro.check.differential`) compares it across engines, so
every audit has one implementation whichever engine actually runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["EngineState"]


@dataclass(frozen=True, eq=False)
class EngineState:
    """Every resident block as one row, sorted by ``(set_index, tag)``.

    Attributes:
        set_index, tag, owner: ``int64`` columns; ``owner`` is the
            accounting owner the block is charged to.
        filler: ``int64`` column of the real core that filled each block,
            or ``None`` where the engine keeps no fillers (no ``core_map``,
            or the vector engine, which translates core ids at entry).
        sharers: ``uint64`` sharer bitmasks (bit ``i`` = owner ``i``, so at
            most 64 owners), or ``None`` when sharers are not tracked.
        occupancy: the engine's own per-owner counters (``C_i``).
        num_cores: number of accounting owners.
        real_num_cores: number of real cores issuing accesses.
        core_map: the cluster map in force, or ``None``.
    """

    set_index: np.ndarray
    tag: np.ndarray
    owner: np.ndarray
    filler: Optional[np.ndarray]
    sharers: Optional[np.ndarray]
    occupancy: List[int]
    num_cores: int
    real_num_cores: int
    core_map: Optional[List[int]]

    @classmethod
    def of(cls, cache, set_index, tag, owner, filler=None, sharers=None):
        """Snapshot ``cache`` from its block columns, given in any row order."""
        columns = [np.asarray(set_index, dtype=np.int64),
                   np.asarray(tag, dtype=np.int64),
                   np.asarray(owner, dtype=np.int64),
                   None if filler is None else np.asarray(filler, dtype=np.int64),
                   None if sharers is None else np.asarray(sharers, dtype=np.uint64)]
        order = np.lexsort((columns[1], columns[0]))
        columns = [None if column is None else column[order] for column in columns]
        return cls(*columns, list(cache.occupancy), cache.num_cores,
                   cache.real_num_cores, cache.core_map)

    def recount(self) -> List[int]:
        """Per-owner block count, recounted from the rows."""
        return np.bincount(self.owner, minlength=self.num_cores).tolist()

    def charges(self) -> Optional[List[int]]:
        """Per-real-core block count from the fillers (``None`` without them)."""
        if self.filler is None:
            return None
        return np.bincount(self.filler, minlength=self.real_num_cores).tolist()

    def rows(self) -> List[tuple]:
        """Plain-int ``(set, tag, owner[, sharers])`` rows, comparable across engines."""
        columns = [self.set_index, self.tag, self.owner]
        if self.sharers is not None:
            columns.append(self.sharers)
        return list(zip(*(column.tolist() for column in columns)))
