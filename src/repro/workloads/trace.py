"""Access-trace record and replay.

The live simulator pulls accesses straight from generators, but a file
trace format matters for two workflows the paper's methodology implies:
capturing a stream once and replaying it under many schemes (identical
input across comparisons), and importing external traces. Traces are
stored as compressed ``.npz`` with two parallel ``int64`` arrays (``gaps``
in instructions, ``addrs`` as block addresses) plus the generating
profile's name for provenance.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Tuple, Union

import numpy as np

from repro.workloads.benchmark import AccessStream, BenchmarkProfile

__all__ = ["Trace", "record_trace"]


class Trace:
    """An in-memory access trace (gaps + block addresses).

    Supports the same ``take``/``next_access`` protocol as
    :class:`~repro.workloads.benchmark.AccessStream` (wrapping around at the
    end, like the re-executed programs of the paper's methodology), so a
    trace can stand in for a live stream anywhere in the simulator.
    """

    def __init__(self, gaps: np.ndarray, addrs: np.ndarray, source: str = "") -> None:
        gaps = np.asarray(gaps, dtype=np.int64)
        addrs = np.asarray(addrs, dtype=np.int64)
        if gaps.shape != addrs.shape or gaps.ndim != 1:
            raise ValueError(
                f"gaps {gaps.shape} and addrs {addrs.shape} must be equal-length 1-D arrays"
            )
        if len(gaps) == 0:
            raise ValueError("a trace needs at least one access")
        if (gaps < 1).any():
            raise ValueError("every gap must be >= 1 instruction")
        if (addrs < 0).any():
            raise ValueError("block addresses must be non-negative")
        self.gaps = gaps
        self.addrs = addrs
        self.source = source
        self._pos = 0
        self.generated = 0

    def __len__(self) -> int:
        return len(self.gaps)

    def take(self, n: int) -> Tuple[List[int], List[int]]:
        """Next ``n`` accesses as ``(gaps, addrs)``, wrapping at the end."""
        if n < 0:
            raise ValueError(f"count must be >= 0, got {n}")
        length = len(self.gaps)
        gaps: List[int] = []
        addrs: List[int] = []
        i = self._pos
        remaining = n
        while remaining:
            stop = min(i + remaining, length)
            gaps += self.gaps[i:stop].tolist()
            addrs += self.addrs[i:stop].tolist()
            remaining -= stop - i
            i = stop % length
        self._pos = i
        self.generated += n
        return gaps, addrs

    def next_access(self) -> Tuple[int, int]:
        """Next (gap, address), wrapping at the end of the trace."""
        gaps, addrs = self.take(1)
        return gaps[0], addrs[0]

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for gap, addr in zip(self.gaps, self.addrs):
            yield int(gap), int(addr)

    def rewind(self) -> None:
        """Reset the replay cursor to the beginning."""
        self._pos = 0

    # -- persistence --------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as compressed ``.npz``."""
        np.savez_compressed(
            Path(path), gaps=self.gaps, addrs=self.addrs, source=np.str_(self.source)
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            return cls(data["gaps"], data["addrs"], source=str(data["source"]))


def record_trace(
    profile: BenchmarkProfile, length: int, seed: int = 0, scale: float = 1.0
) -> Trace:
    """Capture ``length`` accesses of a profile's stream into a trace."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    gaps, addrs = AccessStream(profile, seed=seed, scale=scale).take(length)
    return Trace(gaps, addrs, source=profile.name)
