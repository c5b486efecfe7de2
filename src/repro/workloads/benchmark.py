"""Benchmark profiles and their access streams.

A :class:`BenchmarkProfile` bundles the zone mixture (what the program
references) with the timing parameters the CPU model needs (how often it
references and how much latency it can hide):

- ``mem_ratio`` — LLC-visible accesses per instruction (the stream is the
  post-L1 reference stream; L1 filtering is folded into the profile, see
  DESIGN.md §2),
- ``mlp`` — memory-level parallelism: how many outstanding misses overlap,
  dividing the exposed miss penalty,
- ``cpi_base`` — CPI of the core when every access hits.

:class:`AccessStream` is the per-run instantiation: a seeded source of
``(gap_instructions, block_address)`` pairs, drawn in bulk by ``take``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.util.rng import make_rng
from repro.util.validate import check_positive
from repro.workloads.zones import ZoneModel

__all__ = ["BenchmarkProfile", "AccessStream"]


@dataclass(frozen=True)
class BenchmarkProfile:
    """A synthetic SPEC-like benchmark.

    Attributes:
        name: catalog name (e.g. ``"179.art"``).
        zones: zone mixture defining the reference stream.
        mem_ratio: LLC accesses per instruction.
        mlp: memory-level parallelism (>= 1).
        cpi_base: base CPI with an ideal memory system.
        category: qualitative class — ``friendly``, ``streaming``,
            ``insensitive``, ``moderate`` or ``thrashing``.
    """

    name: str
    zones: Sequence = field(default_factory=tuple)
    mem_ratio: float = 0.02
    mlp: float = 1.5
    cpi_base: float = 0.5
    category: str = "moderate"

    def __post_init__(self) -> None:
        check_positive("mem_ratio", self.mem_ratio)
        if self.mem_ratio > 1.0:
            raise ValueError(f"mem_ratio {self.mem_ratio} exceeds one access per instruction")
        if self.mlp < 1.0:
            raise ValueError(f"mlp must be >= 1, got {self.mlp}")
        check_positive("cpi_base", self.cpi_base)
        if not self.zones:
            raise ValueError(f"profile {self.name!r} has no zones")

    @property
    def mean_gap(self) -> float:
        """Mean instructions between consecutive LLC accesses."""
        return 1.0 / self.mem_ratio

    def stream(self, seed: int = 0, scale: float = 1.0) -> "AccessStream":
        """Instantiate a seeded access stream for one run."""
        return AccessStream(self, seed=seed, scale=scale)

    def footprint(self, scale: float = 1.0) -> int:
        """Total footprint in blocks at the given scale."""
        return ZoneModel(self.zones, seed=0, scale=scale).footprint


class AccessStream:
    """Seeded source of ``(gap_instructions, block_address)`` pairs.

    Gaps are drawn uniformly in ``[0.5, 1.5] * mean_gap`` (at least one
    instruction), so instruction counts accumulate with mild jitter around
    the profile's memory intensity.

    :meth:`take` draws accesses in bulk. Gaps and addresses come from two
    independent seeded generators and never depend on what the cache does
    with them, so drawing ahead changes when a draw happens, not what it
    returns: any chunking yields the same sequence.
    """

    def __init__(self, profile: BenchmarkProfile, seed: int = 0, scale: float = 1.0) -> None:
        self.profile = profile
        self.zone_model = ZoneModel(profile.zones, seed=seed, scale=scale)
        self._rng = make_rng(seed, "gaps", profile.name)
        self._gap_lo = max(1, int(profile.mean_gap * 0.5))
        self._gap_hi = max(self._gap_lo, int(profile.mean_gap * 1.5))
        #: Accesses drawn so far (ahead of consumption when read in chunks).
        self.generated = 0

    def take(self, n: int) -> Tuple[List[int], List[int]]:
        """Draw the next ``n`` accesses as ``(gaps, addrs)`` lists.

        Each gap is uniform in ``[lo, hi]``: ``lo`` plus CPython's
        ``_randbelow_with_getrandbits(width)`` inlined, that is
        ``getrandbits(width.bit_length())`` redrawn while ``>= width``, the
        draw the per-call integer API makes.
        """
        addrs = self.zone_model.take(n)  # validates n
        getrandbits = self._rng.getrandbits
        lo = self._gap_lo
        width = self._gap_hi - lo + 1
        k = width.bit_length()
        gaps: List[int] = []
        append = gaps.append
        for _ in range(n):
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            append(lo + r)
        self.generated += n
        return gaps, addrs

    def next_access(self) -> Tuple[int, int]:
        """The next (gap, address) pair."""
        gaps, addrs = self.take(1)
        return gaps[0], addrs[0]

    def __iter__(self):
        while True:
            yield self.next_access()
