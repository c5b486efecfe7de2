"""The zone access model.

A benchmark's LLC-visible reference stream is modelled as a weighted
mixture of *zones*:

- :class:`UniformZone` — uniform random references within a footprint of
  ``size`` blocks. Under LRU a uniform zone yields a miss rate that falls
  roughly linearly as the zone's resident fraction grows, reaching ~0 when
  the whole footprint fits: a linear utility segment with a knee at
  ``size``.
- :class:`ScanZone` — a sequential wrap-around walk over ``size`` blocks.
  Under LRU a scan hits only when the entire footprint is resident: a
  utility *cliff* (and, when ``size`` exceeds any plausible allocation, a
  pure streamer that LRU cannot help).

Mixing a few zones of different sizes produces the piecewise-linear,
knee-and-cliff utility curves that utility-based allocation (UCP's
lookahead, PriSM-H's potential gains) was designed to exploit — which is
why this substitution preserves the paper's comparisons (DESIGN.md §2).

Addresses are *block* addresses local to the benchmark; the system offsets
them per core so programs never share cache lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.util.rng import make_rng

__all__ = ["UniformZone", "ScanZone", "ZoneModel"]


@dataclass(frozen=True)
class UniformZone:
    """Uniform random references over ``size`` blocks, chosen with ``weight``."""

    weight: float
    size: int

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"zone weight must be >= 0, got {self.weight}")
        if self.size < 1:
            raise ValueError(f"zone size must be >= 1, got {self.size}")


@dataclass(frozen=True)
class ScanZone:
    """Sequential wrap-around walk over ``size`` blocks, chosen with ``weight``."""

    weight: float
    size: int

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"zone weight must be >= 0, got {self.weight}")
        if self.size < 1:
            raise ValueError(f"zone size must be >= 1, got {self.size}")


class ZoneModel:
    """Seeded address generator over a zone mixture.

    Args:
        zones: the mixture; weights are normalised internally.
        seed: generator seed (streams are bit-reproducible per seed).
        scale: multiply every zone footprint by this factor (used to keep
            working sets proportionate when the cache is scaled).
    """

    def __init__(self, zones: Sequence, seed: int = 0, scale: float = 1.0) -> None:
        if not zones:
            raise ValueError("a zone model needs at least one zone")
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        total_weight = sum(z.weight for z in zones)
        if total_weight <= 0:
            raise ValueError("zone weights sum to zero")
        self.zones = list(zones)
        self._cumweights: List[float] = []
        acc = 0.0
        for zone in zones:
            acc += zone.weight / total_weight
            self._cumweights.append(acc)
        self._cumweights[-1] = 1.0
        self._sizes = [max(1, int(round(z.size * scale))) for z in zones]
        # Zones occupy disjoint address ranges, laid out back to back.
        self._bases: List[int] = []
        base = 0
        for size in self._sizes:
            self._bases.append(base)
            base += size
        self.footprint = base
        self._scan_pos = [0] * len(zones)
        # Draw width per zone: 0 marks a scan, else the bit count of the
        # uniform zone's rejection-sampled offset.
        self._bits = [
            0 if isinstance(z, ScanZone) else size.bit_length()
            for z, size in zip(zones, self._sizes)
        ]
        self._rng = make_rng(seed, "zones")

    def take(self, n: int) -> List[int]:
        """Draw the next ``n`` block addresses.

        The one draw implementation: every address costs one ``random()``
        (the zone choice) and, in a uniform zone, one uniform offset below
        the zone size. The offset is CPython's
        ``_randbelow_with_getrandbits`` inlined —
        ``getrandbits(size.bit_length())`` redrawn while ``>= size`` — so
        the addresses equal the per-call ``random.Random`` sequence bit for
        bit, whatever the chunking.
        """
        if n < 0:
            raise ValueError(f"count must be >= 0, got {n}")
        random = self._rng.random
        getrandbits = self._rng.getrandbits
        cumweights = self._cumweights
        bases = self._bases
        sizes = self._sizes
        bits = self._bits
        scan_pos = self._scan_pos
        out: List[int] = []
        append = out.append
        for _ in range(n):
            r = random()
            index = 0
            while cumweights[index] < r:
                index += 1
            size = sizes[index]
            k = bits[index]
            if k:
                offset = getrandbits(k)
                while offset >= size:
                    offset = getrandbits(k)
            else:
                offset = scan_pos[index]
                scan_pos[index] = (offset + 1) % size
            append(bases[index] + offset)
        return out

    def addresses(self, count: int) -> List[int]:
        """Generate ``count`` addresses (convenience for tests/traces)."""
        return self.take(count)

    def zone_ranges(self) -> List[Tuple[int, int]]:
        """Per-zone (base, size) address ranges, for inspection."""
        return list(zip(self._bases, self._sizes))
