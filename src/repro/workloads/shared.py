"""Shared-data scale-out traces (the cluster-granular PriSM family).

PriSM's bookkeeping is per accounting owner: eviction probabilities,
allocation targets and occupancy counters all scale with the number of
managed entities. At 16-64 cores, per-core management both costs more
and starves the allocator of signal (each core's interval miss count
shrinks as the core count grows). The scale-out answer — implemented in
:mod:`repro.clustering` — is to group cores into clusters of similar
miss behaviour and run the machinery at cluster granularity.

This family generates the workloads that regime needs: many homogeneous
cores, each splitting its accesses between a private Zipfian pool and a
pool shared with its *sharing group* (``degree`` adjacent cores). Shared
blocks are touched by several cores, which is exactly what forces the
accounting-owner model: a block's occupancy charge goes to the owner
that filled it (translated through the cluster map when one is in
force), while the optional sharer bitmask records everyone who hit it.

Same load-bearing constraints as :mod:`repro.workloads.tenants`:

- **Lazy and bounded** — chunked numpy generation, nothing proportional
  to the trace length in memory.
- **Deterministic and chunk-invariant** — per-core draws come from
  per-core :func:`~repro.util.rng.derive_seed`-labelled PCG64 streams
  consumed strictly in that core's request order (the per-request
  ``(select, key)`` uniform pair is drawn as one sequential block), so
  the concatenated trace is independent of the chunk size and the
  classic and vector engines replay byte-identical streams.
- **Addressable** — core ``c``'s private key ``k`` maps to
  ``c * 2**36 + permute(k)``; sharing group ``g``'s key maps to
  ``(num_cores + g) * 2**36 + permute(k)``, a disjoint address region
  per group so shared blocks are genuinely the same blocks across the
  group's cores.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.util.rng import derive_seed
from repro.workloads.registry import TraceSource, register_family
from repro.workloads.tenants import (
    DEFAULT_CHUNK,
    TENANT_ADDRESS_STRIDE,
    _coprime_multiplier,
    _power_law_keys,
)

__all__ = [
    "SharedSpec",
    "SharedWorkload",
    "SHARED_PRESETS",
    "get_shared_workload",
    "shared_presets",
]

#: Bump when trace generation changes (part of the workload identity).
SHARED_FAMILY_VERSION = 1


@dataclass(frozen=True)
class SharedSpec:
    """One homogeneous shared-data workload.

    Attributes:
        name: workload label.
        num_cores: number of cores issuing requests.
        keys: per-core private pool size, in distinct keys (= blocks).
        skew: Zipf exponent of the private pools.
        sharing: fraction of each core's accesses aimed at its group's
            shared pool.
        degree: cores per sharing group (adjacent cores share a pool;
            ``degree == num_cores`` means one global pool).
        shared_keys: per-group shared pool size.
        shared_skew: Zipf exponent of the shared pools.
    """

    name: str
    num_cores: int
    keys: int = 1 << 17
    skew: float = 0.9
    sharing: float = 0.3
    degree: int = 4
    shared_keys: int = 1 << 15
    shared_skew: float = 0.8

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if not 1 <= self.degree <= self.num_cores:
            raise ValueError(
                f"degree must be in [1, {self.num_cores}], got {self.degree}"
            )
        if not 0.0 <= self.sharing <= 1.0:
            raise ValueError(f"sharing must be in [0, 1], got {self.sharing}")
        if self.keys < 1 or self.shared_keys < 1:
            raise ValueError("keys and shared_keys must be >= 1")
        if self.skew < 0 or self.shared_skew < 0:
            raise ValueError("skew exponents must be >= 0")

    @property
    def num_groups(self) -> int:
        return (self.num_cores + self.degree - 1) // self.degree


class _CoreStream:
    """One core's draw state, consumed strictly in its request order."""

    def __init__(self, spec: SharedSpec, seed: int) -> None:
        self.spec = spec
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.private_mult = _coprime_multiplier(spec.keys)
        self.shared_mult = _coprime_multiplier(spec.shared_keys)

    def draw(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """The core's next ``count`` requests as ``(is_shared, rank)``.

        The per-request ``(select, key)`` uniform pair is drawn as one
        sequential block of ``2 * count`` values, so splitting a run of
        requests across chunks consumes the identical PCG64 prefix.
        """
        spec = self.spec
        u = self.rng.random(2 * count).reshape(count, 2)
        shared = u[:, 0] < spec.sharing
        ranks = np.empty(count, dtype=np.int64)
        if shared.any():
            ranks[shared] = (
                _power_law_keys(u[shared, 1], spec.shared_keys, spec.shared_skew)
                * self.shared_mult
            ) % spec.shared_keys
        private = ~shared
        if private.any():
            ranks[private] = (
                _power_law_keys(u[private, 1], spec.keys, spec.skew)
                * self.private_mult
            ) % spec.keys
        return shared, ranks


class SharedWorkload(TraceSource):
    """A shared-data workload: N cores, private pools plus group pools."""

    kind = "shared"

    def __init__(self, spec: SharedSpec) -> None:
        self.spec = spec

    @property
    def label(self) -> str:
        return f"shared:{self.spec.name}"

    @property
    def num_cores(self) -> int:
        return self.spec.num_cores

    @property
    def core_names(self) -> List[str]:
        return [f"core{i}" for i in range(self.spec.num_cores)]

    def identity(self) -> dict:
        return {
            "kind": self.kind,
            "version": SHARED_FAMILY_VERSION,
            "spec": asdict(self.spec),
        }

    def __repr__(self) -> str:
        return (
            f"SharedWorkload({self.spec.name!r}, {self.spec.num_cores} cores, "
            f"degree {self.spec.degree}, sharing {self.spec.sharing})"
        )

    # -- trace generation ----------------------------------------------------

    def solo_requests(self, index: int, total_requests: int) -> int:
        """Per-core request budget (cores are homogeneous: equal shares)."""
        return max(1, round(total_requests / self.spec.num_cores))

    def group_of(self, core: int) -> int:
        """The sharing group a core belongs to."""
        return core // self.spec.degree

    def _stream(self, core: int, seed: int) -> _CoreStream:
        return _CoreStream(
            self.spec, derive_seed(seed, "shared", self.spec.name, str(core))
        )

    def _addrs(self, cores: np.ndarray, shared: np.ndarray, ranks: np.ndarray):
        """Map ``(core, is_shared, rank)`` to block addresses."""
        spec = self.spec
        groups = cores // spec.degree
        region = np.where(shared, spec.num_cores + groups, cores)
        return region * TENANT_ADDRESS_STRIDE + ranks

    def chunks(
        self, total_requests: int, seed: int, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield the interleaved shared trace as ``(cores, addrs)`` chunks."""
        interleave = np.random.Generator(
            np.random.PCG64(derive_seed(seed, "shared", self.spec.name, "interleave"))
        )
        streams = [self._stream(c, seed) for c in range(self.spec.num_cores)]
        produced = 0
        while produced < total_requests:
            n = min(chunk_size, total_requests - produced)
            cores = interleave.integers(0, self.spec.num_cores, size=n).astype(
                np.int64
            )
            shared = np.empty(n, dtype=bool)
            ranks = np.empty(n, dtype=np.int64)
            for core, stream in enumerate(streams):
                mask = cores == core
                count = int(mask.sum())
                if count:
                    shared[mask], ranks[mask] = stream.draw(count)
            yield cores, self._addrs(cores, shared, ranks)
            produced += n

    def core_chunks(
        self,
        index: int,
        total_requests: int,
        seed: int,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """One core's isolated stream (cores all 0) for stand-alone runs.

        Uses the same per-core seed label as :meth:`chunks`, so the solo
        draw sequence is a prefix-equal replay of the core's shared-run
        draws. Private keys map below ``keys``; shared keys map to a
        disjoint region above them (the solo run owns the whole cache,
        so no per-owner stride is applied).
        """
        stream = self._stream(index, seed)
        produced = 0
        while produced < total_requests:
            n = min(chunk_size, total_requests - produced)
            shared, ranks = stream.draw(n)
            addrs = np.where(shared, self.spec.keys + ranks, ranks)
            yield np.zeros(n, dtype=np.int64), addrs
            produced += n


# -- named presets -----------------------------------------------------------

#: Named workloads reachable as ``"shared:<name>"`` everywhere a mix is
#: accepted (run_workload, RunSpec, campaigns, the CLI).
SHARED_PRESETS: Dict[str, Callable[[], SharedWorkload]] = {
    "smoke4": lambda: SharedWorkload(
        SharedSpec("smoke4", num_cores=4, keys=20_000, shared_keys=10_000, degree=2)
    ),
    "scale16": lambda: SharedWorkload(
        SharedSpec("scale16", num_cores=16, keys=60_000, shared_keys=30_000, degree=4)
    ),
    "scale32": lambda: SharedWorkload(
        SharedSpec("scale32", num_cores=32, keys=60_000, shared_keys=30_000, degree=4)
    ),
    "scale64": lambda: SharedWorkload(
        SharedSpec("scale64", num_cores=64, keys=60_000, shared_keys=30_000, degree=8)
    ),
}


def shared_presets() -> List[str]:
    """Registered shared-data preset names, sorted."""
    return sorted(SHARED_PRESETS)


def get_shared_workload(name: str) -> SharedWorkload:
    """Build a preset shared-data workload by name.

    Raises:
        KeyError: listing the known presets.
    """
    try:
        factory = SHARED_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown shared workload {name!r}; known: {shared_presets()}"
        ) from None
    return factory()


register_family("shared", get_shared_workload)
