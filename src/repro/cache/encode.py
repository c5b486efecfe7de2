"""One-shot trace pre-encoding: block addresses -> (set index, tag) arrays.

Both cache backends consume the same encoded form: the classic engine's
:meth:`~repro.cache.cache.SharedCache.access_many` saves the per-access
geometry arithmetic, and the vector engine
(:class:`~repro.cache.vector.VectorCache`) requires whole-trace arrays to
batch its set lookups at all. Both return the same :class:`BatchResults`
and replay per access in slices of :data:`SLICE`. Encoding is a pair of
vectorised integer ops (mask + shift), so a multi-million-access trace
encodes in milliseconds and the arrays can be replayed any number of
times.

The arithmetic is exactly :class:`~repro.cache.geometry.CacheGeometry`'s
``set_index``/``tag`` (and the classic engine's hot-path copies of them):
``set_index = addr & (num_sets - 1)``, ``tag = addr >> set_bits``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

import numpy as np

from repro.cache.cache import AccessResult
from repro.cache.geometry import CacheGeometry

__all__ = ["SLICE", "BatchResults", "EncodedTrace", "encode_accesses", "encode_trace"]

#: Accesses per slice of a per-access replay: each slice becomes Python
#: ints at once, so its int lists stay bounded whatever the batch length.
SLICE = 1024


class EncodedTrace(NamedTuple):
    """A trace pre-encoded for batch replay.

    Attributes:
        cores: issuing core per access (``int64``).
        set_indices: target set per access (``int64``).
        tags: address tag per access (``int64``).
    """

    cores: np.ndarray
    set_indices: np.ndarray
    tags: np.ndarray

    def __len__(self) -> int:
        return len(self.cores)


class BatchResults:
    """Per-access outcomes of one ``access_many`` call, on either engine.

    Stored as parallel arrays (building millions of ``AccessResult``
    tuples would dominate the batch runtime); :meth:`result` materialises
    one on demand and iteration yields them in order.
    """

    __slots__ = ("hit", "set_index", "evicted_core", "evicted_addr")

    def __init__(self, hit, set_index, evicted_core, evicted_addr) -> None:
        self.hit = hit
        self.set_index = set_index
        self.evicted_core = evicted_core
        self.evicted_addr = evicted_addr

    @classmethod
    def for_trace(cls, trace: EncodedTrace) -> "BatchResults":
        """Preallocated outputs for ``trace``: every access a miss that
        evicts nothing, until the replay writes its outcome."""
        n = len(trace)
        return cls(
            np.zeros(n, dtype=bool),
            trace.set_indices,
            np.full(n, -1, dtype=np.int64),
            np.full(n, -1, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.hit)

    def result(self, i: int) -> AccessResult:
        return AccessResult(
            bool(self.hit[i]),
            int(self.set_index[i]),
            int(self.evicted_core[i]),
            int(self.evicted_addr[i]),
        )

    def __iter__(self):
        for i in range(len(self.hit)):
            yield self.result(i)


def encode_accesses(
    cores: Sequence[int],
    addrs: Sequence[int],
    geometry: CacheGeometry,
) -> EncodedTrace:
    """Encode parallel ``cores``/``addrs`` sequences against ``geometry``.

    Args:
        cores: issuing core ids (anything ``np.asarray`` accepts).
        addrs: block addresses (non-negative; the byte offset is already
            stripped throughout the simulator).
        geometry: the cache the trace will be replayed against.

    Returns:
        An :class:`EncodedTrace` of equal-length ``int64`` arrays.

    Raises:
        ValueError: on length mismatch or negative addresses.
    """
    core_arr = np.ascontiguousarray(cores, dtype=np.int64)
    addr_arr = np.ascontiguousarray(addrs, dtype=np.int64)
    if core_arr.shape != addr_arr.shape or core_arr.ndim != 1:
        raise ValueError(
            f"cores and addrs must be equal-length 1-D sequences, got "
            f"shapes {core_arr.shape} and {addr_arr.shape}"
        )
    if len(addr_arr) and int(addr_arr.min()) < 0:
        raise ValueError("block addresses must be non-negative")
    set_mask = geometry.num_sets - 1
    tag_shift = set_mask.bit_length()
    return EncodedTrace(
        cores=core_arr,
        set_indices=addr_arr & set_mask,
        tags=addr_arr >> tag_shift,
    )


def encode_trace(
    stream: Sequence[Tuple[int, int]],
    geometry: CacheGeometry,
) -> EncodedTrace:
    """Encode a ``[(core, block_addr), ...]`` stream (the test/bench shape)."""
    if len(stream) == 0:
        empty = np.empty(0, dtype=np.int64)
        return EncodedTrace(empty, empty.copy(), empty.copy())
    pairs = np.asarray(stream, dtype=np.int64)
    return encode_accesses(pairs[:, 0], pairs[:, 1], geometry)
