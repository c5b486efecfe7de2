"""Set-associative shared-cache substrate.

This package provides the hardware model that every management scheme in
:mod:`repro.partitioning` and the PriSM framework in :mod:`repro.core` plug
into:

- :class:`~repro.cache.geometry.CacheGeometry` — size/associativity/block
  arithmetic,
- :class:`~repro.cache.cache.SharedCache` — the shared last-level cache with
  per-core occupancy counters and interval bookkeeping,
- replacement policies (:mod:`repro.cache.replacement`) — LRU, coarse
  timestamp LRU, DIP (LIP/BIP with set dueling), tree PLRU and (as an
  extension) SRRIP,
- monitors — sampled per-core shadow tags with per-recency-position hit
  counters (:class:`~repro.cache.shadow.ShadowTagMonitor`), which double as
  UCP's UMON utility monitors,
- backends — the numpy batch engine (:class:`~repro.cache.vector.VectorCache`)
  with its trace pre-encoder (:mod:`repro.cache.encode`) and the
  :func:`~repro.cache.backends.build_cache` selector, which builds the
  classic engine below :data:`~repro.cache.backends.VECTOR_MIN_SETS` LLC
  sets and for configurations the vector engine cannot represent.
"""

from repro.cache.backends import BACKENDS, build_cache, resolve_backend
from repro.cache.block import CacheBlock
from repro.cache.cacheset import CacheSet
from repro.cache.geometry import CacheGeometry
from repro.cache.cache import AccessResult, SharedCache
from repro.cache.stats import CacheStats
from repro.cache.shadow import ShadowTagMonitor

__all__ = [
    "AccessResult",
    "BACKENDS",
    "CacheBlock",
    "CacheGeometry",
    "CacheSet",
    "CacheStats",
    "SharedCache",
    "ShadowTagMonitor",
    "build_cache",
    "resolve_backend",
]
