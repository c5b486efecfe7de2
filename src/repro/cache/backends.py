"""Cache-backend selection: the classic object-model engine vs the vector engine.

Two engines implement the same shared-cache semantics:

- ``"classic"`` — :class:`~repro.cache.cache.SharedCache`, one access at a
  time over an intrusive-list object model. Supports every policy, scheme
  and monitor in the repo.
- ``"vector"`` — :class:`~repro.cache.vector.VectorCache`, numpy-backed
  state, replayed per access or in vectorised batches depending on the
  geometry and the scheme. Only for the configurations it can represent
  (LRU/DIP baselines, PriSM or no scheme; any monitor). Which engine is
  faster depends on the LLC's set count: see ``docs/simulator.md``
  ("Backends") for measurements at the drivers' geometries.

The two are certified bit-exact by ``repro-sim check fuzz --backend
vector`` (see :mod:`repro.check.differential`), which is why the backend
is *excluded* from campaign fingerprints: a result does not depend on it.

:func:`build_cache` is the one place the choice is made. When the vector
engine cannot represent a configuration it raises
:class:`~repro.cache.vector.VectorUnsupported` at construction time;
``build_cache`` turns that into a loud ``RuntimeWarning`` plus a classic
fallback (or re-raises under ``strict=True``), so experiment code never
has to know which configurations are vectorisable.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Tuple

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.base import ReplacementPolicy

__all__ = ["BACKENDS", "build_cache", "resolve_backend"]

#: Recognised backend names, in preference order for documentation.
BACKENDS = ("classic", "vector")


def resolve_backend(backend: Optional[str]) -> str:
    """Normalise and validate a backend argument (``None`` = classic)."""
    if backend is None:
        return "classic"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown cache backend {backend!r} (choose from {BACKENDS})"
        )
    return backend


def build_cache(
    geometry: CacheGeometry,
    num_cores: int,
    policy: Optional[ReplacementPolicy] = None,
    scheme=None,
    backend: str = "classic",
    strict: bool = False,
    core_map: Optional[Sequence[int]] = None,
    track_sharers: bool = False,
) -> Tuple[object, str]:
    """Build a shared cache under ``backend``; attach ``scheme`` if given.

    Args:
        geometry: size/associativity description.
        num_cores: number of accounting owners (cores, or clusters when
            ``core_map`` is given).
        policy: baseline replacement policy (``None`` = true LRU).
        scheme: management scheme to attach, or ``None``.
        backend: ``"classic"`` or ``"vector"``.
        strict: under ``backend="vector"``, re-raise
            :class:`~repro.cache.vector.VectorUnsupported` instead of
            falling back to the classic engine.
        core_map: optional cluster map (:mod:`repro.clustering`) mapping
            real core ids to accounting groups in ``[0, num_cores)``.
        track_sharers: maintain per-block sharer bitmasks (shared-data
            workloads; see ``docs/simulator.md``).

    Returns:
        ``(cache, backend_used)`` — ``backend_used`` is the engine that
        was actually built (``"classic"`` after a fallback).
    """
    backend = resolve_backend(backend)
    if backend == "vector":
        from repro.cache.vector import VectorCache, VectorUnsupported

        try:
            # Constructor-time validation happens before any mutation of
            # policy/scheme, so a failed attempt leaves both reusable.
            return (
                VectorCache(
                    geometry,
                    num_cores,
                    policy=policy,
                    scheme=scheme,
                    core_map=core_map,
                    track_sharers=track_sharers,
                ),
                "vector",
            )
        except VectorUnsupported as exc:
            if strict:
                raise
            warnings.warn(
                f"vector backend unavailable for this configuration "
                f"({exc}); falling back to the classic engine",
                RuntimeWarning,
                stacklevel=2,
            )
    cache = SharedCache(
        geometry, num_cores, policy=policy,
        core_map=core_map, track_sharers=track_sharers,
    )
    if scheme is not None:
        cache.set_scheme(scheme)
    return cache, "classic"
