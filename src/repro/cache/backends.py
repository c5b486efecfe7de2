"""Cache-backend selection: the classic object-model engine vs the vector engine.

Two engines implement the same shared-cache semantics:

- ``"classic"`` — :class:`~repro.cache.cache.SharedCache`, one access at a
  time over an intrusive-list object model. Supports every policy, scheme
  and monitor in the repo.
- ``"vector"`` — :class:`~repro.cache.vector.VectorCache`, numpy-backed
  state, replayed per access or in vectorised batches depending on the
  geometry and the scheme. Only for the configurations it can represent
  (LRU/DIP baselines, PriSM or no scheme; any monitor).

The two are certified bit-exact by ``repro-sim check fuzz --backend
vector`` (see :mod:`repro.check.differential`), which is why the backend
is *excluded* from campaign fingerprints: a result does not depend on it.

:func:`build_cache` is the one place the choice is made:

- below :data:`VECTOR_MIN_SETS` LLC sets a ``"vector"`` request builds
  the classic engine, quietly (every default ``machine()`` has 64 sets;
  see :data:`VECTOR_MIN_SETS` for the measurements and their limits);
- from it up, the vector engine is built unless it cannot represent the
  configuration: it raises :class:`~repro.cache.vector.VectorUnsupported`
  at construction time, which ``build_cache`` turns into a loud
  ``RuntimeWarning`` plus the classic engine.

``strict=True`` means "this exact engine or raise": it builds the vector
engine at any set count and re-raises ``VectorUnsupported`` (the
differential certification and the microbenchmarks build it that way).
Either way the caller gets an :class:`EngineChoice` naming the engine
that was built and why a vector request was declined, which the drivers
record on :class:`~repro.experiments.runner.WorkloadResult`.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.base import ReplacementPolicy

__all__ = ["BACKENDS", "VECTOR_MIN_SETS", "EngineChoice", "build_cache", "resolve_backend"]

#: Recognised backend names, in preference order for documentation.
BACKENDS = ("classic", "vector")

#: A non-strict ``"vector"`` request builds the vector engine only from
#: this many LLC sets up. The ``driver_calls`` rows of
#: benchmarks/bench_simulator_speed.py time whole driver calls on both
#: engines at 512-2,048 sets: the tenant driver (tenants:web8, chunks
#: replayed through ``access_many``) and the per-access mix driver (Q7,
#: ``run --mix``), each under lru, prism-h and dip. Below the constant
#: classic is as fast or faster in every row but one, the tenant driver
#: under unmanaged LRU. From it up the vector engine wins or ties every
#: tenant row, but the mix driver is slower on it at 1,024 sets under
#: every scheme and mixed at 2,048: the constant is backed by the tenant
#: driver only, and a ``run --mix`` vector request above it often gets
#: the slower engine.
VECTOR_MIN_SETS = 1024


class EngineChoice(NamedTuple):
    """The engine :func:`build_cache` built, and why.

    Attributes:
        engine: ``"classic"`` or ``"vector"``.
        declined: why a ``"vector"`` request built the classic engine
            (the set count, or the ``VectorUnsupported`` message);
            ``None`` when the requested engine was built.
    """

    engine: str
    declined: Optional[str] = None


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
) -> Tuple[object, EngineChoice]:
    """Build a shared cache under ``backend``; attach ``scheme`` if given.

    Args:
        geometry: size/associativity description.
        num_cores: number of accounting owners (cores, or clusters when
            ``core_map`` is given).
        policy: baseline replacement policy (``None`` = true LRU).
        scheme: management scheme to attach, or ``None``.
        backend: ``"classic"`` or ``"vector"``.
        strict: under ``backend="vector"``, build the vector engine at any
            set count and re-raise
            :class:`~repro.cache.vector.VectorUnsupported` instead of
            falling back to the classic engine.
        core_map: optional cluster map (:mod:`repro.clustering`) mapping
            real core ids to accounting groups in ``[0, num_cores)``.
        track_sharers: maintain per-block sharer bitmasks (shared-data
            workloads; see ``docs/simulator.md``).

    Returns:
        ``(cache, choice)`` — ``choice`` is the :class:`EngineChoice`:
        the engine that was actually built and, when a vector request
        built the classic engine, the reason.
    """
    backend = resolve_backend(backend)
    declined = None
    if backend == "vector" and not strict and geometry.num_sets < VECTOR_MIN_SETS:
        declined = (
            f"{geometry.num_sets} LLC sets, below the vector engine's "
            f"{VECTOR_MIN_SETS}"
        )
    elif backend == "vector":
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
                EngineChoice("vector"),
            )
        except VectorUnsupported as exc:
            if strict:
                raise
            declined = f"unsupported: {exc}"
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
    return cache, EngineChoice("classic", declined)
