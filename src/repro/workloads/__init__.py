"""Synthetic multiprogrammed workloads.

The paper drives its evaluation with SPEC CPU programs; those are not
redistributable, so this package provides the documented substitution
(DESIGN.md §2): seeded *zone-model* benchmark profiles whose miss-rate-vs-
allocation curves and memory intensities span the same qualitative classes
the paper's analysis leans on — cache-friendly programs with knees, pure
streamers, cache-insensitive compute, and thrashing giants.

- :mod:`repro.workloads.zones` — the generative access model,
- :mod:`repro.workloads.benchmark` — profiles + access streams,
- :mod:`repro.workloads.spec` — the named catalog (``179.art`` etc.),
- :mod:`repro.workloads.mixes` — the Q/E/S/T workload mixes,
- :mod:`repro.workloads.trace` — record/replay of access traces,
- :mod:`repro.workloads.registry` — the :class:`WorkloadSource` protocol
  and :func:`resolve_workload`, the one seam every entry point
  (``run_workload``, campaigns, the CLI) resolves workloads through,
- :mod:`repro.workloads.tenants` — multi-tenant key-value traces
  (``"tenants:web8"``), the PriSM-as-memcached family.

The trace modules (``trace``, ``tenants``, ``shared``) import numpy, which
the profile-driven paper mixes never need; their names are re-exported
lazily (PEP 562), so ``import repro.workloads`` stays numpy-free until a
trace name is touched or a ``"family:spec"`` reference is resolved.
"""

from importlib import import_module

from repro.workloads.zones import ScanZone, UniformZone, ZoneModel
from repro.workloads.benchmark import AccessStream, BenchmarkProfile
from repro.workloads.spec import PROFILES, get_profile, profiles_by_category
from repro.workloads.mixes import MIXES, get_mix, mixes_for_cores
from repro.workloads.phased import PhasedProfile, PhasedStream
from repro.workloads.registry import (
    BenchmarkListSource,
    MixSource,
    WorkloadSource,
    register_family,
    resolve_workload,
    workload_families,
)

_LAZY = {
    "Trace": "trace",
    "record_trace": "trace",
    "TENANT_PRESETS": "tenants",
    "TenantSpec": "tenants",
    "TenantWorkload": "tenants",
    "get_tenant_workload": "tenants",
    "tenant_presets": "tenants",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f"repro.workloads.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "WorkloadSource",
    "MixSource",
    "BenchmarkListSource",
    "register_family",
    "resolve_workload",
    "workload_families",
    "TenantSpec",
    "TenantWorkload",
    "TENANT_PRESETS",
    "get_tenant_workload",
    "tenant_presets",
    "PhasedProfile",
    "PhasedStream",
    "UniformZone",
    "ScanZone",
    "ZoneModel",
    "BenchmarkProfile",
    "AccessStream",
    "PROFILES",
    "get_profile",
    "profiles_by_category",
    "MIXES",
    "get_mix",
    "mixes_for_cores",
    "Trace",
    "record_trace",
]
