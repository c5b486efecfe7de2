"""repro — a full reproduction of PriSM: Probabilistic Shared Cache
Management (Manikantan, Rajan, Govindarajan; ISCA 2012).

Quick start::

    from repro import machine, run_workload

    config = machine(4)                       # scaled 4-core, 16-way LLC
    lru = run_workload("Q7", config, "lru")
    prism = run_workload("Q7", config, "prism-h")
    print(prism.antt / lru.antt)              # < 1: PriSM-H beats LRU

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.core` — the PriSM framework (Eq. 1, the probabilistic
  manager, PriSM-H/F/Q allocation policies),
- :mod:`repro.cache` — the set-associative cache substrate and baseline
  replacement policies,
- :mod:`repro.partitioning` — UCP, PIPP, way-partitioning, Vantage,
  TA-DIP comparison schemes,
- :mod:`repro.workloads` — synthetic SPEC-like benchmarks and mixes,
- :mod:`repro.cpu` — timing model and multicore driver,
- :mod:`repro.metrics` — ANTT, fairness, throughput,
- :mod:`repro.experiments` — machine configs, runner, per-figure
  reproductions.

``import repro`` does not import numpy: the timing-coupled paper path
(streams, :class:`MultiCoreSystem`, the classic engine, the Belady replay,
campaigns) never touches an array. numpy loads with the modules that use
it — the trace families, the trace encoder, the vector engine and the
``repro.check`` state audits (docs/simulator.md, "Imports and cold start").
"""

from repro.cache import CacheGeometry, SharedCache
from repro.core import (
    FairnessPolicy,
    HitMaxPolicy,
    PrismScheme,
    ProbabilisticCacheManager,
    QOSPolicy,
    derive_eviction_probabilities,
)
from repro.cpu import MultiCoreSystem, run_standalone
from repro.experiments import RunOptions, machine, run_workload
from repro.telemetry import RunTelemetry, TelemetryRecorder
from repro.workloads import get_mix, get_profile

__version__ = "1.0.0"

__all__ = [
    "CacheGeometry",
    "SharedCache",
    "PrismScheme",
    "ProbabilisticCacheManager",
    "HitMaxPolicy",
    "FairnessPolicy",
    "QOSPolicy",
    "derive_eviction_probabilities",
    "MultiCoreSystem",
    "run_standalone",
    "machine",
    "run_workload",
    "RunOptions",
    "TelemetryRecorder",
    "RunTelemetry",
    "get_mix",
    "get_profile",
    "__version__",
]
