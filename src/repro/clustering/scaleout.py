"""The scale-out scenario: cluster-granular PriSM at 16-64 cores.

Shared-data workloads replay through the one trace driver,
:func:`repro.tenancy.run.run_trace_workload`, whose ``clusters`` knob
engages :mod:`repro.clustering`:

- with ``clusters=None`` every core is its own accounting owner and the
  run is the familiar per-core PriSM;
- with ``clusters=N`` the driver profiles a short prefix of the trace,
  groups cores by hit-curve similarity into at most ``N`` clusters, and
  manages clusters instead of cores.

:func:`run_shared_workload` and :func:`shared_standalone` are the
shared-family names of that driver and its solo baselines.

The ``scaleout`` registry experiment sweeps workloads x schemes x
{per-core, clustered} and reports throughput and Jain-fairness panels;
runs fan out through :func:`~repro.experiments.parallel.run_specs`, so
``--jobs``, ``--store`` and campaigns all apply.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.common import Progress, format_table
from repro.experiments.configs import machine
from repro.experiments.options import experiment_run
from repro.experiments.parallel import RunSpec, run_specs
from repro.experiments.runner import WorkloadResult
from repro.metrics.tenancy import jain_fairness
from repro.tenancy.run import run_trace_workload, trace_standalone
from repro.workloads.registry import resolve_workload

__all__ = ["run_shared_workload", "shared_standalone", "run", "format_result"]


def shared_standalone(*args, **kwargs):
    """Per-core solo baselines: :func:`~repro.tenancy.run.trace_standalone`."""
    return trace_standalone(*args, **kwargs)


def run_shared_workload(*args, **kwargs) -> WorkloadResult:
    """One shared-data run: :func:`~repro.tenancy.run.run_trace_workload`."""
    return run_trace_workload(*args, **kwargs)


# -- the registry experiment -------------------------------------------------

#: The scheme panel the scale-out scenario compares by default.
DEFAULT_SCHEMES = ("lru", "prism-h", "prism-f")

#: The workload presets swept by default (16, 32 and 64 cores).
DEFAULT_WORKLOADS = ("scale16", "scale32", "scale64")


def _result_row(result: WorkloadResult, clusters: Optional[int]) -> Dict:
    slowdowns = [
        mp / sp if sp else 0.0 for mp, sp in zip(result.shared_ipcs(), result.standalone)
    ]
    total_hits = sum(c.hits for c in result.cores)
    total = sum(c.hits + c.misses for c in result.cores)
    return {
        "scheme": result.scheme,
        "clusters": clusters,
        "throughput": result.throughput,
        "weighted_speedup": result.weighted_speedup,
        "jain": jain_fairness(slowdowns),
        "hit_rate": total_hits / total if total else 0.0,
        "antt": result.antt,
        "intervals": result.intervals,
    }


@experiment_run
def run(
    instructions: Optional[int] = None,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    clusters: int = 4,
    scale_factor: int = 64,
    backend: str = "classic",
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    """The many-core scale-out panels: throughput and Jain fairness.

    Sweeps every workload preset under every scheme twice — per-core
    management and cluster-granular management (``clusters`` clusters) —
    and reports throughput, weighted speedup, Jain fairness over
    per-core slowdowns, and hit rate for each cell.

    Args:
        instructions: total shared request budget per run (``None`` =
            the machine default).
        workloads: shared-family preset names (or full ``"shared:..."``
            references).
        schemes: scheme registry names to compare.
        clusters: cluster-count cap for the clustered half of the panel.
        scale_factor/backend/seed: as everywhere else.
    """
    workloads = [w if ":" in w else f"shared:{w}" for w in workloads]
    schemes = list(schemes)
    panels = []
    for ref in workloads:
        source = resolve_workload(ref)
        config = machine(source.num_cores, scale_factor=scale_factor)
        specs = [
            RunSpec(
                mix=ref,
                scheme=scheme,
                seed=seed,
                instructions=instructions,
                backend=backend,
                clusters=cluster_count,
            )
            for scheme in schemes
            for cluster_count in (None, clusters)
        ]
        if progress:
            progress(
                f"{ref}: {len(specs)} runs ({source.num_cores} cores, "
                f"schemes {', '.join(schemes)}, per-core vs {clusters} clusters)"
            )
        results = run_specs(specs, config, jobs=jobs, progress=progress, store=store)
        rows = [
            _result_row(result, spec.clusters)
            for spec, result in zip(specs, results)
        ]
        panels.append({"workload": ref, "cores": source.num_cores, "rows": rows})
    return {
        "id": "scaleout",
        "schemes": schemes,
        "clusters": clusters,
        "workloads": workloads,
        "panels": panels,
    }


def format_result(result: Dict) -> str:
    lines = [
        "Many-core scale-out: cluster-granular PriSM "
        f"(clustered runs cap at {result['clusters']} clusters)"
    ]
    for panel in result["panels"]:
        lines.append(f"\n{panel['workload']} ({panel['cores']} cores)")
        lines.append(format_table(
            ["scheme", "clusters", "throughput", "w-speedup", "jain",
             "hit-rate", "ANTT", "intervals"],
            [
                [
                    row["scheme"],
                    row["clusters"] if row["clusters"] is not None else "per-core",
                    row["throughput"],
                    row["weighted_speedup"],
                    row["jain"],
                    row["hit_rate"],
                    row["antt"],
                    row["intervals"],
                ]
                for row in panel["rows"]
            ],
            width=11,
        ))
    return "\n".join(lines)
