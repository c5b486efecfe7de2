"""The multi-tenant web-cache scenario: PriSM as a memcached partitioner.

Runs one tenant workload (default: the 8-tenant ``web8`` Zipfian+scan
mix) under a panel of schemes — unmanaged LRU, the Memshare-style
cliff-aware greedy baseline, and PriSM-H/F/Q — and reports the
per-tenant SLO scorecard: hit rate vs solo hit rate, SLO-attainment
fraction, p99 miss-run length, and Jain fairness over normalised
service. See ``docs/tenancy.md`` for the tenant→core mapping and metric
definitions.

Runs fan out through :func:`~repro.experiments.parallel.run_specs`, so
``--jobs`` parallelises the scheme panel and a ``--store`` makes the
sweep resumable with zero recomputation (tenant workload identities are
part of the campaign fingerprint).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.common import Progress, format_table
from repro.experiments.configs import machine
from repro.experiments.options import experiment_run
from repro.experiments.parallel import RunSpec, run_specs
from repro.workloads.registry import resolve_workload

__all__ = ["run", "format_result", "DEFAULT_SCHEMES"]

#: The scheme panel the scenario compares by default.
DEFAULT_SCHEMES = ("lru", "cliff", "prism-h", "prism-f", "prism-q")


@experiment_run
def run(
    instructions: Optional[int] = None,
    workload: str = "web8",
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    scale_factor: int = 64,
    backend: str = "classic",
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    """Run the tenant scenario; returns a dict of per-tenant SLO rows.

    Args:
        instructions: total shared request budget (``None`` = the
            machine default).
        workload: tenant preset name (``"web8"``, ``"smoke4"``) or a
            full ``"tenants:<preset>"`` reference.
        schemes: scheme registry names to compare.
        scale_factor: cache scaling divisor (as everywhere else).
        backend: cache engine for every run (results are bit-exact
            either way).
        seed: top-level trace/scheme seed.
    """
    ref = workload if ":" in workload else f"tenants:{workload}"
    source = resolve_workload(ref)
    config = machine(source.num_cores, scale_factor=scale_factor)
    schemes = list(schemes)
    specs = [
        RunSpec(
            mix=ref,
            scheme=scheme,
            seed=seed,
            instructions=instructions,
            backend=backend,
        )
        for scheme in schemes
    ]
    if progress:
        progress(f"{ref}: {len(specs)} runs under {', '.join(schemes)}")
    results = run_specs(specs, config, jobs=jobs, progress=progress, store=store)

    rows = []
    summary = []
    for scheme, result in zip(schemes, results):
        slo = result.tenant_slo
        for t, tenant in enumerate(slo.tenants):
            rows.append(
                {
                    "scheme": scheme,
                    "tenant": tenant,
                    "requests": slo.requests[t],
                    "hit_rate": slo.hit_rates[t],
                    "solo_hit_rate": slo.solo_hit_rates[t],
                    "slo_target": slo.slo_targets[t],
                    "slo_attainment": slo.slo_attainment[t],
                    "p99_miss_run": slo.p99_miss_run[t],
                    "occupancy": result.cores[t].occupancy_at_finish,
                }
            )
        total_requests = sum(slo.requests)
        total_hits = sum(c.hits for c in result.cores)
        summary.append(
            {
                "scheme": scheme,
                "hit_rate": total_hits / total_requests if total_requests else 0.0,
                "slo_attainment": (
                    sum(slo.slo_attainment) / len(slo.slo_attainment)
                ),
                "fairness": slo.fairness,
                "antt": result.antt,
                "intervals": result.intervals,
            }
        )
    return {
        "id": "tenants",
        "workload": ref,
        "tenants": source.core_names,
        "cores": source.num_cores,
        "schemes": schemes,
        "slo_fraction": results[0].tenant_slo.slo_fraction,
        "rows": rows,
        "summary": {"rows": summary},
    }


def format_result(result: Dict) -> str:
    lines = [
        f"Multi-tenant web cache: {result['workload']} "
        f"({result['cores']} tenants), SLO = "
        f"{result['slo_fraction']:.0%} of solo hit rate"
    ]
    summary_rows = [
        [
            r["scheme"],
            r["hit_rate"],
            r["slo_attainment"],
            r["fairness"],
            r["antt"],
            r["intervals"],
        ]
        for r in result["summary"]["rows"]
    ]
    lines.append(format_table(
        ["scheme", "hit-rate", "SLO-attain", "fairness", "ANTT", "intervals"],
        summary_rows,
        width=12,
    ))
    for scheme in result["schemes"]:
        scheme_rows = [r for r in result["rows"] if r["scheme"] == scheme]
        lines.append(f"\nscheme {scheme}: per-tenant SLO scorecard")
        lines.append(format_table(
            ["tenant", "requests", "hit-rate", "solo-rate", "target",
             "SLO-attain", "p99-missrun", "occupancy"],
            [
                [
                    r["tenant"],
                    r["requests"],
                    r["hit_rate"],
                    r["solo_hit_rate"],
                    r["slo_target"],
                    r["slo_attainment"],
                    r["p99_miss_run"],
                    r["occupancy"],
                ]
                for r in scheme_rows
            ],
            width=12,
        ))
    return "\n".join(lines)
