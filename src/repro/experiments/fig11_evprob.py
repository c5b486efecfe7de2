"""Figure 11 — Stability of eviction probabilities under PriSM-H (quad).

Per-benchmark mean and standard deviation of ``E_i`` across all interval
recomputations, computed from the :mod:`repro.telemetry` interval trace:
each run records every installed distribution at its interval boundary,
and :meth:`RunTelemetry.probability_stats` accumulates them with the
same running-sum formula the scheme uses internally — so the numbers are
bit-equal to the scheme's own reporting. The paper's point: the standard
deviation is small — the probabilities settle, so the control loop is
stable rather than thrashing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import Progress, compare_schemes, format_table
from repro.experiments.configs import machine
from repro.experiments.options import experiment_run
from repro.workloads.mixes import mixes_for_cores

__all__ = ["run", "format_result"]


@experiment_run
def run(
    instructions: Optional[int] = None,
    mixes: Optional[List[str]] = None,
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    config = machine(4)
    mix_names = mixes or mixes_for_cores(4)
    results = compare_schemes(
        mix_names,
        config,
        ["prism-h"],
        instructions=instructions,
        seed=seed,
        progress=progress,
        jobs=jobs,
        store=store,
        telemetry=True,
    )
    rows = []
    recompute_counts = []
    for mix in mix_names:
        result = results[mix]["prism-h"]
        trace = result.telemetry
        stats = trace.probability_stats()
        recompute_counts.append(trace.num_intervals)
        for core, name in enumerate(result.benchmarks):
            rows.append(
                {
                    "mix": mix,
                    "benchmark": name,
                    "mean": stats[core]["mean"],
                    "std": stats[core]["std"],
                }
            )
    return {
        "id": "fig11",
        "rows": rows,
        "recomputations_min": min(recompute_counts) if recompute_counts else 0,
        "recomputations_max": max(recompute_counts) if recompute_counts else 0,
    }


def format_result(result: Dict) -> str:
    table = [[r["mix"], r["benchmark"], r["mean"], r["std"]] for r in result["rows"]]
    return (
        "Figure 11: eviction-probability mean/std per benchmark (quad-core PriSM-H); "
        f"recomputations per mix: {result['recomputations_min']}-"
        f"{result['recomputations_max']}\n"
        + format_table(["mix", "benchmark", "mean", "std"], table, width=14)
    )
