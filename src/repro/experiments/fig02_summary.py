"""Figure 2 — PriSM performance summary across core counts.

Left panel: PriSM-H's ANTT gain over LRU (alongside UCP and PIPP) at
4/8/16/32 cores. Right panel: PriSM-F's fairness (alongside LRU and the
way-partitioning fairness scheme) at 4/8/16 cores. Paper headline numbers:
PriSM-H gains 17.9/16.5/18.7/12.7% over LRU; PriSM-F beats way-partitioned
fairness by 1.4/13.1/23.3%.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import (
    Progress,
    compare_schemes,
    format_table,
    geomean_ratio,
    resolve_instructions,
)
from repro.experiments.configs import machine
from repro.experiments.options import experiment_run
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["run", "format_result"]


@experiment_run
def run(
    instructions: Optional[int] = None,
    mixes_per_count: Optional[int] = None,
    core_counts=(4, 8, 16, 32),
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    rows = []
    for cores in core_counts:
        config = machine(cores)
        mixes = mixes_for_cores(cores)
        if mixes_per_count:
            mixes = mixes[:mixes_per_count]
        schemes = ["lru", "prism-h", "ucp", "pipp"]
        if cores <= 16:
            schemes += ["prism-f", "fair-waypart"]
        results = compare_schemes(
            mixes,
            config,
            schemes,
            instructions=resolve_instructions(instructions, cores),
            seed=seed,
            progress=progress,
            jobs=jobs,
            store=store,
        )
        row = {
            "cores": cores,
            "prism_h_antt_vs_lru": geomean_ratio(results, "prism-h", "lru"),
            "ucp_antt_vs_lru": geomean_ratio(results, "ucp", "lru"),
            "pipp_antt_vs_lru": geomean_ratio(results, "pipp", "lru"),
        }
        if cores <= 16:
            row["fairness_lru"] = geomean([results[m]["lru"].fairness for m in mixes])
            row["fairness_prism_f"] = geomean(
                [results[m]["prism-f"].fairness for m in mixes]
            )
            row["fairness_waypart"] = geomean(
                [results[m]["fair-waypart"].fairness for m in mixes]
            )
            row["prism_f_antt_vs_lru"] = geomean_ratio(results, "prism-f", "lru")
        rows.append(row)
    return {"id": "fig2", "rows": rows}


def format_result(result: Dict) -> str:
    parts = ["Figure 2: PriSM summary (ANTT ratios: lower = better; fairness: higher = better)"]
    headers = [
        "cores",
        "PriSM-H/LRU",
        "UCP/LRU",
        "PIPP/LRU",
        "F(LRU)",
        "F(PriSM-F)",
        "F(waypart)",
    ]
    table = []
    for r in result["rows"]:
        table.append(
            [
                r["cores"],
                r["prism_h_antt_vs_lru"],
                r["ucp_antt_vs_lru"],
                r["pipp_antt_vs_lru"],
                r.get("fairness_lru", float("nan")),
                r.get("fairness_prism_f", float("nan")),
                r.get("fairness_waypart", float("nan")),
            ]
        )
    parts.append(format_table(headers, table))
    return "\n".join(parts)
