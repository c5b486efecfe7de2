"""Figure 1 — Motivation.

(a) How UCP's and PIPP's ANTT gains over LRU, and the way-partitioning
fairness scheme's fairness, evolve as core count grows 4 -> 32 (16 for
fairness). The paper's point: way-granular schemes lose their edge at high
core counts.

(b) UCP's IPC throughput on a fixed-capacity cache whose associativity
grows 16 -> 64 -> 256: higher associativity mimics finer-grained
partitioning, and UCP gains more from it than LRU does.
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

__all__ = ["run_scalability", "run_fine_grain", "run", "format_result"]


def run_scalability(
    instructions: Optional[int] = None,
    mixes_per_count: Optional[int] = None,
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    """Fig. 1(a): normalised ANTT of UCP/PIPP and fairness vs core count."""
    rows = []
    for cores in (4, 8, 16, 32):
        config = machine(cores)
        mixes = mixes_for_cores(cores)
        if mixes_per_count:
            mixes = mixes[:mixes_per_count]
        schemes = ["lru", "ucp", "pipp"]
        if cores <= 16:
            schemes.append("fair-waypart")
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
            "ucp_antt_vs_lru": geomean_ratio(results, "ucp", "lru"),
            "pipp_antt_vs_lru": geomean_ratio(results, "pipp", "lru"),
        }
        if cores <= 16:
            row["fairness_waypart"] = geomean(
                [results[m]["fair-waypart"].fairness for m in mixes]
            )
            row["fairness_lru"] = geomean([results[m]["lru"].fairness for m in mixes])
        rows.append(row)
    return {"id": "fig1a", "rows": rows}


def run_fine_grain(
    instructions: Optional[int] = None,
    mixes_per_count: Optional[int] = 6,
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    """Fig. 1(b): LRU and UCP throughput at 16/64/256-way associativity."""
    rows = []
    for assoc in (16, 64, 256):
        per_assoc = {"assoc": assoc}
        for cores in (4, 8):
            config = machine(cores, assoc=assoc)
            mixes = mixes_for_cores(cores)
            if mixes_per_count:
                mixes = mixes[:mixes_per_count]
            results = compare_schemes(
                mixes,
                config,
                ["lru", "ucp"],
                instructions=resolve_instructions(instructions, cores),
                seed=seed,
                progress=progress,
                jobs=jobs,
                store=store,
            )
            per_assoc[f"lru_throughput_{cores}c"] = geomean(
                [results[m]["lru"].throughput for m in mixes]
            )
            per_assoc[f"ucp_throughput_{cores}c"] = geomean(
                [results[m]["ucp"].throughput for m in mixes]
            )
        rows.append(per_assoc)
    return {"id": "fig1b", "rows": rows}


@experiment_run
def run(
    instructions: Optional[int] = None,
    mixes_per_count: Optional[int] = None,
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    """Both panels of Figure 1."""
    grid = dict(instructions=instructions, seed=seed, progress=progress, jobs=jobs,
                store=store)
    return {
        "id": "fig1",
        "scalability": run_scalability(mixes_per_count=mixes_per_count, **grid),
        "fine_grain": run_fine_grain(mixes_per_count=mixes_per_count or 6, **grid),
    }


def format_result(result: Dict) -> str:
    """Paper-style text rendering of the Figure 1 data."""
    parts = ["Figure 1(a): scheme performance vs core count (ANTT vs LRU; lower = better)"]
    rows_a = result["scalability"]["rows"]
    headers = ["cores", "UCP/LRU", "PIPP/LRU", "fair(WP)", "fair(LRU)"]
    table_a = [
        [
            r["cores"],
            r["ucp_antt_vs_lru"],
            r["pipp_antt_vs_lru"],
            r.get("fairness_waypart", float("nan")),
            r.get("fairness_lru", float("nan")),
        ]
        for r in rows_a
    ]
    parts.append(format_table(headers, table_a))
    parts.append("Figure 1(b): IPC throughput vs associativity (geomean)")
    rows_b = result["fine_grain"]["rows"]
    headers_b = ["assoc", "LRU-4c", "UCP-4c", "LRU-8c", "UCP-8c"]
    table_b = [
        [
            r["assoc"],
            r["lru_throughput_4c"],
            r["ucp_throughput_4c"],
            r["lru_throughput_8c"],
            r["ucp_throughput_8c"],
        ]
        for r in rows_b
    ]
    parts.append(format_table(headers_b, table_b))
    return "\n".join(parts)
