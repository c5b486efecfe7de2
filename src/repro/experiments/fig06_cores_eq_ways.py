"""Figure 6 — PriSM-H when cores == ways (16 cores on a 16-way cache).

Way-partitioning degenerates here (one way per core is the only option, so
the paper does not evaluate it); PriSM still partitions at block
granularity. Paper: PriSM-H beats LRU on every mix, +14.8% on average.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import Progress, compare_schemes, format_table
from repro.experiments.configs import machine
from repro.experiments.options import experiment_run
from repro.metrics import geomean
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
    # The paper's 8MB 16-way LLC, scaled like every other machine.
    config = machine(16, assoc=16, llc_bytes=8 << 20)
    mix_names = mixes or mixes_for_cores(16)
    results = compare_schemes(
        mix_names,
        config,
        ["lru", "prism-h"],
        instructions=instructions,
        seed=seed,
        progress=progress,
        jobs=jobs,
        store=store,
    )
    rows = [
        {"mix": mix, "prism_vs_lru": results[mix]["prism-h"].antt / results[mix]["lru"].antt}
        for mix in mix_names
    ]
    return {
        "id": "fig6",
        "geometry": str(config.geometry),
        "rows": rows,
        "geomean": geomean([r["prism_vs_lru"] for r in rows]),
    }


def format_result(result: Dict) -> str:
    table = [[r["mix"], r["prism_vs_lru"]] for r in result["rows"]]
    table.append(["geomean", result["geomean"]])
    return (
        f"Figure 6: PriSM-H on {result['geometry']} with 16 cores (ANTT vs LRU)\n"
        + format_table(["mix", "PriSM-H/LRU"], table)
    )
