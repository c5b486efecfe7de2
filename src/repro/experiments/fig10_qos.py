"""Figure 10 — PriSM-Q: holding core 0 at 80% of its stand-alone IPC.

For each sixteen-core mix, core 0's achieved slowdown
(``IPC^MP / IPC^SP``) under PriSM-Q with an 80% target. The paper's
reading: most mixes land close to 0.8; cache-insensitive programs sit
*above* the target because 80% is below their worst-case slowdown (they
barely depend on the LLC at all).
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
    cores: int = 16,
    target_fraction: float = 0.8,
    tolerance: float = 0.05,
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    config = machine(cores)
    mix_names = mixes or mixes_for_cores(cores)
    results = compare_schemes(
        mix_names,
        config,
        ["lru", "prism-q"],
        instructions=instructions,
        seed=seed,
        scheme_kwargs={"prism-q": {"target_ipc_fraction": target_fraction}},
        progress=progress,
        jobs=jobs,
        store=store,
    )
    rows = []
    achieved = 0
    for mix in mix_names:
        lru, result = results[mix]["lru"], results[mix]["prism-q"]
        slowdown = result.slowdown(0)
        # "Achieved" = at or above target (a tolerance band below counts as
        # close-enough, mirroring the paper's 38-of-41 reading).
        ok = slowdown >= target_fraction * (1.0 - tolerance)
        achieved += ok
        rows.append(
            {
                "mix": mix,
                "benchmark": result.benchmarks[0],
                "slowdown": slowdown,
                "lru_slowdown": lru.slowdown(0),
                "target": target_fraction,
                "achieved": ok,
            }
        )
    return {
        "id": "fig10",
        "cores": cores,
        "target_fraction": target_fraction,
        "rows": rows,
        "achieved": achieved,
        "total": len(rows),
    }


def format_result(result: Dict) -> str:
    table = [
        [
            r["mix"],
            r["benchmark"],
            r["slowdown"],
            r["lru_slowdown"],
            "yes" if r["achieved"] else "NO",
        ]
        for r in result["rows"]
    ]
    return (
        f"Figure 10: PriSM-Q core-0 slowdown vs {result['target_fraction']:.0%} target "
        f"({result['achieved']}/{result['total']} achieved)\n"
        + format_table(
            ["mix", "core0-bench", "slowdown", "LRU-slowdn", "achieved"], table, width=14
        )
    )
