"""Figure 5 — Fine- vs coarse-grained enforcement of the *same* policy.

Algorithm 1's hit-max targets drive both PriSM's eviction probabilities
and a way-partitioner (targets rounded to whole ways). Sixteen-core
workloads; ANTT normalised to LRU. The paper: PriSM wins on every mix.
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
    cores: int = 16,
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
        ["lru", "prism-h", "waypart-hitmax"],
        instructions=instructions,
        seed=seed,
        progress=progress,
        jobs=jobs,
        store=store,
    )
    rows = []
    for mix in mix_names:
        lru_antt = results[mix]["lru"].antt
        rows.append(
            {
                "mix": mix,
                "prism": results[mix]["prism-h"].antt / lru_antt,
                "waypart": results[mix]["waypart-hitmax"].antt / lru_antt,
            }
        )
    return {
        "id": "fig5",
        "cores": cores,
        "rows": rows,
        "geomean": {
            "prism": geomean([r["prism"] for r in rows]),
            "waypart": geomean([r["waypart"] for r in rows]),
        },
    }


def format_result(result: Dict) -> str:
    table = [[r["mix"], r["prism"], r["waypart"]] for r in result["rows"]]
    table.append(["geomean", result["geomean"]["prism"], result["geomean"]["waypart"]])
    return (
        f"Figure 5: Alg. 1 enforced by PriSM vs way-partitioning "
        f"({result['cores']}-core; ANTT vs LRU)\n"
        + format_table(["mix", "PriSM", "way-part"], table)
    )
