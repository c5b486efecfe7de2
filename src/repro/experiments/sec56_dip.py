"""Section 5.6 — PriSM over a DIP baseline (replacement-policy agnosticism).

PriSM's core-selection step layers on any replacement policy; the paper
demonstrates this with DIP (which lacks the stack property, so UCP cannot
use it). Quad-core, all ANTTs normalised to the unmanaged DIP cache.
Paper: PriSM-H over DIP gains 8.9%; TA-DIP lands about level with DIP;
both DIP variants beat LRU.
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
    config = machine(4)
    mix_names = mixes or mixes_for_cores(4)
    results = compare_schemes(
        mix_names,
        config,
        ["dip", "prism-h-dip", "tadip", "lru"],
        instructions=instructions,
        seed=seed,
        progress=progress,
        jobs=jobs,
        store=store,
    )
    rows = []
    for mix in mix_names:
        dip_antt = results[mix]["dip"].antt
        rows.append(
            {
                "mix": mix,
                "prism_h_dip": results[mix]["prism-h-dip"].antt / dip_antt,
                "tadip": results[mix]["tadip"].antt / dip_antt,
                "lru": results[mix]["lru"].antt / dip_antt,
            }
        )
    return {
        "id": "sec56",
        "rows": rows,
        "geomean": {
            key: geomean([r[key] for r in rows]) for key in ("prism_h_dip", "tadip", "lru")
        },
    }


def format_result(result: Dict) -> str:
    table = [[r["mix"], r["prism_h_dip"], r["tadip"], r["lru"]] for r in result["rows"]]
    g = result["geomean"]
    table.append(["geomean", g["prism_h_dip"], g["tadip"], g["lru"]])
    return (
        "Section 5.6: ANTT normalised to unmanaged DIP (lower = better)\n"
        + format_table(["mix", "PriSM-H+DIP", "TA-DIP", "LRU"], table)
    )
