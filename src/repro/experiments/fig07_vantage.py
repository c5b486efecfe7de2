"""Figure 7 — PriSM vs Vantage on set-associative caches.

Both contenders run the extended-UCP allocation policy over the coarse
timestamp-LRU baseline (Section 5.3's level playing field); ANTT is
normalised to the unmanaged timestamp-LRU cache. Paper: PriSM wins most
quad mixes (all but Q12/Q17/Q19/Q20) and every 16-core mix, by 7.8% and
11.8% on average.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import Progress, compare_schemes, format_table
from repro.experiments.configs import machine
from repro.experiments.options import experiment_run
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["run", "format_result"]


def _panel(cores: int, mixes: Optional[List[str]], **grid) -> Dict:
    config = machine(cores)
    mix_names = mixes or mixes_for_cores(cores)
    results = compare_schemes(mix_names, config, ["tslru", "vantage", "prism-ucpx"], **grid)
    rows = []
    for mix in mix_names:
        base = results[mix]["tslru"].antt
        rows.append(
            {
                "mix": mix,
                "vantage": results[mix]["vantage"].antt / base,
                "prism": results[mix]["prism-ucpx"].antt / base,
                "vantage_forced": results[mix]["vantage"].forced_evictions or 0,
            }
        )
    return {
        "cores": cores,
        "rows": rows,
        "geomean": {
            "vantage": geomean([r["vantage"] for r in rows]),
            "prism": geomean([r["prism"] for r in rows]),
        },
        "results": results,
    }


@experiment_run
def run(
    instructions: Optional[int] = None,
    quad_mixes: Optional[List[str]] = None,
    sixteen_mixes: Optional[List[str]] = None,
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    grid = dict(instructions=instructions, seed=seed, progress=progress, jobs=jobs,
                store=store)
    return {
        "id": "fig7",
        "quad": _panel(4, quad_mixes, **grid),
        "sixteen": _panel(16, sixteen_mixes, **grid),
    }


def format_result(result: Dict) -> str:
    parts = []
    for key, title in (("quad", "Figure 7 quad-core"), ("sixteen", "Figure 7 sixteen-core")):
        panel = result[key]
        parts.append(f"{title} — ANTT normalised to timestamp-LRU (lower = better)")
        table = [[r["mix"], r["vantage"], r["prism"]] for r in panel["rows"]]
        table.append(["geomean", panel["geomean"]["vantage"], panel["geomean"]["prism"]])
        parts.append(format_table(["mix", "Vantage", "PriSM"], table))
    return "\n".join(parts)
