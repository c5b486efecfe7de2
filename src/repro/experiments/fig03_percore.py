"""Figure 3 — Per-workload ANTT: PriSM-H vs UCP vs PIPP.

(a) the 21 quad-core workloads, (b) the 14 thirtytwo-core workloads; all
ANTTs normalised to LRU (lower is better). The paper's reading: PriSM-H
beats UCP on all 32-core mixes and most quad mixes, with Q7 the headline
(~50% over LRU); PIPP wins a few cache-friendly quad mixes (Q5/Q6/Q8/Q14)
but collapses at 32 cores.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import Progress, compare_schemes, format_table
from repro.experiments.configs import machine
from repro.experiments.options import experiment_run
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["run", "format_result"]

_SCHEMES = ["lru", "prism-h", "ucp", "pipp"]


def _panel(cores: int, mixes: Optional[List[str]], **grid) -> Dict:
    config = machine(cores)
    mix_names = mixes or mixes_for_cores(cores)
    results = compare_schemes(mix_names, config, _SCHEMES, **grid)
    rows = []
    for mix in mix_names:
        lru_antt = results[mix]["lru"].antt
        rows.append(
            {
                "mix": mix,
                "prism_h": results[mix]["prism-h"].antt / lru_antt,
                "ucp": results[mix]["ucp"].antt / lru_antt,
                "pipp": results[mix]["pipp"].antt / lru_antt,
            }
        )
    summary = {
        scheme: geomean([r[scheme] for r in rows]) for scheme in ("prism_h", "ucp", "pipp")
    }
    return {"cores": cores, "rows": rows, "geomean": summary}


@experiment_run
def run(
    instructions: Optional[int] = None,
    quad_mixes: Optional[List[str]] = None,
    big_mixes: Optional[List[str]] = None,
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    grid = dict(instructions=instructions, seed=seed, progress=progress, jobs=jobs,
                store=store)
    return {
        "id": "fig3",
        "quad": _panel(4, quad_mixes, **grid),
        "thirtytwo": _panel(32, big_mixes, **grid),
    }


def format_result(result: Dict) -> str:
    parts = []
    for key, title in (("quad", "Figure 3(a): quad-core"), ("thirtytwo", "Figure 3(b): 32-core")):
        panel = result[key]
        parts.append(f"{title} — ANTT normalised to LRU (lower = better)")
        table = [[r["mix"], r["prism_h"], r["ucp"], r["pipp"]] for r in panel["rows"]]
        table.append(
            ["geomean", panel["geomean"]["prism_h"], panel["geomean"]["ucp"], panel["geomean"]["pipp"]]
        )
        parts.append(format_table(["mix", "PriSM-H", "UCP", "PIPP"], table))
    return "\n".join(parts)
