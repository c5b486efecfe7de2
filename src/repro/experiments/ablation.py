"""Ablations of the repo's PriSM design choices (DESIGN.md §3).

Four switchable mechanisms separate this implementation from a literal
reading of the paper at 1/64 scale:

- the resampling victim-not-found fallback (vs the paper's first-candidate
  rule),
- the eviction-bias feedback correction,
- PriSM-H's knee-protection floor and thrash discount (vs pure Alg. 1),
- dense (1/2) shadow-tag sampling (vs the paper's ratio, 1/8 scaled).

Each variant runs PriSM-H on a slice of 16-core mixes; the table reports
geomean ANTT versus LRU (lower is better) so the contribution of every
mechanism at this scale is visible.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import Progress, format_table, run_grid
from repro.experiments.configs import machine
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["VARIANTS", "run", "format_result"]

#: Variant name -> scheme_kwargs for the ``prism-h`` factory.
VARIANTS: Dict[str, dict] = {
    "default": {},
    "pure-alg1": {"pure": True},
    "paper-fallback": {"fallback": "paper"},
    "no-bias-feedback": {"bias_correction": False},
    "sparse-shadow": {"sample_shift": 3},
    "all-paper-literal": {"pure": True, "fallback": "paper", "bias_correction": False},
}


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
    mix_names = mixes or mixes_for_cores(cores)[:6]
    variants = [("lru", None)]
    variants += [("prism-h", dict(kwargs)) for kwargs in VARIANTS.values()]
    results = run_grid(
        mix_names,
        config,
        variants,
        instructions=instructions,
        seed=seed,
        progress=progress,
        jobs=jobs,
        store=store,
    )
    rows = []
    for mix in mix_names:
        lru, *variant_results = results[mix]
        row = {"mix": mix}
        for variant, result in zip(VARIANTS, variant_results):
            row[variant] = result.antt / lru.antt
        rows.append(row)
    summary = {
        variant: geomean([row[variant] for row in rows]) for variant in VARIANTS
    }
    return {"id": "ablation", "cores": cores, "rows": rows, "geomean": summary}


def format_result(result: Dict) -> str:
    variants = list(VARIANTS)
    headers = ["mix"] + variants
    table = [[row["mix"]] + [row[v] for v in variants] for row in result["rows"]]
    table.append(["geomean"] + [result["geomean"][v] for v in variants])
    return (
        f"Ablation of PriSM design choices at {result['cores']} cores "
        "(ANTT vs LRU; lower = better)\n" + format_table(headers, table, width=17)
    )
