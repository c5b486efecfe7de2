"""Figure 13 — Victim-not-found rate vs interval length (quad).

The fraction of replacements where the sampled victim core held no block
in the accessed set, for interval lengths of N/2, N and 2N misses (the
paper sweeps 32K/64K/128K at N=64K blocks — the same x2 ladder around the
default W = N). Paper: the fraction falls from 3.8% to 2.5% as the
interval grows, because a longer interval smooths the sampled distribution
toward steady-state occupancy.

This figure characterises the *paper's* mechanism, so the runs use the
paper-literal configuration (first-candidate fallback, no bias feedback);
the repo's default resampling fallback deliberately changes what a
"not-found" event does, which would make the measurement incomparable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import Progress, format_table, run_grid
from repro.experiments.configs import machine
from repro.experiments.options import experiment_run
from repro.workloads.mixes import mixes_for_cores

__all__ = ["run", "format_result"]


@experiment_run
def run(
    instructions: Optional[int] = None,
    mixes: Optional[List[str]] = None,
    interval_multipliers: Sequence[float] = (0.5, 1.0, 2.0),
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    config = machine(4)
    num_blocks = config.geometry.num_blocks
    mix_names = mixes or mixes_for_cores(4)
    variants = [
        ("prism-h", {
            "interval_len": max(1, int(num_blocks * mult)),
            "fallback": "paper",
            "bias_correction": False,
        })
        for mult in interval_multipliers
    ]
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
        row = {"mix": mix}
        for mult, result in zip(interval_multipliers, results[mix]):
            row[f"w{mult}"] = result.victim_not_found_rate
        rows.append(row)
    averages = {
        f"w{mult}": sum(r[f"w{mult}"] for r in rows) / len(rows)
        for mult in interval_multipliers
    }
    return {
        "id": "fig13",
        "num_blocks": num_blocks,
        "interval_multipliers": list(interval_multipliers),
        "rows": rows,
        "average": averages,
    }


def format_result(result: Dict) -> str:
    mults = result["interval_multipliers"]
    n = result["num_blocks"]
    headers = ["mix"] + [f"W={int(n * m)}" for m in mults]
    table = [[r["mix"]] + [r[f"w{m}"] for m in mults] for r in result["rows"]]
    table.append(["average"] + [result["average"][f"w{m}"] for m in mults])
    return (
        "Figure 13: fraction of replacements with no block of the selected core\n"
        + format_table(headers, table)
    )
