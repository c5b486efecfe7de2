"""Figure 12 — K-bit eviction probabilities vs floating point (quad).

PriSM-H with probabilities stored as 6/8/10/12-bit integers, ANTT
normalised to the full-precision run. Paper: indistinguishable from float,
so 6-8 bits suffice in hardware.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import Progress, format_table, run_grid
from repro.experiments.configs import machine
from repro.experiments.options import experiment_run
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["run", "format_result"]


@experiment_run
def run(
    instructions: Optional[int] = None,
    mixes: Optional[List[str]] = None,
    bit_widths: Sequence[int] = (6, 8, 10, 12),
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
) -> Dict:
    config = machine(4)
    mix_names = mixes or mixes_for_cores(4)
    variants = [("prism-h", None)]
    variants += [("prism-h", {"probability_bits": bits}) for bits in bit_widths]
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
        reference, *quantised = results[mix]
        row = {"mix": mix}
        for bits, result in zip(bit_widths, quantised):
            row[f"bits{bits}"] = result.antt / reference.antt
        rows.append(row)
    summary = {
        f"bits{bits}": geomean([r[f"bits{bits}"] for r in rows]) for bits in bit_widths
    }
    return {"id": "fig12", "bit_widths": list(bit_widths), "rows": rows, "geomean": summary}


def format_result(result: Dict) -> str:
    bits = result["bit_widths"]
    headers = ["mix"] + [f"{b}-bit" for b in bits]
    table = [[r["mix"]] + [r[f"bits{b}"] for b in bits] for r in result["rows"]]
    table.append(["geomean"] + [result["geomean"][f"bits{b}"] for b in bits])
    return (
        "Figure 12: ANTT of K-bit PriSM-H normalised to float PriSM-H (1.0 = identical)\n"
        + format_table(headers, table)
    )
