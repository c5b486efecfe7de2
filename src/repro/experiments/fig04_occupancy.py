"""Figure 4 — Final cache occupancy under PriSM-H vs UCP (quad-core).

Each program's occupancy fraction is sampled the moment it retires its
instruction target (programs finish at different times, so the fractions
need not sum to 1 — exactly as the paper notes). The samples come from
the :mod:`repro.telemetry` recorder's per-core finish events — the runs
execute with ``telemetry=True`` and the figure reads the recorded
:class:`~repro.telemetry.FinishSample` occupancies. The paper's narrative
examples: PriSM gives ``168.wupwise`` more space in Q1, favours
``175.vpr``/``471.omnetpp`` over the streamers in Q4, and rewards
``179.art``/``471.omnetpp`` in Q7/Q11/Q12.
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
        ["prism-h", "ucp"],
        instructions=instructions,
        seed=seed,
        progress=progress,
        jobs=jobs,
        store=store,
        telemetry=True,
    )
    rows = []
    for mix in mix_names:
        prism = results[mix]["prism-h"].telemetry
        ucp = results[mix]["ucp"].telemetry
        for core, name in enumerate(results[mix]["prism-h"].benchmarks):
            rows.append(
                {
                    "mix": mix,
                    "core": core,
                    "benchmark": name,
                    "prism_occupancy": prism.occupancy_at_finish(core),
                    "ucp_occupancy": ucp.occupancy_at_finish(core),
                }
            )
    return {"id": "fig4", "rows": rows}


def format_result(result: Dict) -> str:
    table = [
        [r["mix"], r["benchmark"], r["prism_occupancy"], r["ucp_occupancy"]]
        for r in result["rows"]
    ]
    return "Figure 4: occupancy at finish (fraction of cache)\n" + format_table(
        ["mix", "benchmark", "PriSM-H", "UCP"], table, width=14
    )
