"""Figure 3 — per-workload ANTT: PriSM-H vs UCP vs PIPP (quad + 32-core)."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import fig03_percore
from repro.experiments.options import RunOptions
from repro.workloads.mixes import mixes_for_cores


def test_fig3_per_workload(benchmark, report):
    quad = mixes_subset(mixes_for_cores(4))
    big = mixes_subset(mixes_for_cores(32), limit=2)
    result = benchmark.pedantic(
        lambda: fig03_percore.run(
            RunOptions(instructions=INSTRUCTIONS[4]), quad_mixes=quad, big_mixes=big
        ),
        rounds=1,
        iterations=1,
    )
    report(fig03_percore.format_result(result))
    # PriSM-H beats LRU on geomean in both panels.
    assert result["quad"]["geomean"]["prism_h"] < 1.0
    assert result["thirtytwo"]["geomean"]["prism_h"] < 1.0
    # The paper's 32-core story: PIPP loses its quad-core edge at scale —
    # PriSM-H must be at least competitive with PIPP there.
    assert (
        result["thirtytwo"]["geomean"]["prism_h"]
        < result["thirtytwo"]["geomean"]["pipp"] + 0.05
    )
