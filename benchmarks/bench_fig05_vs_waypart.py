"""Figure 5 — same hit-max policy: PriSM enforcement vs way-partitioning."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import fig05_vs_waypart
from repro.experiments.options import RunOptions
from repro.workloads.mixes import mixes_for_cores


def test_fig5_enforcement_granularity(benchmark, report):
    mixes = mixes_subset(mixes_for_cores(16))
    result = benchmark.pedantic(
        lambda: fig05_vs_waypart.run(
            RunOptions(instructions=INSTRUCTIONS[16]), mixes=mixes
        ),
        rounds=1,
        iterations=1,
    )
    report(fig05_vs_waypart.format_result(result))
    # The paper's Fig. 5 claim: with the allocation policy held fixed,
    # fine-grained (PriSM) enforcement beats way-rounding on geomean.
    assert result["geomean"]["prism"] < result["geomean"]["waypart"]
