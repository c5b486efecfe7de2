"""Figure 8 — per-benchmark misses under PriSM normalised to Vantage."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import fig08_vantage_misses
from repro.experiments.options import RunOptions
from repro.workloads.mixes import mixes_for_cores


def test_fig8_miss_breakdown(benchmark, report):
    mixes = mixes_subset(mixes_for_cores(4))
    result = benchmark.pedantic(
        lambda: fig08_vantage_misses.run(
            RunOptions(instructions=INSTRUCTIONS[4]), mixes=mixes
        ),
        rounds=1,
        iterations=1,
    )
    report(fig08_vantage_misses.format_result(result))
    # Paper: PriSM reduces misses for >= 3 of 4 programs in every quad mix;
    # require it for the majority of mixes at this scale.
    assert result["mixes_with_3plus_improved"] >= result["total_mixes"] / 2
