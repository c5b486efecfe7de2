"""Figure 11 — stability of PriSM-H eviction probabilities (quad)."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import fig11_evprob
from repro.experiments.options import RunOptions
from repro.workloads.mixes import mixes_for_cores


def test_fig11_probability_stability(benchmark, report):
    mixes = mixes_subset(mixes_for_cores(4))
    result = benchmark.pedantic(
        lambda: fig11_evprob.run(
            RunOptions(instructions=INSTRUCTIONS[4] * 2), mixes=mixes
        ),
        rounds=1,
        iterations=1,
    )
    report(fig11_evprob.format_result(result))
    # The paper's reading: probabilities settle — std is small relative to
    # the [0,1] range for the large majority of (mix, benchmark) pairs.
    rows = result["rows"]
    stable = sum(1 for r in rows if r["std"] < 0.15)
    assert stable >= 0.8 * len(rows)
    assert result["recomputations_min"] > 10
