"""Figure 2 — PriSM-H / PriSM-F summary across core counts."""

from conftest import INSTRUCTIONS, MIXES_PER_COUNT

from repro.experiments import fig02_summary
from repro.experiments.options import RunOptions


def test_fig2_summary(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig02_summary.run(
            RunOptions(instructions=INSTRUCTIONS),
            mixes_per_count=MIXES_PER_COUNT or None
        ),
        rounds=1,
        iterations=1,
    )
    report(fig02_summary.format_result(result))
    for row in result["rows"]:
        # PriSM-H improves on LRU at every core count (paper: 12.7-18.7%).
        assert row["prism_h_antt_vs_lru"] < 1.0
        if "fairness_prism_f" in row:
            # PriSM-F's fairness beats the LRU baseline (paper Fig. 2 right).
            assert row["fairness_prism_f"] > row["fairness_lru"] * 0.98
