"""Registry checks plus a micro-scale smoke run of every experiment."""

import pytest

from repro.experiments.options import RunOptions
from repro.experiments.registry import EXPERIMENTS

#: Micro budgets: one or two mixes, tiny instruction windows. These verify
#: that every figure's pipeline runs end to end and produces shaped rows;
#: the benchmarks/ tree runs them at meaningful scale.
MICRO = {
    "fig1": {"instructions": 25_000, "mixes_per_count": 1},
    "fig2": {"instructions": 25_000, "mixes_per_count": 1, "core_counts": (4, 8)},
    "fig3": {"instructions": 25_000, "quad_mixes": ["Q7"], "big_mixes": ["T1"]},
    "fig4": {"instructions": 25_000, "mixes": ["Q7"]},
    "fig5": {"instructions": 25_000, "mixes": ["S1"]},
    "fig6": {"instructions": 25_000, "mixes": ["S1"]},
    "fig7": {"instructions": 25_000, "quad_mixes": ["Q7"], "sixteen_mixes": ["S1"]},
    "fig8": {"instructions": 25_000, "mixes": ["Q7"]},
    "fig9": {"instructions": 25_000, "mixes": ["S1"]},
    "fig10": {"instructions": 25_000, "mixes": ["S1"]},
    "fig11": {"instructions": 50_000, "mixes": ["Q7"]},
    "fig12": {"instructions": 25_000, "mixes": ["Q7"], "bit_widths": (6,)},
    "fig13": {"instructions": 50_000, "mixes": ["Q7"], "interval_multipliers": (0.5, 1.0)},
    "sec56": {"instructions": 25_000, "mixes": ["Q7"]},
    "tenants": {"instructions": 30_000, "workload": "smoke4",
                "schemes": ["lru", "cliff", "prism-h"]},
    "headroom": {"instructions": 25_000, "mixes": ["Q7"],
                 "schemes": ["lru", "prism-h"]},
    "scaleout": {"instructions": 30_000, "workloads": ["smoke4"],
                 "schemes": ["lru", "prism-h"], "clusters": 2},
}


class TestRegistry:
    def test_all_seventeen_experiments_registered(self):
        assert len(EXPERIMENTS) == 17
        for fig in range(1, 14):
            assert f"fig{fig}" in EXPERIMENTS
        assert "sec56" in EXPERIMENTS
        assert "tenants" in EXPERIMENTS
        assert "headroom" in EXPERIMENTS
        assert "scaleout" in EXPERIMENTS

    def test_micro_budgets_cover_registry(self):
        assert set(MICRO) == set(EXPERIMENTS)

    def test_grid_experiments_declare_jobs_and_store(self):
        # An implementation that forgets either parameter silently drops
        # --jobs/--store; only headroom (one trace per mix, no grid) may.
        for experiment_id, experiment in EXPERIMENTS.items():
            controls = experiment.run.run_controls
            if experiment_id == "headroom":
                assert not controls & {"jobs", "store"}
            else:
                assert {"jobs", "store"} <= controls, experiment_id


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_smoke(experiment_id):
    """Every experiment runs at micro scale and formats to a non-trivial
    paper-style table."""
    experiment = EXPERIMENTS[experiment_id]
    kwargs = dict(MICRO[experiment_id])
    options = RunOptions(instructions=kwargs.pop("instructions"))
    result = experiment.run(options=options, **kwargs)
    assert result["id"].startswith(experiment_id[:4]) or result["id"] == experiment_id
    text = experiment.format(result)
    assert len(text.splitlines()) >= 3
    assert any(ch.isdigit() for ch in text)
