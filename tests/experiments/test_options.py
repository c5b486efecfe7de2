"""Tests for RunOptions and the experiment_run decorator."""

import os

import pytest

from repro.experiments import options as options_module
from repro.experiments import parallel
from repro.experiments.options import RunOptions, experiment_run


def test_jobs_env_name_in_sync_with_parallel_executor():
    assert options_module.JOBS_ENV == parallel.JOBS_ENV


class TestExperimentRunDecorator:
    @staticmethod
    def make_run():
        @experiment_run
        def run(instructions=None, mixes=None, seed=0, progress=None):
            return {
                "instructions": instructions,
                "mixes": mixes,
                "seed": seed,
                "jobs_env": os.environ.get(options_module.JOBS_ENV),
            }

        return run

    def test_options_forwarded(self):
        run = self.make_run()
        result = run(options=RunOptions(instructions=123, seed=7), mixes=["Q1"])
        assert result["instructions"] == 123
        assert result["seed"] == 7
        assert result["mixes"] == ["Q1"]

    def test_defaults_without_options(self):
        result = self.make_run()()
        assert result["instructions"] is None
        assert result["seed"] == 0

    def test_run_control_keywords_rejected(self):
        """A control passed as a keyword would be overwritten by options."""
        run = self.make_run()
        with pytest.raises(TypeError, match="instructions, seed only through"):
            run(instructions=55, seed=3)
        with pytest.raises(TypeError, match="jobs"):
            run(options=RunOptions(), jobs=2)

    def test_positional_instructions_rejected(self):
        run = self.make_run()
        with pytest.raises(TypeError, match="RunOptions"):
            run(1000)

    def test_jobs_pinned_to_environment_during_run(self, monkeypatch):
        monkeypatch.delenv(options_module.JOBS_ENV, raising=False)
        run = self.make_run()
        result = run(options=RunOptions(jobs=3))
        assert result["jobs_env"] == "3"
        assert options_module.JOBS_ENV not in os.environ  # restored after

    def test_jobs_env_restored_on_previous_value(self, monkeypatch):
        monkeypatch.setenv(options_module.JOBS_ENV, "7")
        self.make_run()(options=RunOptions(jobs=2))
        assert os.environ[options_module.JOBS_ENV] == "7"

    def test_figure_kwargs_unrelated_to_controls_pass_through(self):
        @experiment_run
        def run(instructions=None, bit_widths=(6, 8)):
            return bit_widths

        assert run(bit_widths=(4,)) == (4,)

    def test_wrapped_impl_reachable(self):
        run = self.make_run()
        assert callable(run.__wrapped_run__)
