"""Tests for RunOptions and the experiment_run decorator."""

import pytest

from repro.experiments.options import RunOptions, experiment_run


class TestExperimentRunDecorator:
    @staticmethod
    def make_run():
        @experiment_run
        def run(instructions=None, mixes=None, seed=0, progress=None, jobs=None,
                store=None):
            return {
                "instructions": instructions,
                "mixes": mixes,
                "seed": seed,
                "jobs": jobs,
                "store": store,
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

    def test_jobs_and_store_forwarded(self):
        result = self.make_run()(options=RunOptions(jobs=3, store="somewhere"))
        assert result["jobs"] == 3
        assert result["store"] == "somewhere"
        with pytest.raises(TypeError, match="store"):
            self.make_run()(store="somewhere")

    def test_figure_kwargs_unrelated_to_controls_pass_through(self):
        @experiment_run
        def run(instructions=None, bit_widths=(6, 8)):
            return bit_widths

        assert run(bit_widths=(4,)) == (4,)

    def test_wrapped_impl_reachable(self):
        run = self.make_run()
        assert callable(run.__wrapped_run__)
