"""Campaign semantics: resume, fault isolation, zero-recompute caching."""

import os
import time

import pytest

import repro.experiments.parallel as parallel_module
from repro.campaign import (
    Campaign,
    CampaignRunner,
    ResultStore,
    iter_isolated,
    spec_fingerprint,
)
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec, run_specs

CONFIG = machine(4, instructions=3_000)

GRID = dict(mixes=["Q1", "Q2"], schemes=["lru", "dip"], seeds=[0])  # 4 specs


def _counting(monkeypatch, module):
    """Patch ``module.run_workload`` to count invocations (serial path).

    ``parallel_module`` is where :func:`~repro.experiments.parallel.run_spec`,
    the one runner every execution path calls, looks ``run_workload`` up.
    """
    calls = []
    original = module.run_workload

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "run_workload", counted)
    return calls


class TestResume:
    def test_interrupted_campaign_resumes_remainder(self, tmp_path, monkeypatch):
        """After k of n specs, a new campaign object executes exactly n-k."""
        calls = _counting(monkeypatch, parallel_module)
        camp = Campaign.grid(tmp_path / "s", CONFIG, **GRID)
        first = camp.run(jobs=1, limit=1)  # interrupted after k=1 of n=4
        assert first.executed == 1 and first.remaining == 3
        assert len(calls) == 1

        resumed = Campaign.load(tmp_path / "s")  # from the store alone
        assert resumed.config == camp.config
        assert resumed.specs == camp.specs
        second = resumed.run(jobs=1)
        assert second.executed == 3  # exactly n - k
        assert second.skipped == 1
        assert len(calls) == 4
        assert resumed.status().done

    def test_completed_campaign_performs_zero_simulations(self, tmp_path, monkeypatch):
        camp = Campaign.grid(tmp_path / "s", CONFIG, **GRID)
        first = camp.run(jobs=1)
        assert first.executed == 4

        calls = _counting(monkeypatch, parallel_module)
        again = Campaign.load(tmp_path / "s").run(jobs=1)
        assert len(calls) == 0  # no simulation at all
        assert again.executed == 0 and again.skipped == 4
        # Field-for-field equal to the original run's results.
        assert again.results == first.results

    def test_duplicate_specs_execute_once(self, tmp_path, monkeypatch):
        calls = _counting(monkeypatch, parallel_module)
        spec = RunSpec(mix="Q1", scheme="lru")
        camp = Campaign(tmp_path / "s", CONFIG, [spec, spec, spec])
        run = camp.run(jobs=1)
        assert len(calls) == 1
        assert run.executed == 1
        assert run.results[0] == run.results[1] == run.results[2]

    def test_load_without_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Campaign.load(tmp_path / "nothing")


class TestFaultIsolation:
    BAD = RunSpec(mix="Q1", scheme="no-such-scheme")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_does_not_abort_other_specs(self, tmp_path, jobs):
        specs = [RunSpec(mix="Q1", scheme="lru"), self.BAD, RunSpec(mix="Q2", scheme="lru")]
        camp = Campaign(tmp_path / f"s{jobs}", CONFIG, specs, retries=0)
        run = camp.run(jobs=jobs)
        assert run.executed == 2 and run.failed == 1
        assert run.results[0] is not None and run.results[2] is not None
        assert run.results[1] is None
        [failure] = run.failures
        assert failure.error_type == "KeyError"
        assert "no-such-scheme" in failure.message
        # The failure is typed, persisted, and visible after reopening.
        [stored] = Campaign.load(tmp_path / f"s{jobs}").failures()
        assert stored.error_type == "KeyError"
        assert stored.attempts == 1

    def test_bounded_retries_each_in_fresh_worker(self, tmp_path):
        camp = Campaign(tmp_path / "s", CONFIG, [self.BAD], retries=2)
        run = camp.run(jobs=2)
        [failure] = run.failures
        assert failure.attempts == 3  # 1 + 2 retries

    def test_crashed_worker_is_replaced(self, monkeypatch):
        original = parallel_module.run_workload

        def crash_on_dip(*args, **kwargs):
            if kwargs["scheme"] == "dip":
                os._exit(3)  # die without reporting
            return original(*args, **kwargs)

        # Fork carries the patch into the workers.
        monkeypatch.setattr(parallel_module, "run_workload", crash_on_dip)
        specs = [RunSpec("Q1", "dip"), RunSpec("Q1", "lru"), RunSpec("Q2", "lru")]
        outcomes = sorted(iter_isolated(specs, CONFIG, jobs=2, retries=1),
                          key=lambda o: o.index)
        assert [o.ok for o in outcomes] == [False, True, True]
        assert outcomes[0].error.error_type == "WorkerCrash"
        assert "code 3" in outcomes[0].error.message
        assert outcomes[0].attempts == 2

    def test_failed_spec_retried_on_next_run(self, tmp_path):
        camp = Campaign(tmp_path / "s", CONFIG, [self.BAD], retries=0)
        camp.run(jobs=1)
        assert camp.status().failed == 1
        # A stored failure is not a result: the next run attempts it again.
        rerun = Campaign.load(tmp_path / "s").run(jobs=1)
        assert rerun.failed == 1 and rerun.skipped == 0

    def test_timeout_kills_hung_spec(self, tmp_path):
        hung = RunSpec(mix="Q1", scheme="lru", instructions=500_000_000)
        ok = RunSpec(mix="Q1", scheme="lru")
        camp = Campaign(tmp_path / "s", CONFIG, [hung, ok], retries=0, timeout=1.0)
        run = camp.run(jobs=2)
        assert run.executed == 1 and run.failed == 1
        [failure] = run.failures
        assert failure.timed_out
        assert failure.error_type == "Timeout"

    def test_isolated_results_match_plain_run_specs(self, tmp_path):
        """Fault isolation must not change what a run computes."""
        specs = [RunSpec(mix="Q1", scheme="lru"), RunSpec(mix="Q1", scheme="prism-h")]
        plain = run_specs(specs, CONFIG, jobs=1)
        outcomes = sorted(iter_isolated(specs, CONFIG, jobs=2), key=lambda o: o.index)
        assert [o.result for o in outcomes] == plain


class TestDispatchOrder:
    """Idle workers prefer mixes whose stand-alone baselines they hold."""

    @staticmethod
    def _workers(monkeypatch, specs):
        def run_workload(**kwargs):
            time.sleep(0.2)  # equal spec times keep the two workers in step
            return os.getpid(), kwargs["mix"]

        # Fork carries the patch into the workers: each result names the
        # process that ran it.
        monkeypatch.setattr(parallel_module, "run_workload", run_workload)
        outcomes = sorted(iter_isolated(specs, CONFIG, jobs=2), key=lambda o: o.index)
        assert all(o.ok for o in outcomes)
        return [o.result for o in outcomes]

    def test_each_worker_keeps_to_its_mixes(self, monkeypatch):
        specs = [RunSpec(mix, scheme) for mix in ("Q1", "Q2") for scheme in ("lru", "dip")]
        ran = self._workers(monkeypatch, specs)
        # Worker one starts on Q1, worker two on the first mix nobody has
        # run (Q2), and each then takes the rest of its own mix.
        assert ran[0][0] != ran[2][0]
        assert ran[1][0] == ran[0][0] and ran[3][0] == ran[2][0]

    def test_no_worker_idles_while_specs_are_pending(self, monkeypatch):
        ran = self._workers(monkeypatch, [RunSpec("Q1", "lru"), RunSpec("Q1", "dip")])
        assert ran[0][0] != ran[1][0]


class TestSpecFieldsSurvive:
    """``clusters``, ``backend`` and ``check`` reach the run and the store."""

    CLUSTERED = RunSpec("shared:smoke4", "prism-h", seed=1, instructions=20_000,
                        clusters=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_clustered_spec_through_campaign_run_load_results(self, tmp_path, jobs):
        config = machine(4)
        [expected] = run_specs([self.CLUSTERED], config, jobs=1)
        camp = Campaign(tmp_path / "s", config, [self.CLUSTERED], retries=0)
        assert camp.run(jobs=jobs).results == [expected]
        loaded = Campaign.load(tmp_path / "s")
        assert loaded.specs == [self.CLUSTERED]
        assert loaded.specs[0].clusters == 2
        assert loaded.results() == [expected]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_backend_reaches_the_run_and_the_manifest(self, tmp_path, monkeypatch, jobs):
        original = parallel_module.run_workload

        def vector_only(*args, **kwargs):
            assert kwargs["backend"] == "vector", kwargs
            return original(*args, **kwargs)

        # Fork carries the patch into the workers.
        monkeypatch.setattr(parallel_module, "run_workload", vector_only)
        # 1,024 LLC sets, so a vector request builds the vector engine.
        config = machine(4, scale_factor=4, instructions=3_000)
        spec = RunSpec("Q1", "prism-h", backend="vector")
        camp = Campaign(tmp_path / "s", config, [spec, RunSpec("Q2", backend="vector")],
                        retries=0)
        run = camp.run(jobs=jobs)
        assert run.failed == 0 and run.executed == 2
        loaded = Campaign.load(tmp_path / "s")
        assert loaded.specs[0] == spec
        assert loaded.results()[0] == run_specs([spec], config, jobs=1)[0]
        assert {s.meta.engine for s in ResultStore(tmp_path / "s").results()} == {"vector"}


class TestStoreBackedRunSpecs:
    SPECS = [RunSpec(mix="Q1", scheme="lru"), RunSpec(mix="Q1", scheme="dip")]

    def test_second_call_simulates_nothing(self, tmp_path, monkeypatch):
        first = run_specs(self.SPECS, CONFIG, store=tmp_path / "s")
        calls = _counting(monkeypatch, parallel_module)
        second = run_specs(self.SPECS, CONFIG, store=tmp_path / "s")
        assert len(calls) == 0
        assert second == first

    def test_store_is_an_argument_only(self, tmp_path, monkeypatch):
        """No environment variable opens a store behind the caller's back."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s"))
        run_specs(self.SPECS, CONFIG)
        assert not (tmp_path / "s").exists()

    def test_store_results_equal_plain_results(self, tmp_path):
        stored = run_specs(self.SPECS, CONFIG, store=tmp_path / "s")
        plain = run_specs(self.SPECS, CONFIG)
        assert stored == plain
        # And the round-tripped copies on the next call still match.
        assert run_specs(self.SPECS, CONFIG, store=tmp_path / "s") == plain

    def test_telemetry_request_upgrades_cached_result(self, tmp_path):
        """A trace-less cached result does not satisfy a telemetry spec."""
        store = tmp_path / "s"
        plain = RunSpec(mix="Q1", scheme="prism-h")
        traced = RunSpec(mix="Q1", scheme="prism-h", telemetry=True)
        [first] = run_specs([plain], CONFIG, store=store)
        assert first.telemetry is None
        [second] = run_specs([traced], CONFIG, store=store)
        assert second.telemetry is not None
        # The richer result superseded the stored one (same fingerprint).
        fp = spec_fingerprint(traced, CONFIG)
        assert ResultStore(store).get(fp).telemetry is not None


class TestStatusAndExport:
    def test_status_counts(self, tmp_path):
        camp = Campaign.grid(tmp_path / "s", CONFIG, **GRID)
        camp.run(jobs=1, limit=2)
        status = Campaign.load(tmp_path / "s").status()
        assert (status.total, status.completed, status.failed, status.pending) == (4, 2, 0, 2)
        assert not status.done
        assert "2/4 completed" in status.describe()

    def test_export_csv(self, tmp_path):
        camp = Campaign.grid(tmp_path / "s", CONFIG, **GRID)
        camp.run(jobs=1, limit=3)
        path = camp.export_csv(tmp_path / "out.csv")
        import csv

        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert sum(1 for r in rows if r["status"] == "completed") == 3
        assert sum(1 for r in rows if r["status"] == "pending") == 1
        done = next(r for r in rows if r["status"] == "completed")
        assert float(done["antt"]) > 0
        assert done["fingerprint"]

    def test_export_jsonl_carries_full_results(self, tmp_path):
        import json

        from repro.campaign.store import result_from_dict

        camp = Campaign.grid(tmp_path / "s", CONFIG, mixes=["Q1"],
                             schemes=["lru"], seeds=[0])
        run = camp.run(jobs=1)
        path = camp.export(tmp_path / "out.jsonl")
        [line] = open(path).read().splitlines()
        record = json.loads(line)
        assert record["status"] == "completed"
        assert result_from_dict(record["result"]) == run.results[0]

    def test_export_unknown_format(self, tmp_path):
        # "parquet" is a real format now (tests/campaign/
        # test_status_and_export.py covers it, fallback included).
        camp = Campaign.grid(tmp_path / "s", CONFIG, mixes=["Q1"],
                             schemes=["lru"], seeds=[0])
        with pytest.raises(ValueError):
            camp.export(tmp_path / "out.bin", fmt="feather")


class TestRunnerDirect:
    def test_runner_progress_reports_completion_and_failure(self, tmp_path):
        messages = []
        runner = CampaignRunner(tmp_path / "s", CONFIG, jobs=1, retries=0)
        runner.run(
            [RunSpec(mix="Q1", scheme="lru"), RunSpec(mix="Q1", scheme="bogus")],
            progress=messages.append,
        )
        assert len(messages) == 2
        assert any("FAILED" in m for m in messages)
