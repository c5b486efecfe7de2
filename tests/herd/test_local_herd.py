"""End-to-end campaign runs over forked and subprocess workers.

The acceptance bar of the one dispatch loop: a run over either kind of
worker is byte-equivalent to a serial campaign (identical result payloads
per fingerprint), a resumed run recomputes nothing, and a SIGKILLed
worker's in-flight spec is retried in a fresh worker without ever
duplicating a completed record.
"""

import collections
import threading

from repro.campaign.campaign import Campaign
from repro.campaign.store import ResultStore, result_to_dict
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec, run_specs

from tests.herd.conftest import KINDS, patched_workers, workers

CONFIG = machine(4, instructions=3_000)
MIXES = ["Q1", "Q4", "Q7"]
SCHEMES = ["lru", "prism-h"]


def build_campaign(path, **kwargs):
    return Campaign.grid(path, CONFIG, mixes=MIXES, schemes=SCHEMES, **kwargs)


def result_payloads(store_root):
    """fingerprint -> result payload dict, from the canonical store."""
    store = ResultStore(store_root)
    return {
        s.fingerprint: result_to_dict(s.result) for s in store.results()
    }


def records_per_fingerprint(store_root):
    counts = collections.Counter()
    for record in ResultStore(store_root).iter_records():
        if record.get("record") == "result":
            counts[record["fingerprint"]] += 1
    return counts


class TestHerdEquivalence:
    def test_herd_matches_serial_byte_for_byte(self, tmp_path):
        build_campaign(tmp_path / "serial").run(jobs=1)
        theirs = result_payloads(tmp_path / "serial")
        for kind in KINDS:
            run = build_campaign(tmp_path / kind).run(**workers(kind, 3))
            assert run.executed == len(MIXES) * len(SCHEMES), kind
            assert run.failed == 0 and run.remaining == 0
            assert not run.crashed_workers
            ours = result_payloads(tmp_path / kind)
            assert set(ours) == set(theirs)
            for fp, payload in theirs.items():
                assert ours[fp] == payload  # the simulated physics, exactly

    def test_resume_recomputes_nothing(self, tmp_path):
        for kind in KINDS:
            first = build_campaign(tmp_path / kind).run(**workers(kind, 2))
            assert first.executed == len(MIXES) * len(SCHEMES)
            again = build_campaign(tmp_path / kind).run(**workers(kind, 2))
            assert again.executed == 0
            assert again.skipped == len(MIXES) * len(SCHEMES)
            counts = records_per_fingerprint(tmp_path / kind)
            assert counts and set(counts.values()) == {1}  # one record each


class TestTelemetryTraces:
    def test_herd_writes_the_serial_trace_files(self, tmp_path):
        """A telemetry campaign leaves the same ``traces/<fp>.jsonl`` bytes
        whether it ran serially or on either kind of worker."""

        def grid(root):
            return Campaign.grid(root, CONFIG, mixes=["Q1"], schemes=["prism-h"],
                                 telemetry=True)

        grid(tmp_path / "serial").run(jobs=1)
        [serial] = sorted((tmp_path / "serial" / "traces").iterdir())
        for kind in KINDS:
            run = grid(tmp_path / kind).run(**workers(kind, 2))
            assert run.executed == 1 and run.failed == 0
            fleet = tmp_path / kind / "traces" / serial.name
            assert fleet.read_bytes() == serial.read_bytes()


class TestSpecFieldsSurvive:
    def test_clustered_spec_matches_run_specs(self, tmp_path):
        config = machine(4)
        spec = RunSpec("shared:smoke4", "prism-h", seed=1, instructions=20_000,
                       clusters=2)
        [expected] = run_specs([spec], config, jobs=1)
        for kind in KINDS:
            camp = Campaign(tmp_path / kind, config, [spec], retries=0)
            run = camp.run(**workers(kind, 2))
            assert run.executed == 1 and run.failed == 0
            loaded = Campaign.load(tmp_path / kind)
            assert loaded.specs == [spec]
            assert loaded.results() == [expected]
            [stored] = ResultStore(tmp_path / kind).results()
            assert stored.spec == spec

    VECTOR_ONLY = (
        "import repro.experiments.parallel as parallel_module\n"
        "original = parallel_module.run_workload\n"
        "def vector_only(*args, **kwargs):\n"
        "    assert kwargs['backend'] == 'vector', kwargs\n"
        "    return original(*args, **kwargs)\n"
        "parallel_module.run_workload = vector_only\n"
    )

    def test_backend_reaches_the_worker_and_the_store(self, tmp_path, monkeypatch):
        import repro.experiments.parallel as parallel_module

        original = parallel_module.run_workload

        def vector_only(*args, **kwargs):
            assert kwargs["backend"] == "vector", kwargs
            return original(*args, **kwargs)

        # Fork carries the patch into the forked workers; the subprocess
        # workers apply the same patch before they serve.
        monkeypatch.setattr(parallel_module, "run_workload", vector_only)
        specs = [RunSpec(mix, "prism-h", backend="vector") for mix in MIXES]
        # 1,024 LLC sets, so a vector request builds the vector engine.
        config = machine(4, scale_factor=4, instructions=3_000)
        for kind, kwargs in [("fork", {"jobs": 2}),
                             ("exec", {"commands": patched_workers(2, self.VECTOR_ONLY)})]:
            run = Campaign(tmp_path / kind, config, specs, retries=0).run(**kwargs)
            assert run.executed == len(specs) and run.failed == 0, run.failures
            records = ResultStore(tmp_path / kind).results()
            stored = {s.spec for s in records}
            assert stored == set(specs)
            assert {s.meta.engine for s in records} == {"vector"}
            assert all(s.result.engine.engine == "vector" for s in records)
            assert Campaign.load(tmp_path / kind).specs == specs


class TestDeadWorker:
    GRID = dict(mixes=MIXES, schemes=SCHEMES + ["ucp", "dip"])

    def test_chaos_kill_retries_and_zero_recompute(self, tmp_path):
        for kind in KINDS:
            campaign = Campaign.grid(tmp_path / kind, CONFIG, **self.GRID)
            fps = set(campaign.fingerprints())
            victim = f"{kind}-0"
            run = campaign.run(kill_after=(victim, 1), **workers(kind, 3))
            assert run.crashed_workers == [victim]
            assert run.executed == len(fps)
            assert run.failed == 0 and run.remaining == 0
            counts = records_per_fingerprint(tmp_path / kind)
            assert set(counts) == fps
            assert set(counts.values()) == {1}  # no fingerprint computed twice

    def test_chaos_kill_after_the_grids_last_result(self, tmp_path):
        """The victim's n-th result may end the grid: the kill still lands,
        on the idle worker, so the hook never depends on start order."""
        for kind in KINDS:
            campaign = Campaign.grid(tmp_path / kind, CONFIG, mixes=["Q1"], schemes=["lru"])
            run = campaign.run(kill_after=(f"{kind}-0", 1), **workers(kind, 2))
            assert run.crashed_workers == [f"{kind}-0"]
            assert run.executed == 1 and run.failed == 0 and run.remaining == 0
            assert set(records_per_fingerprint(tmp_path / kind).values()) == {1}

    def test_kill_then_resume_is_still_complete(self, tmp_path):
        for kind in KINDS:
            # One worker, so the kill lands mid-spec (the timeout keeps a
            # lone forked worker out of the driver process); with no
            # retries, that spec is a failure and the replacement worker
            # runs the rest.
            campaign = Campaign.grid(tmp_path / kind, CONFIG, retries=0, timeout=600,
                                     **self.GRID)
            total = len(set(campaign.fingerprints()))
            first = campaign.run(kill_after=(f"{kind}-0", 1), **workers(kind, 1))
            [failure] = first.failures
            assert failure.error_type == "WorkerCrash"
            assert first.executed == total - 1
            resumed = Campaign.load(tmp_path / kind).run(**workers(kind, 2))
            assert resumed.remaining == 0 and resumed.failed == 0
            assert resumed.executed == 1 and resumed.skipped == total - 1
            assert set(records_per_fingerprint(tmp_path / kind).values()) == {1}


class TestDrain:
    def test_drain_before_start_keeps_store_consistent(self, tmp_path):
        total = len(MIXES) * len(SCHEMES)
        stop = threading.Event()
        stop.set()  # SIGINT arrived before the first spec was handed out
        run = build_campaign(tmp_path / "store").run(jobs=3, stop=stop)
        assert run.executed + run.remaining == total
        assert run.remaining > 0  # a drained run stops early
        resumed = build_campaign(tmp_path / "store").run(jobs=3)
        assert resumed.executed == run.remaining
        assert resumed.skipped == run.executed
        assert set(records_per_fingerprint(tmp_path / "store").values()) == {1}
