"""End-to-end herd runs over the local (multiprocessing) transport.

The acceptance bar for the herd: a fleet run is byte-equivalent to a
serial campaign (identical result payloads per fingerprint), a resumed
herd recomputes nothing, and a SIGKILLed worker's orphans re-shard to the
survivors without ever duplicating a completed record.
"""

import collections

from repro.campaign.campaign import Campaign
from repro.campaign.store import ResultStore, result_to_dict
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec, run_specs
from repro.herd.controller import HerdController, shards_dir
from repro.herd.protocol import shard_index
from repro.herd.transport import LocalTransport

CONFIG = machine(4, instructions=3_000)
MIXES = ["Q1", "Q4", "Q7"]
SCHEMES = ["lru", "prism-h"]


def build_campaign(path):
    return Campaign.grid(path, CONFIG, mixes=MIXES, schemes=SCHEMES)


def herd(campaign, workers=3, **kwargs):
    controller = HerdController(
        campaign, transport=LocalTransport(), workers=workers, **kwargs
    )
    return controller.run()


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
        serial = build_campaign(tmp_path / "serial")
        serial.run(jobs=1)
        fleet = build_campaign(tmp_path / "fleet")
        run = herd(fleet, workers=3)
        assert run.executed == len(MIXES) * len(SCHEMES)
        assert run.failed == 0 and run.remaining == 0
        assert not run.dead_workers
        ours, theirs = (
            result_payloads(tmp_path / "fleet"),
            result_payloads(tmp_path / "serial"),
        )
        assert set(ours) == set(theirs)
        for fp, payload in theirs.items():
            assert ours[fp] == payload  # the simulated physics, exactly

    def test_resume_recomputes_nothing(self, tmp_path):
        campaign = build_campaign(tmp_path / "store")
        first = herd(campaign)
        assert first.executed == len(MIXES) * len(SCHEMES)
        again = herd(build_campaign(tmp_path / "store"))
        assert again.executed == 0
        assert again.skipped == len(MIXES) * len(SCHEMES)
        counts = records_per_fingerprint(tmp_path / "store")
        assert counts and set(counts.values()) == {1}  # one record each

    def test_shard_stores_written_through(self, tmp_path):
        campaign = build_campaign(tmp_path / "store")
        herd(campaign, workers=2)
        shard_roots = sorted(shards_dir(campaign.store.root).iterdir())
        assert shard_roots  # at least one worker had specs
        streamed = {}
        for root in shard_roots:
            streamed.update(result_payloads(root))
        assert streamed == result_payloads(tmp_path / "store")


class TestTelemetryTraces:
    def test_herd_writes_the_serial_trace_files(self, tmp_path):
        """A telemetry campaign leaves the same ``traces/<fp>.jsonl`` bytes
        whether it ran serially or through a herd worker."""
        config = machine(4, instructions=3_000)

        def grid(root):
            return Campaign.grid(root, config, mixes=["Q1"], schemes=["prism-h"],
                                 telemetry=True)

        grid(tmp_path / "serial").run(jobs=1)
        run = herd(grid(tmp_path / "fleet"), workers=1)
        assert run.executed == 1 and run.failed == 0
        serial = sorted((tmp_path / "serial" / "traces").iterdir())
        assert len(serial) == 1
        fleet = tmp_path / "fleet" / "traces" / serial[0].name
        assert fleet.read_bytes() == serial[0].read_bytes()


class TestSpecFieldsSurvive:
    def test_clustered_spec_matches_run_specs(self, tmp_path):
        config = machine(4)
        spec = RunSpec("shared:smoke4", "prism-h", seed=1, instructions=20_000,
                       clusters=2)
        [expected] = run_specs([spec], config, jobs=1)
        run = herd(Campaign(tmp_path / "s", config, [spec], retries=0), workers=1)
        assert run.executed == 1 and run.failed == 0
        loaded = Campaign.load(tmp_path / "s")
        assert loaded.specs == [spec]
        assert loaded.results() == [expected]
        [stored] = ResultStore(tmp_path / "s").results()
        assert stored.spec == spec

    def test_backend_reaches_the_worker_and_the_store(self, tmp_path, monkeypatch):
        import repro.experiments.parallel as parallel_module

        original = parallel_module.run_workload

        def vector_only(*args, **kwargs):
            assert kwargs["backend"] == "vector", kwargs
            return original(*args, **kwargs)

        # Fork carries the patch into the local workers.
        monkeypatch.setattr(parallel_module, "run_workload", vector_only)
        specs = [RunSpec(mix, "prism-h", backend="vector") for mix in MIXES]
        run = herd(Campaign(tmp_path / "s", CONFIG, specs, retries=0), workers=2)
        assert run.executed == len(specs) and run.failed == 0
        stored = {s.spec for s in ResultStore(tmp_path / "s").results()}
        assert stored == set(specs)
        assert Campaign.load(tmp_path / "s").specs == specs


class TestDeadWorker:
    def test_chaos_kill_resharding_and_zero_recompute(self, tmp_path):
        campaign = Campaign.grid(
            tmp_path / "store", CONFIG,
            mixes=MIXES, schemes=SCHEMES + ["ucp", "dip"],
        )
        # Pick the worker the fingerprint hash gives the most specs, so
        # the SIGKILL after its first result is guaranteed to orphan some.
        runner = campaign.runner()
        fps = [runner.fingerprint(s) for s in campaign.specs]
        loads = collections.Counter(shard_index(fp, 3) for fp in fps)
        victim = f"local-{loads.most_common(1)[0][0]}"
        assert loads.most_common(1)[0][1] >= 2

        run = herd(
            campaign, workers=3,
            chaos_kill_worker=victim, chaos_kill_after=1,
        )
        assert run.dead_workers == [victim]
        assert run.reassigned >= 1
        assert run.executed == len(fps)
        assert run.failed == 0 and run.remaining == 0
        counts = records_per_fingerprint(tmp_path / "store")
        assert set(counts) == set(fps)
        assert set(counts.values()) == {1}  # no fingerprint computed twice

    def test_kill_then_resume_is_still_complete(self, tmp_path):
        campaign = build_campaign(tmp_path / "store")
        runner = campaign.runner()
        fps = [runner.fingerprint(s) for s in campaign.specs]
        victim = f"local-{collections.Counter(shard_index(fp, 2) for fp in fps).most_common(1)[0][0]}"
        first = herd(
            campaign, workers=2, max_reassign=0,
            chaos_kill_worker=victim, chaos_kill_after=1,
        )
        # max_reassign=0 abandons the orphans: the first run is short.
        assert first.executed + first.failed + first.skipped <= len(fps)
        resumed = herd(build_campaign(tmp_path / "store"))
        assert resumed.remaining == 0 and resumed.failed == 0
        assert resumed.executed + resumed.skipped == len(fps)
        assert resumed.executed <= len(fps) - first.executed
        assert set(records_per_fingerprint(tmp_path / "store").values()) == {1}


class TestDrain:
    def test_drain_before_start_keeps_store_consistent(self, tmp_path):
        campaign = build_campaign(tmp_path / "store")
        controller = HerdController(
            campaign, transport=LocalTransport(), workers=3
        )
        controller.request_drain()  # SIGINT arrived before the fleet spun up
        run = controller.run()
        total = len(MIXES) * len(SCHEMES)
        assert run.drained
        assert run.executed + run.remaining == total
        assert run.remaining > 0  # drained fleets stop early
        resumed = herd(build_campaign(tmp_path / "store"))
        assert resumed.executed == run.remaining
        assert resumed.skipped == run.executed
        assert set(records_per_fingerprint(tmp_path / "store").values()) == {1}


class TestRecovery:
    def test_leftover_shard_records_are_recovered(self, tmp_path):
        """Controller SIGKILLed after a worker streamed results: the shard
        stores still hold them, and the next run merges instead of
        recomputing."""
        donor = build_campaign(tmp_path / "donor")
        herd(donor)
        campaign = build_campaign(tmp_path / "store")
        shard = ResultStore(shards_dir(campaign.store.root) / "local-0")
        for record in ResultStore(tmp_path / "donor").iter_records():
            shard.append_raw(record)
        run = herd(build_campaign(tmp_path / "store"))
        assert run.executed == 0
        assert run.skipped == len(MIXES) * len(SCHEMES)
