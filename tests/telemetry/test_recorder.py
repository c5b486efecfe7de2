"""Recorder tests: interval samples against the cache's own counters.

The load-bearing contracts: samples are taken with the interval counter
views still live (after the scheme reallocates, before the reset), the
recorded ``E_i`` are the very values the PriSM manager installed, and a
streaming sink sees exactly the canonical trace rows.
"""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.experiments.configs import machine
from repro.experiments.runner import run_workload
from repro.partitioning.base import ManagementScheme
from repro.telemetry import JSONLSink, MemorySink, TelemetryRecorder

GEOMETRY = CacheGeometry(4 << 10, 64, 4)  # 64 blocks, 16 sets


class CounterProbe(ManagementScheme):
    """Captures the interval counter views the scheme itself observes."""

    name = "probe"

    def __init__(self, interval_len=8):
        super().__init__()
        self.interval_len = interval_len
        self.views = []

    def end_interval(self, cache):
        self.views.append(
            {
                "hits": list(cache.stats.interval_hits),
                "misses": list(cache.stats.interval_misses),
                "evictions": list(cache.stats.interval_evictions),
                "miss_fractions": cache.stats.interval_miss_fractions(),
                "occupancy": list(cache.occupancy),
            }
        )


class QuotaProbe(CounterProbe):
    """A way-partitioner lookalike: exposes quotas but no targets."""

    def __init__(self):
        super().__init__()
        self.quotas = [3, 1]


class BlockTargetProbe(CounterProbe):
    """A Vantage lookalike: targets expressed in blocks, not fractions."""

    def __init__(self):
        super().__init__()
        self.targets = [48.0, 16.0]


def drive(cache, accesses=64, cores=2):
    for i in range(accesses):
        cache.access(i % cores, i)


class TestBareCacheRecording:
    def test_samples_match_interval_counter_views(self):
        cache = SharedCache(GEOMETRY, 2)
        probe = CounterProbe()
        cache.set_scheme(probe)
        recorder = TelemetryRecorder().bind_cache(cache)
        drive(cache)
        trace = recorder.result()
        assert trace.num_intervals == len(probe.views) > 0
        for interval, view in enumerate(probe.views):
            for core in range(2):
                sample = trace.samples[interval * 2 + core]
                assert sample.interval == interval
                assert sample.core == core
                assert sample.hits == view["hits"][core]
                assert sample.misses == view["misses"][core]
                assert sample.evictions == view["evictions"][core]
                assert sample.miss_fraction == view["miss_fractions"][core]
                assert sample.occupancy == (
                    view["occupancy"][core] / GEOMETRY.num_blocks
                )

    def test_no_timing_model_reads_zero(self):
        cache = SharedCache(GEOMETRY, 2)
        cache.set_scheme(CounterProbe())
        recorder = TelemetryRecorder().bind_cache(cache)
        drive(cache)
        sample = recorder.result().samples[0]
        assert sample.instructions == 0
        assert sample.ipc == 0.0
        assert sample.benchmark == "core0"  # default labels

    def test_scheme_without_manager_records_none(self):
        cache = SharedCache(GEOMETRY, 2)
        cache.set_scheme(CounterProbe())
        recorder = TelemetryRecorder().bind_cache(cache)
        drive(cache)
        assert all(
            s.eviction_probability is None and s.target is None
            for s in recorder.result().samples
        )

    def test_quota_scheme_targets_as_way_fractions(self):
        cache = SharedCache(GEOMETRY, 2)
        cache.set_scheme(QuotaProbe())
        recorder = TelemetryRecorder().bind_cache(cache)
        drive(cache)
        sample0, sample1 = recorder.result().samples[:2]
        assert sample0.target == pytest.approx(3 / GEOMETRY.assoc)
        assert sample1.target == pytest.approx(1 / GEOMETRY.assoc)

    def test_block_count_targets_normalised_to_fractions(self):
        cache = SharedCache(GEOMETRY, 2)
        cache.set_scheme(BlockTargetProbe())
        recorder = TelemetryRecorder().bind_cache(cache)
        drive(cache)
        sample0, sample1 = recorder.result().samples[:2]
        assert sample0.target == pytest.approx(48.0 / GEOMETRY.num_blocks)
        assert sample1.target == pytest.approx(16.0 / GEOMETRY.num_blocks)

    def test_unbound_recorder_has_no_result(self):
        with pytest.raises(RuntimeError, match="not bound"):
            TelemetryRecorder().result()


class TestPrismEquivalence:
    """Recorded E_i must be the manager's own installed distributions."""

    CFG = machine(4, instructions=30_000)
    KW = {"interval_len": 128}  # short intervals -> many recomputations

    def test_probability_stats_bit_equal_to_scheme(self):
        result = run_workload(
            "Q1", self.CFG, "prism-h", scheme_kwargs=self.KW, telemetry=True
        )
        trace = result.telemetry
        assert trace.num_intervals == result.intervals > 0
        # Same floats, same accumulation: bit-equal, no tolerances.
        assert trace.probability_stats() == result.probability_stats

    def test_last_interval_matches_final_distribution(self):
        result = run_workload(
            "Q1", self.CFG, "prism-h", scheme_kwargs=self.KW, telemetry=True
        )
        final = [
            result.telemetry.per_core(core)[-1].eviction_probability
            for core in range(4)
        ]
        assert final == result.eviction_probabilities

    def test_distributions_and_targets_are_normalised(self):
        result = run_workload(
            "Q1", self.CFG, "prism-h", scheme_kwargs=self.KW, telemetry=True
        )
        trace = result.telemetry
        for interval in range(trace.num_intervals):
            batch = trace.samples[interval * 4:(interval + 1) * 4]
            assert sum(s.eviction_probability for s in batch) == pytest.approx(1.0)
            assert sum(s.miss_fraction for s in batch) == pytest.approx(1.0)
            assert sum(s.target for s in batch) == pytest.approx(1.0)

    def test_telemetry_does_not_perturb_the_simulation(self):
        plain = run_workload("Q1", self.CFG, "prism-h", scheme_kwargs=self.KW)
        traced = run_workload(
            "Q1", self.CFG, "prism-h", scheme_kwargs=self.KW, telemetry=True
        )
        assert plain.shared_ipcs() == traced.shared_ipcs()
        assert plain.intervals == traced.intervals
        assert plain.eviction_probabilities == traced.eviction_probabilities


class TestSinks:
    CFG = machine(4, instructions=30_000)
    KW = {"interval_len": 128}

    def test_memory_sink_sees_canonical_rows(self):
        sink = MemorySink()
        recorder = TelemetryRecorder(sink=sink)
        result = run_workload(
            "Q1", self.CFG, "prism-h", scheme_kwargs=self.KW, telemetry=recorder
        )
        assert sink.rows == list(result.telemetry.rows())

    def test_streaming_jsonl_equals_post_hoc_write(self, tmp_path):
        live_path = tmp_path / "live.jsonl"
        recorder = TelemetryRecorder(sink=JSONLSink(live_path))
        result = run_workload(
            "Q1", self.CFG, "prism-h", scheme_kwargs=self.KW, telemetry=recorder
        )
        post_path = result.telemetry.write(tmp_path / "post.jsonl")
        assert live_path.read_bytes() == post_path.read_bytes()

    def test_streaming_csv_equals_post_hoc_write(self, tmp_path):
        from repro.telemetry import open_sink

        live_path = tmp_path / "live.csv"
        recorder = TelemetryRecorder(sink=open_sink(live_path))
        result = run_workload(
            "Q1", self.CFG, "prism-h", scheme_kwargs=self.KW, telemetry=recorder
        )
        post_path = result.telemetry.write(tmp_path / "post.csv")
        assert live_path.read_bytes() == post_path.read_bytes()

    def test_timing_populated_by_system_run(self):
        result = run_workload(
            "Q1", self.CFG, "prism-h", scheme_kwargs=self.KW, telemetry=True
        )
        timing = result.telemetry.timing
        assert timing.wall_seconds > 0.0
        assert timing.accesses > 0
        assert 0.0 < timing.alloc_seconds < timing.wall_seconds
