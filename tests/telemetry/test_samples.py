"""Unit tests for the telemetry records and the RunTelemetry container."""

import csv
import json

import pytest

from repro.telemetry import FinishSample, IntervalSample, RunTelemetry, RunTiming


def sample(interval, core, probability=0.25, occupancy=0.25):
    return IntervalSample(
        interval=interval,
        core=core,
        benchmark=f"core{core}",
        occupancy=occupancy,
        miss_fraction=0.5,
        eviction_probability=probability,
        target=0.25,
        hits=10,
        misses=5,
        evictions=4,
        instructions=1000,
        ipc=0.8,
    )


def trace_with(num_intervals, num_cores=2):
    trace = RunTelemetry(
        num_cores=num_cores, benchmarks=[f"core{i}" for i in range(num_cores)]
    )
    for interval in range(num_intervals):
        for core in range(num_cores):
            trace.samples.append(sample(interval, core, probability=0.1 * (core + 1)))
    for core in range(num_cores):
        trace.finishes.append(
            FinishSample(
                core=core, benchmark=f"core{core}", instructions=5000,
                cycles=6000.0, occupancy=0.3 + 0.1 * core,
            )
        )
    return trace


class TestViews:
    def test_num_intervals(self):
        assert trace_with(0).num_intervals == 0
        assert trace_with(7).num_intervals == 7

    def test_per_core_and_series(self):
        trace = trace_with(3)
        core1 = trace.per_core(1)
        assert len(core1) == 3
        assert all(s.core == 1 for s in core1)
        assert [s.interval for s in core1] == [0, 1, 2]
        assert trace.series("eviction_probability", 1) == [0.2, 0.2, 0.2]

    def test_occupancy_at_finish(self):
        trace = trace_with(1)
        assert trace.occupancy_at_finish(0) == pytest.approx(0.3)
        assert trace.occupancy_at_finish(1) == pytest.approx(0.4)
        assert trace.occupancy_at_finish(99) == 0.0

    def test_probability_stats_constant_series(self):
        stats = trace_with(5).probability_stats()
        assert stats[0] == {"mean": pytest.approx(0.1), "std": pytest.approx(0.0),
                            "samples": 5}
        assert stats[1]["mean"] == pytest.approx(0.2)

    def test_probability_stats_skips_none(self):
        trace = RunTelemetry(num_cores=1, benchmarks=["a"])
        trace.samples.append(sample(0, 0, probability=None))
        stats = trace.probability_stats()
        assert stats[0]["mean"] == 0.0
        assert stats[0]["samples"] == 1  # intervals recorded, E_i absent

    def test_empty_trace_stats(self):
        trace = RunTelemetry(num_cores=2, benchmarks=["a", "b"])
        assert trace.probability_stats() == [
            {"mean": 0.0, "std": 0.0, "samples": 0},
            {"mean": 0.0, "std": 0.0, "samples": 0},
        ]


class TestEquality:
    def test_timing_excluded_from_equality(self):
        a = trace_with(2)
        b = trace_with(2)
        a.timing = RunTiming(wall_seconds=1.0, alloc_seconds=0.2, accesses=100)
        b.timing = RunTiming(wall_seconds=9.0, alloc_seconds=0.1, accesses=42)
        assert a == b

    def test_samples_compared_exactly(self):
        a = trace_with(2)
        b = trace_with(2)
        b.samples[0] = sample(0, 0, probability=0.10000001)
        assert a != b


class TestTiming:
    def test_derived_properties(self):
        timing = RunTiming(wall_seconds=2.0, alloc_seconds=0.5, accesses=1000)
        assert timing.access_seconds == pytest.approx(1.5)
        assert timing.accesses_per_sec == pytest.approx(500.0)
        assert timing.alloc_share == pytest.approx(0.25)

    def test_zero_wall_clock_is_safe(self):
        timing = RunTiming()
        assert timing.accesses_per_sec == 0.0
        assert timing.alloc_share == 0.0

    def test_describe_mentions_allocation_share(self):
        text = RunTiming(wall_seconds=1.0, alloc_seconds=0.1, accesses=10).describe()
        assert "allocation" in text
        assert "10 accesses" in text


class TestSerialization:
    def test_rows_interval_then_finish(self):
        rows = list(trace_with(2).rows())
        assert [r["record"] for r in rows] == ["interval"] * 4 + ["finish"] * 2
        assert rows[0]["interval"] == 0 and rows[0]["core"] == 0
        assert rows[1]["core"] == 1

    def test_jsonl_round_trip(self, tmp_path):
        trace = trace_with(2)
        path = trace.write(tmp_path / "trace.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == list(trace.rows())

    def test_csv_has_all_columns(self, tmp_path):
        trace = trace_with(1)
        path = trace.write(tmp_path / "trace.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 interval rows + 2 finish rows
        assert rows[0]["record"] == "interval"
        assert rows[-1]["record"] == "finish"
        assert rows[-1]["ipc"] == ""  # finish rows have no interval IPC

    def test_write_dispatches_on_extension(self, tmp_path):
        trace = trace_with(1)
        jsonl = trace.write(tmp_path / "t.jsonl")
        csv_path = trace.write(tmp_path / "t.csv")
        assert jsonl.read_text().startswith("{")
        assert csv_path.read_text().startswith("record,")

    def test_timing_never_serialized(self, tmp_path):
        trace = trace_with(1)
        trace.timing = RunTiming(wall_seconds=123.0, alloc_seconds=1.0, accesses=7)
        text = trace.write(tmp_path / "t.jsonl").read_text()
        assert "123" not in text
        assert "wall_seconds" not in text
