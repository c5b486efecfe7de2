"""Tests for the offline Belady/MIN baseline (repro.check.belady)."""

import gc
import tracemalloc
from array import array

import pytest

from repro.cache.geometry import CacheGeometry
from repro.check.belady import (
    BeladyCache,
    NaiveBelady,
    assert_belady_bound,
    belady_workload_run,
    next_use_indices,
    replay_trace,
)
from repro.check.invariants import InvariantViolation
from repro.cpu.memory import MemoryModel
from repro.cpu.system import MultiCoreSystem, RecordedTrace
from repro.cache.cache import SharedCache
from repro.cache.replacement.lru import LRUPolicy
from repro.util.rng import make_rng
from repro.workloads.spec import get_profile


def make_trace(num_cores, addrs, cores=None):
    trace = RecordedTrace(num_cores=num_cores)
    trace.addrs = list(addrs)
    trace.cores = list(cores) if cores is not None else [0] * len(trace.addrs)
    trace.gaps = [1] * len(trace.addrs)
    trace.l1_gaps = [0] * len(trace.addrs)
    trace.l1_lats = [0.0] * len(trace.addrs)
    return trace


def record_shared_trace(mix=("179.art", "181.mcf"), instructions=8000, seed=42):
    """Record a real post-L1 trace from a small inclusive-hierarchy run."""
    profiles = [get_profile(name) for name in mix]
    geometry = CacheGeometry(32 << 10, 64, 8)
    cache = SharedCache(geometry, len(profiles), policy=LRUPolicy())
    system = MultiCoreSystem(
        cache,
        profiles,
        seed=seed,
        l1_geometry=CacheGeometry(1 << 10, 64, 2),
        inclusive=True,
        record_trace=True,
    )
    system.run(instructions)
    return system.recorded_trace, geometry


class TestNextUse:
    def test_indices(self):
        addrs = [5, 7, 5, 9, 7, 5]
        n = len(addrs)
        assert list(next_use_indices(addrs)) == [2, 4, 5, n, n, n]

    def test_empty(self):
        assert list(next_use_indices([])) == []


class TestBeladyUnit:
    def test_classic_min_example(self):
        # One set, 4 ways, the textbook reference string: the 4-frame
        # optimum is 6 faults (evict 4 at the access of 5, then one of
        # the never-again blocks at the access of the second 4).
        geometry = CacheGeometry(4 * 64, 64, 4)
        addrs = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
        belady = BeladyCache(geometry, 1, addrs)
        outcomes = [belady.access(i, 0, a) for i, a in enumerate(addrs)]
        assert outcomes.count(False) == 6
        assert belady.total_hits() == 6

    def test_beats_lru_on_looping_pattern(self):
        # A loop one block larger than the cache: LRU gets zero hits,
        # Belady keeps all but one way pinned.
        geometry = CacheGeometry(4 * 64, 64, 4)
        loop = [0, 1, 2, 3, 4] * 40
        belady = BeladyCache(geometry, 1, loop)
        for i, a in enumerate(loop):
            belady.access(i, 0, a)
        lru = SharedCache(geometry, 1, policy=LRUPolicy())
        lru_hits = sum(lru.access(0, a).hit for a in loop)
        assert lru_hits == 0
        assert belady.total_hits() > len(loop) // 2

    def test_occupancy_tracks_owners(self):
        geometry = CacheGeometry(2 * 64, 64, 2)
        addrs = [10, 20, 30]
        cores = [0, 1, 0]
        belady = BeladyCache(geometry, 2, addrs)
        for i, (c, a) in enumerate(zip(cores, addrs)):
            belady.access(i, c, a)
        assert sum(belady.occupancy) == 2
        assert belady.occupancy[0] >= 1


class TestBeladyDifferential:
    @pytest.mark.parametrize("assoc,num_sets", [(1, 4), (2, 4), (4, 2), (8, 1)])
    def test_matches_naive_forward_scan(self, assoc, num_sets):
        geometry = CacheGeometry(assoc * num_sets * 64, 64, assoc)
        rng = make_rng(assoc * 31 + num_sets, "belady-diff")
        addrs = [rng.randrange(6 * geometry.num_blocks) for _ in range(2000)]
        fast = BeladyCache(geometry, 1, addrs)
        naive = NaiveBelady(geometry, 1, addrs)
        for i, a in enumerate(addrs):
            assert fast.access(i, 0, a) == naive.access(i, 0, a), (
                f"divergence at access {i} (assoc {assoc}, sets {num_sets})"
            )
        assert fast.total_hits() == naive.total_hits()


class TestReplayAndBound:
    def test_belady_bound_holds_on_recorded_trace(self):
        trace, geometry = record_shared_trace()
        assert len(trace) > 500
        results = assert_belady_bound(
            trace, geometry, ["lru", "plru", "dip", "prism-h"], seed=7
        )
        bound = results["belady"].total_hits
        for name, result in results.items():
            assert result.total_hits <= bound, name
            assert result.total_hits + result.total_misses == len(trace)

    def test_bound_violation_raises(self, monkeypatch):
        # Force a broken-optimum scenario: make the online replay report
        # one hit more than whatever Belady scored.
        import repro.check.belady as belady_mod

        geometry = CacheGeometry(2 * 64, 64, 2)
        trace = make_trace(1, [0, 1, 2, 0, 1, 2] * 10)
        real_replay = belady_mod.replay_trace

        def cheating_replay(trace_, geometry_, scheme="belady", **kwargs):
            result = real_replay(trace_, geometry_, scheme, **kwargs)
            if scheme != "belady":
                result.hits[0] = len(trace_)  # impossible: beats the optimum
            return result

        monkeypatch.setattr(belady_mod, "replay_trace", cheating_replay)
        with pytest.raises(InvariantViolation, match="belady-bound"):
            belady_mod.assert_belady_bound(trace, geometry, ["lru"])

    def test_replay_determinism(self):
        trace, geometry = record_shared_trace(instructions=1500)
        a = replay_trace(trace, geometry, "prism-h", seed=3)
        b = replay_trace(trace, geometry, "prism-h", seed=3)
        assert a.hits == b.hits and a.misses == b.misses


class TestBeladyWorkloadRun:
    def test_timing_reconstruction(self):
        mix = ("179.art", "181.mcf")
        trace, geometry = record_shared_trace(mix=mix, instructions=2500)
        profiles = [get_profile(name) for name in mix]
        result = belady_workload_run(
            trace, profiles, geometry, MemoryModel(), instructions_per_core=2500
        )
        assert result.scheme_name == "belady"
        assert result.intervals == 0
        assert result.total_accesses == len(trace)
        for core in result.cores:
            assert core.instructions >= 2500
            assert core.ipc > 0.0
            assert core.hits + core.misses > 0

    def test_deterministic(self):
        mix = ("179.art", "183.equake")
        trace, geometry = record_shared_trace(mix=mix, instructions=1500)
        profiles = [get_profile(name) for name in mix]
        runs = [
            belady_workload_run(
                trace, profiles, geometry, MemoryModel(), instructions_per_core=1500
            )
            for _ in range(2)
        ]
        assert runs[0].ipcs() == runs[1].ipcs()

    def test_belady_ipc_not_below_recorded_lru(self):
        # Same trace, same timing model: the optimal policy can only
        # raise hit counts, and with it the reconstructed IPCs.
        mix = ("181.mcf", "179.art")
        profiles = [get_profile(name) for name in mix]
        geometry = CacheGeometry(32 << 10, 64, 8)
        cache = SharedCache(geometry, len(profiles), policy=LRUPolicy())
        system = MultiCoreSystem(
            cache, profiles, seed=11, record_trace=True
        )
        lru_result = system.run(3000)
        trace = system.recorded_trace
        belady_result = belady_workload_run(
            trace, profiles, geometry, MemoryModel(), instructions_per_core=3000
        )
        lru_hits = sum(c.hits for c in lru_result.cores)
        belady_hits = sum(c.hits for c in belady_result.cores)
        assert belady_hits >= lru_hits


def as_lists(trace):
    """``trace`` with every column copied into a plain list."""
    copy = RecordedTrace(num_cores=trace.num_cores)
    for column in ("cores", "addrs", "gaps", "l1_gaps", "l1_lats"):
        setattr(copy, column, list(getattr(trace, column)))
    return copy


class TestColumnarTrace:
    def test_recorded_columns_are_typed_arrays(self):
        trace, _ = record_shared_trace(instructions=1500)
        typecodes = {
            "cores": "H", "addrs": "q", "gaps": "I", "l1_gaps": "I", "l1_lats": "d",
        }
        for column, typecode in typecodes.items():
            values = getattr(trace, column)
            assert isinstance(values, array), column
            assert values.typecode == typecode, column
            assert len(values) == len(trace)
        assert sum(array(t).itemsize for t in typecodes.values()) == 26

    def test_array_and_list_traces_replay_identically(self):
        mix = ("179.art", "181.mcf")
        trace, geometry = record_shared_trace(mix=mix, instructions=2500)
        listed = as_lists(trace)
        assert any(listed.l1_gaps) and any(listed.l1_lats)
        profiles = [get_profile(name) for name in mix]
        runs = [
            belady_workload_run(
                t, profiles, geometry, MemoryModel(), instructions_per_core=2500
            )
            for t in (trace, listed)
        ]
        assert runs[0] == runs[1]
        for scheme in ("belady", "lru", "prism-h"):
            a = replay_trace(trace, geometry, scheme, seed=3)
            b = replay_trace(listed, geometry, scheme, seed=3)
            assert (a.hits, a.misses) == (b.hits, b.misses), scheme

    @pytest.mark.parametrize("gap", [-1, 1 << 32])
    def test_out_of_range_gap_raises(self, gap):
        trace = RecordedTrace(num_cores=1)
        with pytest.raises(OverflowError):
            trace.gaps.append(gap)
        with pytest.raises(OverflowError):
            trace.l1_gaps.append(gap)
        assert len(trace.gaps) == len(trace.l1_gaps) == 0

    def test_recording_and_next_use_bytes_per_access(self):
        # Guards the columnar layout: 26 B of columns plus the 8 B
        # next-use array, against about 100 B with boxed list items.
        record_shared_trace(instructions=2000)  # warm caches and imports
        gc.collect()
        tracemalloc.start()
        try:
            trace, _ = record_shared_trace(instructions=200_000)
            next_use = next_use_indices(trace.addrs)
            gc.collect()  # the machine is a reference cycle; free it
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(next_use) == len(trace) > 20_000
        per_access = held / len(trace)
        assert per_access <= 48, f"{per_access:.1f} B per recorded access"
