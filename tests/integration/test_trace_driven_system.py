"""Trace-driven runs through the full system (the trace_replay workflow)."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.core import HitMaxPolicy, PrismScheme
from repro.cpu.system import MultiCoreSystem
from repro.workloads.spec import get_profile
from repro.workloads.trace import record_trace

GEOMETRY = CacheGeometry(16 << 10, 64, 8)


def build_system(scheme, traces, profiles):
    cache = SharedCache(GEOMETRY, len(profiles))
    if scheme is not None:
        cache.set_scheme(scheme)
    system = MultiCoreSystem(cache, profiles)
    system.streams = traces  # Trace satisfies the take protocol
    return system, cache


class TestTraceDrivenRuns:
    def test_traces_drive_the_system(self):
        profiles = [get_profile("179.art"), get_profile("470.lbm")]
        traces = [record_trace(p, 5000, seed=i) for i, p in enumerate(profiles)]
        system, cache = build_system(None, traces, profiles)
        result = system.run(50_000)
        assert all(c.instructions >= 50_000 for c in result.cores)
        assert cache.stats.total_misses() > 0

    def test_identical_traces_identical_results_across_schemes_inputs(self):
        """The replay guarantee: two runs from the same trace see the same
        per-core input sequence, so an unmanaged cache reproduces hit
        counts exactly."""
        profiles = [get_profile("300.twolf"), get_profile("403.gcc")]

        def run_once():
            traces = [record_trace(p, 4000, seed=7 + i) for i, p in enumerate(profiles)]
            system, cache = build_system(None, traces, profiles)
            system.run(40_000)
            return cache.stats.snapshot()

        assert run_once() == run_once()

    def test_prism_on_traces(self):
        profiles = [get_profile("179.art"), get_profile("470.lbm")]
        traces = [record_trace(p, 5000, seed=i) for i, p in enumerate(profiles)]
        scheme = PrismScheme(HitMaxPolicy(), interval_len=64, sample_shift=1)
        system, cache = build_system(scheme, traces, profiles)
        system.run(50_000)
        assert cache.intervals_completed > 0
        assert cache.occupancy == cache.state().recount()
        # Hit-max starves the streamer here too.
        assert cache.occupancy[0] > cache.occupancy[1]

    def test_trace_wraps_for_long_runs(self):
        profile = get_profile("416.gamess")
        trace = record_trace(profile, 100, seed=1)
        system, cache = build_system(None, [trace], [profile])
        system.run(200_000)  # needs far more than 100 accesses
        assert trace.generated > 100
