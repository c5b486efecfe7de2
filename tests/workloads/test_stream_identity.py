"""Bulk stream draws equal the per-call draws they replace.

Every stream draws accesses through ``take(n)``, which inlines CPython's
``_randbelow_with_getrandbits``. These tests pin ``take`` in random chunk
sizes against an oracle written with the per-call ``random.Random`` API
(``randint`` for gaps, ``random`` + ``randrange`` for addresses), so the
inlined rejection loop is certified on every CPython the suite runs on.
"""

import itertools

import numpy as np
import pytest

from repro.util.rng import derive_seed, make_rng
from repro.workloads.benchmark import AccessStream
from repro.workloads.phased import PhasedProfile, PhasedStream
from repro.workloads.spec import PROFILES, get_profile
from repro.workloads.trace import Trace
from repro.workloads.zones import ScanZone, UniformZone, ZoneModel


def oracle_addresses(zones, seed, scale):
    """Block addresses of a zone mixture, one ``random()`` (+ one
    ``randrange``) per address."""
    total = sum(z.weight for z in zones)
    cumweights = list(itertools.accumulate(z.weight / total for z in zones))
    cumweights[-1] = 1.0
    sizes = [max(1, int(round(z.size * scale))) for z in zones]
    bases = [0] + list(itertools.accumulate(sizes))[:-1]
    scan_pos = [0] * len(zones)
    rng = make_rng(seed, "zones")
    while True:
        r = rng.random()
        index = 0
        while cumweights[index] < r:
            index += 1
        if isinstance(zones[index], ScanZone):
            offset = scan_pos[index]
            scan_pos[index] = (offset + 1) % sizes[index]
        else:
            offset = rng.randrange(sizes[index])
        yield bases[index] + offset


def oracle_stream(profile, seed, scale=1.0):
    """``(gap, addr)`` pairs, one ``randint`` per gap."""
    rng = make_rng(seed, "gaps", profile.name)
    lo = max(1, int(profile.mean_gap * 0.5))
    hi = max(lo, int(profile.mean_gap * 1.5))
    for addr in oracle_addresses(list(profile.zones), seed, scale):
        yield rng.randint(lo, hi), addr


def oracle_phased(profile, seed, scale=1.0):
    """``(phase, gap, addr)`` triples, switching phase right after the
    access that completes one."""
    streams = [
        oracle_stream(p, derive_seed(seed, "phase", i, p.name), scale)
        for i, (p, _) in enumerate(profile.phases)
    ]
    lengths = [instructions for _, instructions in profile.phases]
    phase, used = 0, 0
    while True:
        gap, addr = next(streams[phase])
        yield phase, gap, addr + phase * PhasedStream.PHASE_STRIDE
        used += gap
        if used >= lengths[phase]:
            phase, used = (phase + 1) % len(streams), 0


def chunk_sizes(label, total):
    """Random chunk sizes in 1..700 summing to ``total``."""
    rng = make_rng(0, "chunks", label)
    sizes = []
    while total > 0:
        sizes.append(min(total, rng.randint(1, 700)))
        total -= sizes[-1]
    return sizes


@pytest.mark.parametrize("scale", [1.0, 0.05])
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_take_matches_the_per_call_oracle(name, scale):
    profile = get_profile(name)
    stream = AccessStream(profile, seed=11, scale=scale)
    expected = oracle_stream(profile, 11, scale)
    drawn = 0
    for n in chunk_sizes(name, 3_000):
        gaps, addrs = stream.take(n)
        assert len(gaps) == len(addrs) == n
        assert list(zip(gaps, addrs)) == list(itertools.islice(expected, n))
        drawn += n
        assert stream.generated == drawn
    assert stream.next_access() == next(expected)


def test_zone_take_covers_every_rejection_width():
    # Sizes 1, powers of two and their neighbours exercise the redraw loop
    # at its extremes (a size of 2**k draws k + 1 bits and rejects half).
    zones = [UniformZone(1.0, size) for size in (1, 2, 3, 63, 64, 65, 1000, 4096)]
    zones.append(ScanZone(1.0, 7))
    model = ZoneModel(zones, seed=5)
    expected = oracle_addresses(zones, 5, 1.0)
    for n in chunk_sizes("zones", 5_000):
        assert model.take(n) == list(itertools.islice(expected, n))
    assert model.addresses(3) == list(itertools.islice(expected, 3))


def short_phases():
    """Three phases, each much shorter than one chunk of accesses."""
    return PhasedProfile([
        (get_profile("179.art"), 500),
        (get_profile("470.lbm"), 2_000),
        (get_profile("403.gcc"), 1_200),
    ])


def test_phased_take_matches_the_oracle_and_never_spans_a_phase():
    profile = short_phases()
    stream = profile.stream(seed=9)
    expected = oracle_phased(profile, 9)
    consumed = 0
    for n in chunk_sizes("phased", 20_000):
        while n:
            gaps, addrs = stream.take(n)
            assert 1 <= len(gaps) == len(addrs) <= n
            want = list(itertools.islice(expected, len(gaps)))
            assert list(zip(gaps, addrs)) == [(g, a) for _, g, a in want]
            # After each consumed access the stream reports its phase.
            for phase, _, _ in want:
                assert stream.current_phase == phase
            n -= len(gaps)
            consumed += len(gaps)
    assert stream.generated == consumed
    assert stream.phase_switches > 3 * len(profile.phases)


def test_phased_next_access_reports_the_upcoming_phase():
    profile = short_phases()
    stream = profile.stream(seed=9)
    for phase, gap, addr in itertools.islice(oracle_phased(profile, 9), 3_000):
        assert stream.current_phase == phase
        assert stream.next_access() == (gap, addr)


def test_phased_take_resumes_each_sub_stream_where_it_stopped():
    # Large takes draw past a phase's end; the surplus must be served
    # first when the schedule returns to that phase.
    profile = short_phases()
    big, small = profile.stream(seed=4), profile.stream(seed=4)
    for _ in range(60):
        gaps, addrs = big.take(700)
        pairs = []
        while len(pairs) < len(gaps):
            pairs.append(small.next_access())
        assert list(zip(gaps, addrs)) == pairs


def test_trace_take_wraps_around():
    gaps = np.arange(1, 8)
    addrs = np.arange(100, 107)
    trace = Trace(gaps, addrs)
    cycle = itertools.cycle(zip(gaps.tolist(), addrs.tolist()))
    total = 0
    for n in [3, 5, 7, 1, 20, 0, 2]:
        got_gaps, got_addrs = trace.take(n)
        assert all(type(v) is int for v in got_gaps + got_addrs)
        assert list(zip(got_gaps, got_addrs)) == list(itertools.islice(cycle, n))
        total += n
    assert trace.generated == total
    assert trace.next_access() == next(cycle)


@pytest.mark.parametrize("stream", [
    AccessStream(get_profile("179.art")),
    PhasedStream(short_phases()),
    Trace(np.ones(3), np.zeros(3)),
])
def test_negative_take_is_rejected(stream):
    with pytest.raises(ValueError):
        stream.take(-1)



@pytest.mark.parametrize("chunk", [1, 7])
def test_system_results_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    from repro.cache.cache import SharedCache
    from repro.cache.geometry import CacheGeometry
    from repro.cpu import system

    def run():
        cache = SharedCache(CacheGeometry(16 << 10, 64, 16), 2)
        machine = system.MultiCoreSystem(
            cache, [short_phases(), get_profile("429.mcf")], seed=3
        )
        return machine.run(60_000), machine.streams[0].phase_switches

    reference = run()
    monkeypatch.setattr(system, "_CHUNK", chunk)
    assert run() == reference
