"""Cross-backend equivalence: the vector engine vs the classic engine.

The vector engine (:mod:`repro.cache.vector`) re-implements the shared
cache over numpy arrays; its contract is *bit-exactness* with the classic
:class:`~repro.cache.cache.SharedCache` — same hits, same victims, same
PriSM draws, same interval boundaries. The heavy certification runs in CI
(``repro-sim check fuzz --backend vector``, 200 cases against both the
classic engine and the reference oracle); here a scaled-down matrix over
scheme kind x geometry x chunk size keeps tier-1 fast while still walking
every supported configuration class, plus direct tests of the batch API
surface and of the ``VectorUnsupported`` rejections ``build_cache`` relies
on for its fallback.
"""

import random

import pytest

from repro.cache.cache import SharedCache
from repro.cache.encode import encode_trace
from repro.cache.geometry import CacheGeometry
from repro.cache.shadow import ShadowTagMonitor
from repro.cache.replacement.dip import DIPPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.srrip import SRRIPPolicy
from repro.cache.vector import BatchResults, VectorCache, VectorUnsupported
from repro.core import HitMaxPolicy
from repro.core.prism import PrismScheme
from repro.partitioning.unmanaged import UnmanagedScheme

GEO_S = CacheGeometry(1 << 14, 64, 4)   # 64 sets
GEO_M = CacheGeometry(1 << 16, 64, 8)   # 128 sets
GEO_L = CacheGeometry(1 << 18, 64, 16)  # 256 sets

NUM_CORES = 4


def _build(kind, geo, backend, chunk=None):
    """One (policy, scheme) configuration under either backend."""
    policy = DIPPolicy(seed=3) if kind in ("dip", "prism-dip") else LRUPolicy()
    scheme = None
    if kind == "prism":
        scheme = PrismScheme(HitMaxPolicy(), seed=5, interval_len=257,
                             fallback="resample")
    elif kind == "prism-paper":
        scheme = PrismScheme(HitMaxPolicy(), seed=5, interval_len=193,
                             fallback="paper")
    elif kind == "prism-dip":
        scheme = PrismScheme(HitMaxPolicy(), seed=5, interval_len=257)
    elif kind == "prism-quant":
        scheme = PrismScheme(HitMaxPolicy(), seed=5, interval_len=129,
                             probability_bits=6)
    if backend == "vector":
        return VectorCache(geo, NUM_CORES, policy=policy, scheme=scheme,
                           chunk=chunk)
    return SharedCache(geo, NUM_CORES, policy=policy, scheme=scheme)


def _stream(geo, seed, n):
    rng = random.Random(seed)
    naddr = geo.num_blocks * 2
    return [(rng.randrange(NUM_CORES), rng.randrange(naddr)) for _ in range(n)]


def _assert_equivalent(classic, vector, kind):
    """Every externally visible piece of state must match."""
    assert classic.stats.hits == vector.stats.hits
    assert classic.stats.misses == vector.stats.misses
    assert classic.stats.evictions == vector.stats.evictions
    assert classic.occupancy == vector.occupancy
    assert vector.occupancy == vector.state().recount()
    assert classic.intervals_completed == vector.intervals_completed
    if classic.scheme is not None:
        ma, mb = classic.scheme.manager, vector.scheme.manager
        assert list(ma.probabilities) == list(mb.probabilities)
        assert list(classic.scheme.targets) == list(vector.scheme.targets)
        assert ma.replacements == mb.replacements
        assert ma.victim_not_found == mb.victim_not_found
        shadows_a = [m for m in classic.monitors if isinstance(m, ShadowTagMonitor)]
        shadows_b = [m for m in vector.monitors if isinstance(m, ShadowTagMonitor)]
        assert shadows_a and len(shadows_a) == len(shadows_b)
        for sa, sb in zip(shadows_a, shadows_b):
            assert sa.shared_hits == sb.shared_hits
            assert sa.shared_misses == sb.shared_misses
            assert sa.position_hits == sb.position_hits
            assert sa.shadow_misses == sb.shadow_misses
    if kind in ("dip", "prism-dip"):
        assert classic.policy.psel == vector.policy.psel


# One (geometry, chunk, seed) pair per kind would leave each axis thinly
# covered; two pairs per kind rotate all three axes while keeping tier-1
# runtime low. The full 6x3x3x2 sweep runs in CI via the fuzzer.
MATRIX = [
    ("lru", GEO_S, None, 0),
    ("lru", GEO_L, 1024, 1),
    ("dip", GEO_S, 37, 0),
    ("dip", GEO_M, None, 1),
    ("prism", GEO_M, None, 0),
    ("prism", GEO_S, 37, 1),
    ("prism-paper", GEO_S, None, 0),
    ("prism-paper", GEO_M, 1024, 1),
    ("prism-dip", GEO_M, 37, 0),
    ("prism-dip", GEO_L, None, 1),
    ("prism-quant", GEO_S, None, 1),
    ("prism-quant", GEO_L, 37, 0),
]


@pytest.mark.parametrize(
    "kind,geo,chunk,seed", MATRIX,
    ids=[f"{k}-{g.num_sets}sets-chunk{c}-s{s}" for k, g, c, s in MATRIX],
)
def test_vector_matches_classic(kind, geo, chunk, seed):
    stream = _stream(geo, seed, 2500)
    classic = _build(kind, geo, "classic")
    vector = _build(kind, geo, "vector", chunk=chunk)
    scalar_results = [classic.access(core, addr) for core, addr in stream]
    batch = vector.access_many(encode_trace(stream, geo), collect=True)
    for i, (a, b) in enumerate(zip(scalar_results, batch)):
        assert (a.hit, a.set_index, a.evicted_core, a.evicted_addr) == (
            b.hit, b.set_index, b.evicted_core, b.evicted_addr
        ), f"{kind} diverges at access {i}: {a} vs {b}"
    _assert_equivalent(classic, vector, kind)


def test_classic_access_many_matches_scalar_drive():
    """The classic batch path is the scalar loop, access for access."""
    stream = _stream(GEO_M, 42, 3000)
    scheme = PrismScheme(HitMaxPolicy(), seed=5, interval_len=257)
    scalar = SharedCache(GEO_M, NUM_CORES, scheme=scheme)
    batched = SharedCache(
        GEO_M, NUM_CORES,
        scheme=PrismScheme(HitMaxPolicy(), seed=5, interval_len=257),
    )
    scalar_results = [scalar.access(core, addr) for core, addr in stream]
    batch = batched.access_many(encode_trace(stream, GEO_M), collect=True)
    assert len(batch) == len(scalar_results)
    for a, b in zip(scalar_results, batch):
        assert (a.hit, a.set_index, a.evicted_core, a.evicted_addr) == (
            b.hit, b.set_index, b.evicted_core, b.evicted_addr
        )
    _assert_equivalent(scalar, batched, "prism")


def test_classic_access_many_cores_addrs_form():
    """access_many(cores, addrs) encodes internally — same as pre-encoded."""
    stream = _stream(GEO_S, 9, 800)
    cores = [c for c, _ in stream]
    addrs = [a for _, a in stream]
    via_pairs = SharedCache(GEO_S, NUM_CORES)
    via_arrays = SharedCache(GEO_S, NUM_CORES)
    via_pairs.access_many(encode_trace(stream, GEO_S))
    via_arrays.access_many(cores, addrs)
    assert via_pairs.stats.hits == via_arrays.stats.hits
    assert via_pairs.stats.misses == via_arrays.stats.misses
    assert via_pairs.occupancy == via_arrays.occupancy


def test_vector_scalar_access_matches_batch():
    """VectorCache.access (one at a time) equals its own batch replay."""
    stream = _stream(GEO_S, 13, 1500)
    one_by_one = _build("prism", GEO_S, "vector")
    batched = _build("prism", GEO_S, "vector", chunk=64)
    scalar_results = [one_by_one.access(core, addr) for core, addr in stream]
    batch = batched.access_many(encode_trace(stream, GEO_S), collect=True)
    for a, b in zip(scalar_results, batch):
        assert (a.hit, a.set_index, a.evicted_core, a.evicted_addr) == (
            b.hit, b.set_index, b.evicted_core, b.evicted_addr
        )
    _assert_equivalent(one_by_one, batched, "prism")


@pytest.mark.parametrize("kind", ["lru", "prism"])
def test_per_access_monitor_sees_the_classic_sequence(kind):
    """A per-access monitor is driven, access for access, like classic."""

    class Recorder:
        def __init__(self):
            self.seen = []

        def observe(self, core, set_index, tag, hit):
            self.seen.append((core, set_index, tag, hit))

    stream = _stream(GEO_S, 11, 3000)
    cores, addrs = zip(*stream)
    seen = {}
    for backend in ("classic", "vector"):
        cache = _build(kind, GEO_S, backend, chunk=64)
        recorder = Recorder()
        cache.add_monitor(recorder)
        cache.access_many(cores[:1000], addrs[:1000])
        for core, addr in stream[1000:]:
            cache.access(core, addr)
        seen[backend] = recorder.seen
    assert len(seen["vector"]) == len(stream)
    assert seen["vector"] == seen["classic"]


class TestBatchResults:
    def _results(self):
        stream = _stream(GEO_S, 21, 400)
        cache = _build("lru", GEO_S, "vector")
        return cache, stream, cache.access_many(
            encode_trace(stream, GEO_S), collect=True
        )

    def test_len_and_indexing(self):
        _, stream, batch = self._results()
        assert isinstance(batch, BatchResults)
        assert len(batch) == len(stream)
        first = batch.result(0)
        assert not first.hit  # cold cache: the first access must miss

    def test_iteration_yields_access_results(self):
        _, stream, batch = self._results()
        materialised = list(batch)
        assert len(materialised) == len(stream)
        for i, result in enumerate(materialised):
            assert result.hit == bool(batch.hit[i])
            assert result.set_index == int(batch.set_index[i])

    def test_collect_false_returns_none(self):
        stream = _stream(GEO_S, 22, 200)
        cache = _build("lru", GEO_S, "vector")
        assert cache.access_many(encode_trace(stream, GEO_S)) is None
        assert sum(cache.stats.misses) > 0


class TestVectorUnsupported:
    def test_rejects_non_vectorisable_policy(self):
        with pytest.raises(VectorUnsupported):
            VectorCache(GEO_S, NUM_CORES, policy=SRRIPPolicy())

    def test_rejects_non_prism_scheme(self):
        with pytest.raises(VectorUnsupported):
            VectorCache(GEO_S, NUM_CORES, scheme=UnmanagedScheme())

    def test_unsupported_is_a_value_error(self):
        # build_cache's fallback contract: construction failure must be
        # catchable without importing the vector module first.
        assert issubclass(VectorUnsupported, ValueError)

    def test_failed_construction_leaves_scheme_reusable(self):
        """A rejected config must not half-attach the scheme (fallback path)."""
        policy = SRRIPPolicy()
        scheme = PrismScheme(HitMaxPolicy(), seed=5, interval_len=257)
        with pytest.raises(VectorUnsupported):
            VectorCache(GEO_S, NUM_CORES, policy=policy, scheme=scheme)
        classic = SharedCache(GEO_S, NUM_CORES, policy=policy, scheme=scheme)
        for core, addr in _stream(GEO_S, 5, 600):
            classic.access(core, addr)
        assert sum(classic.stats.misses) > 0
