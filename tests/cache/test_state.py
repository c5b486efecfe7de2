"""The engine-neutral state view: one snapshot shape on every engine."""

import numpy as np
import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.vector import VectorCache
from repro.check.reference import build_reference
from repro.util.rng import make_rng

GEOMETRY = CacheGeometry(4 << 10, 64, 4)  # 16 sets x 4 ways
CORE_MAP = (0, 1, 0, 1)


def _stream(n=1500, cores=4, seed=3):
    rng = make_rng(seed, "state-view-test")
    return [(rng.randrange(cores), rng.randrange(200)) for _ in range(n)]


def _engines(**kwargs):
    return [
        SharedCache(GEOMETRY, 2, **kwargs),
        VectorCache(GEOMETRY, 2, **kwargs),
        build_reference("lru", 2, GEOMETRY, **kwargs),
    ]


def test_rows_agree_across_engines():
    engines = _engines(core_map=CORE_MAP, track_sharers=True)
    for cache in engines:
        for core, addr in _stream():
            cache.access(core, addr)
    views = [cache.state() for cache in engines]
    rows = views[0].rows()
    assert len(rows) == GEOMETRY.num_blocks  # the stream fills the cache
    assert rows == sorted(rows)
    for view in views[1:]:
        assert view.rows() == rows
        assert view.recount() == views[0].recount() == view.occupancy


def test_fillers_only_where_the_engine_keeps_them():
    classic, vector, reference = _engines(core_map=CORE_MAP)
    for cache in (classic, vector, reference):
        for core, addr in _stream():
            cache.access(core, addr)
    assert vector.state().filler is None
    assert vector.state().charges() is None
    charges = classic.state().charges()
    assert charges == reference.state().charges()
    assert len(charges) == len(CORE_MAP)
    assert sum(charges) == GEOMETRY.num_blocks


def test_untracked_view_has_no_sharers():
    for cache in _engines():
        cache.access(0, 5)
        view = cache.state()
        assert view.sharers is None
        assert view.rows() == [(5 % 16, 5 >> 4, 0)]


@pytest.mark.parametrize("engine", [SharedCache, VectorCache])
def test_bit_63_sharer_mask(engine):
    """64 owners: the top owner's bit survives as an unsigned plain int."""
    cache = engine(GEOMETRY, 64, track_sharers=True)
    cache.access(0, 7)
    cache.access(63, 7)  # a hit: ORs bit 63 into owner 0's block
    view = cache.state()
    assert view.sharers.dtype == np.uint64
    assert view.rows() == [(7, 0, 0, (1 << 63) | 1)]


def test_bit_63_rows_match_across_engines():
    stream = _stream(n=2000, cores=64, seed=5)
    engines = [SharedCache(GEOMETRY, 64, track_sharers=True),
               VectorCache(GEOMETRY, 64, track_sharers=True)]
    for cache in engines:
        cache.access_many(*zip(*stream))
    classic, vector = (cache.state().rows() for cache in engines)
    assert classic == vector
    assert any(row[3] >> 63 for row in classic)
