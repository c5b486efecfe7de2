"""The reference simulator's transcriptions agree with the engine's math.

The differential fuzzer (test_differential) exercises whole runs; these
tests pin the *unit-level* correspondences — every free function the
reference transcribed from the paper must equal the engine's optimised
version bit for bit, because the oracle's authority rests on it being an
independent but exact restatement.
"""

import pytest
from hypothesis import given, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.check.reference import (
    REFERENCE_SCHEMES,
    build_reference,
    ref_dequantize,
    ref_derive_eviction_probabilities,
    ref_eviction_probability,
    ref_normalize_targets,
    ref_quantize,
)
from repro.core.allocation.base import normalize_targets
from repro.core.eviction import derive_eviction_probabilities, eviction_probability
from repro.core.quantize import dequantize, quantize_distribution
from repro.experiments.schemes import SCHEMES

fractions = st.floats(0.0, 1.0, allow_nan=False)
weights = st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=6)


def test_reference_schemes_are_registry_names():
    """Every oracle scheme resolves through the real scheme registry."""
    assert set(REFERENCE_SCHEMES) <= set(SCHEMES)


def test_build_reference_rejects_unknown_scheme():
    geometry = CacheGeometry(4 << 10, 64, 4)
    with pytest.raises(KeyError, match="lru"):
        build_reference("no-such-scheme", 4, geometry)


@given(c=fractions, t=fractions, m=fractions,
       n=st.integers(1, 1 << 16), w=st.integers(1, 1 << 16))
def test_eq1_single_core_matches_engine(c, t, m, n, w):
    assert ref_eviction_probability(c, t, m, n, w) == eviction_probability(c, t, m, n, w)


@given(raw=st.tuples(weights, weights, weights),
       n=st.integers(1, 4096), w=st.integers(1, 4096),
       renormalize=st.booleans())
def test_eq1_vector_matches_engine(raw, n, w, renormalize):
    k = min(len(v) for v in raw)
    c, t, m = ([x / 10.0 for x in v[:k]] for v in raw)
    assert ref_derive_eviction_probabilities(
        c, t, m, n, w, renormalize=renormalize
    ) == derive_eviction_probabilities(c, t, m, n, w, renormalize=renormalize)


@given(targets=weights)
def test_normalize_targets_matches_engine(targets):
    assert ref_normalize_targets(targets) == normalize_targets(targets)


@given(raw=weights, bits=st.integers(1, 12))
def test_quantize_roundtrip_matches_engine(raw, bits):
    total = sum(raw)
    probabilities = [x / total for x in raw] if total > 0 else normalize_targets(raw)
    engine_levels = quantize_distribution(probabilities, bits)
    assert ref_quantize(probabilities, bits) == engine_levels
    assert ref_dequantize(engine_levels, bits) == dequantize(engine_levels, bits)


def test_derive_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="length mismatch"):
        ref_derive_eviction_probabilities([0.5], [0.5, 0.5], [1.0], 64, 64)


def test_reference_runs_standalone():
    """The oracle is a usable simulator on its own (not just a comparator)."""
    geometry = CacheGeometry(8 * 4 * 64, 64, 4)
    reference = build_reference("prism-h", 2, geometry,
                                scheme_kwargs={"interval_len": 32, "seed": 1})
    hits = 0
    for i in range(2000):
        hits += reference.access(i % 2, (i * 13) % 257 * 64).hit
    assert reference.occupancy == reference.state().recount()
    assert sum(reference.occupancy) <= geometry.num_blocks
    assert sum(reference.hits) == hits
    assert reference.intervals_completed > 0
    assert sum(reference.scheme.probabilities) == pytest.approx(1.0)
