"""Workload characterisation tools.

Library versions of the analyses the calibration tests run inline:
measure a profile's miss-rate-vs-allocation curve (its *utility curve*),
its LRU reuse-distance histogram, and a qualitative classification — the
same lenses the paper (and UCP before it) uses to reason about which
programs deserve cache.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.workloads.benchmark import BenchmarkProfile

__all__ = ["miss_curve", "reuse_distance_histogram", "classify_profile"]


def _addresses(profile, accesses: int, seed: int, scale: float) -> List[int]:
    """The first ``accesses`` addresses of the profile's seeded stream
    (a phased stream hands them over one phase at a time)."""
    stream = profile.stream(seed=seed, scale=scale)
    addrs: List[int] = []
    while len(addrs) < accesses:
        addrs += stream.take(accesses - len(addrs))[1]
    return addrs


def miss_curve(
    profile: BenchmarkProfile,
    cache_blocks: Sequence[int],
    assoc: int = 16,
    accesses: int = 30_000,
    seed: int = 0,
    scale: float = 1.0,
) -> List[float]:
    """Stand-alone miss rate at each cache size (in blocks).

    Args:
        profile: the benchmark.
        cache_blocks: cache sizes to measure, in blocks (powers of two
            times ``assoc``).
        assoc: associativity of the measurement caches.
        accesses: stream length per point.
        seed: stream seed (same stream at every size).

    Returns:
        Miss rates, one per entry of ``cache_blocks``.
    """
    if not cache_blocks:
        raise ValueError("need at least one cache size")
    addrs = _addresses(profile, accesses, seed, scale)
    rates = []
    for blocks in cache_blocks:
        geometry = CacheGeometry(blocks * 64, 64, assoc)
        access = SharedCache(geometry, 1).access
        misses = 0
        for addr in addrs:
            misses += not access(0, addr).hit
        rates.append(misses / accesses)
    return rates


def reuse_distance_histogram(
    profile: BenchmarkProfile,
    accesses: int = 30_000,
    max_distance: int = 4096,
    seed: int = 0,
    scale: float = 1.0,
) -> Dict[str, int]:
    """LRU stack-distance histogram of a profile's stream.

    Returns:
        Buckets ``{"<=16": n, "<=64": n, "<=256": n, "<=1024": n,
        "<=max": n, "cold_or_beyond": n}`` — coarse on purpose; the exact
        stack algorithm is O(distance) per access.
    """
    stack: List[int] = []
    buckets = {"<=16": 0, "<=64": 0, "<=256": 0, "<=1024": 0, "<=max": 0,
               "cold_or_beyond": 0}
    for addr in _addresses(profile, accesses, seed, scale):
        try:
            distance = stack.index(addr)
            del stack[distance]
        except ValueError:
            distance = None
        stack.insert(0, addr)
        if len(stack) > max_distance:
            stack.pop()
        if distance is None:
            buckets["cold_or_beyond"] += 1
        elif distance < 16:
            buckets["<=16"] += 1
        elif distance < 64:
            buckets["<=64"] += 1
        elif distance < 256:
            buckets["<=256"] += 1
        elif distance < 1024:
            buckets["<=1024"] += 1
        else:
            buckets["<=max"] += 1
    return buckets


def classify_profile(
    profile: BenchmarkProfile,
    reference_blocks: int = 1024,
    accesses: int = 20_000,
    seed: int = 0,
) -> str:
    """Heuristic class from measured behaviour (not the declared category).

    Mirrors the catalog's taxonomy: ``insensitive`` (high hit rate at 1/8
    of the reference cache), ``streaming``/``thrashing`` (low hit rate
    even at the full reference, split by how much the curve moved), else
    ``friendly``/``moderate`` by total gain.
    """
    small, full = miss_curve(
        profile, [max(16, reference_blocks // 8), reference_blocks],
        accesses=accesses, seed=seed,
    )
    small_hit, full_hit = 1 - small, 1 - full
    if small_hit > 0.9:
        return "insensitive"
    if full_hit < 0.45:
        return "streaming" if full_hit - small_hit < 0.1 else "thrashing"
    return "friendly" if full_hit - small_hit > 0.25 else "moderate"
