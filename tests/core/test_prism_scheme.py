"""Integration tests for PrismScheme: the framework wired into a cache."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.dip import DIPPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.srrip import SRRIPPolicy
from repro.core.allocation import AllocationPolicy, HitMaxPolicy
from repro.core.prism import PrismScheme
from repro.util.rng import make_rng


class StaticPolicy(AllocationPolicy):
    """Fixed targets, for controllability."""

    name = "static"

    def __init__(self, targets):
        self.targets = targets

    def compute_targets(self, ctx):
        return list(self.targets)


def drive(cache, num_cores, accesses, footprints, seed=0):
    """Each core uniformly accesses its own footprint of block addresses."""
    rng = make_rng(seed, "drive")
    for _ in range(accesses):
        core = rng.randrange(num_cores)
        addr = (core << 20) + rng.randrange(footprints[core])
        cache.access(core, addr)


@pytest.fixture
def geometry():
    return CacheGeometry(16 << 10, 64, 8)  # 256 blocks, 32 sets


class TestWiring:
    def test_interval_defaults_to_num_blocks(self, geometry):
        cache = SharedCache(geometry, 2)
        scheme = PrismScheme(HitMaxPolicy())
        cache.set_scheme(scheme)
        assert scheme.interval_len == geometry.num_blocks

    def test_interval_override(self, geometry):
        cache = SharedCache(geometry, 2)
        scheme = PrismScheme(HitMaxPolicy(), interval_len=64)
        cache.set_scheme(scheme)
        assert scheme.interval_len == 64

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            PrismScheme(HitMaxPolicy(), probability_bits=0)

    def test_name_with_policy(self, geometry):
        scheme = PrismScheme(HitMaxPolicy())
        assert scheme.name_with_policy == "prism[prism-hitmax]"

    def test_shadow_monitor_registered(self, geometry):
        cache = SharedCache(geometry, 2)
        scheme = PrismScheme(HitMaxPolicy())
        cache.set_scheme(scheme)
        assert scheme.shadow in cache.monitors


class TestControlLoop:
    def test_occupancy_converges_to_static_targets(self, geometry):
        """The headline property: eviction probabilities steer occupancy to
        the requested shares."""
        cache = SharedCache(geometry, 2)
        cache.set_scheme(PrismScheme(StaticPolicy([0.75, 0.25]), interval_len=128))
        # Both cores access far more than their shares (footprints >> cache).
        drive(cache, 2, 60000, footprints=[2000, 2000])
        fractions = cache.occupancy_fractions()
        assert fractions[0] == pytest.approx(0.75, abs=0.08)
        assert fractions[1] == pytest.approx(0.25, abs=0.08)

    def test_probabilities_updated_every_interval(self, geometry):
        cache = SharedCache(geometry, 2)
        scheme = PrismScheme(StaticPolicy([0.5, 0.5]), interval_len=64)
        cache.set_scheme(scheme)
        drive(cache, 2, 2000, footprints=[1000, 1000])
        assert scheme.recomputations == cache.intervals_completed > 0

    def test_distribution_always_valid(self, geometry):
        cache = SharedCache(geometry, 4)
        scheme = PrismScheme(HitMaxPolicy(), interval_len=64)
        cache.set_scheme(scheme)
        drive(cache, 4, 20000, footprints=[100, 500, 3000, 20])
        probs = scheme.eviction_probabilities
        assert sum(probs) == pytest.approx(1.0)
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_quantized_distribution_on_k_bit_grid(self, geometry):
        cache = SharedCache(geometry, 2)
        scheme = PrismScheme(StaticPolicy([0.7, 0.3]), interval_len=64,
                             probability_bits=6)
        cache.set_scheme(scheme)
        drive(cache, 2, 5000, footprints=[1000, 1000])
        # Every installed probability is a ratio of 6-bit integers.
        probs = scheme.eviction_probabilities
        levels = [p * 63 for p in probs]
        # After renormalisation probs are level_i / sum(levels).
        total = sum(round(l) for l in levels)
        assert total > 0

    def test_hitmax_starves_the_streaming_core(self, geometry):
        """Alg. 1 should shift space from a scan-only core to a reuse-heavy
        core."""
        cache = SharedCache(geometry, 2)
        cache.set_scheme(PrismScheme(HitMaxPolicy(), interval_len=128))
        rng = make_rng(9, "mix")
        scan = 0
        for _ in range(60000):
            if rng.random() < 0.5:
                cache.access(0, rng.randrange(220))       # reusable working set
            else:
                cache.access(1, (1 << 20) + scan)         # pure stream
                scan += 1
        fractions = cache.occupancy_fractions()
        assert fractions[0] > 0.6

    def test_occupancy_accounting_intact_after_long_run(self, geometry):
        cache = SharedCache(geometry, 3)
        cache.set_scheme(PrismScheme(HitMaxPolicy(), interval_len=100))
        drive(cache, 3, 30000, footprints=[150, 800, 4000])
        assert cache.occupancy == cache.state().recount()


class TestPolicyAgnosticism:
    @pytest.mark.parametrize("policy_cls", [LRUPolicy, DIPPolicy, SRRIPPolicy])
    def test_runs_on_any_replacement_policy(self, geometry, policy_cls):
        cache = SharedCache(geometry, 2, policy=policy_cls())
        cache.set_scheme(PrismScheme(StaticPolicy([0.7, 0.3]), interval_len=128))
        drive(cache, 2, 40000, footprints=[2000, 2000])
        fractions = cache.occupancy_fractions()
        # Control converges regardless of the baseline policy.
        assert fractions[0] == pytest.approx(0.7, abs=0.1)
        assert cache.occupancy == cache.state().recount()


class TestReporting:
    def test_probability_stats_shape(self, geometry):
        cache = SharedCache(geometry, 2)
        scheme = PrismScheme(StaticPolicy([0.5, 0.5]), interval_len=64)
        cache.set_scheme(scheme)
        drive(cache, 2, 3000, footprints=[1000, 1000])
        stats = scheme.probability_stats()
        assert len(stats) == 2
        for entry in stats:
            assert entry["samples"] == scheme.recomputations
            assert 0.0 <= entry["mean"] <= 1.0
            assert entry["std"] >= 0.0

    def test_probability_stats_before_any_interval(self, geometry):
        cache = SharedCache(geometry, 2)
        scheme = PrismScheme(HitMaxPolicy())
        cache.set_scheme(scheme)
        stats = scheme.probability_stats()
        assert all(s["samples"] == 0 for s in stats)

    def test_stable_targets_give_low_std(self, geometry):
        """Fig. 11's claim: under a stationary workload the probabilities
        settle (std well below the mean scale)."""
        cache = SharedCache(geometry, 2)
        scheme = PrismScheme(StaticPolicy([0.6, 0.4]), interval_len=128)
        cache.set_scheme(scheme)
        drive(cache, 2, 80000, footprints=[2000, 2000])
        stats = scheme.probability_stats()
        for entry in stats:
            assert entry["std"] < 0.2
