"""Tests for the multi-tenant key-value trace family."""

import json

import numpy as np
import pytest

from repro.workloads.tenants import (
    DEFAULT_CHUNK,
    TENANT_ADDRESS_STRIDE,
    TENANT_FAMILY_VERSION,
    TenantSpec,
    TenantWorkload,
    get_tenant_workload,
    tenant_presets,
)


def concat(workload, requests, seed, chunk_size=DEFAULT_CHUNK):
    cores, addrs = [], []
    for c, a in workload.chunks(requests, seed, chunk_size=chunk_size):
        cores.append(c)
        addrs.append(a)
    return np.concatenate(cores), np.concatenate(addrs)


def solo_concat(workload, index, requests, seed, chunk_size=DEFAULT_CHUNK):
    addrs = []
    for cores, a in workload.core_chunks(index, requests, seed,
                                           chunk_size=chunk_size):
        assert not cores.any()  # solo streams run on core 0
        addrs.append(a)
    return np.concatenate(addrs)


def single(spec):
    return TenantWorkload("solo", [spec])


class TestSpecValidation:
    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="pattern"):
            TenantSpec("t", pattern="random")

    def test_bad_keys(self):
        with pytest.raises(ValueError, match="keys"):
            TenantSpec("t", keys=0)

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            TenantSpec("t", rate=0.0)

    def test_bad_skew(self):
        with pytest.raises(ValueError, match="skew"):
            TenantSpec("t", skew=-0.1)

    def test_bad_phases(self):
        with pytest.raises(ValueError, match="phase"):
            TenantSpec("t", pattern="phase", phases=0)

    def test_duplicate_tenant_names(self):
        with pytest.raises(ValueError, match="unique"):
            TenantWorkload("w", [TenantSpec("a"), TenantSpec("a")])

    def test_empty_workload(self):
        with pytest.raises(ValueError, match="at least one"):
            TenantWorkload("w", [])


class TestTraceGeneration:
    WORKLOAD = get_tenant_workload("smoke4")

    def test_total_length_and_chunk_bounds(self):
        sizes = [
            len(c) for c, _ in self.WORKLOAD.chunks(5_000, seed=1, chunk_size=1024)
        ]
        assert sum(sizes) == 5_000
        assert max(sizes) <= 1024

    def test_deterministic_in_seed(self):
        c1, a1 = concat(self.WORKLOAD, 4_000, seed=3)
        c2, a2 = concat(self.WORKLOAD, 4_000, seed=3)
        assert np.array_equal(c1, c2) and np.array_equal(a1, a2)
        c3, a3 = concat(self.WORKLOAD, 4_000, seed=4)
        assert not (np.array_equal(c1, c3) and np.array_equal(a1, a3))

    def test_chunk_size_invariance(self):
        """The concatenated trace must not depend on the generation chunk."""
        baseline = concat(self.WORKLOAD, 6_000, seed=5, chunk_size=6_000)
        for chunk in (257, 1024, DEFAULT_CHUNK):
            cores, addrs = concat(self.WORKLOAD, 6_000, seed=5, chunk_size=chunk)
            assert np.array_equal(cores, baseline[0])
            assert np.array_equal(addrs, baseline[1])

    def test_addresses_stay_in_tenant_regions(self):
        cores, addrs = concat(self.WORKLOAD, 8_000, seed=2)
        for index, tenant in enumerate(self.WORKLOAD.tenants):
            lane = addrs[cores == index]
            base = index * TENANT_ADDRESS_STRIDE
            assert lane.size > 0
            assert lane.min() >= base
            assert lane.max() < base + tenant.keys

    def test_rate_shares_drive_interleaving(self):
        cores, _ = concat(self.WORKLOAD, 50_000, seed=9)
        shares = self.WORKLOAD.rate_shares()
        assert sum(shares) == pytest.approx(1.0)
        for index, share in enumerate(shares):
            observed = float((cores == index).mean())
            assert observed == pytest.approx(share, abs=0.02)

    def test_solo_stream_is_prefix_equal_to_shared_draws(self):
        """core_chunks replays exactly the keys the tenant drew shared."""
        cores, addrs = concat(self.WORKLOAD, 6_000, seed=7)
        for index in range(self.WORKLOAD.num_cores):
            shared_keys = addrs[cores == index] - index * TENANT_ADDRESS_STRIDE
            solo = solo_concat(
                self.WORKLOAD, index, len(shared_keys), seed=7, chunk_size=777
            )
            assert np.array_equal(solo, shared_keys)

    def test_solo_requests_deterministic_and_positive(self):
        total = 10_000
        budgets = [
            self.WORKLOAD.solo_requests(i, total)
            for i in range(self.WORKLOAD.num_cores)
        ]
        assert all(b >= 1 for b in budgets)
        shares = self.WORKLOAD.rate_shares()
        for budget, share in zip(budgets, shares):
            assert budget == pytest.approx(total * share, abs=1)


class TestPatterns:
    def test_scan_is_a_sequential_wrap_around_sweep(self):
        workload = single(TenantSpec("s", pattern="scan", keys=100))
        addrs = solo_concat(workload, 0, 250, seed=0, chunk_size=64)
        assert np.array_equal(addrs, np.arange(250, dtype=np.int64) % 100)

    def test_zipfian_skew_concentrates_mass(self):
        flat = single(TenantSpec("f", pattern="zipfian", keys=10_000, skew=0.0))
        hot = single(TenantSpec("h", pattern="zipfian", keys=10_000, skew=1.2))
        flat_keys = solo_concat(flat, 0, 5_000, seed=1)
        hot_keys = solo_concat(hot, 0, 5_000, seed=1)
        assert len(np.unique(hot_keys)) < len(np.unique(flat_keys)) / 2

    def test_zipfian_unit_exponent_supported(self):
        workload = single(TenantSpec("u", pattern="zipfian", keys=1_000, skew=1.0))
        addrs = solo_concat(workload, 0, 2_000, seed=3)
        assert addrs.min() >= 0 and addrs.max() < 1_000

    def test_phase_pattern_shifts_the_working_set(self):
        spec = TenantSpec(
            "p", pattern="phase", keys=1_000, skew=0.8, phases=2, phase_period=500
        )
        workload = single(spec)
        addrs = solo_concat(workload, 0, 1_000, seed=4, chunk_size=125)
        first, second = set(addrs[:500].tolist()), set(addrs[500:].tolist())
        # Disjoint key regions pre-permutation stay disjoint: the affine
        # permutation is a bijection on [0, keys).
        assert first.isdisjoint(second)

    def test_phase_schedule_is_chunk_size_independent(self):
        spec = TenantSpec(
            "p", pattern="phase", keys=600, skew=1.0, phases=3, phase_period=100
        )
        a = solo_concat(single(spec), 0, 900, seed=5, chunk_size=900)
        b = solo_concat(single(spec), 0, 900, seed=5, chunk_size=37)
        assert np.array_equal(a, b)


class TestPresetsAndIdentity:
    def test_presets_registered(self):
        assert tenant_presets() == ["smoke4", "web8"]
        assert get_tenant_workload("smoke4").num_cores == 4
        assert get_tenant_workload("web8").num_cores == 8

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="known"):
            get_tenant_workload("nope")

    def test_labels(self):
        workload = get_tenant_workload("web8")
        assert workload.label == "tenants:web8"
        assert workload.kind == "tenants"
        assert len(workload.core_names) == 8

    def test_identity_is_stable_and_json_able(self):
        a = get_tenant_workload("smoke4").identity()
        b = get_tenant_workload("smoke4").identity()
        assert a == b
        assert a["kind"] == "tenants"
        assert a["version"] == TENANT_FAMILY_VERSION
        assert len(a["tenants"]) == 4
        json.dumps(a, sort_keys=True)  # must be hashable for fingerprints

    def test_identity_captures_tenant_parameters(self):
        base = single(TenantSpec("t", keys=100)).identity()
        tweaked = single(TenantSpec("t", keys=101)).identity()
        assert base != tweaked
