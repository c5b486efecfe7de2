"""Edge-case and property tests for the allocation policies as a family."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    FairnessPolicy,
    HitMaxPolicy,
    QOSPolicy,
    UCPExtendedPolicy,
)
from tests.core.test_allocation_policies import FakePerf, make_ctx, make_shadow

ALL_POLICIES = [
    ("hitmax", lambda: HitMaxPolicy()),
    ("hitmax-pure", lambda: HitMaxPolicy(pure=True)),
    ("fairness", lambda: FairnessPolicy()),
    ("qos", lambda: QOSPolicy(target_ipc=1.0)),
    ("ucpx", lambda: UCPExtendedPolicy()),
]


def random_ctx(rng, num_cores):
    """A randomized but internally consistent AllocationContext."""
    assoc = 8
    position_hits = [
        [rng.randint(0, 50) for _ in range(assoc)] for _ in range(num_cores)
    ]
    shadow = make_shadow(
        num_cores,
        assoc=assoc,
        position_hits=position_hits,
        shared_hits=[rng.randint(0, 200) for _ in range(num_cores)],
        standalone_misses=[rng.randint(0, 100) for _ in range(num_cores)],
        shared_misses=[rng.randint(1, 200) for _ in range(num_cores)],
    )
    occupancy = [rng.random() + 0.01 for _ in range(num_cores)]
    total = sum(occupancy)
    occupancy = [x / total for x in occupancy]
    misses = [rng.random() + 0.01 for _ in range(num_cores)]
    total_m = sum(misses)
    perf = FakePerf(
        cpis=[rng.random() * 3 + 0.1 for _ in range(num_cores)],
        stall_cpis=[rng.random() for _ in range(num_cores)],
        ipcs=[rng.random() * 2 + 0.05 for _ in range(num_cores)],
    )
    return make_ctx(
        num_cores,
        occupancy=occupancy,
        miss_fractions=[m / total_m for m in misses],
        shadow=shadow,
        perf=perf,
    )


@pytest.mark.parametrize("name,factory", ALL_POLICIES)
@settings(max_examples=20, deadline=None)
@given(rng=st.randoms(use_true_random=False), num_cores=st.integers(2, 16))
def test_every_policy_returns_valid_targets(name, factory, rng, num_cores):
    """Property: whatever the counters say, every allocation policy returns
    non-negative targets summing to 1."""
    ctx = random_ctx(rng, num_cores)
    targets = factory().compute_targets(ctx)
    assert len(targets) == num_cores
    assert all(t >= 0.0 for t in targets)
    assert sum(targets) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name,factory", ALL_POLICIES)
def test_policies_handle_cold_start(name, factory):
    """First interval: zero occupancy, zero counters — no crashes, valid
    distribution."""
    perf = FakePerf(cpis=[0.0] * 4, stall_cpis=[0.0] * 4, ipcs=[0.0] * 4)
    ctx = make_ctx(4, occupancy=[0.0] * 4, perf=perf)
    targets = factory().compute_targets(ctx)
    assert sum(targets) == pytest.approx(1.0, abs=1e-6)


def test_hitmax_indifferent_to_gain_scaling():
    """Alg. 1 uses gain *shares*: multiplying every gain by a constant
    changes nothing."""
    base = make_shadow(3, standalone_hits=[30, 20, 10], shared_hits=[0, 0, 0])
    scaled = make_shadow(3, standalone_hits=[300, 200, 100], shared_hits=[0, 0, 0])
    ctx_a = make_ctx(3, occupancy=[0.3, 0.3, 0.4], shadow=base)
    ctx_b = make_ctx(3, occupancy=[0.3, 0.3, 0.4], shadow=scaled)
    policy = HitMaxPolicy(pure=True)
    assert policy.compute_targets(ctx_a) == pytest.approx(policy.compute_targets(ctx_b))


def test_fairness_reduces_slowdown_spread_in_targets():
    """The more slowed a core, the larger its fairness target relative to
    its occupancy."""
    shadow = make_shadow(2, standalone_misses=[10, 100], shared_misses=[100, 100])
    perf = FakePerf(cpis=[2.0, 2.0], stall_cpis=[1.0, 1.0])
    ctx = make_ctx(2, occupancy=[0.5, 0.5], shadow=shadow, perf=perf)
    targets = FairnessPolicy().compute_targets(ctx)
    ratios = [t / c for t, c in zip(targets, ctx.occupancy)]
    assert ratios[0] > ratios[1]
