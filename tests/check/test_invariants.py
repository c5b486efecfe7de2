"""Runtime invariant checker: clean runs pass, every corruption is caught.

Each invariant in the checker's catalogue gets a targeted sabotage test —
the checker is only worth its overhead if a genuinely corrupted engine
state cannot slip past it — plus wiring tests for ``run_workload(check=)``
and the campaign executor's non-retryable handling. The sabotage classes
run once per engine: the ``*Vector`` subclasses re-run every inherited
test on the vector engine, each engine corrupting its own private
bookkeeping where the audit is engine-specific.
"""

import warnings

import numpy as np
import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.vector import VectorCache
from repro.check.invariants import InvariantChecker, InvariantViolation, attach_checker
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import run_workload
from repro.experiments.schemes import build_scheme
from repro.util.rng import make_rng

GEOMETRY = CacheGeometry(8 << 10, 64, 8)  # 128 blocks, 16 sets
NUM_CORES = 4


ENGINES = {"classic": SharedCache, "vector": VectorCache}


def checked_cache(every=1, engine="classic"):
    scheme, policy = build_scheme("prism-h", NUM_CORES, None,
                                  interval_len=64, sample_shift=1, seed=2)
    cache = ENGINES[engine](GEOMETRY, NUM_CORES, policy=policy, scheme=scheme)
    checker = attach_checker(cache, every=every)
    return cache, checker


def resident_way(cache):
    """``(set, way)`` of one resident block of a vector cache."""
    s = int(np.flatnonzero(cache._nvalid)[0])
    return s, 0


def corrupt_core_counts(cache):
    """Skew one engine-private per-set residency count."""
    if isinstance(cache, VectorCache):
        cache._counts[resident_way(cache)[0], 0] += 1
    else:
        cache.sets[0]._core_counts[0] += 1


def drive(cache, accesses=600, seed=0):
    rng = make_rng(seed, "invariant-test-stream")
    for _ in range(accesses):
        cache.access(rng.randrange(NUM_CORES), rng.getrandbits(16))


class TestChecker:
    engine = "classic"

    def checked(self, every=1):
        return checked_cache(every, self.engine)

    def test_rejects_nonpositive_period(self):
        cache, _ = self.checked()
        with pytest.raises(ValueError, match="every"):
            InvariantChecker(cache, every=0)

    def test_clean_run_passes(self):
        cache, checker = self.checked(every=1)
        drive(cache, accesses=600)
        assert checker.checks_run == 600  # every access audited
        assert cache.intervals_completed > 0  # boundaries were crossed too

    def test_period_throttles_audits(self):
        cache, checker = self.checked(every=100)
        drive(cache, accesses=250)
        assert checker.checks_run == 2

    def test_batches_are_audited_per_access(self):
        cache, checker = self.checked(every=100)
        rng = make_rng(0, "invariant-test-stream")
        cache.access_many(
            [rng.randrange(NUM_CORES) for _ in range(250)],
            [rng.getrandbits(16) for _ in range(250)],
        )
        assert checker.checks_run == 2

    def test_catches_occupancy_counter_drift(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        cache.occupancy[0] += 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "occupancy-recount"

    def test_catches_set_corruption(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        corrupt_core_counts(cache)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "set-integrity"

    def test_catches_negative_probability(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        manager = cache.scheme.manager
        manager.probabilities[0] -= 2.0  # bypasses set_distribution validation
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "distribution"

    def test_catches_unnormalised_distribution(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        cache.scheme.manager.probabilities[0] += 0.5
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "distribution"

    def test_catches_unpinned_cumulative(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        cache.scheme.manager._cumulative[-1] = 0.999
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "cumulative"

    def test_catches_shadow_counter_regression(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        checker.check_now()  # establish the monotonicity floor
        cache.scheme.shadow.shadow_misses[0] -= 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "shadow-monotone"

    def test_violation_is_typed_assertion_error(self):
        error = InvariantViolation("occupancy-bounds", "129 blocks in 128")
        assert isinstance(error, AssertionError)
        assert error.invariant == "occupancy-bounds"
        assert "occupancy-bounds" in str(error) and "129" in str(error)


class TestCheckerVector(TestChecker):
    """Every TestChecker audit again, on the vector engine."""

    engine = "vector"

    def test_catches_valid_way_count_drift(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        cache._nvalid[resident_way(cache)[0]] -= 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "set-integrity"

    def test_catches_duplicated_tag(self):
        cache, checker = self.checked()
        drive(cache, accesses=600)
        s = int(np.flatnonzero(cache._nvalid >= 2)[0])
        cache._tags[s, 1] = cache._tags[s, 0]
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "set-integrity"
        assert "twice" in str(excinfo.value)

    def test_catches_stale_mru_hint(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        s = resident_way(cache)[0]
        cache._mru_tag[s] = cache._tags.max() + 1  # resident nowhere
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "set-integrity"


def shared_checked_cache(every=1, engine="classic"):
    """4 real cores mapped onto 2 clusters, with sharer tracking on."""
    core_map = (0, 1, 0, 1)
    scheme, policy = build_scheme("prism-h", 2, None,
                                  interval_len=64, sample_shift=1, seed=2)
    cache = ENGINES[engine](GEOMETRY, 2, policy=policy, scheme=scheme,
                            core_map=core_map, track_sharers=True)
    checker = attach_checker(cache, every=every)
    return cache, checker


def first_block(cache):
    for cset in cache.sets:
        for block in list(cset):
            return block
    raise AssertionError("cache is empty")


def set_first_sharers(cache, mask_of):
    """Overwrite one resident block's sharer mask with ``mask_of(owner)``."""
    if isinstance(cache, VectorCache):
        s, w = resident_way(cache)
        if cache._sharers is not None:  # untracked: nothing to corrupt
            cache._sharers[s, w] = mask_of(int(cache._owners[s, w]))
    else:
        block = first_block(cache)
        block.sharers = mask_of(block.core)


class TestSharingInvariants:
    """sharer-consistency and cluster-conservation sabotage coverage."""

    engine = "classic"

    def checked(self, every=1):
        return shared_checked_cache(every, self.engine)

    def test_clean_clustered_run_passes(self):
        cache, checker = self.checked(every=1)
        drive(cache, accesses=600)  # real core ids 0..3, translated inside
        assert checker.checks_run == 600
        checker.check_now()

    def test_catches_empty_sharer_set(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        set_first_sharers(cache, lambda owner: 0)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "sharer-consistency"

    def test_catches_owner_missing_from_sharer_mask(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        # some bit, not the owner's
        set_first_sharers(cache, lambda owner: 1 << (1 - owner))
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "sharer-consistency"

    def test_catches_out_of_range_filler(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        first_block(cache).filler = 9  # only real cores 0..3 exist
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "cluster-conservation"

    def test_catches_filler_charged_to_wrong_cluster(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        block = first_block(cache)
        # Cores 0/2 map to cluster 0, cores 1/3 to cluster 1: claim a
        # filler whose cluster disagrees with the block's charge.
        block.filler = 1 if block.core == 0 else 0
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "cluster-conservation"

    def test_plain_cache_skips_the_sharing_audits(self):
        """No sharer tracking, no cluster map -> the new checks are off."""
        cache, checker = checked_cache(engine=self.engine)
        drive(cache, accesses=200)
        set_first_sharers(cache, lambda owner: 0)  # untracked garbage
        checker.check_now()


class TestSharingInvariantsVector(TestSharingInvariants):
    """The sharer audits again on the vector engine, which keeps no fillers."""

    engine = "vector"
    test_catches_out_of_range_filler = None
    test_catches_filler_charged_to_wrong_cluster = None

    def test_view_has_no_fillers(self):
        cache, checker = self.checked()
        drive(cache, accesses=200)
        assert cache.state().filler is None
        assert cache.state().charges() is None


class TestInclusionInvariant:
    """The hierarchy audit: every L1-resident block is LLC-resident."""

    def hierarchy_system(self, every=64):
        from repro.cache.replacement.lru import LRUPolicy
        from repro.cpu.system import MultiCoreSystem
        from repro.workloads.spec import get_profile

        profiles = [get_profile("179.art"), get_profile("181.mcf")]
        cache = SharedCache(CacheGeometry(8 << 10, 64, 8), 2, policy=LRUPolicy())
        checker = attach_checker(cache, every=every)
        system = MultiCoreSystem(
            cache,
            profiles,
            seed=5,
            l1_geometry=CacheGeometry(512, 64, 2),
            inclusive=True,
        )
        checker.bind_hierarchy(system)
        return system, checker

    def test_clean_inclusive_run_passes(self):
        system, checker = self.hierarchy_system(every=16)
        system.run(4000)
        checker.check_now()
        assert checker.checks_run > 10

    def test_catches_stale_l1_line(self):
        system, checker = self.hierarchy_system()
        system.run(2000)
        checker.check_now()  # consistent so far
        # Sabotage: sneak a block into core 0's L1 that the LLC has never
        # seen — exactly what a broken back-invalidate path would leave.
        bogus = 0x5A5A00
        system.l1s[0].access(bogus)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_now()
        assert excinfo.value.invariant == "inclusion"

    def test_unbound_checker_ignores_hierarchy(self):
        # Without bind_hierarchy the same sabotage goes unaudited: the
        # inclusion invariant is opt-in because non-inclusive mode
        # legitimately leaves stale L1 lines behind.
        system, checker = self.hierarchy_system()
        checker._system = None
        system.run(1000)
        system.l1s[0].access(0x5A5A00)
        checker.check_now()

    def test_non_inclusive_mode_not_audited(self):
        from repro.cache.replacement.lru import LRUPolicy
        from repro.cpu.system import MultiCoreSystem
        from repro.workloads.spec import get_profile

        cache = SharedCache(CacheGeometry(8 << 10, 64, 8), 1, policy=LRUPolicy())
        checker = attach_checker(cache, every=64)
        system = MultiCoreSystem(
            cache,
            [get_profile("179.art")],
            seed=5,
            l1_geometry=CacheGeometry(512, 64, 2),
            inclusive=False,
        )
        checker.bind_hierarchy(system)
        system.run(3000)  # stale L1 lines are expected; no violation
        checker.check_now()


class TestRunnerWiring:
    def test_checked_run_equals_unchecked_run(self):
        config = machine(4, instructions=30_000)
        plain = run_workload("Q1", config, "prism-h", seed=3)
        checked = run_workload("Q1", config, "prism-h", seed=3, check=True)
        assert plain.antt == checked.antt
        assert plain.fairness == checked.fairness
        assert plain.intervals == checked.intervals
        assert [c.misses for c in plain.cores] == [c.misses for c in checked.cores]
        assert plain.eviction_probabilities == checked.eviction_probabilities

    def test_options_check_flag_is_honoured(self):
        from repro.experiments.options import RunOptions

        config = machine(4, instructions=20_000)
        result = run_workload("Q1", config, "lru",
                              options=RunOptions(check=True))
        assert result.antt > 0  # completed under the checker

    def test_checked_hierarchy_run_audits_inclusion(self):
        # run_workload binds the hierarchy to the checker when the
        # machine has an L1; a clean inclusive run must pass the audit.
        config = machine(4, instructions=20_000, l1="inclusive",
                         dram_banks=2, dram_row_blocks=4)
        result = run_workload("Q1", config, "prism-h", seed=3, check=True)
        assert result.antt > 0

    def test_checked_belady_run(self):
        config = machine(4, instructions=20_000, l1="inclusive")
        result = run_workload("Q1", config, "belady", seed=3, check=True)
        assert result.scheme == "belady"
        assert result.intervals == 0

    def test_belady_recording_run_honours_backend(self):
        # 1,024 LLC sets, so a vector request builds the vector engine.
        config = machine(4, scale_factor=4, instructions=20_000, l1="inclusive")
        classic = run_workload("Q1", config, "belady")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no fallback
            vector = run_workload("Q1", config, "belady", backend="vector")
            checked = run_workload("Q1", config, "belady", backend="vector",
                                   check=True)
        assert vector.engine.engine == checked.engine.engine == "vector"
        assert vector == classic
        assert checked == classic

    @pytest.mark.parametrize("mix, l1", [("Q1", "inclusive"),
                                         ("shared:smoke4", None)])
    def test_checked_vector_run_audits_the_vector_engine(self, mix, l1,
                                                          monkeypatch):
        from repro.check import invariants

        audited = []
        attach = invariants.attach_checker

        def recording_attach(cache, every=1024):
            audited.append(type(cache).__name__)
            return attach(cache, every)

        monkeypatch.setattr(invariants, "attach_checker", recording_attach)
        config = machine(4, scale_factor=4, instructions=20_000, l1=l1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_workload(mix, config, "prism-h", seed=3, check=True,
                                  backend="vector")
        assert audited == ["VectorCache"]
        assert result == run_workload(mix, config, "prism-h", seed=3)


class TestCampaignWiring:
    def test_invariant_violation_is_registered_non_retryable(self):
        from repro.campaign.executor import NON_RETRYABLE_ERRORS

        assert "InvariantViolation" in NON_RETRYABLE_ERRORS

    def test_in_process_does_not_retry_violations(self, monkeypatch):
        from repro.campaign import executor
        from repro.experiments import parallel

        calls = {"n": 0}

        def violate(*args, **kwargs):
            calls["n"] += 1
            raise InvariantViolation("occupancy-recount", "forced by test")

        monkeypatch.setattr(parallel, "run_workload", violate)
        spec = RunSpec(mix="Q1", scheme="lru", seed=0, instructions=1000)
        outcomes = list(executor.iter_isolated(
            [spec], machine(4), jobs=1, retries=3
        ))
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert not outcome.ok
        assert outcome.error.error_type == "InvariantViolation"
        assert outcome.attempts == 1
        assert calls["n"] == 1  # the three retries were skipped

    def test_in_process_still_retries_ordinary_errors(self, monkeypatch):
        from repro.campaign import executor
        from repro.experiments import parallel

        calls = {"n": 0}

        def flake(*args, **kwargs):
            calls["n"] += 1
            raise ValueError("transient for test")

        monkeypatch.setattr(parallel, "run_workload", flake)
        spec = RunSpec(mix="Q1", scheme="lru", seed=0, instructions=1000)
        outcomes = list(executor.iter_isolated(
            [spec], machine(4), jobs=1, retries=2
        ))
        assert len(outcomes) == 1
        assert outcomes[0].error.error_type == "ValueError"
        assert outcomes[0].attempts == 3
        assert calls["n"] == 3

    def test_spec_check_flag_round_trips_through_store(self):
        from repro.campaign.store import spec_from_dict, spec_to_dict

        spec = RunSpec(mix="Q1", scheme="prism-h", seed=1,
                       instructions=1000, check=True)
        assert spec_from_dict(spec_to_dict(spec)) == spec
        # Legacy records predate the field and default to unchecked.
        legacy = spec_to_dict(spec)
        del legacy["check"]
        assert spec_from_dict(legacy).check is False
