"""Differential-oracle tests: engine vs. reference, access for access.

The heavy 200-case campaign runs in CI (``repro-sim check fuzz``); here a
bounded fuzz plus Hypothesis-driven cases keep the tier-1 suite fast while
still covering every reference scheme, and a sabotage test demonstrates
the oracle actually has teeth — an injected engine bug is caught within a
few dozen accesses.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.differential import (
    DifferentialCase,
    _build_engine,
    _build_vector_engine,
    _compare,
    _replay_oracle,
    compare_batched,
    compare_run,
    fuzz,
    make_stream,
    run_case,
)
from repro.check.reference import REFERENCE_SCHEMES, build_reference


def _assert_ok(result):
    assert result.ok, "\n".join(str(d) for d in result.divergences)


class TestFuzz:
    def test_bounded_fuzz_finds_no_divergence(self):
        results = fuzz(cases=15, seed=3)
        for result in results:
            _assert_ok(result)
        # The random cases must actually exercise the interval machinery.
        assert sum(r.intervals for r in results) > 0
        assert sum(r.accesses_run for r in results) > 0

    def test_fuzz_is_deterministic_in_its_seed(self):
        first = fuzz(cases=4, seed=11)
        second = fuzz(cases=4, seed=11)
        assert [r.case for r in first] == [r.case for r in second]
        assert [r.divergences for r in first] == [r.divergences for r in second]

    def test_fuzz_respects_scheme_filter(self):
        results = fuzz(cases=5, seed=0, schemes=["lru", "dip"])
        assert {r.case.scheme for r in results} <= {"lru", "dip"}


@pytest.mark.parametrize("scheme", sorted(REFERENCE_SCHEMES))
def test_every_reference_scheme_agrees(scheme):
    result = run_case(DifferentialCase(scheme=scheme, seed=99, accesses=1200))
    _assert_ok(result)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    scheme=st.sampled_from(sorted(REFERENCE_SCHEMES)),
    num_cores=st.integers(2, 5),
    num_sets=st.sampled_from([2, 4, 8]),
    assoc=st.sampled_from([2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_geometries_agree(scheme, num_cores, num_sets, assoc, seed):
    case = DifferentialCase(
        scheme=scheme,
        num_cores=num_cores,
        num_sets=num_sets,
        assoc=assoc,
        seed=seed,
        accesses=600,
    )
    _assert_ok(run_case(case))


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fallback=st.sampled_from(["resample", "paper"]))
def test_prism_fallback_modes_agree(seed, fallback):
    case = DifferentialCase(
        scheme="prism-h",
        num_sets=2,  # tiny sets maximise fallback-path traffic
        assoc=2,
        seed=seed,
        accesses=800,
        scheme_kwargs={"seed": seed % 1009, "fallback": fallback},
    )
    _assert_ok(run_case(case))


def test_oracle_detects_injected_bug():
    """Disabling hit promotion in the engine must diverge from the oracle."""
    case = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                            scheme_kwargs={"seed": 1})
    cache = _build_engine(case, None, None)
    reference = build_reference(case.scheme, case.num_cores, case.geometry,
                                scheme_kwargs=case.scheme_kwargs)
    # Sabotage: no recency promotion on hits. With a scheme attached the
    # access loop calls the scheme-resolved hook, so that is what we break.
    cache.scheme._resolved_on_hit = lambda cset, block, core: None
    cache._rewire()
    divergences = compare_run(cache, reference, make_stream(case))
    assert divergences, "oracle failed to notice a broken LRU promotion"
    assert divergences[0].index >= 0  # caught during the replay, not post-hoc


@pytest.mark.parametrize("backend", ["classic", "vector"])
def test_shifted_interval_countdown_diverges(backend):
    """Firing every boundary one miss late must not slip through."""
    case = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                            scheme_kwargs={"seed": 1})
    reference = build_reference(case.scheme, case.num_cores, case.geometry,
                                scheme_kwargs=case.scheme_kwargs)
    build = _build_engine if backend == "classic" else _build_vector_engine
    engine = build(case, None, None)
    engine._interval_left += 1
    compare = compare_run if backend == "classic" else compare_batched
    divergences = compare(engine, reference, make_stream(case))
    assert divergences, "a boundary fired at the wrong access went unnoticed"
    assert divergences[0].index >= 0


def test_boundary_access_index_is_compared():
    """Same E/T at the wrong access is still a divergence."""
    case = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                            scheme_kwargs={"seed": 1})
    stream = make_stream(case)
    engine = _build_engine(case, None, None)
    reference = build_reference(case.scheme, case.num_cores, case.geometry,
                                scheme_kwargs=case.scheme_kwargs)
    tuples, bounds = _replay_oracle(engine, stream)
    oracle_run = _replay_oracle(reference, stream)
    assert _compare((tuples, bounds), oracle_run, engine, reference) == []
    late = [(bounds[0][0] + 1,) + bounds[0][1:]] + bounds[1:]
    divergences = _compare((tuples, late), oracle_run, engine, reference)
    assert [d.what for d in divergences] == ["boundary access@interval1"]
    assert divergences[0].index == bounds[0][0]


def test_sane_case_is_clean_before_sabotage():
    """Companion to the sabotage test: same case, untouched engine, clean."""
    case = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                            scheme_kwargs={"seed": 1})
    _assert_ok(run_case(case))


class TestSharingAxes:
    """The shared-ownership fuzz axes: sharer bitmasks and cluster maps."""

    def test_sharing_fuzz_finds_no_divergence(self):
        results = fuzz(cases=12, seed=7, sharing=True)
        for result in results:
            _assert_ok(result)

    def test_sharing_axes_are_actually_drawn(self):
        cases = [r.case for r in fuzz(cases=12, seed=7, sharing=True)]
        assert any(c.track_sharers for c in cases)
        assert any(c.core_map is not None for c in cases)
        assert any(c.sharing_degree > 0 for c in cases)

    def test_sharing_off_leaves_the_matrix_unchanged(self):
        """Default fuzz draws must stay byte-compatible with the past."""
        plain = [r.case for r in fuzz(cases=4, seed=11)]
        assert all(
            not c.track_sharers and c.core_map is None and c.sharing_degree == 0
            for c in plain
        )

    def test_core_maps_are_dense(self):
        for result in fuzz(cases=12, seed=7, sharing=True):
            core_map = result.case.core_map
            if core_map is None:
                continue
            assert len(core_map) == result.case.num_cores
            assert sorted(set(core_map)) == list(range(max(core_map) + 1))

    def test_fuzzer_detects_seeded_sharer_bug(self):
        """A sharer-accounting bug in the engine must be caught.

        Sabotage: flip the ``track_sharers`` slot baked into the classic
        engine's hot-path tuple, so fills stop seeding and hits stop
        OR-ing sharer bits — while ``cache.track_sharers`` (the compare
        gate) stays on. The oracle keeps proper sharer sets, so the
        end-state comparison of the resident contents (whose rows carry
        each block's sharer mask) must report the divergence.
        """
        case = DifferentialCase(
            scheme="lru", num_cores=4, seed=7, accesses=1500,
            sharing_degree=2, track_sharers=True,
        )
        cache = _build_engine(case, None, None)
        reference = build_reference(
            case.scheme, case.num_cores, case.geometry,
            track_sharers=True,
        )
        assert cache._hot[-1] is True  # the track_sharers slot
        cache._hot = cache._hot[:-1] + (False,)
        divergences = compare_run(cache, reference, make_stream(case))
        assert divergences, "oracle failed to notice dropped sharer accounting"
        assert any(d.what == "resident" for d in divergences)

    def test_sharer_case_is_clean_before_sabotage(self):
        case = DifferentialCase(
            scheme="lru", num_cores=4, seed=7, accesses=1500,
            sharing_degree=2, track_sharers=True,
        )
        _assert_ok(run_case(case))


class TestVectorBackend:
    """``backend="vector"``: the batched engine under the same oracle.

    The 200-case certification runs in CI (``repro-sim check fuzz
    --backend vector``); this is the fast tier-1 slice of it.
    """

    @pytest.mark.parametrize("scheme", sorted(REFERENCE_SCHEMES))
    def test_every_reference_scheme_agrees(self, scheme):
        result = run_case(
            DifferentialCase(scheme=scheme, seed=99, accesses=1200),
            backend="vector",
        )
        _assert_ok(result)

    def test_bounded_vector_fuzz_finds_no_divergence(self):
        results = fuzz(cases=6, seed=5, backend="vector")
        for result in results:
            _assert_ok(result)
        assert sum(r.intervals for r in results) > 0

    def test_vector_fuzz_draws_the_same_cases_as_classic(self):
        """The backend changes the engine under test, never the cases."""
        vec = fuzz(cases=4, seed=11, backend="vector")
        cls = fuzz(cases=4, seed=11, backend="classic")
        assert [r.case for r in vec] == [r.case for r in cls]

    def test_unknown_backend_rejected(self):
        case = DifferentialCase(scheme="lru", seed=0, accesses=100)
        with pytest.raises(ValueError, match="unknown backend"):
            run_case(case, backend="gpu")

    def test_compare_batched_has_teeth(self):
        """Mismatched PriSM draw seeds must be caught access for access."""
        case = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                                scheme_kwargs={"seed": 1})
        skewed = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                                  scheme_kwargs={"seed": 2})
        engine = _build_vector_engine(case, None, None)
        classic = _build_engine(skewed, None, None)
        divergences = compare_batched(engine, classic, make_stream(case))
        assert divergences, "compare_batched missed a draw-stream mismatch"

    def test_slab_count_does_not_change_the_verdict(self):
        """State must carry over between access_many calls exactly."""
        case = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                                scheme_kwargs={"seed": 1})
        for slabs in (1, 5):
            engine = _build_vector_engine(case, None, None)
            classic = _build_engine(case, None, None)
            assert compare_batched(engine, classic, make_stream(case),
                                   slabs=slabs) == []
