"""Tests for the SPEC-like catalog and the workload mixes."""

import pytest

from repro.workloads.mixes import MIXES, get_mix, mixes_for_cores
from repro.workloads.spec import PROFILES, get_profile, profiles_by_category


class TestCatalog:
    def test_paper_benchmarks_present(self):
        for name in ["179.art", "300.twolf", "471.omnetpp", "168.wupwise",
                     "175.vpr", "410.bwaves", "470.lbm", "416.gamess"]:
            assert name in PROFILES

    def test_get_profile_unknown_raises_with_listing(self):
        with pytest.raises(KeyError, match="known"):
            get_profile("999.nope")

    def test_every_category_populated(self):
        for category in ("friendly", "streaming", "insensitive", "moderate", "thrashing"):
            assert profiles_by_category(category)

    def test_unknown_category_raises(self):
        with pytest.raises(ValueError, match="known"):
            profiles_by_category("bogus")

    def test_streaming_profiles_have_big_scans(self):
        for p in profiles_by_category("streaming"):
            assert p.footprint() > 4000  # far larger than the 1024-block reference

    def test_insensitive_profiles_have_low_intensity(self):
        for p in profiles_by_category("insensitive"):
            assert p.mem_ratio <= 0.01

    def test_friendly_profiles_have_reuse_knee_near_reference_cache(self):
        # The reuse footprint (uniform zones) must sit near the 1024-block
        # reference cache so extra allocation buys hits; scan tails don't
        # count — they miss at any allocation.
        from repro.workloads.zones import UniformZone

        for p in profiles_by_category("friendly"):
            reuse = sum(z.size for z in p.zones if isinstance(z, UniformZone))
            assert 300 <= reuse <= 1100

    def test_profiles_are_valid(self):
        for p in PROFILES.values():
            assert p.mean_gap >= 1.0
            assert p.mlp >= 1.0


class TestMixes:
    def test_paper_mix_counts(self):
        assert len(mixes_for_cores(4)) == 21
        assert len(mixes_for_cores(8)) == 16
        assert len(mixes_for_cores(16)) == 20
        assert len(mixes_for_cores(32)) == 14
        assert len(MIXES) == 71  # the paper's total

    def test_mix_sizes_match_core_counts(self):
        for cores in (4, 8, 16, 32):
            for name in mixes_for_cores(cores):
                assert len(get_mix(name)) == cores

    def test_every_member_in_catalog(self):
        for names in MIXES.values():
            for name in names:
                assert name in PROFILES

    def test_paper_composition_constraints(self):
        # The constraints the paper's Section 5.1 narrative states.
        assert "168.wupwise" in get_mix("Q1")
        assert {"175.vpr", "471.omnetpp", "410.bwaves", "470.lbm"} == set(get_mix("Q4"))
        for q in ("Q5", "Q6", "Q8", "Q14"):
            assert set(get_mix(q)) & {"179.art", "300.twolf", "471.omnetpp"}
        assert "179.art" in get_mix("Q7")
        assert "300.twolf" in get_mix("Q19")
        assert "300.twolf" in get_mix("Q20")

    def test_generated_mixes_category_balanced(self):
        friendly = {p.name for p in profiles_by_category("friendly")}
        streaming = {p.name for p in profiles_by_category("streaming")}
        insensitive = {p.name for p in profiles_by_category("insensitive")}
        for cores in (8, 16, 32):
            for name in mixes_for_cores(cores):
                members = set(get_mix(name))
                assert members & friendly
                assert members & streaming
                assert members & insensitive

    def test_mixes_deterministic(self):
        # Regeneration must reproduce the same mixes (seeded).
        from repro.workloads.mixes import _build_mixes

        assert _build_mixes() == MIXES

    def test_get_mix_returns_copy(self):
        a = get_mix("Q1")
        a.append("tampered")
        assert get_mix("Q1") != a

    def test_unknown_mix_raises(self):
        with pytest.raises(KeyError, match="known"):
            get_mix("Q99")

    def test_unsupported_core_count_raises(self):
        with pytest.raises(ValueError):
            mixes_for_cores(6)

    def test_numeric_ordering(self):
        names = mixes_for_cores(16)
        assert names[0] == "S1"
        assert names[-1] == "S20"
        assert names.index("S2") == 1  # not lexicographic ("S10" after "S2")
