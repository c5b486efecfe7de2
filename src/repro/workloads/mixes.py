"""Multiprogrammed workload mixes.

The paper evaluates 71 mixes — 21 quad-core (Q1-Q21), 16 eight-core
(E1-E16), 20 sixteen-core (S1-S20) and 14 thirtytwo-core (T1-T14) — whose
composition lives in an unavailable technical report [12]. We therefore:

- hand-author the 21 quad mixes to honour every composition constraint the
  paper text states (Q1 contains ``168.wupwise``; Q4 pairs ``175.vpr`` and
  ``471.omnetpp`` against ``410.bwaves``/``470.lbm``; Q5/Q6/Q8/Q14 contain
  the cache-friendly trio ``179.art``/``300.twolf``/``471.omnetpp``; Q7
  features ``179.art`` with large headroom; Q19/Q20 contain ``300.twolf``
  with little else to gain; Q3/Q9 are the mixes where UCP edges PriSM),
- generate the larger mixes deterministically (seeded) with the category
  balance multiprogrammed studies use: at least one cache-friendly, one
  streaming and one insensitive program per mix, remainder sampled from
  the whole catalog. Profiles may repeat within the big mixes; repeated
  instances run with distinct stream seeds.
"""

from __future__ import annotations

from typing import Dict, List

from repro.util.rng import make_rng
from repro.workloads.spec import PROFILES, profiles_by_category

__all__ = ["MIXES", "get_mix", "mixes_for_cores"]

_QUAD: Dict[str, List[str]] = {
    "Q1": ["168.wupwise", "416.gamess", "403.gcc", "401.bzip2"],
    "Q2": ["450.soplex", "470.lbm", "444.namd", "456.hmmer"],
    "Q3": ["179.art", "470.lbm", "458.sjeng", "464.h264ref"],
    "Q4": ["175.vpr", "471.omnetpp", "410.bwaves", "470.lbm"],
    "Q5": ["179.art", "300.twolf", "429.mcf", "444.namd"],
    "Q6": ["300.twolf", "471.omnetpp", "462.libquantum", "403.gcc"],
    "Q7": ["179.art", "429.mcf", "470.lbm", "416.gamess"],
    "Q8": ["179.art", "471.omnetpp", "410.bwaves", "458.sjeng"],
    "Q9": ["471.omnetpp", "183.equake", "401.bzip2", "435.gromacs"],
    "Q10": ["473.astar", "171.swim", "456.hmmer", "416.gamess"],
    "Q11": ["179.art", "462.libquantum", "168.wupwise", "444.namd"],
    "Q12": ["471.omnetpp", "429.mcf", "171.swim", "416.gamess"],
    "Q13": ["482.sphinx3", "181.mcf", "464.h264ref", "435.gromacs"],
    "Q14": ["300.twolf", "450.soplex", "470.lbm", "458.sjeng"],
    "Q15": ["175.vpr", "188.ammp", "462.libquantum", "444.namd"],
    "Q16": ["473.astar", "183.equake", "403.gcc", "458.sjeng"],
    "Q17": ["450.soplex", "429.mcf", "410.bwaves", "456.hmmer"],
    "Q18": ["482.sphinx3", "168.wupwise", "171.swim", "435.gromacs"],
    "Q19": ["300.twolf", "181.mcf", "462.libquantum", "403.gcc"],
    "Q20": ["300.twolf", "429.mcf", "410.bwaves", "435.gromacs"],
    "Q21": ["175.vpr", "473.astar", "470.lbm", "416.gamess"],
}


def _generate_mix(prefix: str, index: int, cores: int) -> List[str]:
    """Seeded, category-balanced mix of ``cores`` profile names."""
    rng = make_rng(20120601, "mix", prefix, index, cores)
    friendly = [p.name for p in profiles_by_category("friendly")]
    streaming = [p.name for p in profiles_by_category("streaming")]
    insensitive = [p.name for p in profiles_by_category("insensitive")]
    everyone = sorted(PROFILES)
    names = [
        rng.choice(friendly),
        rng.choice(streaming),
        rng.choice(insensitive),
    ]
    while len(names) < cores:
        names.append(rng.choice(everyone))
    rng.shuffle(names)
    return names


def _build_mixes() -> Dict[str, List[str]]:
    mixes: Dict[str, List[str]] = dict(_QUAD)
    for i in range(1, 17):
        mixes[f"E{i}"] = _generate_mix("E", i, 8)
    for i in range(1, 21):
        mixes[f"S{i}"] = _generate_mix("S", i, 16)
    for i in range(1, 15):
        mixes[f"T{i}"] = _generate_mix("T", i, 32)
    return mixes


MIXES: Dict[str, List[str]] = _build_mixes()


def get_mix(name: str) -> List[str]:
    """Benchmark names of a mix (copy; callers may mutate).

    Raises:
        KeyError: for unknown mix names.
    """
    try:
        return list(MIXES[name])
    except KeyError:
        raise KeyError(f"unknown mix {name!r}; known: {sorted(MIXES)}") from None


def mixes_for_cores(cores: int) -> List[str]:
    """All mix names with exactly ``cores`` programs, in numeric order."""
    prefix = {4: "Q", 8: "E", 16: "S", 32: "T"}.get(cores)
    if prefix is None:
        raise ValueError(f"no mixes defined for {cores} cores (4/8/16/32 supported)")
    names = [name for name in MIXES if name.startswith(prefix)]
    return sorted(names, key=lambda n: int(n[1:]))
