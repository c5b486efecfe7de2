"""Headroom — per-scheme miss gap to the offline Belady/MIN optimum.

Not a figure from the paper: a bound the paper could not report. For each
mix, one post-L1 trace is recorded from an unmanaged-LRU run on the
hierarchy machine (private inclusive L1s in front of the shared LLC);
every scheme then replays *that same trace* through a fresh cache, so
hit counts are directly comparable, and Belady/MIN on the recorded
future gives the optimal hit count any demand-fill policy could have
achieved. The gap between a scheme's misses and Belady's is the
remaining headroom replacement/partitioning could still claw back.

Every row is certified by :func:`repro.check.belady.assert_belady_bound`
— the run aborts with an ``InvariantViolation`` if any online policy
appears to beat the offline optimum (which would mean the simulator is
broken, not that the policy is clever).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.cache import SharedCache
from repro.cache.replacement.lru import LRUPolicy
from repro.check.belady import assert_belady_bound
from repro.cpu.system import MultiCoreSystem
from repro.experiments.common import Progress, format_table
from repro.experiments.configs import MachineConfig, machine
from repro.experiments.options import experiment_run
from repro.experiments.runner import _machine_memory
from repro.util.rng import derive_seed
from repro.workloads.mixes import mixes_for_cores
from repro.workloads.registry import resolve_workload

__all__ = ["run", "format_result", "DEFAULT_SCHEMES"]

#: Schemes replayed against the optimum by default: the unmanaged
#: baselines (true LRU, the PLRU hardware approximation, DIP) and the
#: PriSM variants whose headroom the bound is really about.
DEFAULT_SCHEMES = ["lru", "plru", "dip", "prism-h", "prism-f"]


@experiment_run
def run(
    instructions: Optional[int] = None,
    mixes: Optional[List[str]] = None,
    schemes: Optional[List[str]] = None,
    seed: int = 0,
    progress: Progress = None,
) -> Dict:
    config = machine(4, l1="inclusive")
    mix_names = mixes or mixes_for_cores(4)
    scheme_names = schemes or list(DEFAULT_SCHEMES)
    budget = instructions or config.instructions
    rows = []
    traces = {}
    for mix in mix_names:
        # One mix at a time: its trace is freed before the next is recorded.
        mix_rows, traces[mix] = _mix_rows(
            mix, config, scheme_names, budget, seed, progress
        )
        rows.extend(mix_rows)
    return {
        "id": "headroom",
        "rows": rows,
        "trace_lengths": traces,
        "machine": str(config),
        "schemes": scheme_names,
    }


def _mix_rows(
    mix: str,
    config: MachineConfig,
    scheme_names: List[str],
    budget: int,
    seed: int,
    progress: Progress,
) -> Tuple[List[Dict], int]:
    """Record ``mix``'s trace, certify the bound on it and return its
    headroom rows with the trace length."""
    source = resolve_workload(mix)
    profiles = source.profiles()
    cache = SharedCache(config.geometry, config.num_cores, policy=LRUPolicy())
    system = MultiCoreSystem(
        cache,
        profiles,
        seed=derive_seed(seed, "headroom", mix),
        scale=config.workload_scale,
        memory=_machine_memory(config),
        l1_geometry=config.l1_geometry,
        inclusive=config.l1_inclusive,
        record_trace=True,
    )
    system.run(budget)
    # The machine is a reference cycle (its cache's interval listener
    # points back at it) that only the cycle collector reclaims; detached,
    # the trace dies with this call.
    trace, system.recorded_trace = system.recorded_trace, None
    if progress:
        progress(f"{mix}: recorded {len(trace)} LLC accesses, replaying")
    results = assert_belady_bound(
        trace,
        config.geometry,
        scheme_names,
        seed=derive_seed(seed, "headroom-replay", mix),
    )
    optimal = results["belady"]
    rows = []
    for scheme in ["belady"] + [s for s in scheme_names if s != "belady"]:
        replay = results[scheme]
        gap = replay.total_misses - optimal.total_misses
        rows.append(
            {
                "mix": mix,
                "scheme": scheme,
                "hits": replay.total_hits,
                "misses": replay.total_misses,
                "miss_gap": gap,
                "gap_pct": (
                    100.0 * gap / optimal.total_misses
                    if optimal.total_misses
                    else 0.0
                ),
            }
        )
    return rows, len(trace)


def format_result(result: Dict) -> str:
    table = [
        [r["mix"], r["scheme"], r["hits"], r["misses"], r["miss_gap"], r["gap_pct"]]
        for r in result["rows"]
    ]
    return (
        "Headroom: misses vs the offline Belady/MIN optimum on one shared "
        "recorded post-L1 trace per mix\n"
        f"(machine {result['machine']}; bound certified on every row)\n"
        + format_table(
            ["mix", "scheme", "hits", "misses", "miss-gap", "gap-%"],
            table,
            width=12,
        )
    )
