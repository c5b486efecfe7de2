#!/usr/bin/env python
"""Watch PriSM's control loop converge — and re-converge after a phase change.

Core 0 runs a *phased* program: a cache-friendly working set for the first
half, then a compute-bound phase with a tiny footprint. A
:class:`~repro.telemetry.TelemetryRecorder` records occupancy ``C_i``,
targets ``T_i`` and eviction probabilities ``E_i`` at every allocation
interval; the script prints the trajectory and (optionally) streams it to
CSV for plotting.

What to look for: core 0's occupancy climbs toward its target during the
friendly phase, then PriSM hands the space to the competing friendly core
within a few intervals of the phase change.

Usage::

    python examples/control_loop_trace.py [--csv trace.csv]
"""

import argparse

from repro.cache import SharedCache
from repro.core import HitMaxPolicy, PrismScheme
from repro.cpu import MultiCoreSystem
from repro.cpu.memory import MemoryModel
from repro.experiments.configs import machine
from repro.telemetry import CSVSink, TelemetryRecorder
from repro.workloads import PhasedProfile, get_profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phase-length", type=int, default=400_000,
                        help="instructions per phase for core 0")
    parser.add_argument("--csv", default=None, help="dump the trajectory as CSV")
    args = parser.parse_args()

    config = machine(4)
    # The compute phase gets a huge budget so the schedule never cycles
    # back to the friendly phase while other cores finish their runs.
    phased = PhasedProfile(
        [
            (get_profile("300.twolf"), args.phase_length),
            (get_profile("416.gamess"), 100 * args.phase_length),
        ]
    )
    profiles = [phased, get_profile("471.omnetpp"),
                get_profile("470.lbm"), get_profile("403.gcc")]

    cache = SharedCache(config.geometry, 4)
    scheme = PrismScheme(HitMaxPolicy())
    cache.set_scheme(scheme)
    recorder = TelemetryRecorder(sink=CSVSink(args.csv) if args.csv else None)
    system = MultiCoreSystem(
        cache, profiles, seed=7, memory=MemoryModel(config.num_controllers),
        telemetry=recorder,
    )
    system.run(2 * args.phase_length)
    trace = recorder.result()

    print(f"{trace.num_intervals} intervals; core 0 phases: "
          f"{phased.phases[0][0].name} -> {phased.phases[1][0].name}\n")
    print(f"{'interval':>8} {'C0':>7} {'T0':>7} {'E0':>7}   {'C1':>7} {'E1':>7}")
    core0, core1 = trace.per_core(0), trace.per_core(1)
    step = max(1, len(core0) // 24)
    for s0, s1 in list(zip(core0, core1))[::step]:
        print(
            f"{s0.interval:>8} {s0.occupancy:>7.3f} "
            f"{s0.target:>7.3f} {s0.eviction_probability:>7.3f}   "
            f"{s1.occupancy:>7.3f} {s1.eviction_probability:>7.3f}"
        )

    c0 = trace.series("occupancy", 0)
    half = len(c0) // 2
    if half:
        print(f"\ncore 0 mean occupancy: friendly phase {sum(c0[:half]) / half:.3f} "
              f"-> compute phase {sum(c0[half:]) / (len(c0) - half):.3f}")
    else:
        print(f"\ncore 0 mean occupancy: {len(c0)} interval(s), too few to "
              f"split by phase (raise --phase-length)")

    if args.csv:
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
