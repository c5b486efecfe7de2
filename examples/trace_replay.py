#!/usr/bin/env python
"""Trace capture and replay: identical inputs across scheme comparisons.

Records each program's access stream once, saves it to disk (.npz), and
replays the *same* trace under LRU and PriSM-H — so any difference between
the runs is attributable to the scheme alone, with zero generator noise.
This is the workflow for plugging external traces into the simulator: any
pair of (gaps, block-address) arrays becomes a drop-in benchmark.

Usage::

    python examples/trace_replay.py [--length N] [--dir DIR]
"""

import argparse
import tempfile
from pathlib import Path

from repro.cache import SharedCache
from repro.cache.replacement import LRUPolicy
from repro.core import HitMaxPolicy, PrismScheme
from repro.cpu import MultiCoreSystem
from repro.cpu.memory import MemoryModel
from repro.experiments.configs import machine
from repro.workloads import Trace, get_profile, record_trace
from repro.workloads.benchmark import BenchmarkProfile


def run_with_traces(traces, profiles, config, scheme, instructions: int):
    cache = SharedCache(config.geometry, len(profiles), policy=LRUPolicy())
    if scheme == "prism-h":
        cache.set_scheme(PrismScheme(HitMaxPolicy()))
    system = MultiCoreSystem(
        cache, profiles, memory=MemoryModel(config.num_controllers)
    )
    # Swap the live generators for trace replays (a Trace is a stream).
    system.streams = list(traces)
    return system.run(instructions)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=60_000,
                        help="accesses to record per program")
    parser.add_argument("--instructions", type=int, default=400_000)
    parser.add_argument("--dir", default=None, help="where to store traces")
    args = parser.parse_args()

    config = machine(4)
    names = ["179.art", "300.twolf", "470.lbm", "403.gcc"]
    profiles = [get_profile(n) for n in names]
    trace_dir = Path(args.dir) if args.dir else Path(tempfile.mkdtemp(prefix="prism-traces-"))
    trace_dir.mkdir(parents=True, exist_ok=True)

    print(f"recording {args.length} accesses per program into {trace_dir}")
    paths = []
    for i, profile in enumerate(profiles):
        trace = record_trace(profile, args.length, seed=100 + i)
        path = trace_dir / f"{profile.name}.npz"
        trace.save(path)
        paths.append(path)
        print(f"  {path.name}: {len(trace)} accesses, footprint "
              f"{trace.addrs.max() + 1} blocks")

    results = {}
    for scheme in ("lru", "prism-h"):
        traces = [Trace.load(p) for p in paths]  # fresh cursors per run
        results[scheme] = run_with_traces(
            traces, profiles, config, scheme, args.instructions
        )

    print(f"\n{'benchmark':>12} {'IPC (LRU)':>10} {'IPC (PriSM-H)':>14}")
    for core, name in enumerate(names):
        print(f"{name:>12} {results['lru'].cores[core].ipc:>10.3f} "
              f"{results['prism-h'].cores[core].ipc:>14.3f}")
    lru_thr = sum(c.ipc for c in results["lru"].cores)
    prism_thr = sum(c.ipc for c in results["prism-h"].cores)
    print(f"\nthroughput: LRU {lru_thr:.3f} -> PriSM-H {prism_thr:.3f} "
          "(same replayed input, so the delta is pure scheme effect)")


if __name__ == "__main__":
    main()
