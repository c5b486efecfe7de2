"""Command-line interface: run mixes, compare schemes, regenerate figures.

Installed as ``repro-sim``::

    repro-sim list                                  # schemes/mixes/experiments
    repro-sim run --mix Q7 --scheme prism-h         # one shared run
    repro-sim compare --mix Q7 lru prism-h ucp      # side-by-side
    repro-sim experiment fig7 --csv out/fig7        # a paper figure (+CSV)
    repro-sim campaign run --store sweeps/s1 \\
        --mixes Q1 Q7 --schemes lru prism-h         # resumable sweep
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.common import compare_schemes, format_table, run_grid
from repro.experiments.configs import DEFAULT_INSTRUCTIONS, machine
from repro.experiments.export import export_csv
from repro.experiments.options import RunOptions
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import run_workload
from repro.experiments.schemes import SCHEMES
from repro.workloads.mixes import MIXES, get_mix
from repro.workloads.registry import resolve_workload
from repro.workloads.spec import PROFILES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="PriSM (ISCA 2012) reproduction: shared-cache simulation CLI",
    )
    # Shared by every fan-out subcommand; passed down to the run grid.
    jobs_parent = argparse.ArgumentParser(add_help=False)
    jobs_parent.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent runs (0 = all CPUs; "
        "default: serial); 'experiment headroom' runs no grid and refuses "
        "any value but 1",
    )
    jobs_parent.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result-store directory (see docs/campaigns.md): runs already "
        "in the store are not recomputed, new runs persist into it "
        "(default: no store); 'experiment headroom' refuses it",
    )
    # Hierarchy knobs, shared by run/compare: private L1s + banked DRAM.
    hier_parent = argparse.ArgumentParser(add_help=False)
    hier_parent.add_argument(
        "--l1",
        choices=["inclusive", "non-inclusive"],
        default=None,
        help="put a private L1 in front of each core (inclusive = LLC "
        "evictions back-invalidate the owner's L1); default: LLC-only",
    )
    hier_parent.add_argument(
        "--l1-bytes", type=int, default=None,
        help="unscaled per-core L1 capacity (default 64 KiB, scaled like "
        "the LLC)",
    )
    hier_parent.add_argument(
        "--l1-assoc", type=int, default=2, help="L1 associativity (power of two)"
    )
    hier_parent.add_argument(
        "--dram-banks", type=int, default=1,
        help="DRAM banks per memory controller",
    )
    hier_parent.add_argument(
        "--dram-row-blocks", type=int, default=0,
        help="cache blocks per DRAM row (0 = flat DRAM latency)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list schemes, mixes, benchmarks, experiments")
    list_p.add_argument(
        "what",
        nargs="?",
        default="all",
        choices=["all", "schemes", "mixes", "benchmarks", "experiments"],
    )

    run_p = sub.add_parser(
        "run", help="run one mix under one scheme", parents=[hier_parent]
    )
    run_p.add_argument("--mix", required=True,
                       help="mix name (e.g. Q7), workload reference "
                       "(e.g. tenants:web8), or comma-separated benchmarks")
    run_p.add_argument("--scheme", default="prism-h", help="scheme registry name")
    run_p.add_argument("--instructions", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--scale-factor", type=int, default=64, help="cache scaling divisor")
    run_p.add_argument(
        "--backend",
        choices=["classic", "vector"],
        default="classic",
        help="cache engine (results are certified bit-exact either way; "
        "vector is the numpy batch engine, built from 1,024 LLC sets up "
        "and classic below, see docs/simulator.md)",
    )
    run_p.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="stream the per-interval telemetry trace to PATH "
        "(.csv for CSV, anything else for JSON lines)",
    )
    run_p.add_argument(
        "--check",
        action="store_true",
        help="attach the runtime invariant checker to the shared cache; an "
        "engine inconsistency aborts the run with InvariantViolation "
        "(docs/testing.md)",
    )
    run_p.add_argument(
        "--clusters",
        type=int,
        default=None,
        metavar="N",
        help="shared-data workloads only (--mix shared:...): run PriSM at "
        "cluster granularity, grouping cores into at most N clusters by "
        "miss-curve similarity (docs/simulator.md)",
    )

    cmp_p = sub.add_parser(
        "compare",
        help="run one mix under several schemes (include 'belady' to get "
        "a per-scheme miss gap to the offline optimum)",
        parents=[jobs_parent, hier_parent],
    )
    cmp_p.add_argument("schemes", nargs="+", help="scheme registry names")
    cmp_p.add_argument("--mix", required=True)
    cmp_p.add_argument("--instructions", type=int, default=None)
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.add_argument("--scale-factor", type=int, default=64,
                       help="cache scaling divisor")

    exp_p = sub.add_parser(
        "experiment", help="regenerate a paper figure", parents=[jobs_parent]
    )
    exp_p.add_argument("id", choices=sorted(EXPERIMENTS), help="experiment id")
    exp_p.add_argument("--instructions", type=int, default=None)
    exp_p.add_argument("--csv", default=None, help="also export tables as CSV (path prefix)")
    exp_p.add_argument("--verbose", action="store_true")

    char_p = sub.add_parser(
        "characterize", help="measure a benchmark's miss curve and reuse profile"
    )
    char_p.add_argument("benchmark", help="catalog name (e.g. 179.art)")
    char_p.add_argument("--accesses", type=int, default=30_000)

    report_p = sub.add_parser(
        "report",
        help="regenerate the evaluation into a markdown report",
        parents=[jobs_parent],
    )
    report_p.add_argument("-o", "--output", default="results.md")
    report_p.add_argument("--budget", choices=["micro", "quick", "full"],
                          default="quick")
    report_p.add_argument("--only", nargs="*", default=None)
    report_p.add_argument("--quiet", action="store_true")

    cost_p = sub.add_parser(
        "cost", help="hardware storage overhead per scheme (paper §3.4)"
    )
    cost_p.add_argument("--cores", type=int, default=16, choices=[4, 8, 16, 32])
    cost_p.add_argument("--paper-scale", action="store_true",
                        help="use the unscaled Table-2 cache")
    cost_p.add_argument("--bits", type=int, default=8,
                        help="probability width K for PriSM")

    sweep_p = sub.add_parser(
        "sweep",
        help="sweep one scheme parameter over a mix (ANTT vs LRU)",
        parents=[jobs_parent],
    )
    sweep_p.add_argument("parameter", help="scheme kwarg to sweep "
                         "(e.g. interval_len, probability_bits, sample_shift)")
    sweep_p.add_argument("values", nargs="+", type=int, help="values to try")
    sweep_p.add_argument("--mix", required=True)
    sweep_p.add_argument("--scheme", default="prism-h")
    sweep_p.add_argument("--instructions", type=int, default=None)
    sweep_p.add_argument("--seed", type=int, default=0)

    ten_p = sub.add_parser(
        "tenants",
        help="multi-tenant web-cache scenario: per-tenant SLO scorecard "
        "(docs/tenancy.md)",
        parents=[jobs_parent],
    )
    ten_p.add_argument("--workload", default="web8",
                       help="tenant preset (smoke4, web8) or a full "
                       "tenants:<preset> reference")
    ten_p.add_argument("--schemes", nargs="+", default=None,
                       help="scheme registry names "
                       "(default: lru cliff prism-h prism-f prism-q)")
    ten_p.add_argument("--requests", type=int, default=None,
                       help="total shared request budget "
                       "(default: the machine instruction budget)")
    ten_p.add_argument("--seed", type=int, default=0)
    ten_p.add_argument("--scale-factor", type=int, default=64,
                       help="cache scaling divisor")
    ten_p.add_argument(
        "--backend",
        choices=["classic", "vector"],
        default="classic",
        help="cache engine for every run (results are certified bit-exact "
        "either way; vector is built from 1,024 LLC sets up)",
    )
    ten_p.add_argument("--json", default=None, metavar="PATH",
                       help="also write the full result dict as JSON")
    ten_p.add_argument("--csv", default=None,
                       help="also export tables as CSV (path prefix)")

    camp_p = sub.add_parser(
        "campaign",
        help="resumable, fault-tolerant experiment sweeps backed by a "
        "content-addressed result store (docs/campaigns.md)",
    )
    camp_sub = camp_p.add_subparsers(dest="campaign_command", required=True)

    camp_store = argparse.ArgumentParser(add_help=False)
    camp_store.add_argument(
        "--store", required=True, metavar="DIR", help="campaign store directory"
    )

    crun_p = camp_sub.add_parser(
        "run", help="run a mixes x schemes x seeds grid (skipping cached runs)",
        parents=[camp_store],
    )
    crun_p.add_argument("--mixes", nargs="+", required=True,
                        help="mix names (must share one core count)")
    crun_p.add_argument("--schemes", nargs="+", required=True,
                        help="scheme registry names")
    crun_p.add_argument("--seeds", nargs="*", type=int, default=[0])
    crun_p.add_argument("--instructions", type=int, default=None)
    crun_p.add_argument("--scale-factor", type=int, default=64)
    crun_p.add_argument("--jobs", type=int, default=None,
                        help="concurrent worker processes (0 = all CPUs)")
    crun_p.add_argument("--hosts", nargs="+", default=None, metavar="HOST",
                        help="run one `repro-sim herd worker` per host over "
                        "ssh instead of forked workers (list a host twice "
                        "for two workers)")
    crun_p.add_argument("--retries", type=int, default=1,
                        help="extra fresh-worker attempts per failing spec")
    crun_p.add_argument("--timeout", type=float, default=None,
                        help="per-spec wall-clock limit in seconds")
    crun_p.add_argument("--limit", type=int, default=None,
                        help="execute at most N pending specs this invocation")
    crun_p.add_argument("--telemetry", action="store_true",
                        help="record per-interval traces into the store")
    crun_p.add_argument("--check", action="store_true",
                        help="run every spec with the runtime invariant "
                        "checker attached (failures are not retried)")
    crun_p.add_argument("--quiet", action="store_true")
    # Test hook (CI chaos smoke): SIGKILL the named worker as it takes its
    # next spec after N results, exercising crash-and-retry end to end.
    crun_p.add_argument("--chaos-kill-worker", default=None,
                        help=argparse.SUPPRESS)
    crun_p.add_argument("--chaos-kill-after", type=int, default=1,
                        help=argparse.SUPPRESS)

    camp_sub.add_parser(
        "status", help="summarise a campaign store (exit 0 iff complete)",
        parents=[camp_store],
    )

    cresume_p = camp_sub.add_parser(
        "resume", help="resume an interrupted campaign from its store alone",
        parents=[camp_store],
    )
    cresume_p.add_argument("--jobs", type=int, default=None)
    cresume_p.add_argument("--hosts", nargs="+", default=None, metavar="HOST",
                           help="ssh worker hosts, as for `campaign run`")
    cresume_p.add_argument("--limit", type=int, default=None)
    cresume_p.add_argument("--quiet", action="store_true")

    cexport_p = camp_sub.add_parser(
        "export", help="export campaign results as CSV, JSONL, or Parquet",
        parents=[camp_store],
    )
    cexport_p.add_argument("-o", "--output", required=True)
    cexport_p.add_argument("--format", choices=["csv", "jsonl", "parquet"],
                           default=None,
                           help="default: by output extension (parquet needs "
                           "pyarrow and falls back loudly to CSV without it)")

    herd_p = sub.add_parser(
        "herd",
        help="worker-side entry point for `campaign run --hosts`",
    )
    herd_sub = herd_p.add_subparsers(dest="herd_top_command", required=True)
    herd_sub.add_parser(
        "worker",
        help="run as a subprocess worker: launch document and specs on "
        "stdin, framed outcomes on stdout (docs/campaigns.md \"Workers\")",
    )

    check_p = sub.add_parser(
        "check",
        help="engine self-checks: differential fuzzing against the "
        "reference simulator (docs/testing.md)",
    )
    check_sub = check_p.add_subparsers(dest="check_command", required=True)
    fuzz_p = check_sub.add_parser(
        "fuzz",
        help="run random engine-vs-reference differential cases "
        "(exit 1 on any divergence)",
    )
    fuzz_p.add_argument("--cases", type=int, default=200,
                        help="number of random cases to run")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="fuzz-stream seed (same seed = same cases)")
    fuzz_p.add_argument("--schemes", nargs="*", default=None,
                        help="restrict to these schemes "
                        "(default: every reference scheme)")
    fuzz_p.add_argument(
        "--backend",
        choices=["classic", "vector"],
        default="classic",
        help="engine under test: classic compares the object-model engine "
        "against the reference; vector compares the numpy batch engine "
        "against BOTH the classic engine and the reference",
    )
    fuzz_p.add_argument(
        "--sharing",
        action="store_true",
        help="also sweep the shared-ownership and cluster axes: scale-out "
        "core counts, grouped sharing pools, sharer bitmasks and random "
        "cluster maps",
    )
    fuzz_p.add_argument("--quiet", action="store_true")
    return parser


def _run_options(args, progress=None, telemetry=False) -> RunOptions:
    """The one place CLI flags become a RunOptions."""
    return RunOptions(
        instructions=getattr(args, "instructions", None),
        seed=getattr(args, "seed", 0),
        jobs=getattr(args, "jobs", None),
        progress=progress,
        telemetry=telemetry,
        store=getattr(args, "store", None),
        check=getattr(args, "check", False),
        backend=getattr(args, "backend", "classic"),
    )


def _machine_kwargs(args) -> dict:
    """The hierarchy flags of run/compare as machine() keyword arguments."""
    return {
        "scale_factor": getattr(args, "scale_factor", 64),
        "l1": getattr(args, "l1", None),
        "l1_bytes": getattr(args, "l1_bytes", None),
        "l1_assoc": getattr(args, "l1_assoc", 2),
        "dram_banks": getattr(args, "dram_banks", 1),
        "dram_row_blocks": getattr(args, "dram_row_blocks", 0),
    }


def _resolve(mix: str):
    """Mix argument: a registry name, a ``family:spec`` workload reference
    (``tenants:web8``), or comma-separated benchmark names."""
    if "," in mix:
        names = tuple(n.strip() for n in mix.split(","))
        return names, len(names)
    return mix, resolve_workload(mix).num_cores


def _print_run(result) -> None:
    rows = []
    for core, name in enumerate(result.benchmarks):
        rows.append(
            [
                core,
                name,
                result.standalone[core],
                result.cores[core].ipc,
                result.slowdown(core),
                result.cores[core].misses,
                result.cores[core].occupancy_at_finish,
            ]
        )
    print(format_table(
        ["core", "benchmark", "IPC-alone", "IPC", "slowdown", "misses", "occupancy"],
        rows,
        width=13,
    ))
    print(
        f"\nANTT={result.antt:.4f}  fairness={result.fairness:.4f}  "
        f"throughput={result.throughput:.4f}  intervals={result.intervals}"
    )
    if result.eviction_probabilities:
        print(
            "eviction probabilities:",
            [round(p, 3) for p in result.eviction_probabilities],
        )


def cmd_list(args) -> int:
    if args.what in ("all", "schemes"):
        print("schemes:")
        for name, spec in sorted(SCHEMES.items()):
            print(f"  {name:>16}  {spec.description}")
    if args.what in ("all", "mixes"):
        counts = {}
        for name in MIXES:
            counts.setdefault(name[0], []).append(name)
        print("mixes: " + ", ".join(
            f"{prefix}1-{prefix}{len(names)} ({len(get_mix(names[0]))}-core)"
            for prefix, names in sorted(counts.items())
        ))
        from repro.workloads.tenants import TENANT_PRESETS, get_tenant_workload

        print("tenant workloads: " + ", ".join(
            f"tenants:{name} ({get_tenant_workload(name).num_cores}-tenant)"
            for name in sorted(TENANT_PRESETS)
        ))
    if args.what in ("all", "benchmarks"):
        print("benchmarks:")
        for name, profile in sorted(PROFILES.items()):
            print(f"  {name:>16}  {profile.category:>12}  footprint={profile.footprint()} blocks")
    if args.what in ("all", "experiments"):
        print("experiments:")
        for experiment_id, experiment in sorted(EXPERIMENTS.items()):
            print(f"  {experiment_id:>6}  {experiment.title}")
    return 0


def cmd_run(args) -> int:
    mix, cores = _resolve(args.mix)
    config = machine(cores, **_machine_kwargs(args))
    telemetry = False
    if args.telemetry_out:
        from repro.telemetry import TelemetryRecorder, open_sink

        telemetry = TelemetryRecorder(sink=open_sink(args.telemetry_out))
    options = _run_options(args, telemetry=telemetry)
    start = time.time()
    result = run_workload(
        mix, config, args.scheme, options=options,
        clusters=getattr(args, "clusters", None),
    )
    print(f"machine {config} | scheme {args.scheme} | mix {args.mix}")
    _print_run(result)
    if args.telemetry_out:
        timing = result.telemetry.timing
        print(f"telemetry: {timing.describe()}")
        print(f"wrote {args.telemetry_out}")
    print(f"({time.time() - start:.1f}s)")
    return 0


def cmd_compare(args) -> int:
    mix, cores = _resolve(args.mix)
    config = machine(cores, **_machine_kwargs(args))
    results = compare_schemes(
        [mix],
        config,
        args.schemes,
        seed=args.seed,
        instructions=args.instructions,
        jobs=args.jobs,
        store=args.store,
    )
    per_scheme = next(iter(results.values()))
    belady = per_scheme.get("belady")
    headers = ["scheme", "ANTT", "fairness", "throughput", "misses"]
    if belady is not None:
        # Miss gap to the offline optimum. Each scheme runs its own seeded
        # stream here; the shared-trace headroom study is `experiment
        # headroom`, which replays every scheme on one recorded trace.
        headers.append("vs-belady")
        optimal_misses = sum(belady.misses())
    rows = []
    for scheme, result in per_scheme.items():
        misses = sum(result.misses())
        row = [scheme, result.antt, result.fairness, result.throughput, misses]
        if belady is not None:
            row.append(misses - optimal_misses)
        rows.append(row)
    print(f"machine {config} | mix {args.mix}")
    print(format_table(headers, rows, width=14))
    return 0


def cmd_experiment(args) -> int:
    experiment = EXPERIMENTS[args.id]
    requested = {
        "--jobs": args.jobs not in (None, 1),
        "--store": args.store is not None,
    }
    dropped = [
        flag
        for flag, given in requested.items()
        if given and flag[2:] not in experiment.run.run_controls
    ]
    if dropped:
        raise SystemExit(
            f"repro-sim experiment {args.id} would ignore "
            f"{' and '.join(dropped)}: it runs no grid to parallelise or store"
        )
    progress = (lambda msg: print(f"  {msg}", flush=True)) if args.verbose else None
    result = experiment.run(options=_run_options(args, progress=progress))
    print(experiment.format(result))
    if args.csv:
        for path in export_csv(result, args.csv):
            print(f"wrote {path}")
    return 0


def cmd_cost(args) -> int:
    from repro.core.hardware import scheme_costs

    config = machine(args.cores, scale_factor=1 if args.paper_scale else 64)
    costs = scheme_costs(config.geometry, args.cores, probability_bits=args.bits)
    rows = [
        [
            cost.name,
            cost.per_block_bits / 8 / 1024,
            cost.global_bits / 8 / 1024,
            cost.monitor_bits / 8 / 1024,
            cost.total_kib(),
        ]
        for cost in sorted(costs.values(), key=lambda c: c.total_bits)
    ]
    print(f"storage overhead on {config.geometry} with {args.cores} cores (KiB)")
    print(format_table(["scheme", "per-block", "global", "monitors", "total"], rows))
    return 0


def cmd_characterize(args) -> int:
    from repro.workloads.analysis import (
        classify_profile,
        miss_curve,
        reuse_distance_histogram,
    )
    from repro.workloads.spec import get_profile

    profile = get_profile(args.benchmark)
    sizes = [128, 256, 512, 1024, 2048]
    curve = miss_curve(profile, sizes, accesses=args.accesses)
    hist = reuse_distance_histogram(profile, accesses=args.accesses)
    print(f"{profile.name}: declared category {profile.category!r}, "
          f"measured {classify_profile(profile)!r}")
    print(f"footprint {profile.footprint()} blocks | "
          f"{profile.mem_ratio:.3f} LLC accesses/instr | MLP {profile.mlp}")
    print("\nmiss rate vs cache size (blocks):")
    print(format_table(["blocks", "miss-rate"], list(zip(sizes, curve))))
    print("\nreuse-distance histogram:")
    total = sum(hist.values())
    print(format_table(
        ["bucket", "share"], [[k, v / total] for k, v in hist.items()]
    ))
    return 0


def cmd_report(args) -> int:
    from pathlib import Path

    from repro.experiments.report import generate_report

    progress = None if args.quiet else (lambda msg: print(f"  {msg}", flush=True))
    path = generate_report(
        Path(args.output), budget=args.budget, only=args.only, progress=progress,
        jobs=args.jobs, store=args.store,
    )
    print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    mix, cores = _resolve(args.mix)
    config = machine(cores)
    variants = [("lru", None)]
    variants += [(args.scheme, {args.parameter: value}) for value in args.values]
    baseline, *results = run_grid(
        [mix], config, variants, instructions=args.instructions, seed=args.seed,
        jobs=args.jobs, store=args.store,
    )[mix]
    rows = [
        [value, result.antt, result.antt / baseline.antt, result.fairness]
        for value, result in zip(args.values, results)
    ]
    print(f"machine {config} | mix {args.mix} | scheme {args.scheme} | "
          f"sweeping {args.parameter}")
    print(format_table([args.parameter, "ANTT", "vs LRU", "fairness"], rows, width=14))
    return 0


def cmd_tenants(args) -> int:
    from repro.experiments import multi_tenant

    options = RunOptions(
        instructions=args.requests,
        seed=args.seed,
        jobs=args.jobs,
        store=args.store,
    )
    result = multi_tenant.run(
        options=options,
        workload=args.workload,
        schemes=args.schemes or list(multi_tenant.DEFAULT_SCHEMES),
        scale_factor=args.scale_factor,
        backend=args.backend,
    )
    print(multi_tenant.format_result(result))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.csv:
        for path in export_csv(result, args.csv):
            print(f"wrote {path}")
    return 0


def cmd_campaign(args) -> int:
    from repro.campaign.cli import cmd_campaign as handler

    return handler(args)


def cmd_herd(args) -> int:
    from repro.campaign.stdio import serve

    return serve()


def cmd_check(args) -> int:
    from repro.check.cli import cmd_check as handler

    return handler(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "compare": cmd_compare,
        "experiment": cmd_experiment,
        "sweep": cmd_sweep,
        "tenants": cmd_tenants,
        "cost": cmd_cost,
        "report": cmd_report,
        "characterize": cmd_characterize,
        "campaign": cmd_campaign,
        "herd": cmd_herd,
        "check": cmd_check,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: exit quietly.
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 0


if __name__ == "__main__":
    sys.exit(main())
