"""`repro-sim campaign` subcommand handlers.

Parser wiring lives in :mod:`repro.cli` (one place builds the whole CLI);
this module holds the handlers so the campaign machinery only imports when
a campaign command actually runs.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time

from repro.campaign.campaign import Campaign
from repro.experiments.common import format_table
from repro.experiments.configs import machine
from repro.workloads.registry import resolve_workload

__all__ = ["cmd_campaign"]


def _grid_machine(args):
    """The machine for a campaign grid, with core count from the mixes."""
    core_counts = {mix: resolve_workload(mix).num_cores for mix in args.mixes}
    counts = set(core_counts.values())
    if len(counts) > 1:
        raise SystemExit(
            f"campaign mixes must share one core count, got {core_counts}"
        )
    return machine(
        counts.pop(),
        scale_factor=args.scale_factor,
        instructions=args.instructions,
    )


def _print_run(campaign: Campaign, run) -> None:
    print(run.describe())
    rows = []
    for spec, result in zip(campaign.specs, run.results):
        if result is None:
            continue
        rows.append(
            [spec.mix, spec.scheme, spec.seed, result.antt, result.fairness,
             result.throughput]
        )
    if rows:
        print(format_table(
            ["mix", "scheme", "seed", "ANTT", "fairness", "throughput"], rows
        ))
    for failure in run.failures:
        print(f"FAILED: {failure.describe()}")
    print(f"store: {campaign.store.root} ({campaign.status().describe()})")


def _execute(campaign: Campaign, args, kill_after=None):
    """``campaign.run`` for the CLI: ssh workers from ``--hosts``, and the
    first Ctrl-C drains (in-flight specs finish, no new one starts); a
    second one aborts."""
    commands = None
    if args.hosts:
        from repro.campaign.stdio import ssh_commands

        commands = ssh_commands(args.hosts)
    stop = threading.Event()

    def on_sigint(signum, frame):
        if stop.is_set():
            raise KeyboardInterrupt
        stop.set()
        print("draining: in-flight specs finish, no new one starts "
              "(Ctrl-C again to abort)", file=sys.stderr, flush=True)

    previous = signal.signal(signal.SIGINT, on_sigint)
    progress = None if args.quiet else (lambda msg: print(f"  {msg}", flush=True))
    try:
        return campaign.run(jobs=args.jobs, progress=progress, limit=args.limit,
                            commands=commands, stop=stop, kill_after=kill_after)
    finally:
        signal.signal(signal.SIGINT, previous)


def cmd_campaign_run(args) -> int:
    campaign = Campaign.grid(
        args.store,
        _grid_machine(args),
        mixes=args.mixes,
        schemes=args.schemes,
        seeds=args.seeds,
        telemetry=args.telemetry,
        check=args.check,
        retries=args.retries,
        timeout=args.timeout,
    )
    kill_after = None
    if args.chaos_kill_worker:
        kill_after = (args.chaos_kill_worker, args.chaos_kill_after)
    run = _execute(campaign, args, kill_after=kill_after)
    _print_run(campaign, run)
    return 1 if run.failures else 0


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        pass
    return True


def _print_workers(store_root) -> None:
    """The last run's per-worker table, from ``events.jsonl``.

    A worker left "running" whose process is gone (its driver was
    killed) shows as "gone"; run ``status`` on the driver's host.
    """
    from repro.campaign.runner import read_events, worker_table

    rows = worker_table(read_events(store_root))
    if not rows:
        print("workers:  none recorded for the last run")
        return
    for row in rows:
        if row["state"] == "running" and row["pid"] and not _alive(row["pid"]):
            row["state"] = "gone"
    now = time.time()
    print(format_table(
        ["worker", "pid", "state", "results", "last event"],
        [[r["worker"], r["pid"], r["state"], r["results"],
          f"{now - r['last_ts']:.0f}s ago" if r["last_ts"] else "-"] for r in rows],
    ))


def cmd_campaign_status(args) -> int:
    campaign = Campaign.load(args.store)
    status = campaign.status()
    print(f"campaign: {campaign.store.root}")
    print(f"machine:  {campaign.config}")
    print(f"specs:    {len(campaign.specs)} ({status.total} unique)")
    print(f"status:   {status.describe()}")
    for failure in campaign.failures():
        print(f"  FAILED: {failure.describe()}")
    _print_workers(campaign.store.root)
    return 0 if status.done else 1


def cmd_campaign_resume(args) -> int:
    campaign = Campaign.load(args.store)
    run = _execute(campaign, args)
    _print_run(campaign, run)
    return 1 if run.failures else 0


def cmd_campaign_export(args) -> int:
    campaign = Campaign.load(args.store)
    path = campaign.export(args.output, fmt=args.format)
    print(f"wrote {path}")
    return 0


_HANDLERS = {
    "run": cmd_campaign_run,
    "status": cmd_campaign_status,
    "resume": cmd_campaign_resume,
    "export": cmd_campaign_export,
}


def cmd_campaign(args: argparse.Namespace) -> int:
    return _HANDLERS[args.campaign_command](args)
