"""CampaignRunner: the store-aware, fault-tolerant layer over spec grids.

``run(specs)`` is the one verb: fingerprint every spec, skip the ones the
:class:`~repro.campaign.store.ResultStore` already holds, execute the rest
with per-spec isolation (:mod:`repro.campaign.executor`), and persist each
outcome — result or typed :class:`~repro.campaign.store.FailedRun` — the
moment it lands. Because persistence is incremental, killing the driver at
any point loses at most the in-flight specs; calling ``run`` again resumes
and executes exactly the remainder. The loop's worker events (start,
heartbeat, crash, timeout, exit) go to ``<store>/events.jsonl``, fresh
for each run that executes something; ``repro-sim campaign status`` folds
them into a per-worker table (:func:`worker_table`).

The same skip-by-fingerprint cache is available *without* the fault
tolerance through ``run_specs(..., store=...)`` — that path keeps
``run_specs``'s raise-on-error contract and is what the figure
experiments ride on.
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.executor import iter_isolated
from repro.campaign.fingerprint import spec_fingerprint
from repro.campaign.store import FailedRun, ResultStore
from repro.experiments.configs import MachineConfig
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import WorkloadResult

__all__ = ["CampaignRun", "CampaignRunner", "cache_hit", "read_events", "worker_table"]

Progress = Optional[Callable[[str], None]]

#: The worker-event log inside a store directory.
EVENTS_NAME = "events.jsonl"


def cache_hit(store: ResultStore, fingerprint: str, spec: RunSpec) -> Optional[WorkloadResult]:
    """The stored result for ``spec``, or ``None`` if it must (re)run.

    A stored result only satisfies a spec that asked for telemetry if a
    trace was actually recorded — otherwise the spec re-runs and the
    richer result supersedes the stored one (last record wins).
    """
    result = store.get(fingerprint)
    if result is None:
        return None
    if spec.telemetry and result.telemetry is None:
        return None
    return result


@dataclass
class CampaignRun:
    """Outcome of one ``CampaignRunner.run`` call.

    ``results`` aligns with the input specs (``None`` where the spec
    failed); the executed/skipped/failed counters are over *unique*
    fingerprints — duplicate specs in a grid execute once.
    """

    results: List[Optional[WorkloadResult]]
    failures: List[FailedRun] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    remaining: int = 0  # pending specs not attempted (``limit``, or a drain)
    crashed_workers: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def describe(self) -> str:
        parts = [f"executed {self.executed}", f"skipped {self.skipped} (cached)"]
        if self.failed:
            parts.append(f"failed {self.failed}")
        if self.crashed_workers:
            parts.append(
                f"worker crashes {len(self.crashed_workers)} "
                f"({', '.join(self.crashed_workers)})"
            )
        if self.remaining:
            parts.append(f"remaining {self.remaining}")
        return ", ".join(parts)


class CampaignRunner:
    """Executes spec grids against a result store.

    Args:
        store: a :class:`ResultStore` or a path to create/open one.
        config: machine shared by every spec.
        jobs: concurrent worker processes (``None`` = serial, ``0`` =
            all CPUs, like every other ``jobs=`` in the repo).
        retries: extra attempts per failing spec, never in the worker
            process that failed.
        timeout: per-attempt wall-clock limit in seconds (``None`` = no
            limit; enforced by killing the worker process).
        commands: subprocess workers instead of forked ones (see
            :func:`~repro.campaign.executor.iter_isolated`).
    """

    def __init__(
        self,
        store: Union[ResultStore, str],
        config: MachineConfig,
        jobs: Optional[int] = None,
        retries: int = 1,
        timeout: Optional[float] = None,
        commands: Optional[Sequence[Tuple[str, Sequence[str]]]] = None,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.config = config
        self.jobs = jobs
        self.retries = retries
        self.timeout = timeout
        self.commands = commands

    def fingerprint(self, spec: RunSpec) -> str:
        return spec_fingerprint(spec, self.config)

    def run(
        self,
        specs: Sequence[RunSpec],
        progress: Progress = None,
        limit: Optional[int] = None,
        stop=None,
        kill_after: Optional[Tuple[str, int]] = None,
    ) -> CampaignRun:
        """Execute every spec not already in the store.

        Args:
            specs: the grid (duplicates are deduplicated by fingerprint).
            progress: optional ``callable(str)`` invoked per completion.
            limit: execute at most this many pending specs this call
                (the rest stay pending for the next ``run``/resume).
            stop: a ``threading.Event`` that drains the run once set
                (in-flight specs finish, the rest stay pending).
            kill_after: the executor's worker-kill test hook.

        Returns:
            A :class:`CampaignRun`; ``results[i]`` corresponds to
            ``specs[i]`` and is ``None`` only if that spec failed (its
            :class:`FailedRun` is in ``failures`` and in the store).
        """
        specs = list(specs)
        fingerprints = [self.fingerprint(spec) for spec in specs]
        cached: Dict[str, WorkloadResult] = {}
        pending: Dict[str, RunSpec] = {}
        for spec, fp in zip(specs, fingerprints):
            if fp in cached or fp in pending:
                continue
            hit = cache_hit(self.store, fp, spec)
            if hit is not None:
                cached[fp] = hit
            else:
                pending[fp] = spec

        pending_items = list(pending.items())
        remaining = 0
        if limit is not None and limit < len(pending_items):
            remaining = len(pending_items) - limit
            pending_items = pending_items[:limit]

        executed: Dict[str, WorkloadResult] = {}
        failures: Dict[str, FailedRun] = {}
        crashed: List[str] = []
        if pending_items:
            run_fps = [fp for fp, _ in pending_items]
            run_specs_ = [spec for _, spec in pending_items]
            with open(self.store.root / EVENTS_NAME, "w") as log:

                def on_event(event: dict) -> None:
                    if event["event"] == "crash":
                        crashed.append(event["worker"])
                    log.write(json.dumps(event) + "\n")
                    log.flush()

                outcomes = iter_isolated(
                    run_specs_,
                    self.config,
                    jobs=self.jobs,
                    retries=self.retries,
                    timeout=self.timeout,
                    commands=self.commands,
                    events=on_event,
                    stop=stop,
                    kill_after=kill_after,
                )
                with closing(outcomes):
                    for done, outcome in enumerate(outcomes, 1):
                        self._persist(outcome, run_fps[outcome.index], executed, failures,
                                      progress, f"[{done}/{len(pending_items)}]")
            remaining += len(pending_items) - len(executed) - len(failures)

        merged = {**cached, **executed}
        results = [merged.get(fp) for fp in fingerprints]
        return CampaignRun(
            results=results,
            failures=list(failures.values()),
            executed=len(executed),
            skipped=len(cached),
            remaining=remaining,
            crashed_workers=crashed,
        )

    def _persist(self, outcome, fp, executed, failures, progress, counter) -> None:
        """Write one outcome to the store the moment it lands."""
        if outcome.ok:
            self.store.add_result(
                fp, outcome.spec, outcome.result, wall_seconds=outcome.wall_seconds,
            )
            executed[fp] = outcome.result
            if progress:
                progress(
                    f"{counter} {outcome.spec.describe()} ({outcome.wall_seconds:.1f}s)"
                )
            return
        failure = FailedRun(
            fingerprint=fp,
            spec=outcome.spec,
            error_type=outcome.error.error_type,
            message=outcome.error.message,
            traceback=outcome.error.traceback,
            attempts=outcome.attempts,
            timed_out=outcome.error.timed_out,
        )
        self.store.add_failure(failure)
        failures[fp] = failure
        if progress:
            progress(f"{counter} FAILED {failure.describe()}")


def read_events(store_root: Union[str, Path]) -> List[dict]:
    """The last run's worker events (a torn trailing line is skipped)."""
    path = Path(store_root) / EVENTS_NAME
    if not path.exists():
        return []
    events = []
    with open(path) as fh:
        for line in fh:
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return events


#: Worker state after each event kind.
_STATES = {"start": "running", "heartbeat": "running", "crash": "crashed",
           "timeout": "timed out", "exit": "exited"}


def worker_table(events: Sequence[dict]) -> List[dict]:
    """One row per worker, folded from its events in order: ``worker``,
    ``pid``, ``state``, ``results`` and ``last_ts`` (its last event)."""
    rows: Dict[str, dict] = {}
    for event in events:
        name = event.get("worker")
        if name is None:
            continue
        row = rows.setdefault(name, {"worker": name, "pid": None, "state": "running",
                                     "results": 0, "last_ts": None})
        row["pid"] = event.get("pid", row["pid"])
        row["state"] = _STATES.get(event.get("event"), row["state"])
        row["results"] = event.get("results", row["results"])
        row["last_ts"] = event.get("ts", row["last_ts"])
    return list(rows.values())
