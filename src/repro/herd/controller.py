"""HerdController: one driver, a fleet of workers, zero recomputation.

The controller turns a :class:`~repro.campaign.campaign.Campaign` into a
fleet run:

1. **Recover** — merge any shard stores left by a previous (possibly
   SIGKILLed) herd run into the canonical store, then fingerprint the
   grid and split cached from pending exactly like a serial campaign.
2. **Shard** — partition the pending fingerprints across workers by
   fingerprint hash (:func:`~repro.herd.protocol.shard_specs`):
   deterministic, coordination-free, stable across resumes.
3. **Drive** — launch one worker per shard over the chosen transport and
   consume a single message queue. Results stream back as store-shaped
   records and are written **twice** the moment they land: to the
   worker's shard store (``<store>/herd/shards/<worker>/``) and through
   to the canonical store — so killing the controller *or* any worker at
   any instant loses at most the in-flight specs, never a completed one.
4. **Watch** — every worker heartbeats on a daemon thread (liveness is
   visible even mid-simulation). A worker that exits without ``bye`` or
   misses heartbeats for ``dead_after`` seconds is declared dead: its
   *orphaned* specs (assigned minus streamed-back) are re-sharded to the
   survivors, each at most ``max_reassign`` times before it is recorded
   as a typed failure.
5. **Drain** — SIGINT asks every worker to finish its in-flight spec and
   exit; a second SIGINT aborts. Whatever completed is already durable,
   so a drained herd resumes with zero recomputation.

Every lifecycle event and heartbeat is appended to
``<store>/herd/heartbeats.jsonl`` — the feed behind ``repro-sim
campaign herd status`` and a run-level observability trace.
"""

from __future__ import annotations

import json
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.campaign.campaign import Campaign, machine_to_dict
from repro.campaign.runner import cache_hit
from repro.campaign.store import FailedRun, ResultStore, failure_record, spec_to_dict
from repro.herd.protocol import make_shard_doc, shard_specs
from repro.herd.transport import LocalTransport, SshTransport, Transport, WorkerHandle

__all__ = ["HerdRun", "HerdController", "herd_dir", "shards_dir", "heartbeat_log_path"]

#: Default heartbeat cadence (seconds) — cheap; keep it tight.
DEFAULT_HEARTBEAT = 1.0

#: Default heartbeat-silence threshold before a worker is declared dead.
#: Heartbeats come from a daemon thread, so even a worker deep inside a
#: long simulation keeps beating — silence really does mean trouble.
DEFAULT_DEAD_AFTER = 15.0


def herd_dir(store_root: Path) -> Path:
    return Path(store_root) / "herd"


def shards_dir(store_root: Path) -> Path:
    return herd_dir(store_root) / "shards"


def heartbeat_log_path(store_root: Path) -> Path:
    return herd_dir(store_root) / "heartbeats.jsonl"


@dataclass
class _Worker:
    name: str
    handle: Optional[WorkerHandle] = None
    assigned: Set[str] = field(default_factory=set)  # fingerprints
    completed: Set[str] = field(default_factory=set)
    shard_store: Optional[ResultStore] = None
    last_beat: float = 0.0
    results: int = 0
    failures: int = 0
    state: str = "launched"  # launched|running|idle|bye|dead|closed


@dataclass
class HerdRun:
    """Outcome of one ``HerdController.run`` call."""

    executed: int = 0
    skipped: int = 0
    failed: int = 0
    reassigned: int = 0  # orphaned specs re-sharded off dead workers
    abandoned: int = 0  # orphans past max_reassign, recorded as failures
    remaining: int = 0  # pending specs left (drain, or fleet died)
    drained: bool = False
    dead_workers: List[str] = field(default_factory=list)
    workers: Dict[str, dict] = field(default_factory=dict)

    def describe(self) -> str:
        parts = [f"executed {self.executed}", f"skipped {self.skipped} (cached)"]
        if self.failed:
            parts.append(f"failed {self.failed}")
        if self.dead_workers:
            parts.append(
                f"dead workers {len(self.dead_workers)} "
                f"({', '.join(self.dead_workers)}; {self.reassigned} specs re-sharded)"
            )
        if self.remaining:
            parts.append(f"remaining {self.remaining}")
        if self.drained:
            parts.append("drained")
        return ", ".join(parts)


class HerdController:
    """Drives one campaign across a worker fleet.

    Args:
        campaign: the grid + store to execute.
        transport: worker transport (default :class:`LocalTransport`).
        workers: fleet size for count-based transports (local/exec);
            ssh derives it from the host list. Default: 2.
        heartbeat: worker heartbeat cadence in seconds.
        dead_after: heartbeat silence (seconds) before a worker is
            declared dead and its orphans re-shard.
        retries: in-worker attempts per failing spec (campaign policy).
        max_reassign: times one spec may be re-sharded off dead workers
            before it is recorded as failed.
        progress: optional ``callable(str)`` for per-event lines.
        chaos_kill_worker / chaos_kill_after: test hook — SIGKILL the
            named worker after it has streamed N results, exercising the
            dead-worker path deterministically (used by CI).
    """

    def __init__(
        self,
        campaign: Campaign,
        transport: Optional[Transport] = None,
        workers: Optional[int] = None,
        heartbeat: float = DEFAULT_HEARTBEAT,
        dead_after: float = DEFAULT_DEAD_AFTER,
        max_reassign: int = 2,
        progress=None,
        chaos_kill_worker: Optional[str] = None,
        chaos_kill_after: int = 1,
    ) -> None:
        self.campaign = campaign
        self.transport = transport if transport is not None else LocalTransport()
        self.workers = workers
        self.heartbeat = heartbeat
        self.dead_after = dead_after
        self.max_reassign = max_reassign
        self.progress = progress
        self.chaos_kill_worker = chaos_kill_worker
        self.chaos_kill_after = chaos_kill_after
        self._drain = threading.Event()

    # -- small helpers -------------------------------------------------------

    def _say(self, text: str) -> None:
        if self.progress:
            self.progress(text)

    def request_drain(self) -> None:
        """Ask the fleet to finish in-flight specs and stop (SIGINT path)."""
        self._drain.set()

    def _worker_names(self) -> List[str]:
        if isinstance(self.transport, SshTransport):
            return self.transport.worker_names()
        count = self.workers if self.workers else 2
        return [f"{self.transport.name}-{i}" for i in range(count)]

    def recover_shards(self) -> int:
        """Merge leftover shard stores into the canonical store.

        Makes a herd whose *controller* was SIGKILLed resumable: every
        record a worker streamed back before the kill is already in its
        shard store, so nothing completed is ever recomputed.
        """
        store = self.campaign.store
        root = shards_dir(store.root)
        merged = 0
        if root.is_dir():
            for shard_path in sorted(root.iterdir()):
                if (shard_path / ResultStore.RECORDS_NAME).exists():
                    merged += store.merge(ResultStore(shard_path))
        return merged

    # -- the run -------------------------------------------------------------

    def run(self) -> HerdRun:
        campaign = self.campaign
        campaign.save()
        recovered = self.recover_shards()
        if recovered:
            self._say(f"recovered {recovered} records from shard stores")

        runner = campaign.runner()
        pending: Dict[str, object] = {}
        cached = 0
        seen: Set[str] = set()
        for spec in campaign.specs:
            fp = runner.fingerprint(spec)
            if fp in seen:
                continue
            seen.add(fp)
            if cache_hit(campaign.store, fp, spec) is not None:
                cached += 1
            else:
                pending[fp] = spec
        run = HerdRun(skipped=cached)
        if not pending:
            return run

        names = self._worker_names()
        pending_fps = list(pending)
        shards = shard_specs(pending_fps, len(names))

        events_path = heartbeat_log_path(campaign.store.root)
        events_path.parent.mkdir(parents=True, exist_ok=True)
        events_fh = open(events_path, "w")
        events_lock = threading.Lock()

        def log_event(event: str, **payload) -> None:
            record = {"event": event, "ts": time.time()}
            record.update(payload)
            with events_lock:
                events_fh.write(json.dumps(record) + "\n")
                events_fh.flush()

        inbox: "queue.Queue" = queue.Queue()
        fleet: Dict[str, _Worker] = {}
        reassign_counts: Dict[str, int] = {}
        remaining: Set[str] = set(pending_fps)
        abandoned: Set[str] = set()
        machine_doc = machine_to_dict(campaign.config)
        fin_sent = False

        def entries_for(fps: List[str]) -> List[dict]:
            return [
                {"fingerprint": fp, "spec": spec_to_dict(pending[fp])} for fp in fps
            ]

        def launch(name: str, fps: List[str]) -> None:
            worker = _Worker(name=name, assigned=set(fps))
            worker.shard_store = ResultStore(shards_dir(campaign.store.root) / name)
            doc = make_shard_doc(
                name,
                machine_doc,
                entries_for(fps),
                heartbeat=self.heartbeat,
                retries=campaign.retries,
            )
            worker.handle = self.transport.launch(
                name, doc, lambda w, m: inbox.put((w, m))
            )
            worker.last_beat = time.monotonic()
            fleet[name] = worker
            log_event(
                "launch", worker=name, assigned=len(fps),
                heartbeat=self.heartbeat, transport=self.transport.name,
            )
            self._say(f"launched {name} with {len(fps)} specs")

        for name, shard in zip(names, shards):
            if shard:
                launch(name, [pending_fps[i] for i in shard])

        def live_workers() -> List[_Worker]:
            return [w for w in fleet.values() if w.state in ("launched", "running", "idle")]

        def record_abandoned(fp: str, worker_name: str) -> None:
            """An orphan past its reassignment budget becomes a failure."""
            abandoned.add(fp)
            remaining.discard(fp)
            run.abandoned += 1
            run.failed += 1
            deaths = reassign_counts.get(fp, 0) + 1
            failure = FailedRun(
                fingerprint=fp,
                spec=pending[fp],
                error_type="WorkerDied",
                message=(
                    f"assigned worker(s) died {deaths} times "
                    f"(last: {worker_name}); giving up"
                ),
                attempts=deaths,
            )
            campaign.store.append_raw(failure_record(failure))

        def reassign_orphans(dead: _Worker) -> None:
            orphans = sorted(dead.assigned - dead.completed)
            if not orphans:
                return
            survivors = live_workers()
            for fp in orphans:
                count = reassign_counts.get(fp, 0) + 1
                reassign_counts[fp] = count
                if count > self.max_reassign or not survivors:
                    record_abandoned(fp, dead.name)
                    continue
                target = survivors[run.reassigned % len(survivors)]
                target.assigned.add(fp)
                target.handle.send({"type": "assign", "specs": entries_for([fp])})
                run.reassigned += 1
                log_event("reassign", worker=dead.name, to=target.name, fingerprint=fp)
                self._say(f"re-sharded {fp[:12]} from {dead.name} to {target.name}")

        def mark_dead(worker: _Worker, why: str) -> None:
            if worker.state in ("dead", "closed", "bye"):
                return
            worker.state = "dead"
            run.dead_workers.append(worker.name)
            log_event("dead", worker=worker.name, why=why)
            self._say(f"worker {worker.name} died ({why})")
            try:
                worker.handle.kill()
            except Exception:
                pass
            reassign_orphans(worker)

        def handle_message(name: str, message: dict) -> None:
            nonlocal fin_sent
            worker = fleet.get(name)
            if worker is None:
                return
            kind = message.get("type")
            if kind == "hello":
                worker.state = "running"
                worker.last_beat = time.monotonic()
                log_event("hello", worker=name, host=message.get("host"),
                          pid=message.get("pid"), assigned=message.get("assigned"))
            elif kind == "heartbeat":
                worker.last_beat = time.monotonic()
                log_event("heartbeat", worker=name, done=message.get("done"),
                          failed=message.get("failed"), total=message.get("total"),
                          current=message.get("current"), worker_ts=message.get("ts"))
            elif kind in ("result", "failure"):
                record = message["data"]
                fp = record["fingerprint"]
                worker.completed.add(fp)
                remaining.discard(fp)
                # Twice on purpose: the shard store is the worker's
                # durable ledger (merged on recovery), the write-through
                # keeps the canonical store live for status/resume.
                worker.shard_store.append_raw(record)
                campaign.store.append_raw(record)
                if kind == "result":
                    worker.results += 1
                    run.executed += 1
                    wall = record.get("meta", {}).get("wall_seconds")
                    self._say(
                        f"[{run.executed}/{len(pending_fps)}] {name}: "
                        f"{fp[:12]} done"
                        + (f" ({wall:.1f}s)" if wall is not None else "")
                    )
                else:
                    worker.failures += 1
                    run.failed += 1
                    failure = record.get("failure", {})
                    self._say(
                        f"FAILED on {name}: {fp[:12]} "
                        f"{failure.get('error_type')}: {failure.get('message')}"
                    )
                if (
                    self.chaos_kill_worker == name
                    and worker.results >= self.chaos_kill_after
                    and worker.state not in ("dead", "closed")
                    and worker.handle.alive()
                ):
                    # Test hook: a real SIGKILL, then the normal
                    # exit-detection path takes over.
                    log_event("chaos-kill", worker=name)
                    self._say(f"chaos: SIGKILLing {name}")
                    worker.handle.kill()
            elif kind == "idle":
                worker.state = "idle"
                worker.last_beat = time.monotonic()
            elif kind == "bye":
                worker.state = "bye"
                log_event("bye", worker=name, done=message.get("done"),
                          failed=message.get("failed"),
                          drained=message.get("drained"))
            elif kind == "exit":
                was = worker.state
                if was == "bye":
                    worker.state = "closed"
                    log_event("exit", worker=name, code=message.get("code"))
                else:
                    log_event("exit", worker=name, code=message.get("code"))
                    mark_dead(worker, f"exited with code {message.get('code')} before bye")
                    worker.state = "closed"
            elif kind == "log":
                log_event("log", worker=name, text=message.get("text"))
                self._say(f"{name}: {message.get('text')}")

        drain_announced = False
        try:
            while any(w.state != "closed" for w in fleet.values()):
                try:
                    name, message = inbox.get(timeout=0.2)
                except queue.Empty:
                    pass
                else:
                    handle_message(name, message)

                now = time.monotonic()
                for worker in list(fleet.values()):
                    if worker.state in ("launched", "running", "idle") and (
                        now - worker.last_beat > self.dead_after
                    ):
                        mark_dead(worker, f"no heartbeat for {self.dead_after:g}s")

                if self._drain.is_set() and not drain_announced:
                    drain_announced = True
                    run.drained = True
                    log_event("drain")
                    self._say("draining: workers finish their in-flight spec")
                    for worker in live_workers():
                        worker.handle.send({"type": "drain"})

                if not remaining and not fin_sent and not drain_announced:
                    fin_sent = True
                    log_event("fin")
                    for worker in live_workers():
                        worker.handle.send({"type": "fin"})
        finally:
            for worker in fleet.values():
                if worker.handle is not None and worker.handle.alive():
                    worker.handle.kill()
            for worker in fleet.values():
                if worker.handle is not None:
                    worker.handle.join(timeout=5)
            # Final safety net: fold every shard into the canonical store
            # (a write-through may have been lost if the controller was
            # interrupted between the two appends).
            for worker in fleet.values():
                if worker.shard_store is not None:
                    campaign.store.merge(worker.shard_store)
            run.remaining = len(remaining)
            run.workers = {
                w.name: {
                    "state": w.state,
                    "assigned": len(w.assigned),
                    "results": w.results,
                    "failures": w.failures,
                }
                for w in fleet.values()
            }
            log_event(
                "summary",
                executed=run.executed, skipped=run.skipped, failed=run.failed,
                remaining=run.remaining, reassigned=run.reassigned,
                abandoned=run.abandoned, drained=run.drained,
                dead_workers=run.dead_workers,
                workers=run.workers,
            )
            events_fh.close()
        return run

    def run_with_sigint_drain(self) -> HerdRun:
        """``run()`` with SIGINT mapped to graceful drain (CLI entry).

        First Ctrl-C drains (in-flight specs finish, everything durable);
        second Ctrl-C raises ``KeyboardInterrupt`` as usual.
        """
        if threading.current_thread() is not threading.main_thread():
            return self.run()
        previous = signal.getsignal(signal.SIGINT)
        state = {"hits": 0}

        def on_sigint(signum, frame):
            state["hits"] += 1
            if state["hits"] == 1:
                self.request_drain()
            else:
                raise KeyboardInterrupt

        signal.signal(signal.SIGINT, on_sigint)
        try:
            return self.run()
        finally:
            signal.signal(signal.SIGINT, previous)
