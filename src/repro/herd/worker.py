"""The herd worker loop: run a shard of specs, stream records back.

The loop is transport-agnostic: it talks to the controller through a
``send(message_dict)`` callable and a ``queue.Queue`` of inbound control
messages, both provided by the transport layer (a ``multiprocessing``
pipe for the local transport, framed stdio for ssh). The worker

- executes its assigned specs **serially, in-process** — fleet
  parallelism comes from running many workers, and a worker crash costs
  only its in-flight spec because every completed spec was already
  streamed to the controller;
- emits a ``heartbeat`` message every ``heartbeat`` seconds from a
  daemon thread, so liveness is observable even mid-simulation;
- runs each spec through :func:`~repro.campaign.executor.run_attempts`,
  the campaign executor's own in-process attempt loop: up to ``retries``
  extra attempts, and deterministic
  :data:`~repro.campaign.executor.NON_RETRYABLE_ERRORS` break early;
- ships each outcome as a **store-shaped record** — the exact dict the
  controller appends to the worker's shard store with ``append_raw``;
- honours ``assign`` (re-sharded orphans), ``drain`` (finish the
  in-flight spec, exit) and ``fin`` (exit once the queue is empty).
"""

from __future__ import annotations

import os
import queue
import socket
import sys
import threading
import time
from typing import Callable, List, Optional

from repro.campaign.campaign import machine_from_dict
from repro.campaign.executor import run_attempts
from repro.campaign.store import (
    FailedRun,
    RunMeta,
    failure_record,
    result_record,
    spec_from_dict,
)
from repro.herd.protocol import check_shard_doc

__all__ = ["worker_loop", "stdio_worker_main"]


class _Progress:
    """Shared done/current state read by the heartbeat thread."""

    def __init__(self, total: int) -> None:
        self.total = total
        self.done = 0
        self.failed = 0
        self.current: Optional[str] = None


def _heartbeat_thread(
    send: Callable[[dict], None],
    worker: str,
    progress: _Progress,
    interval: float,
    stop: threading.Event,
) -> threading.Thread:
    def beat() -> None:
        while not stop.wait(interval):
            send(
                {
                    "type": "heartbeat",
                    "worker": worker,
                    "ts": time.time(),
                    "done": progress.done,
                    "failed": progress.failed,
                    "total": progress.total,
                    "current": progress.current,
                }
            )

    thread = threading.Thread(target=beat, name=f"herd-heartbeat-{worker}", daemon=True)
    thread.start()
    return thread


def _run_entry(entry: dict, config, retries: int) -> dict:
    """Execute one shard entry; returns a store-shaped record dict."""
    fingerprint = entry["fingerprint"]
    spec = spec_from_dict(entry["spec"])
    outcome = run_attempts(0, spec, config, retries)
    if outcome.ok:
        meta = RunMeta.now(fingerprint, wall_seconds=outcome.wall_seconds)
        return result_record(fingerprint, spec, outcome.result, meta)
    error = outcome.error
    return failure_record(
        FailedRun(
            fingerprint=fingerprint,
            spec=spec,
            error_type=error.error_type,
            message=error.message,
            traceback=error.traceback,
            attempts=outcome.attempts,
            timed_out=error.timed_out,
        )
    )


def worker_loop(
    shard_doc: dict,
    send: Callable[[dict], None],
    control: "queue.Queue",
) -> int:
    """Run one worker to completion; returns specs completed.

    ``send`` must be thread-safe (the heartbeat thread uses it too);
    ``control`` receives controller messages (``assign``/``drain``/
    ``fin``) from the transport's reader.
    """
    doc = check_shard_doc(shard_doc)
    config = machine_from_dict(doc["machine"])
    worker = doc["worker"]
    retries = int(doc.get("retries", 0))
    heartbeat = float(doc["heartbeat"])
    work: List[dict] = list(doc["specs"])
    progress = _Progress(total=len(work))

    send(
        {
            "type": "hello",
            "worker": worker,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "assigned": len(work),
        }
    )
    stop = threading.Event()
    _heartbeat_thread(send, worker, progress, heartbeat, stop)

    draining = finished = False
    announced_idle = False
    try:
        while True:
            # Soak up whatever control arrived while simulating.
            while True:
                try:
                    message = control.get_nowait()
                except queue.Empty:
                    break
                kind = message.get("type")
                if kind == "assign":
                    work.extend(message["specs"])
                    progress.total += len(message["specs"])
                    announced_idle = False
                elif kind == "drain":
                    draining = True
                elif kind == "fin":
                    finished = True
            if draining or (finished and not work):
                break
            if not work:
                if not announced_idle:
                    send({"type": "idle", "worker": worker, "done": progress.done})
                    announced_idle = True
                # Block briefly for more work / fin / drain.
                try:
                    message = control.get(timeout=0.2)
                except queue.Empty:
                    continue
                control.put(message)  # handled by the soak loop above
                continue
            entry = work.pop(0)
            progress.current = entry["fingerprint"][:12]
            record = _run_entry(entry, config, retries)
            if record["record"] == "result":
                progress.done += 1
            else:
                progress.failed += 1
            progress.current = None
            send({"type": record["record"], "worker": worker, "data": record})
    finally:
        stop.set()
    send(
        {
            "type": "bye",
            "worker": worker,
            "done": progress.done,
            "failed": progress.failed,
            "drained": draining and bool(work),
        }
    )
    return progress.done


def stdio_worker_main(stdin=None, stdout=None) -> int:
    """``repro-sim herd worker``: the stdio (ssh) worker entry point.

    Reads the shard document as the first stdin line, then treats every
    further stdin line as a framed control message; all protocol output
    is framed onto stdout. Returns a process exit code.
    """
    import json

    from repro.herd.protocol import frame, unframe

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    header = stdin.readline()
    if not header.strip():
        print("herd worker: no shard document on stdin", file=sys.stderr)
        return 2
    shard_doc = json.loads(header)

    write_lock = threading.Lock()

    def send(message: dict) -> None:
        with write_lock:
            stdout.write(frame(message) + "\n")
            stdout.flush()

    control: "queue.Queue" = queue.Queue()

    def read_control() -> None:
        for line in stdin:
            message = unframe(line)
            if message is not None:
                control.put(message)
        # EOF on stdin: the controller is gone; drain so the in-flight
        # spec still completes and the bye message flushes.
        control.put({"type": "drain"})

    threading.Thread(target=read_control, name="herd-stdin", daemon=True).start()
    worker_loop(shard_doc, send, control)
    return 0
