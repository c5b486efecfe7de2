"""Fault-isolated spec execution over warm workers, with typed failures.

Every spec grid in the repo runs through :func:`iter_isolated`, the one
dispatch loop: campaigns with retries, and
:func:`~repro.experiments.parallel.run_specs` as its ``retries=0``
client. One bad spec must not cost the other thousand, so

- an exception inside a run becomes a typed :class:`SpecError` on that
  spec's outcome while every other spec keeps running;
- ``jobs`` above 1 (or any ``timeout``) runs specs on
  ``min(jobs, len(specs))`` *warm* forked workers. Each worker receives
  the machine config once, at fork, then runs the specs sent over its
  pipe one at a time — its stand-alone IPC memo stays warm across them;
- given ``commands``, the workers are subprocesses instead, one per
  command: ``repro-sim herd worker`` here or over ssh, speaking the
  framed stdio of :mod:`repro.campaign.stdio`. They heartbeat, and one
  silent for :data:`~repro.campaign.stdio.DEAD_AFTER_SECONDS` counts as
  crashed;
- each idle worker takes the first pending spec of a mix it has already
  run (its stand-alone baselines are warm), else the first of a mix no
  live worker has run, else the first pending spec. A worker whose attempt
  failed, crashed or ran past ``timeout`` seconds is SIGKILLed and
  replaced, so no attempt — a retry included — ever runs in a process a
  failure touched (a worker holds no state anyone needs: results only
  exist once they reach the driver);
- a worker exits when its input reaches EOF: the driver closed it, or
  the driver died;
- setting ``stop`` drains the loop: no spec starts after it, in-flight
  ones finish and are yielded.

Determinism is unaffected: a run's outcome depends only on its spec (see
:mod:`repro.experiments.parallel`), so isolated results are field-for-field
equal to serial results, whichever kind of worker ran them.

When ``jobs`` resolves to 1 and neither a timeout nor commands are
given, specs run in-process through :func:`run_attempts` (exceptions are
still caught per spec; only a hard crash of the driver itself is fatal,
and the campaign store makes that resumable).
"""

from __future__ import annotations

import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.configs import MachineConfig
from repro.experiments.parallel import RunSpec, resolve_jobs, run_spec
from repro.experiments.runner import WorkloadResult

__all__ = [
    "SpecError",
    "SpecOutcome",
    "fork_context",
    "iter_isolated",
    "run_attempts",
]

#: Error types that identify a *deterministic* failure: the run would fail
#: identically in a fresh process, so retrying only burns attempts. An
#: InvariantViolation (repro.check) means the engine's internal state went
#: inconsistent — a bug to report, not a flake to retry.
NON_RETRYABLE_ERRORS = ("InvariantViolation",)


@dataclass(frozen=True)
class SpecError:
    """Why one attempt (or a whole spec, after retries) failed."""

    error_type: str
    message: str
    traceback: str = ""
    timed_out: bool = False
    #: The exception itself, on the in-process path only (it cannot cross
    #: a process boundary); ``run_specs`` chains it as ``__cause__``.
    exception: Optional[BaseException] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SpecOutcome:
    """Terminal state of one spec: a result, or the last attempt's error."""

    index: int
    spec: RunSpec
    result: Optional[WorkloadResult]
    error: Optional[SpecError]
    attempts: int
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return self.result is not None


def fork_context():
    """The ``multiprocessing`` context for every worker process in the repo.

    ``fork`` where available, so children inherit the parent's imported
    modules (no re-import cost per worker).
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_attempts(
    index: int, spec: RunSpec, config: MachineConfig, retries: int
) -> SpecOutcome:
    """Run one spec in this process, retrying a failed attempt.

    Up to ``retries`` extra attempts follow a failure, except one of
    :data:`NON_RETRYABLE_ERRORS`. ``wall_seconds`` covers the successful
    (or last) attempt only.
    """
    for attempt in range(1, retries + 2):
        start = time.perf_counter()
        try:
            result = run_spec(spec, config)
        except Exception as exc:
            error = SpecError(
                error_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
                exception=exc,
            )
            outcome = SpecOutcome(
                index, spec, None, error, attempt, time.perf_counter() - start
            )
            if error.error_type in NON_RETRYABLE_ERRORS:
                break  # deterministic failure: retrying cannot help
            continue
        return SpecOutcome(index, spec, result, None, attempt, time.perf_counter() - start)
    return outcome


def _worker_main(conn, config: MachineConfig, inherited) -> None:
    """Forked worker: run each spec that arrives on ``conn`` until EOF."""
    # Fork copied the driver's ends of this pipe and of every sibling's;
    # holding them would keep those pipes from ever reaching EOF.
    for other in inherited:
        other.close()
    # A terminal's Ctrl-C reaches the whole process group; the driver
    # alone decides whether it drains or aborts.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            spec = conn.recv()
        except (EOFError, OSError):
            return
        start = time.perf_counter()
        try:
            result, error = run_spec(spec, config), None
        except BaseException as exc:  # everything, incl. KeyError/SystemExit
            result = None
            error = SpecError(type(exc).__name__, str(exc), traceback.format_exc())
        try:
            conn.send((result, error, time.perf_counter() - start))
        except OSError:  # the driver is gone
            return


class _ForkedWorker:
    """Driver-side handle on one forked worker (see :class:`StdioWorker`
    in :mod:`repro.campaign.stdio` for the subprocess kind)."""

    last_log = ""  # a forked worker's output goes straight to the terminal

    def __init__(self, name: str, config: MachineConfig, siblings: list) -> None:
        ctx = fork_context()
        self.name = name
        self.conn, child_conn = ctx.Pipe()
        inherited = [w.conn for w in siblings] + [self.conn]
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, config, inherited), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.pid = self.process.pid

    def waitables(self) -> list:
        return [self.conn]

    def send(self, spec: RunSpec) -> None:
        self.conn.send(spec)

    def receive(self, ready) -> list:
        if self.conn not in ready:
            return []
        try:
            return [("outcome", self.conn.recv())]
        except (EOFError, OSError):  # died without reporting
            return [("eof", None)]

    def deadline(self) -> Optional[float]:
        return None  # liveness is the pipe: no heartbeats to watch

    def exitcode(self) -> Optional[int]:
        return self.process.exitcode

    def kill(self) -> None:
        self.process.kill()

    def close(self) -> None:
        self.conn.close()  # EOF: an idle worker exits on its own

    def join(self) -> None:
        self.process.join()


@dataclass(eq=False)
class _Slot:
    """One worker place in the loop, and the worker filling it, if any."""

    label: str
    argv: Optional[List[str]] = None  # None: a forked worker
    worker: object = None
    task: Optional[Tuple[int, RunSpec, int]] = None  # (index, spec, attempt)
    started: float = 0.0
    results: int = 0
    doomed: bool = False  # the ``kill_after`` test hook fires after dispatch
    mixes: set = field(default_factory=set)  # repr() of every mix its worker ran


def iter_isolated(
    specs: Sequence[RunSpec],
    config: MachineConfig,
    jobs: Optional[int] = None,
    retries: int = 0,
    timeout: Optional[float] = None,
    commands: Optional[Sequence[Tuple[str, Sequence[str]]]] = None,
    events: Optional[Callable[[dict], None]] = None,
    stop=None,
    kill_after: Optional[Tuple[str, int]] = None,
) -> Iterator[SpecOutcome]:
    """Execute specs with per-spec fault isolation, yielding as they finish.

    Args:
        specs: runs to execute.
        config: machine shared by every run.
        jobs: concurrent forked workers (same resolution rules as
            :func:`~repro.experiments.parallel.resolve_jobs`).
        retries: extra attempts after a failed one, never in the process
            that failed (``0`` = one attempt total).
        timeout: per-attempt wall-clock limit in seconds; a timed-out
            worker is SIGKILLed and the attempt counts as failed.
        commands: ``(label, argv)`` per subprocess worker (see
            :func:`~repro.campaign.stdio.ssh_commands`); replaces the
            forked workers, and ``jobs`` with it.
        events: called with one dict per worker event — ``start``,
            ``heartbeat``, ``log``, ``crash``, ``timeout``, ``exit`` —
            each naming its ``worker`` (``<label>-<n>``, ``n`` counting
            every worker this call started).
        stop: a ``threading.Event``; once set, no further spec starts
            and the specs never started are not yielded.
        kill_after: test hook ``(worker, n)``: SIGKILL that worker right
            after its ``n``-th result — mid-spec if a spec was pending,
            else idle (even when that result was the grid's last).

    Yields:
        One :class:`SpecOutcome` per spec, in completion order.
        ``wall_seconds`` covers the successful (or last) attempt only.
    """
    specs = list(specs)
    if commands is None:
        jobs = resolve_jobs(jobs)
        if jobs <= 1 and timeout is None:
            for index, spec in enumerate(specs):
                if stop is not None and stop.is_set():
                    return
                yield run_attempts(index, spec, config, retries)
            return
        slots = [_Slot("fork") for _ in range(min(jobs, len(specs)))]
    else:
        from repro.campaign.stdio import StdioWorker

        if not commands:
            raise ValueError("subprocess workers need at least one command (or host)")
        slots = [_Slot(label, list(argv)) for label, argv in commands][: len(specs)]

    from multiprocessing.connection import wait

    pending = deque((index, spec, 1) for index, spec in enumerate(specs))
    mixes = [repr(spec.mix) for spec in specs]
    launched = 0

    def emit(event: str, slot: _Slot, **fields) -> None:
        if events is not None:
            events({"event": event, "worker": slot.worker.name, "ts": time.time(), **fields})

    def start(slot: _Slot) -> None:
        nonlocal launched
        name = f"{slot.label}-{launched}"
        launched += 1
        if slot.argv is None:
            siblings = [s.worker for s in slots if s.worker is not None]
            slot.worker = _ForkedWorker(name, config, siblings)
        else:
            slot.worker = StdioWorker(name, slot.argv, config)
        slot.results, slot.doomed, slot.mixes = 0, False, set()
        emit("start", slot, pid=slot.worker.pid, argv=slot.argv)

    def take(slot: _Slot) -> Tuple[int, RunSpec, int]:
        """Pop ``slot``'s next task, preferring mixes whose stand-alone
        baselines its worker's memo already holds, then mixes no live
        worker has started on."""
        elsewhere = set().union(*(s.mixes for s in slots))
        own = [task for task in pending if mixes[task[0]] in slot.mixes]
        fresh = [task for task in pending if mixes[task[0]] not in elsewhere]
        chosen = (own or fresh or pending)[0]
        pending.remove(chosen)
        slot.mixes.add(mixes[chosen[0]])
        return chosen

    def retire(slot: _Slot, event: str, **fields) -> None:
        """Kill ``slot``'s worker; whatever runs next gets a fresh process."""
        worker = slot.worker
        worker.kill()
        worker.close()
        worker.join()
        emit(event, slot, results=slot.results, code=worker.exitcode(), **fields)
        slot.worker = None

    def settle(slot: _Slot, result, error: Optional[SpecError],
               elapsed: Optional[float] = None, event: str = "exit") -> Optional[SpecOutcome]:
        """End ``slot``'s attempt: the outcome to yield, or None on retry
        (or when the worker had no spec: an idle worker just retires)."""
        if slot.task is None:
            retire(slot, event)
            return None
        index, spec, attempt = slot.task
        slot.task = None
        if elapsed is None:
            elapsed = time.monotonic() - slot.started
        if result is not None:
            slot.results += 1
            slot.doomed = kill_after == (slot.worker.name, slot.results)
            return SpecOutcome(index, spec, result, None, attempt, elapsed)
        worker = slot.worker
        retire(slot, event, spec=spec.describe(), error=error and error.error_type)
        if error is None:
            last_words = f": {worker.last_log}" if worker.last_log else ""
            error = SpecError(
                error_type="WorkerCrash",
                message=f"worker exited with code {worker.exitcode()} before "
                f"reporting{last_words}",
            )
        if attempt <= retries and error.error_type not in NON_RETRYABLE_ERRORS:
            pending.appendleft((index, spec, attempt + 1))
            return None
        return SpecOutcome(index, spec, None, error, attempt, elapsed)

    try:
        while any(s.task or s.doomed for s in slots) or (
            pending and not (stop and stop.is_set())
        ):
            if not (stop and stop.is_set()):
                for slot in slots:
                    if not pending:
                        break
                    if slot.task is not None:
                        continue
                    if slot.worker is None:
                        start(slot)
                    slot.task = take(slot)
                    slot.started = time.monotonic()
                    try:
                        slot.worker.send(slot.task[1])
                    except OSError:  # died while idle: wait() reports the EOF
                        pass
            for slot in slots:
                if slot.doomed:  # mid-spec if it got one, else idle
                    slot.doomed = False
                    emit("chaos-kill", slot)
                    slot.worker.kill()
                    if slot.task is None:
                        retire(slot, "crash")
            if not any(s.task for s in slots):
                continue  # only an idle doomed worker was left to kill

            live = [s for s in slots if s.worker is not None]
            deadlines = [s.worker.deadline() for s in live]
            deadlines = [d for d in deadlines if d is not None]
            if timeout is not None:
                deadlines += [s.started + timeout for s in live if s.task]
            poll = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
            ready = wait([w for s in live for w in s.worker.waitables()], timeout=poll)

            outcomes = []
            for slot in live:
                for kind, payload in slot.worker.receive(ready):
                    if kind == "heartbeat":
                        emit("heartbeat", slot, results=slot.results)
                    elif kind == "log":
                        emit("log", slot, text=payload)
                    elif kind == "outcome" and slot.task is not None:
                        outcomes.append(settle(slot, *payload))
                    elif kind == "eof":
                        outcomes.append(settle(slot, None, None, event="crash"))
                    if slot.worker is None:
                        break
                if slot.worker is None:
                    continue
                now = time.monotonic()
                deadline = slot.worker.deadline()
                if deadline is not None and now > deadline:
                    outcomes.append(settle(slot, None, SpecError(
                        error_type="WorkerCrash", message="worker heartbeats stopped",
                    ), event="crash"))
                elif slot.task is not None and timeout is not None and (
                    now - slot.started >= timeout
                ):
                    outcomes.append(settle(slot, None, SpecError(
                        error_type="Timeout",
                        message=f"exceeded {timeout:g}s wall-clock limit",
                        timed_out=True,
                    ), event="timeout"))
            yield from (outcome for outcome in outcomes if outcome is not None)
    finally:
        for slot in slots:
            if slot.worker is not None and slot.task is not None:
                slot.worker.kill()  # mid-spec: its result is not wanted
        for slot in slots:
            if slot.worker is not None:
                slot.worker.close()
        for slot in slots:
            if slot.worker is not None:
                slot.worker.join()
                emit("exit", slot, results=slot.results, code=slot.worker.exitcode())
