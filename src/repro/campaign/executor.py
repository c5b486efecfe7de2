"""Fault-isolated spec execution over warm workers, with typed failures.

Every spec grid in the repo runs through :func:`iter_isolated`: campaigns
with retries, and :func:`~repro.experiments.parallel.run_specs` as its
``retries=0`` client. One bad spec must not cost the other thousand, so

- an exception inside a run becomes a typed :class:`SpecError` on that
  spec's outcome while every other spec keeps running;
- ``jobs`` above 1 (or any ``timeout``) runs specs on
  ``min(jobs, len(specs))`` *warm* forked workers. Each worker receives
  the machine config once, at fork, then runs the specs sent over its
  pipe one at a time — its stand-alone IPC memo stays warm across them;
- a worker whose attempt failed, crashed or ran past ``timeout`` seconds
  is SIGKILLed and replaced, so no attempt — a retry included — ever runs
  in a process a failure touched (a worker holds no state anyone needs:
  results only exist once they arrive over the pipe);
- a worker exits when its pipe reaches EOF: the driver closed it, or the
  driver died.

Determinism is unaffected: a run's outcome depends only on its spec (see
:mod:`repro.experiments.parallel`), so isolated results are field-for-field
equal to serial results.

When ``jobs`` resolves to 1 and no timeout is requested, specs run
in-process through :func:`run_attempts`, the attempt loop the herd worker
uses too (exceptions are still caught per spec; only a hard crash of the
driver itself is fatal, and the campaign store makes that resumable).
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.experiments.configs import MachineConfig
from repro.experiments.parallel import RunSpec, resolve_jobs, run_spec
from repro.experiments.runner import WorkloadResult

__all__ = [
    "SpecError",
    "SpecOutcome",
    "fork_context",
    "iter_isolated",
    "run_attempts",
    "run_isolated",
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
    """Worker process: run each spec that arrives on ``conn`` until EOF."""
    # Fork copied the driver's ends of this pipe and of every sibling's;
    # holding them would keep those pipes from ever reaching EOF.
    for other in inherited:
        other.close()
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


@dataclass
class _Worker:
    process: object
    conn: object
    task: Optional[Tuple[int, RunSpec, int]] = None  # (index, spec, attempt)
    started: float = 0.0


def iter_isolated(
    specs: Sequence[RunSpec],
    config: MachineConfig,
    jobs: Optional[int] = None,
    retries: int = 0,
    timeout: Optional[float] = None,
) -> Iterator[SpecOutcome]:
    """Execute specs with per-spec fault isolation, yielding as they finish.

    Args:
        specs: runs to execute.
        config: machine shared by every run.
        jobs: concurrent worker processes (same resolution rules as
            :func:`~repro.experiments.parallel.resolve_jobs`).
        retries: extra attempts after a failed one, never in the process
            that failed (``0`` = one attempt total).
        timeout: per-attempt wall-clock limit in seconds; a timed-out
            worker is SIGKILLed and the attempt counts as failed.

    Yields:
        One :class:`SpecOutcome` per spec, in completion order.
        ``wall_seconds`` covers the successful (or last) attempt only.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 and timeout is None:
        for index, spec in enumerate(specs):
            yield run_attempts(index, spec, config, retries)
        return
    jobs = min(jobs, len(specs))

    from multiprocessing.connection import wait

    ctx = fork_context()
    pending = deque((index, spec, 1) for index, spec in enumerate(specs))
    workers: List[_Worker] = []

    def start_worker() -> _Worker:
        conn, child_conn = ctx.Pipe()
        inherited = [w.conn for w in workers] + [conn]
        process = ctx.Process(
            target=_worker_main, args=(child_conn, config, inherited), daemon=True
        )
        process.start()
        child_conn.close()
        workers.append(_Worker(process, conn))
        return workers[-1]

    def retire(worker: _Worker) -> None:
        workers.remove(worker)
        worker.process.kill()
        worker.conn.close()
        worker.process.join()

    try:
        while pending or any(w.task for w in workers):
            idle = [w for w in workers if w.task is None]
            while pending and (idle or len(workers) < jobs):
                worker = idle.pop() if idle else start_worker()
                worker.task = pending.popleft()
                worker.started = time.monotonic()
                try:
                    worker.conn.send(worker.task[1])
                except OSError:  # died while idle: wait() reports the EOF
                    pass

            busy = [w for w in workers if w.task is not None]
            poll: Optional[float] = None
            if timeout is not None:
                nearest = min(w.started for w in busy) + timeout
                poll = max(0.0, nearest - time.monotonic())
            ready = wait([w.conn for w in busy], timeout=poll)

            for worker in busy:
                index, spec, attempt = worker.task
                elapsed = time.monotonic() - worker.started
                if worker.conn in ready:
                    try:
                        result, error, elapsed = worker.conn.recv()
                    except (EOFError, OSError):  # died without reporting
                        result = error = None
                elif timeout is not None and elapsed >= timeout:
                    result, error = None, SpecError(
                        error_type="Timeout",
                        message=f"exceeded {timeout:g}s wall-clock limit",
                        timed_out=True,
                    )
                else:
                    continue
                worker.task = None
                if result is not None:
                    yield SpecOutcome(index, spec, result, None, attempt, elapsed)
                    continue
                retire(worker)  # whatever runs next gets a fresh process
                if error is None:
                    error = SpecError(
                        error_type="WorkerCrash",
                        message=f"worker exited with code {worker.process.exitcode} "
                        "before reporting",
                    )
                if attempt <= retries and error.error_type not in NON_RETRYABLE_ERRORS:
                    pending.appendleft((index, spec, attempt + 1))
                else:
                    yield SpecOutcome(index, spec, None, error, attempt, elapsed)
    finally:
        for worker in workers:
            if worker.task is not None:
                worker.process.kill()  # mid-spec: its result is not wanted
            worker.conn.close()  # EOF: an idle worker exits on its own
        for worker in workers:
            worker.process.join()


def run_isolated(
    specs: Sequence[RunSpec],
    config: MachineConfig,
    jobs: Optional[int] = None,
    retries: int = 0,
    timeout: Optional[float] = None,
) -> List[SpecOutcome]:
    """Like :func:`iter_isolated` but collected, ordered by spec index."""
    outcomes = sorted(
        iter_isolated(specs, config, jobs=jobs, retries=retries, timeout=timeout),
        key=lambda o: o.index,
    )
    return outcomes
