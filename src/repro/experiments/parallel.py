"""Spec execution: one runner, fanned out over warm worker processes.

The simulator is single-threaded pure Python, but every figure in the
paper's evaluation is an *embarrassingly parallel* grid of independent
runs — mixes × schemes (× seeds for the noise sweeps). A grid cell is a
:class:`RunSpec`, and :func:`run_spec` is the one place a spec turns into
a :func:`~repro.experiments.runner.run_workload` call: its keyword
arguments come from ``dataclasses.fields(RunSpec)``, so no execution path
can drop a field.

:func:`run_specs` executes a grid through the campaign executor
(:func:`repro.campaign.executor.iter_isolated`) with no retries, and keeps
the results **bit-identical to a serial run**:

- Every run's randomness derives from the spec itself:
  :func:`~repro.experiments.runner.run_workload` seeds its streams with
  ``derive_seed(seed, "shared", mix, scheme)`` and its stand-alone
  baselines with fixed salts, so a run's outcome depends only on its
  ``RunSpec`` — never on scheduling order or which worker executes it.
- Results are reassembled by submission index, so callers observe the
  exact ordering a serial loop would have produced.

Workers are forked once and stay warm: they inherit the parent's
imported modules and machine config, and each keeps the runner's
memoised stand-alone IPC cache across every spec it executes — the
``IPC^SP`` baselines are computed at most once per (profile, geometry,
policy) per worker.

``jobs`` semantics (shared by every entry point that accepts ``jobs=``):

- ``None`` or ``1`` — run serially in-process (no workers, no pickling).
- ``<= 0`` — use ``os.cpu_count()``.
- ``n`` — ``n`` warm workers.

``jobs`` and ``store`` are always arguments: the CLI's ``--jobs``/``--store``
and ``RunOptions(jobs=, store=)`` pass them down to the grid explicitly.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.configs import MachineConfig
from repro.experiments.runner import WorkloadResult, run_workload

__all__ = [
    "RunSpec",
    "SpecRunError",
    "resolve_jobs",
    "run_spec",
    "run_specs",
]


@dataclass(frozen=True)
class RunSpec:
    """One independent workload run: the unit the executor distributes.

    Every attribute is a keyword of
    :func:`~repro.experiments.runner.run_workload` with the same name
    (:func:`run_spec` relies on it); a spec must be picklable (mix names
    or benchmark-name sequences, not live simulator objects).
    """

    mix: Union[str, Sequence[str]]
    scheme: str = "lru"
    seed: int = 0
    instructions: Optional[int] = None
    scheme_kwargs: Optional[dict] = None
    #: Record per-interval telemetry into the result. The samples are
    #: deterministic dataclasses, so they pickle back from workers and a
    #: parallel trace stays bit-identical to the serial one.
    telemetry: bool = False
    #: Run with the cache-engine invariant checker attached
    #: (:func:`repro.check.invariants.attach_checker`). Observing only — a checked
    #: run produces the same result as an unchecked one, or raises
    #: :class:`~repro.check.invariants.InvariantViolation`.
    check: bool = False
    #: Cache engine, ``"classic"`` or ``"vector"``. The backends are
    #: certified bit-exact (``repro-sim check fuzz --backend vector``),
    #: so this is a speed knob only — campaign fingerprints exclude it
    #: and a stored result satisfies a spec under either backend.
    backend: str = "classic"
    #: Cluster-granular management (shared-data workloads only): cap the
    #: number of accounting clusters (see :mod:`repro.clustering`).
    #: ``None`` = per-core management. Part of the campaign fingerprint —
    #: clustering changes results.
    clusters: Optional[int] = None

    def describe(self) -> str:
        text = f"{self.mix} / {self.scheme} / seed {self.seed}"
        if self.clusters is not None:
            text += f" / {self.clusters} clusters"
        return text


def run_spec(spec: RunSpec, config: MachineConfig) -> WorkloadResult:
    """Run one spec: the only ``RunSpec`` -> ``run_workload`` translation.

    The keyword arguments are the spec's fields, so a field added to
    :class:`RunSpec` reaches every execution path without touching one.
    """
    return run_workload(
        config=config, **{f.name: getattr(spec, f.name) for f in fields(RunSpec)}
    )


class SpecRunError(RuntimeError):
    """A run failed inside :func:`run_specs`, annotated with its spec.

    Raised instead of letting a run's exception propagate raw with no
    indication of which grid cell died. The formatted traceback is kept in
    :attr:`worker_traceback`; on the in-process path the original
    exception is also chained as ``__cause__`` (it cannot cross a process
    boundary).
    """

    def __init__(
        self,
        spec: RunSpec,
        index: int,
        error_type: str,
        message: str,
        worker_traceback: str = "",
    ) -> None:
        self.spec = spec
        self.index = index
        self.error_type = error_type
        self.error_message = message
        self.worker_traceback = worker_traceback
        super().__init__(
            f"spec [{index}] ({spec.describe()}) failed: {error_type}: {message}"
        )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` argument to a concrete worker count (>= 1)."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _resolve_store(store):
    """``store`` argument -> a ResultStore, or None (no caching layer).

    A string/path opens a store at that directory; ``None`` and a
    ready-made store object pass through.
    """
    if isinstance(store, (str, os.PathLike)):
        from repro.campaign.store import ResultStore

        return ResultStore(store)
    return store


def _execute_specs(
    specs: Sequence[RunSpec],
    config: MachineConfig,
    jobs: Optional[int] = None,
    progress=None,
    on_result: Optional[Callable[[int, WorkloadResult, float], None]] = None,
) -> List[WorkloadResult]:
    """The execution core of :func:`run_specs` (no store layer).

    The ``retries=0`` client of the campaign executor: the first failed
    outcome aborts the grid as a :class:`SpecRunError`.
    ``on_result(index, result, wall_seconds)`` fires in the driver as each
    run completes — the store layer uses it to persist incrementally, so
    an interrupted grid keeps everything that finished.
    """
    from repro.campaign.executor import iter_isolated

    specs = list(specs)
    results: List[Optional[WorkloadResult]] = [None] * len(specs)
    # A single spec runs in-process: one worker would only add a fork.
    jobs = min(resolve_jobs(jobs), len(specs) or 1)
    with closing(iter_isolated(specs, config, jobs=jobs)) as outcomes:
        for done, outcome in enumerate(outcomes, 1):
            error = outcome.error
            if error is not None:
                raise SpecRunError(
                    outcome.spec, outcome.index, error.error_type, error.message,
                    worker_traceback=error.traceback,
                ) from error.exception
            results[outcome.index] = outcome.result
            if on_result:
                on_result(outcome.index, outcome.result, outcome.wall_seconds)
            if progress:
                progress(f"[{done}/{len(specs)}] {outcome.spec.describe()}")
    return results  # type: ignore[return-value]


def _run_specs_stored(
    specs: Sequence[RunSpec],
    config: MachineConfig,
    store,
    jobs: Optional[int] = None,
    progress=None,
) -> List[WorkloadResult]:
    """Store-backed :func:`run_specs`: skip cached fingerprints, persist new.

    Pure caching layer — failures still raise :class:`SpecRunError` (the
    fault-*tolerant* contract lives in :mod:`repro.campaign.runner`).
    """
    from repro.campaign.fingerprint import spec_fingerprint
    from repro.campaign.runner import cache_hit

    fingerprints = [spec_fingerprint(spec, config) for spec in specs]
    cached = [cache_hit(store, fp, spec) for fp, spec in zip(fingerprints, specs)]
    pending: Dict[str, int] = {}  # fingerprint -> first index (dedup)
    for index, (fp, hit) in enumerate(zip(fingerprints, cached)):
        if hit is None and fp not in pending:
            pending[fp] = index
    pending_fps = list(pending)
    pending_specs = [specs[i] for i in pending.values()]
    if progress and len(pending_specs) < len(specs):
        progress(
            f"store: {len(specs) - len(pending_specs)}/{len(specs)} cached "
            f"({store.root})"
        )

    def persist(index: int, result: WorkloadResult, wall_seconds: float) -> None:
        store.add_result(
            pending_fps[index], pending_specs[index], result,
            wall_seconds=wall_seconds,
        )

    executed = _execute_specs(
        pending_specs, config, jobs=jobs, progress=progress, on_result=persist
    )
    by_fp = dict(zip(pending_fps, executed))
    return [
        hit if hit is not None else by_fp[fp]
        for fp, hit in zip(fingerprints, cached)
    ]


def run_specs(
    specs: Sequence[RunSpec],
    config: MachineConfig,
    jobs: Optional[int] = None,
    progress=None,
    store=None,
) -> List[WorkloadResult]:
    """Execute every spec and return results in spec order.

    Args:
        specs: the runs to execute (see :class:`RunSpec`).
        config: machine shared by every run.
        jobs: warm worker processes (see module docstring for the
            resolution rules). ``1`` executes serially in-process.
        progress: optional ``callable(str)`` invoked as runs complete.
        store: a :class:`repro.campaign.ResultStore` (or a path to one);
            specs whose fingerprint the store holds return the stored
            result without simulating, and fresh results persist into the
            store as they complete. ``None`` = no store.

    Returns:
        ``results[i]`` is the outcome of ``specs[i]`` — identical, field
        for field, to what a serial ``run_workload`` loop would produce
        (stored results round-trip exactly, so this holds across runs).

    Raises:
        SpecRunError: a run raised; the error names the failing spec and
            chains/embeds the worker's original traceback.
    """
    specs = list(specs)
    store = _resolve_store(store)
    if store is not None:
        return _run_specs_stored(specs, config, store, jobs=jobs, progress=progress)
    return _execute_specs(specs, config, jobs=jobs, progress=progress)

