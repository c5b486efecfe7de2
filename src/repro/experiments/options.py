"""The one run-options object every experiment entry point accepts.

Before this module each figure's ``run()`` grew its own ad-hoc
``instructions=/seed=/progress=`` kwargs. :class:`RunOptions` bundles the
cross-cutting run controls; the :func:`experiment_run` decorator gives
every registry ``run()`` the uniform signature
``run(options=None, **figure_kwargs)`` and rejects run controls passed any
other way.

Figure-specific knobs (``core_counts``, ``bit_widths``, ...) stay plain
kwargs — they are not run controls.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["RunOptions", "experiment_run"]

#: Run controls a wrapped ``run()`` takes from ``options`` only.
_RUN_CONTROLS = ("instructions", "seed", "progress", "jobs", "telemetry", "store")


@dataclass(frozen=True)
class RunOptions:
    """Cross-cutting controls for one experiment or workload run.

    Args:
        instructions: per-core instruction target (``None`` = the
            figure's/machine's default budget).
        progress: per-run progress callback (``print``-compatible).
        jobs: worker processes for the parallel executor (``None`` or
            ``1`` = serial; ``0`` = all CPUs).
        seed: top-level seed for streams and scheme PRNGs.
        telemetry: record per-interval telemetry into each
            ``WorkloadResult.telemetry`` (or pass a pre-built
            ``TelemetryRecorder`` for a single run).
        standalone_cache: the ``IPC^SP`` memo to use (``None`` = the
            process-wide default).
        store: path to a :class:`repro.campaign.ResultStore` directory;
            grids executed under these options skip runs the store
            already holds and persist new ones (``None`` = no store).
        check: attach the cache-engine invariant checker
            (:func:`repro.check.invariants.attach_checker`) to every shared cache the
            run builds; an inconsistency raises
            :class:`~repro.check.invariants.InvariantViolation` instead of silently
            corrupting results. Off by default (it audits the whole cache
            periodically — see ``docs/testing.md`` for the overhead).
        backend: cache engine, ``"classic"`` or ``"vector"`` (see
            :func:`repro.cache.backends.build_cache`: ``"vector"`` builds
            the vector engine only from 1,024 LLC sets up). The engines
            are certified bit-exact, so this is a speed knob, not a result
            knob — it is excluded from campaign fingerprints.
    """

    instructions: Optional[int] = None
    progress: Optional[Callable[[str], None]] = None
    jobs: Optional[int] = None
    seed: int = 0
    telemetry: object = False
    standalone_cache: object = None
    store: Optional[str] = None
    check: bool = False
    backend: str = "classic"


def experiment_run(func):
    """Give a figure ``run()`` implementation the uniform options API.

    The wrapped function keeps its internal signature
    (``instructions=None, ..., seed=0, progress=None``); the wrapper
    exposes ``run(options=None, **figure_kwargs)`` and forwards whichever
    run controls the implementation declares (``jobs`` and ``store``
    included: a figure hands them to its grid). A run control passed as a
    keyword (``run(instructions=...)``) or a non-``RunOptions`` ``options``
    raises ``TypeError``: the wrapper would otherwise overwrite it silently.
    """
    accepted = set(inspect.signature(func).parameters)

    @functools.wraps(func)
    def wrapper(options: Optional[RunOptions] = None, **kwargs):
        controls = sorted(set(kwargs).intersection(_RUN_CONTROLS))
        if controls:
            raise TypeError(
                f"{func.__name__}() takes {', '.join(controls)} only through "
                "options=RunOptions(...)"
            )
        if options is None:
            options = RunOptions()
        elif not isinstance(options, RunOptions):
            raise TypeError(
                f"{func.__name__}() options must be a RunOptions, "
                f"got {type(options).__name__}"
            )
        for name in _RUN_CONTROLS:
            if name in accepted:
                kwargs[name] = getattr(options, name)
        return func(**kwargs)

    wrapper.__wrapped_run__ = func
    return wrapper
