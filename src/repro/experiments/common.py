"""Shared helpers for the per-figure experiment modules."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.configs import MachineConfig
from repro.experiments.runner import WorkloadResult, run_workload
from repro.metrics import geomean

__all__ = ["compare_schemes", "format_table", "Progress", "resolve_instructions"]

Progress = Optional[Callable[[str], None]]


def resolve_instructions(instructions, cores: int) -> Optional[int]:
    """Resolve an instruction budget that may be per-core-count.

    ``instructions`` may be ``None`` (use the machine default), an int
    (same budget at every core count), or a dict keyed by core count.
    """
    if isinstance(instructions, dict):
        return instructions.get(cores)
    return instructions


def compare_schemes(
    mixes: Sequence[str],
    config: MachineConfig,
    schemes: Sequence[str],
    instructions: Optional[int] = None,
    seed: int = 0,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    progress: Progress = None,
    jobs: Optional[int] = None,
    telemetry: bool = False,
) -> Dict[str, Dict[str, WorkloadResult]]:
    """Run every mix under every scheme.

    Args:
        jobs: worker processes; ``None`` consults ``REPRO_JOBS`` (see
            :mod:`repro.experiments.parallel`). Above 1, the grid runs on
            warm worker processes with results bit-identical to the serial
            loop.
        telemetry: record per-interval telemetry into every result
            (parallel runs return identical traces to serial ones).

    Returns:
        ``results[mix][scheme] -> WorkloadResult``.
    """
    import os

    from repro.experiments.parallel import (
        STORE_ENV,
        parallel_compare_schemes,
        resolve_jobs,
    )

    # A configured result store routes even serial grids through
    # run_specs, which owns the skip-completed/persist cache layer.
    if resolve_jobs(jobs) > 1 or os.environ.get(STORE_ENV):
        return parallel_compare_schemes(
            mixes,
            config,
            schemes,
            instructions=instructions,
            seed=seed,
            scheme_kwargs=scheme_kwargs,
            progress=progress,
            jobs=jobs,
            telemetry=telemetry,
        )
    scheme_kwargs = scheme_kwargs or {}
    results: Dict[str, Dict[str, WorkloadResult]] = {}
    for mix in mixes:
        results[mix] = {}
        for scheme in schemes:
            if progress:
                progress(f"{mix} / {scheme}")
            results[mix][scheme] = run_workload(
                mix,
                config,
                scheme,
                seed=seed,
                instructions=instructions,
                scheme_kwargs=scheme_kwargs.get(scheme),
                telemetry=telemetry,
            )
    return results


def geomean_ratio(
    results: Dict[str, Dict[str, WorkloadResult]],
    scheme: str,
    baseline: str,
    metric: str = "antt",
) -> float:
    """Geomean over mixes of ``metric(scheme) / metric(baseline)``."""
    ratios = [
        getattr(per_mix[scheme], metric) / getattr(per_mix[baseline], metric)
        for per_mix in results.values()
    ]
    return geomean(ratios)


def format_table(headers: Sequence[str], rows: Sequence[Sequence], width: int = 12) -> str:
    """Fixed-width text table (what the bench harness prints)."""

    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.4f}"
        return str(cell)

    lines = ["  ".join(f"{h:>{width}}" for h in headers)]
    lines.append("  ".join("-" * width for _ in headers))
    for row in rows:
        lines.append("  ".join(f"{fmt(c):>{width}}" for c in row))
    return "\n".join(lines)
