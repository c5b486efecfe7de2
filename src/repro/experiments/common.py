"""Shared helpers for the per-figure experiment modules."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.configs import MachineConfig
from repro.experiments.parallel import RunSpec, run_specs
from repro.experiments.runner import WorkloadResult
from repro.metrics import geomean

__all__ = ["compare_schemes", "format_table", "Progress", "resolve_instructions",
           "run_grid"]

Progress = Optional[Callable[[str], None]]


def resolve_instructions(instructions, cores: int) -> Optional[int]:
    """Resolve an instruction budget that may be per-core-count.

    ``instructions`` may be ``None`` (use the machine default), an int
    (same budget at every core count), or a dict keyed by core count.
    """
    if isinstance(instructions, dict):
        return instructions.get(cores)
    return instructions


def run_grid(
    mixes: Sequence,
    config: MachineConfig,
    variants: Sequence[Tuple[str, Optional[dict]]],
    instructions: Optional[int] = None,
    seed: int = 0,
    progress: Progress = None,
    jobs: Optional[int] = None,
    store=None,
    telemetry: bool = False,
) -> Dict[object, List[WorkloadResult]]:
    """Run every mix under every ``(scheme, scheme_kwargs)`` variant.

    The whole grid is one :func:`~repro.experiments.parallel.run_specs`
    call, so ``jobs`` fans it out over warm workers and ``store`` skips and
    persists runs (see :mod:`repro.experiments.parallel`); results are
    identical at any ``jobs``.

    Returns:
        ``results[mix][i] -> WorkloadResult`` of ``variants[i]``.
    """
    specs = [
        RunSpec(
            mix=mix,
            scheme=scheme,
            seed=seed,
            instructions=instructions,
            scheme_kwargs=kwargs,
            telemetry=telemetry,
        )
        for mix in mixes
        for scheme, kwargs in variants
    ]
    flat = run_specs(specs, config, jobs=jobs, progress=progress, store=store)
    width = len(variants)
    return {mix: flat[i * width:(i + 1) * width] for i, mix in enumerate(mixes)}


def compare_schemes(
    mixes: Sequence,
    config: MachineConfig,
    schemes: Sequence[str],
    instructions: Optional[int] = None,
    seed: int = 0,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    progress: Progress = None,
    jobs: Optional[int] = None,
    telemetry: bool = False,
    store=None,
) -> Dict[object, Dict[str, WorkloadResult]]:
    """Run every mix under every scheme (a :func:`run_grid` keyed by scheme).

    Returns:
        ``results[mix][scheme] -> WorkloadResult``.
    """
    scheme_kwargs = scheme_kwargs or {}
    grid = run_grid(
        mixes,
        config,
        [(scheme, scheme_kwargs.get(scheme)) for scheme in schemes],
        instructions=instructions,
        seed=seed,
        progress=progress,
        jobs=jobs,
        store=store,
        telemetry=telemetry,
    )
    return {mix: dict(zip(schemes, row)) for mix, row in grid.items()}


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
