"""Markdown report generator: regenerate the evaluation and write it up.

Runs the experiment registry at a chosen budget and writes a single
markdown file pairing each figure's paper claims
(:mod:`repro.experiments.paper_values`) with the freshly measured tables —
the artifact to attach to a reproduction review.

Usage (module CLI)::

    python -m repro.experiments.report --budget quick -o results.md
    python -m repro.experiments.report --only fig7 fig9 -o vantage.md
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.options import RunOptions
from repro.experiments.paper_values import claims_for
from repro.experiments.registry import EXPERIMENTS

__all__ = ["BUDGETS", "generate_report", "main"]

#: Per-budget kwargs for each experiment (instructions + mix subsets).
BUDGETS: Dict[str, Dict[str, dict]] = {
    "micro": {
        "fig1": {"instructions": 25_000, "mixes_per_count": 1},
        "fig2": {"instructions": 25_000, "mixes_per_count": 1, "core_counts": (4, 16)},
        "fig3": {"instructions": 25_000, "quad_mixes": ["Q7"], "big_mixes": ["T1"]},
        "fig4": {"instructions": 25_000, "mixes": ["Q7"]},
        "fig5": {"instructions": 25_000, "mixes": ["S1"]},
        "fig6": {"instructions": 25_000, "mixes": ["S1"]},
        "fig7": {"instructions": 25_000, "quad_mixes": ["Q7"], "sixteen_mixes": ["S1"]},
        "fig8": {"instructions": 25_000, "mixes": ["Q7"]},
        "fig9": {"instructions": 25_000, "mixes": ["S1"]},
        "fig10": {"instructions": 25_000, "mixes": ["S1"]},
        "fig11": {"instructions": 50_000, "mixes": ["Q7"]},
        "fig12": {"instructions": 25_000, "mixes": ["Q7"], "bit_widths": (6,)},
        "fig13": {"instructions": 50_000, "mixes": ["Q7"],
                  "interval_multipliers": (0.5, 1.0)},
        "sec56": {"instructions": 25_000, "mixes": ["Q7"]},
        "tenants": {"instructions": 30_000, "workload": "smoke4",
                    "schemes": ["lru", "cliff", "prism-h"]},
        "headroom": {"instructions": 25_000, "mixes": ["Q7"],
                     "schemes": ["lru", "prism-h"]},
        "scaleout": {"instructions": 30_000, "workloads": ["smoke4"],
                     "schemes": ["lru", "prism-h"], "clusters": 2},
    },
    "quick": {
        "fig1": {"instructions": 120_000, "mixes_per_count": 3},
        "fig2": {"instructions": 120_000, "mixes_per_count": 3},
        "fig3": {"instructions": 200_000, "quad_mixes": ["Q1", "Q5", "Q7", "Q12"],
                 "big_mixes": ["T1", "T2"]},
        "fig4": {"instructions": 200_000, "mixes": ["Q1", "Q4", "Q7"]},
        "fig5": {"instructions": 250_000, "mixes": ["S1", "S2", "S3", "S4"]},
        "fig6": {"instructions": 200_000, "mixes": ["S1", "S2", "S3", "S4"]},
        "fig7": {"instructions": 250_000, "quad_mixes": ["Q1", "Q7", "Q12", "Q19"],
                 "sixteen_mixes": ["S1", "S2"]},
        "fig8": {"instructions": 250_000, "mixes": ["Q1", "Q7", "Q12"]},
        "fig9": {"instructions": 200_000, "mixes": ["S1", "S2", "S3", "S4"]},
        "fig10": {"instructions": 200_000, "mixes": ["S1", "S2", "S3", "S4"]},
        "fig11": {"instructions": 400_000, "mixes": ["Q1", "Q5", "Q7"]},
        "fig12": {"instructions": 250_000, "mixes": ["Q1", "Q7"]},
        "fig13": {"instructions": 400_000, "mixes": ["Q1", "Q5", "Q7"]},
        "sec56": {"instructions": 250_000, "mixes": ["Q1", "Q5", "Q7", "Q12"]},
        "tenants": {"instructions": 400_000, "workload": "smoke4",
                    "backend": "vector"},
        "headroom": {"instructions": 150_000, "mixes": ["Q1", "Q5", "Q7", "Q12"]},
        "scaleout": {"instructions": 200_000, "workloads": ["scale16"],
                     "backend": "vector"},
    },
    # Full budget: every mix, the machine-default instruction windows.
    "full": {},
}


def generate_report(
    output: Path,
    budget: str = "quick",
    only: Optional[List[str]] = None,
    progress=None,
    jobs: Optional[int] = None,
    store=None,
) -> Path:
    """Run experiments and write the markdown report.

    Args:
        output: destination path.
        budget: ``micro`` (seconds), ``quick`` (minutes) or ``full`` (hours).
        only: subset of experiment ids (default: the whole registry).
        progress: optional ``callable(str)`` for live status lines.
        jobs/store: passed to every experiment's run grid (see
            :class:`~repro.experiments.options.RunOptions`).

    Returns:
        The written path.
    """
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}; known: {sorted(BUDGETS)}")
    ids = only or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    sections = [
        "# PriSM reproduction report",
        "",
        f"Budget: `{budget}`. Generated by `python -m repro.experiments.report`.",
        "Paper claims are quoted above each regenerated table; see",
        "EXPERIMENTS.md for the fidelity discussion.",
        "",
    ]
    for experiment_id in ids:
        experiment = EXPERIMENTS[experiment_id]
        kwargs = dict(BUDGETS[budget].get(experiment_id, {}))
        options = RunOptions(
            instructions=kwargs.pop("instructions", None), progress=progress,
            jobs=jobs, store=store,
        )
        if progress:
            progress(f"running {experiment_id} ({experiment.title})")
        start = time.time()
        result = experiment.run(options=options, **kwargs)
        elapsed = time.time() - start
        sections.append(f"## {experiment_id}: {experiment.title}")
        sections.append("")
        for claim in claims_for(experiment_id):
            sections.append(f"> **Paper:** {claim.text}")
        sections.append("")
        sections.append("```")
        sections.append(experiment.format(result))
        sections.append("```")
        sections.append(f"*({elapsed:.0f}s)*")
        sections.append("")

    output = Path(output)
    output.write_text("\n".join(sections))
    return output


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="results.md")
    parser.add_argument("--budget", choices=sorted(BUDGETS), default="quick")
    parser.add_argument("--only", nargs="*", default=None)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    progress = None if args.quiet else (lambda msg: print(f"  {msg}", flush=True))
    path = generate_report(
        Path(args.output), budget=args.budget, only=args.only, progress=progress
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
