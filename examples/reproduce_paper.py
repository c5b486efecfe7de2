#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation.

Walks the experiment registry (Fig. 1-13 plus the Section 5.6 DIP study)
and prints each reproduction in paper-style rows. At the default
``--budget quick`` the suite runs in minutes on a laptop using shortened
instruction windows and mix subsets; ``--budget full`` runs every mix at
the DESIGN.md default windows (hours).

Usage::

    python examples/reproduce_paper.py                   # everything, quick
    python examples/reproduce_paper.py --only fig7 fig9  # a subset
    python examples/reproduce_paper.py --budget full
    python examples/reproduce_paper.py --jobs 4 --store out/paper

With ``--jobs N --store DIR`` every grid a figure hands to ``run_specs``
goes through the campaign executor's dispatch loop on ``N`` warm workers
and persists into ``DIR``, so an interrupted or repeated suite only
simulates what is missing.
"""

import argparse
import time

from repro.experiments.options import RunOptions
from repro.experiments.registry import EXPERIMENTS

#: Per-experiment quick-budget kwargs (instruction windows + mix subsets).
_QUICK = {
    "fig1": {"instructions": 150_000, "mixes_per_count": 3},
    "fig2": {"instructions": 150_000, "mixes_per_count": 3},
    "fig3": {"instructions": 200_000, "quad_mixes": ["Q1", "Q5", "Q7", "Q12"],
             "big_mixes": ["T1", "T2"]},
    "fig4": {"instructions": 200_000, "mixes": ["Q1", "Q4", "Q7"]},
    "fig5": {"instructions": 150_000, "mixes": ["S1", "S2", "S3", "S4"]},
    "fig6": {"instructions": 150_000, "mixes": ["S1", "S2", "S3", "S4"]},
    "fig7": {"instructions": 200_000, "quad_mixes": ["Q1", "Q7", "Q12", "Q19"],
             "sixteen_mixes": ["S1", "S2"]},
    "fig8": {"instructions": 200_000, "mixes": ["Q1", "Q7", "Q12"]},
    "fig9": {"instructions": 150_000, "mixes": ["S1", "S2", "S3", "S4"]},
    "fig10": {"instructions": 150_000, "mixes": ["S1", "S2", "S3", "S4"]},
    "fig11": {"instructions": 300_000, "mixes": ["Q1", "Q5", "Q7"]},
    "fig12": {"instructions": 200_000, "mixes": ["Q1", "Q7"]},
    "fig13": {"instructions": 300_000, "mixes": ["Q1", "Q5", "Q7"]},
    "sec56": {"instructions": 200_000, "mixes": ["Q1", "Q5", "Q7", "Q12"]},
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", nargs="*", default=None,
                        help=f"experiment ids to run (default: all of {sorted(EXPERIMENTS)})")
    parser.add_argument("--budget", choices=["quick", "full"], default="quick")
    parser.add_argument("--verbose", action="store_true", help="print per-run progress")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for independent runs "
                        "(0 = all CPUs; default: serial)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result-store directory: completed runs are "
                        "cached there, so re-running the suite only "
                        "simulates what changed (see docs/campaigns.md)")
    args = parser.parse_args()

    ids = args.only or list(EXPERIMENTS)
    progress = (lambda msg: print(f"    {msg}", flush=True)) if args.verbose else None
    for experiment_id in ids:
        experiment = EXPERIMENTS[experiment_id]
        kwargs = dict(_QUICK.get(experiment_id, {})) if args.budget == "quick" else {}
        options = RunOptions(
            instructions=kwargs.pop("instructions", None), progress=progress,
            jobs=args.jobs, store=args.store,
        )
        print("=" * 78)
        print(f"[{experiment.id}] {experiment.title}")
        print("=" * 78)
        start = time.time()
        result = experiment.run(options=options, **kwargs)
        print(experiment.format(result))
        print(f"({time.time() - start:.0f}s)\n")


if __name__ == "__main__":
    main()
