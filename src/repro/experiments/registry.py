"""Experiment registry: id -> (run, format) for every paper table/figure.

Used by the bench harness and by ``examples/reproduce_paper.py`` to
enumerate the full evaluation. Every ``run`` has the uniform signature
``run(options=None, **figure_kwargs)`` where ``options`` is a
:class:`~repro.experiments.options.RunOptions` carrying the cross-cutting
controls (``instructions``, ``seed``, ``progress``, ``jobs``,
``telemetry``); passing those as plain keyword arguments raises
``TypeError``.

Ids and titles are static; a figure's module is imported on the first use
of its ``run`` or ``format``. So listing the registry (and every CLI
command, which parses against it) loads none of the figure modules, nor
the numpy that the tenant and scale-out figures pull in.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict

__all__ = ["Experiment", "EXPERIMENTS"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper result, implemented by ``module``'s
    ``run`` and ``format_result``."""

    id: str
    title: str
    module: str

    @property
    def run(self) -> Callable:
        return import_module(self.module).run

    @property
    def format(self) -> Callable:
        return import_module(self.module).format_result


EXPERIMENTS: Dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment("fig1", "Motivation: scalability and fine-grained partitioning",
                   "repro.experiments.fig01_motivation"),
        Experiment("fig2", "PriSM performance summary vs core count",
                   "repro.experiments.fig02_summary"),
        Experiment("fig3", "Per-workload ANTT: PriSM-H vs UCP vs PIPP",
                   "repro.experiments.fig03_percore"),
        Experiment("fig4", "Cache occupancy: PriSM-H vs UCP (quad)",
                   "repro.experiments.fig04_occupancy"),
        Experiment("fig5", "Same policy, PriSM vs way-partitioning (16-core)",
                   "repro.experiments.fig05_vs_waypart"),
        Experiment("fig6", "16 cores on a 16-way cache",
                   "repro.experiments.fig06_cores_eq_ways"),
        Experiment("fig7", "PriSM vs Vantage (ANTT)",
                   "repro.experiments.fig07_vantage"),
        Experiment("fig8", "Per-benchmark misses, PriSM vs Vantage (quad)",
                   "repro.experiments.fig08_vantage_misses"),
        Experiment("fig9", "Fairness: LRU vs way-partitioning vs PriSM-F (16-core)",
                   "repro.experiments.fig09_fairness"),
        Experiment("fig10", "PriSM-Q: 80% stand-alone-IPC guarantee for core 0",
                   "repro.experiments.fig10_qos"),
        Experiment("fig11", "Eviction-probability stability (quad)",
                   "repro.experiments.fig11_evprob"),
        Experiment("fig12", "K-bit probability representation",
                   "repro.experiments.fig12_kbit"),
        Experiment("fig13", "Victim-not-found rate vs interval length",
                   "repro.experiments.fig13_victim_notfound"),
        Experiment("sec56", "PriSM over DIP replacement",
                   "repro.experiments.sec56_dip"),
        Experiment("tenants", "Multi-tenant web cache: per-tenant SLO scorecard",
                   "repro.experiments.multi_tenant"),
        Experiment("headroom", "Miss gap to the offline Belady/MIN optimum",
                   "repro.experiments.fig_headroom"),
        Experiment("scaleout", "Many-core scale-out: cluster-granular PriSM",
                   "repro.clustering.scaleout"),
    ]
}
