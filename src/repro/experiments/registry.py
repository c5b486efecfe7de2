"""Experiment registry: id -> (run, format) for every paper table/figure.

Used by the bench harness and by ``examples/reproduce_paper.py`` to
enumerate the full evaluation. Every ``run`` has the uniform signature
``run(options=None, **figure_kwargs)`` where ``options`` is a
:class:`~repro.experiments.options.RunOptions` carrying the cross-cutting
controls (``instructions``, ``seed``, ``progress``, ``jobs``,
``telemetry``); passing those as plain keyword arguments raises
``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.experiments import (
    fig01_motivation,
    fig02_summary,
    fig03_percore,
    fig04_occupancy,
    fig05_vs_waypart,
    fig06_cores_eq_ways,
    fig07_vantage,
    fig08_vantage_misses,
    fig09_fairness,
    fig10_qos,
    fig11_evprob,
    fig12_kbit,
    fig13_victim_notfound,
    fig_headroom,
    multi_tenant,
    sec56_dip,
)
from repro.clustering import scaleout

__all__ = ["Experiment", "EXPERIMENTS"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper result."""

    id: str
    title: str
    run: Callable
    format: Callable


EXPERIMENTS: Dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment("fig1", "Motivation: scalability and fine-grained partitioning",
                   fig01_motivation.run, fig01_motivation.format_result),
        Experiment("fig2", "PriSM performance summary vs core count",
                   fig02_summary.run, fig02_summary.format_result),
        Experiment("fig3", "Per-workload ANTT: PriSM-H vs UCP vs PIPP",
                   fig03_percore.run, fig03_percore.format_result),
        Experiment("fig4", "Cache occupancy: PriSM-H vs UCP (quad)",
                   fig04_occupancy.run, fig04_occupancy.format_result),
        Experiment("fig5", "Same policy, PriSM vs way-partitioning (16-core)",
                   fig05_vs_waypart.run, fig05_vs_waypart.format_result),
        Experiment("fig6", "16 cores on a 16-way cache",
                   fig06_cores_eq_ways.run, fig06_cores_eq_ways.format_result),
        Experiment("fig7", "PriSM vs Vantage (ANTT)",
                   fig07_vantage.run, fig07_vantage.format_result),
        Experiment("fig8", "Per-benchmark misses, PriSM vs Vantage (quad)",
                   fig08_vantage_misses.run, fig08_vantage_misses.format_result),
        Experiment("fig9", "Fairness: LRU vs way-partitioning vs PriSM-F (16-core)",
                   fig09_fairness.run, fig09_fairness.format_result),
        Experiment("fig10", "PriSM-Q: 80% stand-alone-IPC guarantee for core 0",
                   fig10_qos.run, fig10_qos.format_result),
        Experiment("fig11", "Eviction-probability stability (quad)",
                   fig11_evprob.run, fig11_evprob.format_result),
        Experiment("fig12", "K-bit probability representation",
                   fig12_kbit.run, fig12_kbit.format_result),
        Experiment("fig13", "Victim-not-found rate vs interval length",
                   fig13_victim_notfound.run, fig13_victim_notfound.format_result),
        Experiment("sec56", "PriSM over DIP replacement",
                   sec56_dip.run, sec56_dip.format_result),
        Experiment("tenants", "Multi-tenant web cache: per-tenant SLO scorecard",
                   multi_tenant.run, multi_tenant.format_result),
        Experiment("headroom", "Miss gap to the offline Belady/MIN optimum",
                   fig_headroom.run, fig_headroom.format_result),
        Experiment("scaleout", "Many-core scale-out: cluster-granular PriSM",
                   scaleout.run, scaleout.format_result),
    ]
}
