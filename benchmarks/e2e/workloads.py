"""The five end-to-end workloads: what one round sets up, calls and checks.

Each workload is built in two steps, so that ``child.py`` can time them
apart: the constructor is the set-up (resolve workload references and
machine configs), and :meth:`calls` lists the driver calls the round
times, back to back. Every call goes through a public entry point, looked
up on its module at call time so that the tracer's patches apply.

Sizes are per-round budgets at ``scale=1``; each was chosen so that a
round takes about two seconds on a 2-core x86 host, which leaves room for
at least five measured rounds within a run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["WORKLOADS", "build", "digest"]


def digest(payload) -> str:
    """SHA-256 of a JSON payload in canonical form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scaled(budget: int, scale: float) -> int:
    return max(1, int(budget * scale))


class DriverWorkload:
    """Workload references x schemes through ``run_workload``.

    One fresh stand-alone memo per round, shared by the round's calls, so
    every round pays for the same stand-alone runs.
    """

    def __init__(
        self,
        seed: int,
        scale: float,
        refs: Sequence[str],
        machine_kwargs: dict,
        schemes: Sequence[str],
        budget: int,
        backend: str = "classic",
        clusters=None,
    ) -> None:
        from repro.experiments.configs import machine
        from repro.experiments.runner import StandaloneIPCCache
        from repro.workloads.registry import resolve_workload

        self.sources = [resolve_workload(ref) for ref in refs]
        self.config = machine(**machine_kwargs)
        for source in self.sources:
            if source.num_cores != self.config.num_cores:
                raise ValueError(f"{source.label} does not fit {self.config}")
        self.seed = seed
        self.schemes = list(schemes)
        self.instructions = _scaled(budget, scale)
        self.backend = backend
        self.clusters = clusters
        self.memo = StandaloneIPCCache()
        self.counters: Dict[str, float] = {}

    def calls(self) -> List[Tuple[str, Callable]]:
        from repro.experiments import runner

        def call(source, scheme):
            return lambda: runner.run_workload(
                source,
                self.config,
                scheme,
                seed=self.seed,
                instructions=self.instructions,
                standalone_cache=self.memo,
                backend=self.backend,
                clusters=self.clusters,
            )

        return [
            (f"{source.label}/{scheme}", call(source, scheme))
            for source in self.sources
            for scheme in self.schemes
        ]

    def summarize(self, label: str, result) -> Tuple[object, list]:
        """``(digest payload, shared-run results)`` of one call's output."""
        from repro.campaign.store import result_to_dict

        return result_to_dict(result), [result]

    def close(self) -> None:
        pass


class CampaignWorkload:
    """A 20-spec campaign through the executor and a fresh store.

    Calls: ``run`` (grid, executed with two workers), ``readback`` (the
    same store reopened: load, status, export rows, results) and
    ``resume`` (must execute nothing).
    """

    MIXES = ("Q1", "Q2", "Q3", "Q4", "Q5")
    SCHEMES = ("lru", "prism-h", "prism-f", "ucp")
    JOBS = 2

    def __init__(self, seed: int, scale: float, workdir: str, budget: int) -> None:
        from repro.experiments.configs import machine
        from repro.workloads.registry import resolve_workload

        for mix in self.MIXES:
            resolve_workload(mix).profiles()
        self.config = machine(4)
        self.seed = seed
        self.instructions = _scaled(budget, scale)
        self.store = tempfile.mkdtemp(prefix="campaign-", dir=workdir)
        self.counters: Dict[str, float] = {}

    def calls(self) -> List[Tuple[str, Callable]]:
        from repro.campaign import campaign

        def run():
            camp = campaign.Campaign.grid(
                self.store,
                self.config,
                mixes=self.MIXES,
                schemes=self.SCHEMES,
                seeds=(self.seed,),
                instructions=self.instructions,
            )
            return camp.run(jobs=self.JOBS)

        def readback():
            camp = campaign.Campaign.load(self.store)
            return camp.status(), camp.export_rows(), camp.results()

        def resume():
            return campaign.Campaign.load(self.store).run(jobs=self.JOBS)

        return [("run", run), ("readback", readback), ("resume", resume)]

    def summarize(self, label: str, out) -> Tuple[object, list]:
        from repro.campaign.store import ResultStore, result_to_dict

        specs = len(self.MIXES) * len(self.SCHEMES)
        if label == "run":
            if out.executed != specs or out.failed:
                raise RuntimeError(f"campaign ran {out.describe()}")
            records = [
                r for r in ResultStore(self.store).iter_records() if r["record"] == "result"
            ]
            self.counters["campaign.spec_s"] = sum(r["meta"]["wall_seconds"] for r in records)
            payload = sorted(
                ({k: r[k] for k in ("fingerprint", "spec", "result")} for r in records),
                key=lambda r: r["fingerprint"],
            )
            return payload, list(out.results)
        if label == "readback":
            status, rows, results = out
            if status.completed != specs or not status.done:
                raise RuntimeError(f"campaign status {status.describe()}")
            volatile = ("wall_seconds", "host", "repro_version")
            return {
                "status": [status.total, status.completed, status.failed, status.pending],
                "rows": [{k: v for k, v in row.items() if k not in volatile} for row in rows],
                "results": [result_to_dict(r) for r in results],
            }, []
        if out.executed or out.failed or out.skipped != specs:
            raise RuntimeError(f"campaign resume {out.describe()}")
        return {"executed": out.executed, "skipped": out.skipped}, []

    def close(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)


#: name -> (why it was chosen, constructor(seed, scale, workdir)).
WORKLOADS = {
    "paper4": (
        "Q1 and Q2 on the 4-core machine under lru, prism-h and prism-f: the "
        "timing-coupled path every paper figure takes (streams, event loop, "
        "per-access LLC)",
        lambda seed, scale, workdir: DriverWorkload(
            seed, scale, ["Q1", "Q2"], {"num_cores": 4},
            ["lru", "prism-h", "prism-f"], budget=500_000,
        ),
    ),
    "hier8": (
        "E1 on 8 cores with inclusive private L1s and banked DRAM under prism-f "
        "and belady: the only L1, row-buffer, trace-recording and Belady path",
        lambda seed, scale, workdir: DriverWorkload(
            seed, scale, ["E1"],
            {"num_cores": 8, "l1": "inclusive", "dram_banks": 4, "dram_row_blocks": 8},
            ["prism-f", "belady"], budget=400_000,
        ),
    ),
    "web8": (
        "tenants:web8 under lru and prism-h on the vector engine: chunked numpy "
        "traces, encoding and batch replay with no timing model",
        lambda seed, scale, workdir: DriverWorkload(
            seed, scale, ["tenants:web8"], {"num_cores": 8},
            ["lru", "prism-h"], budget=75_000, backend="vector",
        ),
    ),
    "shared16": (
        "shared:scale16 with 4 clusters under lru and prism-h on the classic "
        "engine: clustering profile, core map, sharer tracking, classic batches",
        lambda seed, scale, workdir: DriverWorkload(
            seed, scale, ["shared:scale16"], {"num_cores": 16},
            ["lru", "prism-h"], budget=400_000, clusters=4,
        ),
    ),
    "campaign20": (
        "a 20-spec campaign (Q1-Q5 x lru, prism-h, prism-f, ucp) with 2 workers, "
        "read back and resumed: executor processes and store I/O",
        lambda seed, scale, workdir: CampaignWorkload(seed, scale, workdir, budget=100_000),
    ),
}


def build(name: str, seed: int, scale: float, workdir: str):
    """Set up workload ``name`` for one round."""
    return WORKLOADS[name][1](seed, scale, workdir)
