"""Campaign: a named grid of specs bound to a store, resumable end to end.

A campaign is (machine config, spec list, retry/timeout policy) saved as a
``campaign.json`` manifest inside its store directory, so *the store alone*
is enough to resume: ``Campaign.load(path).run()`` after an interruption —
graceful or SIGKILL — executes exactly the specs that never completed and
nothing else.

Typical flow::

    from repro.campaign import Campaign
    from repro.experiments.configs import machine

    camp = Campaign.grid(
        "sweeps/prism-vs-lru",
        machine(4, instructions=200_000),
        mixes=["Q1", "Q7", "Q12"],
        schemes=["lru", "prism-h"],
        seeds=range(5),
    )
    run = camp.run(jobs=0)          # all cores; skips anything cached
    print(run.describe())           # "executed 30, skipped 0 (cached)"
    camp.export_csv("sweep.csv")

The CLI mirrors this as ``repro-sim campaign run/status/resume/export``;
``commands=`` (``--hosts`` on the CLI) runs the same loop over subprocess
or ssh workers instead of forked ones.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.cache.geometry import CacheGeometry
from repro.campaign.runner import CampaignRun, CampaignRunner, Progress, cache_hit
from repro.campaign.store import (
    FailedRun,
    ResultStore,
    result_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.experiments.configs import MachineConfig
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import WorkloadResult

__all__ = ["Campaign", "CampaignStatus", "completion_rate", "MANIFEST_NAME"]

MANIFEST_NAME = "campaign.json"

#: campaign.json schema version.
MANIFEST_FORMAT = 1


def _geometry_to_dict(geometry) -> Optional[dict]:
    if geometry is None:
        return None
    return {
        "size_bytes": geometry.size_bytes,
        "block_bytes": geometry.block_bytes,
        "assoc": geometry.assoc,
    }


def _geometry_from_dict(data: Optional[dict]) -> Optional[CacheGeometry]:
    if data is None:
        return None
    return CacheGeometry(
        size_bytes=data["size_bytes"],
        block_bytes=data["block_bytes"],
        assoc=data["assoc"],
    )


def machine_to_dict(config: MachineConfig) -> dict:
    return {
        "num_cores": config.num_cores,
        "geometry": _geometry_to_dict(config.geometry),
        "num_controllers": config.num_controllers,
        "instructions": config.instructions,
        "workload_scale": config.workload_scale,
        "l1_geometry": _geometry_to_dict(config.l1_geometry),
        "l1_inclusive": config.l1_inclusive,
        "dram_banks": config.dram_banks,
        "dram_row_blocks": config.dram_row_blocks,
    }


def machine_from_dict(data: dict) -> MachineConfig:
    # Hierarchy fields use .get defaults so manifests written before the
    # multi-level machine still load.
    return MachineConfig(
        num_cores=data["num_cores"],
        geometry=_geometry_from_dict(data["geometry"]),
        num_controllers=data["num_controllers"],
        instructions=data["instructions"],
        workload_scale=data["workload_scale"],
        l1_geometry=_geometry_from_dict(data.get("l1_geometry")),
        l1_inclusive=data.get("l1_inclusive", False),
        dram_banks=data.get("dram_banks", 1),
        dram_row_blocks=data.get("dram_row_blocks", 0),
    )


@dataclass(frozen=True)
class CampaignStatus:
    """Store-side progress of a campaign (unique fingerprints).

    ``specs_per_min``/``eta_seconds`` are derived from the completed
    records' stored timestamps (``RunMeta.created_at``): the completion
    *rate* needs at least two records and a non-zero span, the ETA
    additionally needs pending work. Both are ``None`` when they cannot
    be estimated. The same columns feed ``repro-sim campaign status``.
    """

    total: int
    completed: int
    failed: int
    pending: int
    specs_per_min: Optional[float] = None
    eta_seconds: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.pending == 0 and self.failed == 0

    @staticmethod
    def _format_eta(seconds: float) -> str:
        if seconds >= 3600:
            return f"{seconds / 3600:.1f}h"
        if seconds >= 60:
            return f"{seconds / 60:.1f}m"
        return f"{seconds:.0f}s"

    def describe(self) -> str:
        text = (
            f"{self.completed}/{self.total} completed, "
            f"{self.failed} failed, {self.pending} pending"
        )
        if self.specs_per_min is not None:
            text += f", {self.specs_per_min:.1f} specs/min"
        if self.eta_seconds is not None:
            text += f", ETA {self._format_eta(self.eta_seconds)}"
        return text


def completion_rate(created_ats: Sequence[float]) -> Optional[float]:
    """Specs per *minute* from completed-record timestamps, or ``None``.

    The first record anchors the clock, so the rate is over the spans
    *between* completions — ``n`` records over ``span`` seconds is
    ``n - 1`` completions of observed spacing.
    """
    stamps = sorted(t for t in created_ats if t)
    if len(stamps) < 2:
        return None
    span = stamps[-1] - stamps[0]
    if span <= 0:
        return None
    return (len(stamps) - 1) / span * 60.0


class Campaign:
    """A spec grid bound to a result store, with a persisted manifest."""

    def __init__(
        self,
        store: Union[ResultStore, str, Path],
        config: MachineConfig,
        specs: Sequence[RunSpec],
        retries: int = 1,
        timeout: Optional[float] = None,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.config = config
        self.specs = list(specs)
        self.retries = retries
        self.timeout = timeout

    # -- construction -------------------------------------------------------

    @classmethod
    def grid(
        cls,
        store: Union[ResultStore, str, Path],
        config: MachineConfig,
        mixes: Sequence[str],
        schemes: Sequence[str],
        seeds: Iterable[int] = (0,),
        instructions: Optional[int] = None,
        scheme_kwargs: Optional[Dict[str, dict]] = None,
        telemetry: bool = False,
        check: bool = False,
        retries: int = 1,
        timeout: Optional[float] = None,
    ) -> "Campaign":
        """The standard mixes × schemes × seeds grid as a campaign."""
        scheme_kwargs = scheme_kwargs or {}
        specs = [
            RunSpec(
                mix=mix,
                scheme=scheme,
                seed=seed,
                instructions=instructions,
                scheme_kwargs=scheme_kwargs.get(scheme),
                telemetry=telemetry,
                check=check,
            )
            for mix in mixes
            for scheme in schemes
            for seed in seeds
        ]
        return cls(store, config, specs, retries=retries, timeout=timeout)

    @classmethod
    def load(cls, store: Union[ResultStore, str, Path]) -> "Campaign":
        """Rebuild a campaign from its store's manifest alone.

        Raises:
            FileNotFoundError: the store has no ``campaign.json`` (it was
                never saved, or the directory is not a campaign store).
        """
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        manifest_path = store.root / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"{manifest_path} does not exist — not a saved campaign "
                "(run `repro-sim campaign run` or Campaign.save first)"
            )
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        return cls(
            store,
            machine_from_dict(manifest["machine"]),
            [spec_from_dict(s) for s in manifest["specs"]],
            retries=manifest.get("retries", 1),
            timeout=manifest.get("timeout"),
        )

    def save(self) -> Path:
        """Write/refresh the manifest so ``load`` can resume from disk."""
        from repro import __version__

        manifest = {
            "format": MANIFEST_FORMAT,
            "created_at": time.time(),
            "repro_version": __version__,
            "machine": machine_to_dict(self.config),
            "specs": [spec_to_dict(spec) for spec in self.specs],
            "retries": self.retries,
            "timeout": self.timeout,
        }
        path = self.store.root / MANIFEST_NAME
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    # -- queries ------------------------------------------------------------

    def runner(self, jobs: Optional[int] = None, commands=None) -> CampaignRunner:
        return CampaignRunner(
            self.store,
            self.config,
            jobs=jobs,
            retries=self.retries,
            timeout=self.timeout,
            commands=commands,
        )

    def fingerprints(self) -> List[str]:
        """One fingerprint per spec, aligned with ``self.specs``."""
        runner = self.runner()
        return [runner.fingerprint(spec) for spec in self.specs]

    def status(self) -> CampaignStatus:
        """Progress over the campaign's unique fingerprints."""
        completed = failed = 0
        seen = set()
        created_ats = []
        for spec, fp in zip(self.specs, self.fingerprints()):
            if fp in seen:
                continue
            seen.add(fp)
            if cache_hit(self.store, fp, spec) is not None:
                completed += 1
                stored = self.store.record_for(fp)
                if stored is not None:
                    created_ats.append(stored.meta.created_at)
            elif self.store.failure_for(fp) is not None:
                failed += 1
        total = len(seen)
        pending = total - completed - failed
        rate = completion_rate(created_ats)
        eta = pending / (rate / 60.0) if rate and pending else None
        return CampaignStatus(
            total=total,
            completed=completed,
            failed=failed,
            pending=pending,
            specs_per_min=rate,
            eta_seconds=eta,
        )

    def failures(self) -> List[FailedRun]:
        """Stored failures belonging to this campaign's fingerprints."""
        wanted = set(self.fingerprints())
        return [f for f in self.store.failures() if f.fingerprint in wanted]

    def results(self) -> List[Optional[WorkloadResult]]:
        """Stored results aligned with ``self.specs`` (``None`` = not done)."""
        runner = self.runner()
        return [
            cache_hit(self.store, runner.fingerprint(spec), spec) for spec in self.specs
        ]

    # -- execution ----------------------------------------------------------

    def run(
        self,
        jobs: Optional[int] = None,
        progress: Progress = None,
        limit: Optional[int] = None,
        commands: Optional[Sequence[Tuple[str, Sequence[str]]]] = None,
        stop=None,
        kill_after: Optional[Tuple[str, int]] = None,
    ) -> CampaignRun:
        """Execute (or resume) the campaign: only pending specs simulate.

        Saves the manifest first, so even a run killed before its first
        result leaves a resumable store behind. ``commands``, ``stop``
        and ``kill_after`` are passed to
        :func:`~repro.campaign.executor.iter_isolated`.
        """
        self.save()
        return self.runner(jobs=jobs, commands=commands).run(
            self.specs, progress=progress, limit=limit, stop=stop, kill_after=kill_after
        )

    # -- export -------------------------------------------------------------

    #: Summary-metric columns shared by both export formats.
    EXPORT_FIELDS = (
        "fingerprint",
        "status",
        "mix",
        "scheme",
        "seed",
        "instructions",
        "antt",
        "fairness",
        "throughput",
        "weighted_speedup",
        "intervals",
        "wall_seconds",
        "host",
        "repro_version",
        "error",
    )

    def export_rows(self) -> List[dict]:
        """One flat summary row per unique spec, in campaign order."""
        rows = []
        seen = set()
        runner = self.runner()
        for spec in self.specs:
            fp = runner.fingerprint(spec)
            if fp in seen:
                continue
            seen.add(fp)
            row = {
                "fingerprint": fp,
                "mix": spec.mix if isinstance(spec.mix, str) else "+".join(spec.mix),
                "scheme": spec.scheme,
                "seed": spec.seed,
                "instructions": (
                    spec.instructions
                    if spec.instructions is not None
                    else self.config.instructions
                ),
            }
            stored = self.store.record_for(fp)
            failure = self.store.failure_for(fp)
            if stored is not None:
                result = stored.result
                row.update(
                    status="completed",
                    antt=result.antt,
                    fairness=result.fairness,
                    throughput=result.throughput,
                    weighted_speedup=result.weighted_speedup,
                    intervals=result.intervals,
                    wall_seconds=stored.meta.wall_seconds,
                    host=stored.meta.host,
                    repro_version=stored.meta.repro_version,
                )
            elif failure is not None:
                row.update(
                    status="failed",
                    error=f"{failure.error_type}: {failure.message}",
                )
            else:
                row.update(status="pending")
            rows.append(row)
        return rows

    def export_csv(self, path: Union[str, Path]) -> Path:
        """Write the per-spec summary table as CSV."""
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.EXPORT_FIELDS, restval="")
            writer.writeheader()
            for row in self.export_rows():
                writer.writerow(row)
        return path

    def export_jsonl(self, path: Union[str, Path]) -> Path:
        """Write full records (summary row + complete result) as JSONL."""
        path = Path(path)
        with open(path, "w") as fh:
            seen = set()
            runner = self.runner()
            rows = {row["fingerprint"]: row for row in self.export_rows()}
            for spec in self.specs:
                fp = runner.fingerprint(spec)
                if fp in seen:
                    continue
                seen.add(fp)
                record = dict(rows[fp])
                stored = self.store.record_for(fp)
                if stored is not None:
                    record["result"] = result_to_dict(stored.result)
                fh.write(json.dumps(record) + "\n")
        return path

    def export_parquet(self, path: Union[str, Path]) -> Path:
        """Write the summary table as Parquet (columnar, for big sweeps).

        Parquet needs ``pyarrow``, which is deliberately *optional* —
        the simulator itself must not grow the dependency. Without it
        the export **falls back loudly to CSV**: a ``RuntimeWarning``
        plus a stderr line, and the returned path carries a ``.csv``
        suffix so nothing downstream mistakes the bytes for Parquet.
        """
        path = Path(path)
        try:
            import pyarrow as pa
            import pyarrow.parquet as pq
        except ImportError:
            import sys
            import warnings

            fallback = path.with_suffix(".csv")
            message = (
                f"pyarrow is not installed: falling back from Parquet to CSV "
                f"({fallback}). `pip install pyarrow` for columnar export."
            )
            warnings.warn(message, RuntimeWarning, stacklevel=2)
            print(f"WARNING: {message}", file=sys.stderr)
            return self.export_csv(fallback)
        rows = self.export_rows()
        columns = {
            name: [row.get(name) for row in rows] for name in self.EXPORT_FIELDS
        }
        pq.write_table(pa.table(columns), path)
        return path

    def export(self, path: Union[str, Path], fmt: Optional[str] = None) -> Path:
        """Export by format name, or by the path's extension."""
        path = Path(path)
        if fmt is None:
            suffix = path.suffix.lower()
            fmt = {"": "jsonl", ".csv": "csv", ".parquet": "parquet"}.get(suffix, "jsonl")
        if fmt == "csv":
            return self.export_csv(path)
        if fmt == "jsonl":
            return self.export_jsonl(path)
        if fmt == "parquet":
            return self.export_parquet(path)
        raise ValueError(
            f"unknown export format {fmt!r} (expected csv, jsonl, or parquet)"
        )
