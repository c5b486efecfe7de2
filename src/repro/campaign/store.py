"""ResultStore: content-addressed, append-only persistence for runs.

A store is a directory::

    <root>/
        campaign.json     # optional manifest (written by Campaign.save)
        results.jsonl     # append-only record log, one JSON object per line
        traces/<fp>.jsonl # per-spec telemetry traces (when recorded)

``results.jsonl`` holds two record kinds, discriminated by ``record``:

- ``"result"`` — a completed :class:`~repro.experiments.runner.WorkloadResult`
  plus run metadata (fingerprint, wall time, the cache engine that ran
  and why a vector request was declined, host, repro version,
  timestamp). Loading reconstructs a ``WorkloadResult`` equal, field for
  field, to the one that was stored (telemetry included; the
  non-deterministic ``RunTiming`` is deliberately not persisted — it is
  excluded from ``RunTelemetry`` equality for the same reason).
- ``"failure"`` — a typed :class:`FailedRun` (error type, message, worker
  traceback, attempts, timeout flag) recorded when a spec exhausted its
  retries.

The log is *last record wins* per fingerprint: a successful retry after a
stored failure supersedes it. Records are appended with an ``fsync``-free
open/write/close per record (crash-durable at line granularity), and the
loader skips a torn trailing line, so a store written by a process that
was SIGKILLed mid-append still loads everything that completed.

Appends take an advisory ``flock`` on the log for the duration of the
single write, so several *processes* pointed at one store directory
(parallel campaign drivers) can never interleave torn lines mid-file;
each process still keeps its own in-memory index, so cross-process
read-your-writes visibility requires re-opening the store.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

try:  # POSIX only; on other platforms appends fall back to unlocked writes
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from repro.cache.backends import EngineChoice
from repro.cpu.system import CoreResult
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import WorkloadResult
from repro.metrics.tenancy import TenantSLOReport
from repro.telemetry import FinishSample, IntervalSample, RunTelemetry

__all__ = [
    "FailedRun",
    "RunMeta",
    "StoredResult",
    "ResultStore",
    "result_record",
    "failure_record",
]

#: results.jsonl schema version. Format 2 added ``engine`` and
#: ``engine_declined`` to a result record's ``meta``; format-1 records
#: still load (with both ``None``), and meta keys a later format adds are
#: skipped on load rather than rejected.
STORE_FORMAT = 2


@dataclass(frozen=True)
class RunMeta:
    """Provenance of one stored run.

    ``engine``/``engine_declined`` are the run's
    :class:`~repro.cache.backends.EngineChoice` (``None`` in records
    written before it was kept).
    """

    fingerprint: str
    wall_seconds: Optional[float] = None
    engine: Optional[str] = None
    engine_declined: Optional[str] = None
    host: str = ""
    repro_version: str = ""
    created_at: float = 0.0

    @classmethod
    def now(
        cls,
        fingerprint: str,
        wall_seconds: Optional[float] = None,
        engine: Optional[EngineChoice] = None,
    ) -> "RunMeta":
        from repro import __version__

        return cls(
            fingerprint=fingerprint,
            wall_seconds=wall_seconds,
            engine=engine.engine if engine is not None else None,
            engine_declined=engine.declined if engine is not None else None,
            host=socket.gethostname(),
            repro_version=__version__,
            created_at=time.time(),
        )


#: The ``meta`` keys a stored result record may set on :class:`RunMeta`.
_META_FIELDS = frozenset(f.name for f in fields(RunMeta)) - {"fingerprint"}


@dataclass(frozen=True)
class FailedRun:
    """A spec that exhausted its attempts without producing a result."""

    fingerprint: str
    spec: RunSpec
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    timed_out: bool = False

    def describe(self) -> str:
        kind = "timed out" if self.timed_out else self.error_type
        return (
            f"{self.spec.describe()}: {kind}: {self.message} "
            f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )


@dataclass(frozen=True)
class StoredResult:
    """One completed run as the store holds it."""

    fingerprint: str
    spec: RunSpec
    result: WorkloadResult
    meta: RunMeta


# -- (de)serialisation -------------------------------------------------------


#: The keys every stored spec has carried since format 1, written always.
#: A later :class:`RunSpec` field is written only when it differs from its
#: default, so the records of default specs stay byte-identical.
_SPEC_KEYS = ("mix", "scheme", "seed", "instructions", "scheme_kwargs", "telemetry", "check")


def spec_to_dict(spec: RunSpec) -> dict:
    """``RunSpec`` as a JSON-clean dict, derived from its dataclass fields."""
    data = {
        f.name: getattr(spec, f.name)
        for f in fields(RunSpec)
        if f.name in _SPEC_KEYS or getattr(spec, f.name) != f.default
    }
    data["mix"] = spec.mix if isinstance(spec.mix, str) else list(spec.mix)
    data["scheme_kwargs"] = dict(spec.scheme_kwargs) if spec.scheme_kwargs else None
    return data


def spec_from_dict(data: dict) -> RunSpec:
    """Inverse of :func:`spec_to_dict`; absent fields take their defaults.

    Raises:
        ValueError: a key that is not a ``RunSpec`` field — the record was
            written by newer code, and dropping the key would silently
            change what the spec means.
    """
    unknown = set(data) - {f.name for f in fields(RunSpec)}
    if unknown:
        raise ValueError(
            f"unknown RunSpec field(s) {sorted(unknown)}: written by a newer repro?"
        )
    mix = data["mix"]
    return RunSpec(**{**data, "mix": mix if isinstance(mix, str) else tuple(mix)})


def _telemetry_to_dict(telemetry: RunTelemetry) -> dict:
    return {
        "num_cores": telemetry.num_cores,
        "benchmarks": list(telemetry.benchmarks),
        "samples": [asdict(s) for s in telemetry.samples],
        "finishes": [asdict(s) for s in telemetry.finishes],
    }


def _telemetry_from_dict(data: dict) -> RunTelemetry:
    return RunTelemetry(
        num_cores=data["num_cores"],
        benchmarks=list(data["benchmarks"]),
        samples=[IntervalSample(**s) for s in data["samples"]],
        finishes=[FinishSample(**s) for s in data["finishes"]],
    )


def result_to_dict(result: WorkloadResult) -> dict:
    """``WorkloadResult`` as a JSON-clean dict (round-trips exactly).

    Every field is primitives; floats survive JSON via ``repr`` so the
    reconstruction compares equal field for field.
    """
    data = {
        "mix": result.mix,
        "scheme": result.scheme,
        "benchmarks": list(result.benchmarks),
        "cores": [asdict(c) for c in result.cores],
        "standalone": list(result.standalone),
        "antt": result.antt,
        "fairness": result.fairness,
        "throughput": result.throughput,
        "weighted_speedup": result.weighted_speedup,
        "intervals": result.intervals,
        "victim_not_found_rate": result.victim_not_found_rate,
        "probability_stats": result.probability_stats,
        "eviction_probabilities": result.eviction_probabilities,
        "forced_evictions": result.forced_evictions,
        "demotions": result.demotions,
        "quotas": result.quotas,
        "targets": result.targets,
        "telemetry": (
            _telemetry_to_dict(result.telemetry) if result.telemetry is not None else None
        ),
        "tenant_slo": (
            result.tenant_slo.to_dict() if result.tenant_slo is not None else None
        ),
    }
    return data


def result_from_dict(data: dict) -> WorkloadResult:
    telemetry = data.get("telemetry")
    tenant_slo = data.get("tenant_slo")  # absent in pre-tenancy stores
    return WorkloadResult(
        mix=data["mix"],
        scheme=data["scheme"],
        benchmarks=list(data["benchmarks"]),
        cores=[CoreResult(**c) for c in data["cores"]],
        standalone=list(data["standalone"]),
        antt=data["antt"],
        fairness=data["fairness"],
        throughput=data["throughput"],
        weighted_speedup=data["weighted_speedup"],
        intervals=data["intervals"],
        victim_not_found_rate=data["victim_not_found_rate"],
        probability_stats=data["probability_stats"],
        eviction_probabilities=data["eviction_probabilities"],
        forced_evictions=data["forced_evictions"],
        demotions=data["demotions"],
        quotas=data["quotas"],
        targets=data["targets"],
        telemetry=_telemetry_from_dict(telemetry) if telemetry is not None else None,
        tenant_slo=(
            TenantSLOReport.from_dict(tenant_slo) if tenant_slo is not None else None
        ),
    )


def result_record(
    fingerprint: str, spec: RunSpec, result: WorkloadResult, meta: RunMeta
) -> dict:
    """The ``results.jsonl`` line of one completed run.

    The single definition of the result-record layout.
    """
    return {
        "record": "result",
        "format": STORE_FORMAT,
        "fingerprint": fingerprint,
        "spec": spec_to_dict(spec),
        "meta": {
            "wall_seconds": meta.wall_seconds,
            "engine": meta.engine,
            "engine_declined": meta.engine_declined,
            "host": meta.host,
            "repro_version": meta.repro_version,
            "created_at": meta.created_at,
        },
        "result": result_to_dict(result),
    }


def failure_record(failure: FailedRun) -> dict:
    """The ``results.jsonl`` line of one failed run (see :func:`result_record`)."""
    return {
        "record": "failure",
        "format": STORE_FORMAT,
        "fingerprint": failure.fingerprint,
        "spec": spec_to_dict(failure.spec),
        "failure": {
            "error_type": failure.error_type,
            "message": failure.message,
            "traceback": failure.traceback,
            "attempts": failure.attempts,
            "timed_out": failure.timed_out,
        },
    }


# -- the store ---------------------------------------------------------------


class ResultStore:
    """Content-addressed result log keyed by spec fingerprint.

    Opening a store scans ``results.jsonl`` once into an in-memory index;
    every ``add_*`` appends one line immediately (so an interrupted
    campaign keeps everything that finished). One store instance is meant
    to be owned by one driver process — concurrent *writers* from several
    processes are not coordinated (workers return results to the driver,
    which is the only writer).
    """

    RECORDS_NAME = "results.jsonl"
    TRACES_DIR = "traces"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._results: Dict[str, StoredResult] = {}
        self._failures: Dict[str, FailedRun] = {}
        self._load()

    # -- paths --------------------------------------------------------------

    @property
    def records_path(self) -> Path:
        return self.root / self.RECORDS_NAME

    @property
    def traces_dir(self) -> Path:
        return self.root / self.TRACES_DIR

    def trace_path(self, fingerprint: str) -> Path:
        return self.traces_dir / f"{fingerprint}.jsonl"

    # -- loading ------------------------------------------------------------

    def _load(self) -> None:
        if not self.records_path.exists():
            return
        with open(self.records_path, "r") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # Torn trailing line from a killed writer: everything
                    # before it is intact, so skip and carry on.
                    continue
                self._index(record)

    def _index(self, record: dict) -> None:
        kind = record.get("record")
        fingerprint = record.get("fingerprint")
        if not fingerprint:
            return
        if kind == "result":
            meta = RunMeta(fingerprint=fingerprint, **{
                key: value for key, value in record["meta"].items()
                if key in _META_FIELDS
            })
            result = result_from_dict(record["result"])
            if meta.engine is not None:
                result.engine = EngineChoice(meta.engine, meta.engine_declined)
            self._results[fingerprint] = StoredResult(
                fingerprint=fingerprint,
                spec=spec_from_dict(record["spec"]),
                result=result,
                meta=meta,
            )
            self._failures.pop(fingerprint, None)
        elif kind == "failure":
            failure = record["failure"]
            self._failures[fingerprint] = FailedRun(
                fingerprint=fingerprint,
                spec=spec_from_dict(record["spec"]),
                error_type=failure["error_type"],
                message=failure["message"],
                traceback=failure.get("traceback", ""),
                attempts=failure.get("attempts", 1),
                timed_out=failure.get("timed_out", False),
            )

    def iter_records(self) -> Iterator[dict]:
        """Raw record dicts in file order (torn trailing line skipped)."""
        if not self.records_path.exists():
            return
        with open(self.records_path, "r") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue

    # -- appending ----------------------------------------------------------

    def _append(self, record: dict) -> None:
        # One write call under an exclusive advisory lock: concurrent
        # appenders (parallel drivers sharing one store)
        # serialise per record, so the log can never hold an interleaved
        # torn line mid-file. O_APPEND places the write at the current
        # end even if another process appended between open and lock.
        data = json.dumps(record) + "\n"
        with open(self.records_path, "a") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.write(data)
                fh.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def add_result(
        self,
        fingerprint: str,
        spec: RunSpec,
        result: WorkloadResult,
        wall_seconds: Optional[float] = None,
    ) -> StoredResult:
        """Persist one completed run (and its telemetry trace, if any)."""
        meta = RunMeta.now(fingerprint, wall_seconds=wall_seconds, engine=result.engine)
        self._append(result_record(fingerprint, spec, result, meta))
        if result.telemetry is not None:
            self.traces_dir.mkdir(parents=True, exist_ok=True)
            result.telemetry.write(self.trace_path(fingerprint))
        stored = StoredResult(fingerprint=fingerprint, spec=spec, result=result, meta=meta)
        self._results[fingerprint] = stored
        self._failures.pop(fingerprint, None)
        return stored

    def add_failure(self, failure: FailedRun) -> None:
        """Persist one exhausted-retries failure record."""
        self._append(failure_record(failure))
        self._failures[failure.fingerprint] = failure

    # -- queries ------------------------------------------------------------

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._results

    def __len__(self) -> int:
        return len(self._results)

    def get(self, fingerprint: str) -> Optional[WorkloadResult]:
        stored = self._results.get(fingerprint)
        return stored.result if stored is not None else None

    def record_for(self, fingerprint: str) -> Optional[StoredResult]:
        return self._results.get(fingerprint)

    def fingerprints(self) -> List[str]:
        return list(self._results)

    def results(self) -> List[StoredResult]:
        return list(self._results.values())

    def failures(self) -> List[FailedRun]:
        return list(self._failures.values())

    def failure_for(self, fingerprint: str) -> Optional[FailedRun]:
        return self._failures.get(fingerprint)
