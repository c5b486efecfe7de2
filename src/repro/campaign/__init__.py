"""Campaign subsystem: content-addressed, resumable experiment sweeps.

Large cache-partitioning studies are grid-shaped — scheme × mix × seed ×
machine — and every cell is an independent, deterministic
:class:`~repro.experiments.parallel.RunSpec`. This package treats each
cell as a cacheable, retryable unit of work:

- :mod:`repro.campaign.fingerprint` — the canonical content address of a
  run (stable SHA-256 of everything its outcome depends on);
- :mod:`repro.campaign.store` — :class:`ResultStore`, an append-only
  JSONL log of results and typed :class:`FailedRun` records that
  round-trips :class:`~repro.experiments.runner.WorkloadResult`s exactly;
- :mod:`repro.campaign.executor` — the one dispatch loop: per-spec
  fault isolation on warm forked workers or, via
  :mod:`repro.campaign.stdio`, on subprocess and ssh workers (an
  exception, crash or timeout costs one attempt, not the grid; the
  worker it touched is replaced);
- :mod:`repro.campaign.runner` — :class:`CampaignRunner`, the
  skip-completed / execute-pending / persist-incrementally loop;
- :mod:`repro.campaign.campaign` — :class:`Campaign`, the saved-manifest
  API behind ``repro-sim campaign run/status/resume/export``.

See ``docs/campaigns.md`` for the store layout, fingerprint stability
guarantees, and resume semantics.
"""

from repro.campaign.campaign import Campaign, CampaignStatus
from repro.campaign.executor import SpecError, SpecOutcome, iter_isolated
from repro.campaign.fingerprint import (
    FINGERPRINT_VERSION,
    canonical_payload,
    spec_fingerprint,
)
from repro.campaign.runner import CampaignRun, CampaignRunner, cache_hit
from repro.campaign.store import (
    FailedRun,
    ResultStore,
    RunMeta,
    StoredResult,
)

__all__ = [
    "Campaign",
    "CampaignStatus",
    "CampaignRun",
    "CampaignRunner",
    "cache_hit",
    "ResultStore",
    "StoredResult",
    "RunMeta",
    "FailedRun",
    "SpecError",
    "SpecOutcome",
    "iter_isolated",
    "spec_fingerprint",
    "canonical_payload",
    "FINGERPRINT_VERSION",
]
