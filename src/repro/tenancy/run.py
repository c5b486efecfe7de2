"""The trace-replay driver: tenant and shared-data workloads.

:func:`run_trace_workload` is the trace-family counterpart of
:func:`repro.experiments.runner.run_workload` — same signature shape,
same :class:`~repro.experiments.runner.WorkloadResult` out — for any
:class:`~repro.workloads.registry.TraceSource`: the memcached tenants of
:mod:`repro.workloads.tenants` and the shared-data cores of
:mod:`repro.workloads.shared`. The "programs" are trace owners and the
"CPU" is a service-cost model:

- owner index = core index, so every scheme (PriSM-H/F/Q, the
  cliff-aware baseline, unmanaged LRU) runs unchanged — eviction
  probability *is* the per-owner memory-reclaim pressure;
- performance counters come from :class:`~repro.tenancy.perf.
  TenantPerfProvider` (hit/miss service costs), giving PriSM-F and
  PriSM-Q the ``cpi``/``ipc`` signals they normally read from the
  timing model;
- stand-alone baselines (:func:`trace_standalone`) replay each core
  alone on the full cache under the scheme's baseline policy (memoised
  like the ``IPC^SP`` runs), yielding both the normalisation IPCs and
  the solo hit rates;
- replay is chunked through ``access_many`` on pre-encoded traces, so
  the classic and vector engines consume byte-identical streams and
  produce bit-identical results.

Two things stay family-specific. Tenant runs also build the
``tenant_slo`` scorecard (solo hit rates set the SLO targets) and track
miss runs. Shared-data runs accept ``clusters``, which engages
:mod:`repro.clustering`: the driver profiles a short prefix of the
trace, groups cores by hit-curve similarity into at most ``clusters``
clusters, and builds the scheme and cache at cluster width with the
``core_map`` installed — the engine translates core ids at the access
boundary, so ``E_i``/``T_i``, quantization and the fallback paths all
run per cluster, unchanged.

Accounting vs reporting: the cache's counters are *accounting*-indexed
(K clusters wide under a ``core_map``). Per-core metrics are recovered
from the replay outputs: each chunk's hit mask is binned by the
original core ids before translation, so per-core hit/miss totals are
exact, not estimates.

``check=True`` attaches the invariant checker to whichever engine
``backend`` selects and turns on sharer-bitmask tracking, so the
``sharer-consistency`` invariant (and, on the classic engine, which keeps
fillers, ``cluster-conservation`` under a ``core_map``) is audited too.

Interval cadence: scheme runs use the engines' natural miss-driven
interval machinery. Unmanaged (scheme-less) runs never fire intervals,
so the driver records a telemetry sample at every generation-chunk
boundary instead — a fixed request window, identical across backends —
which keeps SLO-attainment defined for the LRU baseline too.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Optional, Sequence, Union

import numpy as np

from repro.cache.backends import build_cache
from repro.cache.encode import encode_accesses
from repro.clustering import derive_core_map
from repro.cpu.system import CoreResult
from repro.experiments.configs import MachineConfig
from repro.experiments.runner import (
    DEFAULT_STANDALONE_CACHE,
    StandaloneIPCCache,
    WorkloadResult,
    _build_run_cache,
    _check_clusters,
    _scheme_diagnostics,
)
from repro.experiments.schemes import build_scheme
from repro.metrics import antt, fairness, ipc_throughput, weighted_speedup
from repro.metrics.tenancy import MissRunTracker, TenantSLOReport
from repro.telemetry import TelemetryRecorder
from repro.tenancy.perf import TenantPerfProvider
from repro.util.rng import derive_seed
from repro.workloads.registry import WorkloadSource, resolve_workload

__all__ = [
    "run_trace_workload",
    "trace_standalone",
    "run_tenant_workload",
    "tenant_standalone",
]


def _identity_digest(source: WorkloadSource) -> str:
    """Short stable digest of a workload identity, for memo keys."""
    payload = json.dumps(source.identity(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _cost(hits: int, misses: int, provider: TenantPerfProvider) -> float:
    return hits * provider.hit_cost + misses * provider.miss_cost


def trace_standalone(
    source,
    config: MachineConfig,
    scheme: str = "lru",
    total_requests: Optional[int] = None,
    seed: int = 0,
    cache: Optional[StandaloneIPCCache] = None,
    backend: str = "classic",
):
    """Per-core solo baselines on the full cache (memoised).

    Each core replays its own request budget (its share of the shared
    run) alone, under the baseline replacement policy the scheme
    registry pairs with ``scheme``. Returns ``(ipcs, hit_rates)`` —
    service-cost IPC analogues for metric normalisation, hit rates for
    SLO targets. Results memoise into ``cache`` keyed by the workload
    identity digest, core, geometry, policy and request budget.
    """
    source = resolve_workload(source)
    total = total_requests or config.instructions
    if cache is None:
        cache = DEFAULT_STANDALONE_CACHE
    digest = _identity_digest(source)
    ipcs, hit_rates = [], []
    for index, name in enumerate(source.core_names):
        _, policy = build_scheme(scheme, 1, [1.0])
        requests = source.solo_requests(index, total)
        key = (
            f"{source.kind}:{digest}:{name}",
            config.geometry,
            type(policy).__name__,
            config.num_controllers,
            requests,
            config.workload_scale,
            seed,
        )
        ipc = cache.get(key + ("ipc",))
        rate = cache.get(key + ("hit_rate",))
        if ipc is None or rate is None:
            solo_cache, _ = build_cache(
                config.geometry, 1, policy=policy, scheme=None, backend=backend
            )
            provider = TenantPerfProvider(solo_cache)
            for cores, addrs in source.core_chunks(index, requests, seed):
                solo_cache.access_many(encode_accesses(cores, addrs, config.geometry))
            hits = solo_cache.stats.hits[0]
            misses = solo_cache.stats.misses[0]
            served = hits + misses
            cycles = _cost(hits, misses, provider)
            ipc = served / cycles if cycles else 0.0
            rate = hits / served if served else 0.0
            cache.store(key + ("ipc",), ipc)
            cache.store(key + ("hit_rate",), rate)
        ipcs.append(ipc)
        hit_rates.append(rate)
    return ipcs, hit_rates


def _cluster_standalone(sp_ipcs: Sequence[float], core_map: Sequence[int]) -> list:
    """Per-cluster stand-alone IPCs: the mean of the member cores'.

    Cores within a cluster were grouped for having *similar* curves, so
    the mean is the natural cluster-level normaliser for PriSM-Q's
    target computation.
    """
    num_clusters = max(core_map) + 1
    sums = [0.0] * num_clusters
    counts = [0] * num_clusters
    for core, group in enumerate(core_map):
        sums[group] += sp_ipcs[core]
        counts[group] += 1
    return [s / c for s, c in zip(sums, counts)]


def run_trace_workload(
    source,
    config: MachineConfig,
    scheme: str = "lru",
    seed: int = 0,
    instructions: Optional[int] = None,
    scheme_kwargs: Optional[dict] = None,
    telemetry: Union[bool, TelemetryRecorder] = False,
    standalone_cache: Optional[StandaloneIPCCache] = None,
    check: bool = False,
    backend: str = "classic",
    clusters: Optional[int] = None,
) -> WorkloadResult:
    """Run one trace workload under one scheme; report the paper's metrics.

    Args:
        source: a :class:`~repro.workloads.registry.TraceSource` or a
            ``"tenants:<preset>"``/``"shared:<preset>"`` reference.
        config: the machine; ``config.num_cores`` must equal the source's
            core count, and ``instructions`` (or ``config.instructions``)
            is the total shared request budget.
        clusters: run PriSM at cluster granularity — profile a trace
            prefix, group cores into at most this many clusters by
            hit-curve similarity, and manage clusters instead of cores
            (``None`` = per-core management; shared-data sources only).
        scheme/seed/instructions/scheme_kwargs/telemetry/standalone_cache/
            check/backend: as in
            :func:`~repro.experiments.runner.run_workload`.

    Returns:
        A :class:`~repro.experiments.runner.WorkloadResult` whose cores
        are trace owners (instructions = requests served, cycles =
        service cost); for tenant sources its ``tenant_slo`` field
        carries the per-tenant SLO scorecard.
    """
    source = resolve_workload(source)
    _check_clusters(source, clusters)
    if source.num_cores != config.num_cores:
        raise ValueError(
            f"mix {source.label!r} has {source.num_cores} cores but the "
            f"machine has {config.num_cores} cores"
        )
    num_cores = source.num_cores
    tenants = source.kind == "tenants"
    total_requests = instructions or config.instructions
    sp_ipcs, solo_hit_rates = trace_standalone(
        source,
        config,
        scheme=scheme,
        total_requests=total_requests,
        seed=seed,
        cache=standalone_cache,
        backend=backend,
    )

    core_map = None
    if clusters is not None:
        # The map depends only on the source, geometry, clusters and seed,
        # so the scheme calls of one memo share one profile.
        memo = standalone_cache if standalone_cache is not None else DEFAULT_STANDALONE_CACHE
        key = (f"{source.kind}:{_identity_digest(source)}", config.geometry, clusters, seed,
               "core_map")
        if key not in memo:
            memo.store(key, derive_core_map(source, config.geometry, clusters, seed))
        core_map = memo.get(key)
        if max(core_map) + 1 == num_cores:
            core_map = None  # clustering degenerated to per-core management
    acct_cores = max(core_map) + 1 if core_map is not None else num_cores
    acct_standalone = (
        _cluster_standalone(sp_ipcs, core_map) if core_map is not None else sp_ipcs
    )

    scheme_obj, policy = build_scheme(
        scheme, acct_cores, acct_standalone, **(scheme_kwargs or {})
    )
    cache, checker, engine = _build_run_cache(
        config.geometry, acct_cores, policy, scheme_obj, backend, check,
        core_map=core_map, track_sharers=check,
    )

    provider = TenantPerfProvider(cache)
    if scheme_obj is not None and hasattr(scheme_obj, "perf"):
        # PriSM-F/Q read ctx.perf every interval; the provider stands in
        # for the timing model with the service-cost analogues.
        scheme_obj.perf = provider
    labels = (
        [f"cluster{g}" for g in range(acct_cores)]
        if core_map is not None
        else source.core_names
    )
    recorder = (
        telemetry if isinstance(telemetry, TelemetryRecorder) else TelemetryRecorder()
    )
    recorder.bind_cache(cache, benchmarks=labels, perf=provider)

    # Per-REAL-core tallies, binned from the replay outputs before the
    # engine's core->cluster translation (the cache's own stats are
    # accounting-indexed).
    core_hits = np.zeros(num_cores, dtype=np.int64)
    core_misses = np.zeros(num_cores, dtype=np.int64)
    miss_runs = MissRunTracker(num_cores) if tenants else None
    shared_seed = derive_seed(seed, "shared", source.label, scheme)
    window_intervals = scheme_obj is None  # unmanaged runs never fire intervals
    start = time.perf_counter()
    for cores, addrs in source.chunks(total_requests, shared_seed):
        trace = encode_accesses(cores, addrs, config.geometry)
        out = cache.access_many(trace, collect=True)
        hit = np.asarray(out.hit, dtype=bool)
        core_hits += np.bincount(cores[hit], minlength=num_cores)
        core_misses += np.bincount(cores[~hit], minlength=num_cores)
        if miss_runs is not None:
            miss_runs.update(cores, hit)
        if window_intervals:
            recorder.record_interval(cache)
            cache.stats.reset_interval()
            cache.intervals_completed += 1
    run_telemetry = recorder.finalize(
        time.perf_counter() - start, accesses=total_requests
    )
    if checker is not None:
        checker.check_now()

    hits = core_hits.tolist()
    misses = core_misses.tolist()
    num_blocks = config.geometry.num_blocks
    cores_out = []
    mp_ipcs = []
    for index, name in enumerate(source.core_names):
        served = hits[index] + misses[index]
        cycles = _cost(hits[index], misses[index], provider)
        ipc = served / cycles if cycles else 0.0
        mp_ipcs.append(ipc)
        if core_map is not None:
            # Under clustering occupancy is owned per cluster; report an
            # even split across members. (The classic engine could scan
            # exact per-filler charges, but the vector engine does not
            # materialise fillers, and the fingerprint certifies results
            # as backend-invariant — so both report the split.)
            group = core_map[index]
            occupancy = cache.occupancy[group] / core_map.count(group)
        else:
            occupancy = cache.occupancy[index]
        cores_out.append(
            CoreResult(
                name=name,
                ipc=ipc,
                cpi=cycles / served if served else 0.0,
                llc_stall_cpi=(
                    misses[index] * (provider.miss_cost - provider.hit_cost) / served
                    if served
                    else 0.0
                ),
                instructions=served,
                cycles=cycles,
                hits=hits[index],
                misses=misses[index],
                occupancy_at_finish=occupancy / num_blocks,
            )
        )

    slo = None
    if tenants:
        slo = TenantSLOReport.build(
            source.core_names,
            hits,
            misses,
            solo_hit_rates,
            run_telemetry.samples,
            miss_runs,
        )
    return WorkloadResult(
        mix=source.label,
        scheme=scheme,
        benchmarks=source.core_names,
        cores=cores_out,
        standalone=sp_ipcs,
        antt=antt(sp_ipcs, mp_ipcs),
        fairness=fairness(sp_ipcs, mp_ipcs),
        throughput=ipc_throughput(mp_ipcs),
        weighted_speedup=weighted_speedup(sp_ipcs, mp_ipcs),
        intervals=cache.intervals_completed,
        telemetry=run_telemetry if telemetry else None,
        tenant_slo=slo,
        engine=engine,
        **_scheme_diagnostics(scheme_obj),
    )


# The tenant-family names of the driver (the benchmark tracer in
# benchmarks/e2e/layers.py times the driver under them).
run_tenant_workload = run_trace_workload
tenant_standalone = trace_standalone
