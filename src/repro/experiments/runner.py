"""Workload runner: stand-alone baselines + shared runs + metrics.

``run_workload`` is the single entry point every figure reproduction uses:
it resolves a mix, obtains per-program stand-alone IPCs (cached — the
``IPC^SP`` runs are scheme-independent given a baseline policy), runs the
shared machine under the requested scheme, and reports the paper's
metrics. Stand-alone runs use the same baseline replacement policy as the
scheme under test (timestamp LRU for the Vantage comparison, DIP for the
Section 5.6 study), matching the paper's normalisation.

Workloads resolve through :func:`repro.workloads.resolve_workload`:
mix names, benchmark lists, and ``"family:spec"`` references
(``"tenants:web8"``) all work; trace families (tenants, shared data)
dispatch to :func:`repro.tenancy.run.run_trace_workload`, which returns
the same :class:`WorkloadResult` (with the ``tenant_slo`` scorecard
attached for tenants).

Scheme diagnostics are reported as typed optional fields on
:class:`WorkloadResult` (``eviction_probabilities``, ``quotas``, ...).
Pass ``telemetry=True`` (or a pre-built recorder, or ``options=``
with :class:`~repro.experiments.options.RunOptions`) to attach a
:class:`~repro.telemetry.TelemetryRecorder` and get the full
per-interval trace in ``result.telemetry``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.cache.backends import build_cache
from repro.cpu.memory import MemoryModel
from repro.cpu.system import CoreResult, MultiCoreSystem, run_standalone
from repro.experiments.configs import MachineConfig
from repro.experiments.options import RunOptions
from repro.experiments.schemes import build_scheme
from repro.metrics import antt, fairness, ipc_throughput, weighted_speedup
from repro.metrics.tenancy import TenantSLOReport
from repro.telemetry import RunTelemetry, TelemetryRecorder
from repro.util.rng import derive_seed
from repro.workloads.benchmark import BenchmarkProfile
from repro.workloads.registry import TraceSource, resolve_workload

__all__ = [
    "WorkloadResult",
    "run_workload",
    "standalone_ipcs",
    "StandaloneIPCCache",
    "DEFAULT_STANDALONE_CACHE",
]


class StandaloneIPCCache:
    """Memo for the ``IPC^SP`` stand-alone runs.

    Keys are ``(profile, geometry, policy-kind, controllers, instructions,
    scale)`` — everything a stand-alone run's IPC depends on — so one cache
    instance can safely serve any number of shared runs. The module-level
    :data:`DEFAULT_STANDALONE_CACHE` is used unless a caller (or a
    :class:`~repro.experiments.options.RunOptions`) supplies its own,
    which is how tests isolate themselves without reaching into module
    globals.
    """

    def __init__(self) -> None:
        self._ipcs: Dict[tuple, float] = {}

    def get(self, key: tuple) -> Optional[float]:
        return self._ipcs.get(key)

    def store(self, key: tuple, ipc: float) -> None:
        self._ipcs[key] = ipc

    def clear(self) -> None:
        self._ipcs.clear()

    def keys(self) -> List[tuple]:
        return list(self._ipcs)

    def __contains__(self, key: tuple) -> bool:
        return key in self._ipcs

    def __len__(self) -> int:
        return len(self._ipcs)


#: Process-wide default memo (fork-started pool workers inherit it warm).
DEFAULT_STANDALONE_CACHE = StandaloneIPCCache()


@dataclass
class WorkloadResult:
    """Everything a figure reproduction needs from one shared run.

    The scheme-diagnostic fields after ``intervals`` are optional: each is
    ``None`` unless the scheme under test exposes it (PriSM reports
    probabilities, way-partitioners report quotas, Vantage reports forced
    evictions/demotions). ``telemetry`` is populated only when the run was
    made with ``telemetry=`` enabled, and ``tenant_slo`` only for
    multi-tenant workloads (see :mod:`repro.tenancy`).
    """

    mix: str
    scheme: str
    benchmarks: List[str]
    cores: List[CoreResult]
    standalone: List[float]
    antt: float
    fairness: float
    throughput: float
    weighted_speedup: float
    intervals: int
    victim_not_found_rate: Optional[float] = None
    probability_stats: Optional[List[dict]] = None
    eviction_probabilities: Optional[List[float]] = None
    forced_evictions: Optional[int] = None
    demotions: Optional[int] = None
    quotas: Optional[List[int]] = None
    targets: Optional[List[float]] = None
    telemetry: Optional[RunTelemetry] = None
    tenant_slo: Optional[TenantSLOReport] = None

    def shared_ipcs(self) -> List[float]:
        return [c.ipc for c in self.cores]

    def misses(self) -> List[int]:
        return [c.misses for c in self.cores]

    def slowdown(self, core: int) -> float:
        """``IPC^MP / IPC^SP`` of one core (1 = no slowdown)."""
        return self.cores[core].ipc / self.standalone[core]


def _standalone_policy_key(policy) -> str:
    """Cache key component for the baseline policy class + salient config."""
    return type(policy).__name__


def _machine_memory(config: MachineConfig) -> MemoryModel:
    """A fresh DRAM model matching ``config`` (controllers, banks, rows)."""
    return MemoryModel(
        num_controllers=config.num_controllers,
        banks_per_controller=getattr(config, "dram_banks", 1),
        row_blocks=getattr(config, "dram_row_blocks", 0),
    )


def _hierarchy_key(config: MachineConfig) -> tuple:
    """Memo-key component covering everything the hierarchy adds."""
    return (
        getattr(config, "l1_geometry", None),
        getattr(config, "l1_inclusive", False),
        getattr(config, "dram_banks", 1),
        getattr(config, "dram_row_blocks", 0),
    )


def standalone_ipcs(
    profiles: Sequence[BenchmarkProfile],
    config: MachineConfig,
    scheme: str = "lru",
    instructions: Optional[int] = None,
    cache: Optional[StandaloneIPCCache] = None,
) -> List[float]:
    """Per-program ``IPC^SP`` on the full cache (memoised).

    The stand-alone machine uses the full LLC of ``config``, its memory
    controllers, and the baseline policy the ``scheme`` registry entry
    pairs with the scheme under test. Results memoise into ``cache``
    (default: :data:`DEFAULT_STANDALONE_CACHE`).
    """
    instructions = instructions or config.instructions
    if cache is None:
        cache = DEFAULT_STANDALONE_CACHE
    results = []
    for profile in profiles:
        # A fresh policy instance per run (policies are stateful).
        _, policy = build_scheme(scheme, 1, [1.0])
        key = (
            profile.name,
            config.geometry,
            _standalone_policy_key(policy),
            config.num_controllers,
            instructions,
            config.workload_scale,
        ) + _hierarchy_key(config)
        ipc = cache.get(key)
        if ipc is None:
            core = run_standalone(
                profile,
                config.geometry,
                instructions,
                policy_factory=lambda policy=policy: policy,
                seed=derive_seed(777, "standalone", profile.name),
                scale=config.workload_scale,
                memory=_machine_memory(config),
                l1_geometry=config.l1_geometry,
                inclusive=config.l1_inclusive,
            )
            ipc = core.ipc
            cache.store(key, ipc)
        results.append(ipc)
    return results


def _build_run_cache(geometry, num_cores, policy, scheme_obj, backend, check, **kwargs):
    """Build a run's shared cache, plus its invariant checker if ``check``.

    The one place a run's checker is attached. The checker audits the
    engine-neutral ``cache.state()`` view, so it audits whichever engine
    ``backend`` selects. Returns ``(cache, checker)``; ``checker`` is
    ``None`` for unchecked runs.
    """
    cache, _ = build_cache(
        geometry, num_cores, policy=policy, scheme=scheme_obj, backend=backend,
        **kwargs,
    )
    if not check:
        return cache, None
    # Imported lazily: unchecked runs never touch the check package.
    from repro.check.invariants import attach_checker

    return cache, attach_checker(cache)


def _check_clusters(source, clusters: Optional[int]) -> None:
    """Reject ``clusters=`` for every workload kind but shared data."""
    if clusters is not None and source.kind != "shared":
        raise ValueError(
            f"clusters= applies to 'shared' workloads only; "
            f"{source.label!r} is kind {source.kind!r}"
        )


def _scheme_diagnostics(scheme_obj) -> dict:
    """Scheme-specific diagnostics as typed WorkloadResult field values."""
    fields = {}
    if scheme_obj is None:
        return fields
    if hasattr(scheme_obj, "victim_not_found_rate"):
        fields["victim_not_found_rate"] = scheme_obj.victim_not_found_rate()
    if hasattr(scheme_obj, "probability_stats"):
        fields["probability_stats"] = scheme_obj.probability_stats()
    if hasattr(scheme_obj, "eviction_probabilities"):
        fields["eviction_probabilities"] = list(scheme_obj.eviction_probabilities)
    if hasattr(scheme_obj, "forced_evictions"):
        fields["forced_evictions"] = scheme_obj.forced_evictions
        fields["demotions"] = scheme_obj.demotions
    if hasattr(scheme_obj, "quotas"):
        fields["quotas"] = list(scheme_obj.quotas)
    if hasattr(scheme_obj, "targets"):
        fields["targets"] = list(scheme_obj.targets)
    return fields


def _run_belady(
    label: str,
    profiles: Sequence[BenchmarkProfile],
    config: MachineConfig,
    sp_ipcs: List[float],
    seed: int,
    instructions: int,
    check: bool,
    backend: Optional[str],
) -> WorkloadResult:
    """The ``scheme="belady"`` path of :func:`run_workload`.

    Three steps: (1) run the machine under unmanaged LRU with
    ``record_trace=True`` to capture the post-L1 (LLC-visible) access
    stream; (2) replay that stream through the offline Belady/MIN cache;
    (3) reconstruct per-core timing in trace order
    (:func:`repro.check.belady.belady_workload_run`). The recording run
    uses ``backend``; with ``check=True`` it carries the invariant checker
    (including the inclusion invariant when the machine has an inclusive
    L1).
    """
    from repro.cache.replacement.lru import LRUPolicy
    from repro.check.belady import belady_workload_run

    rec_cache, checker = _build_run_cache(
        config.geometry, config.num_cores, LRUPolicy(), None, backend, check
    )
    system = MultiCoreSystem(
        rec_cache,
        profiles,
        seed=derive_seed(seed, "shared", label, "belady"),
        scale=config.workload_scale,
        memory=_machine_memory(config),
        l1_geometry=config.l1_geometry,
        inclusive=config.l1_inclusive,
        record_trace=True,
    )
    if checker is not None and config.l1_geometry is not None:
        checker.bind_hierarchy(system)
    system.run(instructions)
    if checker is not None:
        checker.check_now()
    result = belady_workload_run(
        system.recorded_trace,
        profiles,
        config.geometry,
        _machine_memory(config),
        instructions_per_core=instructions,
    )
    mp_ipcs = [c.ipc for c in result.cores]
    return WorkloadResult(
        mix=label,
        scheme="belady",
        benchmarks=[p.name for p in profiles],
        cores=result.cores,
        standalone=sp_ipcs,
        antt=antt(sp_ipcs, mp_ipcs),
        fairness=fairness(sp_ipcs, mp_ipcs),
        throughput=ipc_throughput(mp_ipcs),
        weighted_speedup=weighted_speedup(sp_ipcs, mp_ipcs),
        intervals=result.intervals,
    )


def run_workload(
    mix: Union[str, Sequence],
    config: MachineConfig,
    scheme: str = "lru",
    seed: Optional[int] = None,
    instructions: Optional[int] = None,
    scheme_kwargs: Optional[dict] = None,
    telemetry: Union[None, bool, TelemetryRecorder] = None,
    standalone_cache: Optional[StandaloneIPCCache] = None,
    options: Optional[RunOptions] = None,
    check: Optional[bool] = None,
    backend: Optional[str] = None,
    clusters: Optional[int] = None,
) -> WorkloadResult:
    """Run one mix under one scheme and report the paper's metrics.

    Args:
        mix: a mix name (``"Q7"``), a sequence of benchmark
            names/profiles, a ``"family:spec"`` workload reference
            (``"tenants:web8"``), or a ready
            :class:`~repro.workloads.registry.WorkloadSource`.
        config: the machine (see :func:`repro.experiments.configs.machine`).
        scheme: registry name (see :data:`repro.experiments.schemes.SCHEMES`).
        seed: top-level seed for streams and scheme PRNGs (default 0).
        instructions: per-core target override.
        scheme_kwargs: forwarded to the scheme factory (e.g.
            ``{"probability_bits": 6}`` or ``{"target_ipc_fraction": 0.8}``).
        telemetry: ``True`` to record a per-interval trace into
            ``result.telemetry``, or a pre-built
            :class:`~repro.telemetry.TelemetryRecorder` (e.g. one carrying
            a streaming sink).
        standalone_cache: where to memoise the ``IPC^SP`` runs (default:
            the process-wide :data:`DEFAULT_STANDALONE_CACHE`).
        options: a :class:`~repro.experiments.options.RunOptions`; supplies
            ``seed``/``instructions``/``telemetry``/``standalone_cache``/
            ``check``/``backend`` for any of those arguments left at
            ``None``. An argument given explicitly always wins.
        check: attach the invariant checker
            (:func:`repro.check.attach_checker`) to the shared cache and
            audit it once more after the run; raises
            :class:`~repro.check.InvariantViolation` on any inconsistency.
        backend: cache engine, ``"classic"`` or ``"vector"``; results are
            certified bit-exact either way (``repro-sim check fuzz
            --backend vector``). Configurations the vector engine cannot
            represent fall back to classic with a ``RuntimeWarning``.
        clusters: cluster-granular management for shared-data workloads
            (see :mod:`repro.clustering`); raises for workload kinds
            that do not support it.
    """
    if options is None:
        options = RunOptions()
    if seed is None:
        seed = options.seed
    if instructions is None:
        instructions = options.instructions
    if telemetry is None:
        telemetry = options.telemetry
    if standalone_cache is None:
        standalone_cache = options.standalone_cache
    if check is None:
        check = options.check
    if backend is None:
        backend = options.backend
    source = resolve_workload(mix)
    if isinstance(source, TraceSource):
        # Trace families replay through the trace driver (no timing
        # model); imported lazily to keep the package acyclic.
        from repro.tenancy.run import run_trace_workload

        return run_trace_workload(
            source,
            config,
            scheme,
            seed=seed,
            instructions=instructions,
            scheme_kwargs=scheme_kwargs,
            telemetry=telemetry,
            standalone_cache=standalone_cache,
            check=check,
            backend=backend,
            clusters=clusters,
        )
    _check_clusters(source, clusters)
    label, profiles = source.label, source.profiles()
    if len(profiles) != config.num_cores:
        raise ValueError(
            f"mix {label!r} has {len(profiles)} programs but the machine has "
            f"{config.num_cores} cores"
        )
    instructions = instructions or config.instructions
    sp_ipcs = standalone_ipcs(
        profiles, config, scheme=scheme, instructions=instructions,
        cache=standalone_cache,
    )

    if scheme == "belady":
        # Offline optimum: record a post-L1 trace under unmanaged LRU on
        # this machine, replay it through Belady/MIN, and reconstruct the
        # timing. Telemetry is not recorded on this path (there are no
        # allocation intervals to sample).
        return _run_belady(
            label, profiles, config, sp_ipcs, seed, instructions, check, backend
        )

    scheme_obj, policy = build_scheme(
        scheme, config.num_cores, sp_ipcs, **(scheme_kwargs or {})
    )
    cache, checker = _build_run_cache(
        config.geometry, config.num_cores, policy, scheme_obj, backend, check
    )
    recorder: Optional[TelemetryRecorder] = None
    if telemetry:
        recorder = (
            telemetry if isinstance(telemetry, TelemetryRecorder) else TelemetryRecorder()
        )
    system = MultiCoreSystem(
        cache,
        profiles,
        seed=derive_seed(seed, "shared", label, scheme),
        scale=config.workload_scale,
        memory=_machine_memory(config),
        l1_geometry=config.l1_geometry,
        inclusive=config.l1_inclusive,
        telemetry=recorder,
    )
    if checker is not None and config.l1_geometry is not None:
        checker.bind_hierarchy(system)
    result = system.run(instructions)
    if checker is not None:
        checker.check_now()

    mp_ipcs = [c.ipc for c in result.cores]
    return WorkloadResult(
        mix=label,
        scheme=scheme,
        benchmarks=[p.name for p in profiles],
        cores=result.cores,
        standalone=sp_ipcs,
        antt=antt(sp_ipcs, mp_ipcs),
        fairness=fairness(sp_ipcs, mp_ipcs),
        throughput=ipc_throughput(mp_ipcs),
        weighted_speedup=weighted_speedup(sp_ipcs, mp_ipcs),
        intervals=result.intervals,
        telemetry=recorder.result() if recorder is not None else None,
        **_scheme_diagnostics(scheme_obj),
    )
