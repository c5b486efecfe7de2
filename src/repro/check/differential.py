"""Differential fuzzing: the fast engine vs. the naive reference.

A case is a (scheme, geometry, seed) triple plus an access-stream length;
:func:`run_case` builds the optimised engine through the real scheme
registry and the oracle through :func:`repro.check.reference.build_reference`,
replays the same synthetic stream through both and demands **exact**
equality:

- per access: hit/miss, set index, evicted core and evicted block address;
- per interval boundary: the access that fired it, the installed
  eviction distribution ``E_i`` and the allocation targets ``T_i``,
  float-for-float;
- at end of run: the full resident contents (every block's set, tag,
  owner and, when tracked, sharers, from the engine-neutral ``state()``
  view), occupancy and its recount, per-core hit/miss/eviction counters,
  the replacement/fallback counters and (for DIP) the PSEL state.

Both simulators stand in for the same idealised hardware — the same
seeded PRNG streams (via :mod:`repro.util.rng` labels) and the same float
arithmetic — so any inequality at all is a bug in one of them, never
tolerance noise. Comparison stops at the first divergence: everything
after it is downstream corruption, not signal.

PriSM-F and PriSM-Q read performance counters the raw cache does not
have; :class:`SyntheticPerf` supplies deterministic per-core CPI/IPC
figures so the fuzzer can exercise Algorithms 2 and 3 without dragging in
the timing model.

The ``backend`` axis points the same machinery at the numpy batch engine:
``run_case(case, backend="vector")`` certifies
:class:`~repro.cache.vector.VectorCache` twice per case — batched (via
``access_many`` with a case-derived chunk size) against the classic
engine, then against the reference — with identical per-access,
per-boundary and end-of-run equality demands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.check.reference import REFERENCE_SCHEMES, ReferenceCache, build_reference
from repro.experiments.schemes import build_scheme
from repro.util.rng import make_rng

__all__ = [
    "CaseResult",
    "DifferentialCase",
    "Divergence",
    "SyntheticPerf",
    "compare_batched",
    "compare_run",
    "fuzz",
    "make_stream",
    "random_case",
    "run_case",
]

#: Schemes whose allocation policy reads performance counters.
_NEEDS_PERF = ("prism-f", "prism-q")
#: Schemes whose target IPC derives from stand-alone IPCs.
_NEEDS_STANDALONE = ("prism-q",)


class SyntheticPerf:
    """Deterministic stand-in for the timing model's per-core counters.

    Stateless: the per-core CPI, IPC and LLC-stall figures are fixed at
    construction from ``make_rng(seed, "check-perf")``, so two instances
    built from the same ``(num_cores, seed)`` — or one instance shared by
    both simulators — always report identical values.
    """

    def __init__(self, num_cores: int, seed: int = 0) -> None:
        rng = make_rng(seed, "check-perf")
        self._cpi = [0.8 + 3.0 * rng.random() for _ in range(num_cores)]
        self._llc_fraction = [0.1 + 0.7 * rng.random() for _ in range(num_cores)]

    def cpi(self, core: int) -> float:
        return self._cpi[core]

    def ipc(self, core: int) -> float:
        return 1.0 / self._cpi[core]

    def llc_stall_cpi(self, core: int) -> float:
        return self._cpi[core] * self._llc_fraction[core]


@dataclass(frozen=True)
class DifferentialCase:
    """One fuzz case: scheme, geometry, stream shape and seeds.

    The shared-ownership axes (`sharing`/`sharing_degree`/`track_sharers`)
    and the cluster axis (`core_map`) default to the historical behaviour
    — a 30% global shared pool, no sharer masks, no clustering — so the
    original case space is a strict subset of the new one.
    """

    scheme: str
    num_cores: int = 4
    num_sets: int = 8
    assoc: int = 4
    seed: int = 0
    accesses: int = 2000
    scheme_kwargs: Optional[dict] = None
    #: Fraction of accesses aimed at a shared pool (cross-core reuse).
    sharing: float = 0.3
    #: Cores per sharing group; 0 = one global pool (the historical mix).
    sharing_degree: int = 0
    #: Maintain and compare per-block sharer bitmasks across simulators.
    track_sharers: bool = False
    #: Cluster map (real core -> accounting group); ``None`` = identity.
    core_map: Optional[Tuple[int, ...]] = None

    @property
    def acct_cores(self) -> int:
        """Accounting width: clusters when mapped, else cores."""
        return max(self.core_map) + 1 if self.core_map else self.num_cores

    @property
    def geometry(self) -> CacheGeometry:
        return CacheGeometry(
            self.num_sets * self.assoc * 64, block_bytes=64, assoc=self.assoc
        )


@dataclass(frozen=True)
class Divergence:
    """One engine-vs-reference disagreement.

    ``index`` is the 0-based access at which it was detected, or ``-1``
    for end-of-run state comparisons.
    """

    index: int
    what: str
    engine: object
    reference: object

    def __str__(self) -> str:
        where = f"access {self.index}" if self.index >= 0 else "end of run"
        return (
            f"{self.what} diverged at {where}: "
            f"engine {self.engine!r} != reference {self.reference!r}"
        )


@dataclass
class CaseResult:
    """Outcome of one differential case."""

    case: DifferentialCase
    divergences: List[Divergence] = field(default_factory=list)
    accesses_run: int = 0
    intervals: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def make_stream(case: DifferentialCase) -> List[Tuple[int, int]]:
    """Generate the case's ``(core, block_addr)`` access stream.

    A three-way address mix per access — a small per-core hot pool (hits
    and stable ownership), a shared pool (cross-core ownership churn, the
    food of the fallback paths) and cold random addresses (misses on full
    sets, so replacements and interval boundaries keep firing).

    ``case.sharing`` sets the shared band's width; ``case.sharing_degree``
    splits the single global pool into per-group pools of that many
    adjacent cores (the shared-data family's access shape). The defaults
    reproduce the historical stream byte for byte.
    """
    rng = make_rng(case.seed, "check-stream")
    num_blocks = case.num_sets * case.assoc
    hot_pools = [
        [rng.getrandbits(20) for _ in range(max(1, num_blocks // case.num_cores))]
        for _ in range(case.num_cores)
    ]
    degree = case.sharing_degree
    num_pools = 1 if degree <= 0 else (case.num_cores + degree - 1) // degree
    shared_pools = [
        [rng.getrandbits(20) for _ in range(max(1, num_blocks // 2))]
        for _ in range(num_pools)
    ]
    shared_band = 0.45 + case.sharing
    stream = []
    for _ in range(case.accesses):
        core = rng.randrange(case.num_cores)
        region = rng.random()
        if region < 0.45:
            pool = hot_pools[core]
            addr = pool[rng.randrange(len(pool))]
        elif region < shared_band:
            pool = shared_pools[core // degree if degree > 0 else 0]
            addr = pool[rng.randrange(len(pool))]
        else:
            addr = rng.getrandbits(20)
        stream.append((core, addr))
    return stream


def compare_run(
    cache: SharedCache,
    reference: ReferenceCache,
    stream: Sequence[Tuple[int, int]],
) -> List[Divergence]:
    """Replay ``stream`` through both simulators per access; return the divergences.

    Same comparison as :func:`compare_batched`: the first per-access or
    per-boundary disagreement, else every end-of-run difference.
    """
    return _compare(
        _replay_oracle(cache, stream), _replay_oracle(reference, stream),
        cache, reference,
    )


class _BoundaryProbe:
    """Telemetry stand-in capturing ``(index, k, E, T)`` at every boundary.

    Both engines call ``record_interval`` from inside their boundary
    handler, after the scheme reallocated and before
    ``intervals_completed`` increments, with every access up to the
    boundary's counted — so ``index``, the accesses counted so far minus
    one, is the access that fired the boundary, as in a per-access replay.
    """

    def __init__(self) -> None:
        self.snapshots: List[tuple] = []

    def note_alloc_seconds(self, seconds: float) -> None:
        pass

    def record_interval(self, cache) -> None:
        stats = cache.stats
        self.snapshots.append(
            (
                sum(stats.hits) + sum(stats.misses) - 1,
                cache.intervals_completed + 1,
            )
            + _scheme_et(cache)
        )


def _scheme_et(sim) -> tuple:
    """Current ``(E, T)`` of a simulator's scheme (engine or reference)."""
    scheme = sim.scheme
    if hasattr(scheme, "eviction_probabilities"):
        return (list(scheme.eviction_probabilities), list(scheme.targets))
    return (list(scheme.probabilities), list(scheme.targets))


def _replay_oracle(oracle, stream: Sequence[Tuple[int, int]]):
    """Per-access replay of a simulator (classic engine or reference).

    Returns the per-access result tuples and the boundary snapshots in
    the shape :class:`_BoundaryProbe` records.
    """
    tuples = []
    boundaries = []
    seen = 0
    has_scheme = oracle.scheme is not None
    for index, (core, addr) in enumerate(stream):
        tuples.append(tuple(oracle.access(core, addr)))
        if has_scheme and oracle.intervals_completed > seen:
            seen = oracle.intervals_completed
            boundaries.append((index, seen) + _scheme_et(oracle))
    return tuples, boundaries


def _end_state(sim) -> dict:
    """End-of-run state of any simulator, keyed for comparison.

    ``resident`` is the full resident contents from ``sim.state()``;
    ``charges`` appears only where the simulator keeps fillers.
    """
    view = sim.state()
    stats = getattr(sim, "stats", sim)  # the reference keeps flat counters
    state = {
        "occupancy": view.occupancy,
        "recount": view.recount(),
        "resident": view.rows(),
        "intervals_completed": sim.intervals_completed,
        "hits": list(stats.hits),
        "misses": list(stats.misses),
        "evictions": list(stats.evictions),
    }
    scheme = sim.scheme
    if scheme is not None:
        manager = getattr(scheme, "manager", scheme)
        state["replacements"] = manager.replacements
        state["victim_not_found"] = manager.victim_not_found
    psel = getattr(sim.policy, "psel", None)
    if psel is not None:
        state["psel"] = psel
    if view.filler is not None:
        state["charges"] = view.charges()
    return state


_BOUNDARY_FIELDS = ("boundary access", "interval index", "eviction_probabilities", "targets")


def _compare(engine_run, oracle_run, engine, oracle, label: str = "") -> List[Divergence]:
    """Compare two replays: per access, then per boundary, then end state."""
    (e_tuples, e_bounds), (o_tuples, o_bounds) = engine_run, oracle_run
    for index, (engine_tuple, oracle_tuple) in enumerate(zip(e_tuples, o_tuples)):
        if engine_tuple != oracle_tuple:
            return [Divergence(index, f"{label}access", engine_tuple, oracle_tuple)]
    for e_bound, o_bound in zip(e_bounds, o_bounds):
        for what, e_value, o_value in zip(_BOUNDARY_FIELDS, e_bound, o_bound):
            if e_value != o_value:
                where = f"{label}{what}@interval{o_bound[1]}"
                return [Divergence(o_bound[0], where, e_value, o_value)]
    if len(e_bounds) != len(o_bounds):
        return [
            Divergence(-1, f"{label}interval boundaries", len(e_bounds), len(o_bounds))
        ]
    engine_state = _end_state(engine)
    oracle_state = _end_state(oracle)
    return [
        Divergence(-1, f"{label}{what}", engine_state[what], oracle_state[what])
        for what in sorted(set(engine_state) & set(oracle_state))
        if engine_state[what] != oracle_state[what]
    ]


def compare_batched(
    engine,
    oracle,
    stream: Sequence[Tuple[int, int]],
    label: str = "",
    slabs: int = 3,
) -> List[Divergence]:
    """Batched engine vs per-access oracle: same checks as :func:`compare_run`.

    The oracle (classic engine or reference) replays per access, snapshotting
    ``E``/``T`` at each boundary; ``engine`` replays the same stream through
    :meth:`access_many` in ``slabs`` batch calls (exercising state carry-over
    between calls) with a boundary probe attached. Per-access results, the
    ordered boundary snapshots (with the access that fired each), and the
    end-of-run state must all match exactly.
    """
    from repro.cache.encode import encode_trace

    oracle_run = _replay_oracle(oracle, stream)
    probe = _BoundaryProbe()
    if engine.scheme is not None:
        engine.set_telemetry(probe)
    e_tuples = []
    n = len(stream)
    cut = max(1, n // max(1, slabs))
    for start in range(0, n, cut):
        out = engine.access_many(
            encode_trace(stream[start : start + cut], engine.geometry),
            collect=True,
        )
        e_tuples.extend(map(tuple, out))
    return _compare(
        (e_tuples, probe.snapshots), oracle_run, engine, oracle, label
    )


def _build_engine(case: DifferentialCase, standalone_ipcs, perf) -> SharedCache:
    kwargs = dict(case.scheme_kwargs or {})
    scheme, policy = build_scheme(
        case.scheme, case.acct_cores, standalone_ipcs, **kwargs
    )
    cache = SharedCache(
        case.geometry,
        case.acct_cores,
        policy=policy,
        core_map=case.core_map,
        track_sharers=case.track_sharers,
    )
    if scheme is not None:
        scheme.perf = perf
        cache.set_scheme(scheme)
    return cache


def _build_vector_engine(case: DifferentialCase, standalone_ipcs, perf):
    from repro.cache.vector import VectorCache

    kwargs = dict(case.scheme_kwargs or {})
    scheme, policy = build_scheme(
        case.scheme, case.acct_cores, standalone_ipcs, **kwargs
    )
    if scheme is not None:
        scheme.perf = perf
    # A case-derived chunk so the fuzzer also sweeps batch granularity
    # (tiny chunks maximise boundary/carry-over coverage).
    chunk = None if case.seed % 3 == 0 else 2 + case.seed % 97
    return VectorCache(
        case.geometry,
        case.acct_cores,
        policy=policy,
        scheme=scheme,
        chunk=chunk,
        core_map=case.core_map,
        track_sharers=case.track_sharers,
    )


def run_case(case: DifferentialCase, backend: str = "classic") -> CaseResult:
    """Build the simulators for ``case``, replay the stream, compare.

    ``backend="classic"`` replays the classic engine against the
    reference per access. ``backend="vector"`` certifies the vector
    engine twice over: batched against the classic engine, then (on a
    fresh engine) batched against the reference.
    """
    # Schemes, perf counters and stand-alone IPCs are all sized by the
    # accounting width: under clustering PriSM manages clusters, not cores.
    perf = (
        SyntheticPerf(case.acct_cores, case.seed)
        if case.scheme in _NEEDS_PERF
        else None
    )
    standalone_ipcs = None
    if case.scheme in _NEEDS_STANDALONE:
        rng = make_rng(case.seed, "check-standalone")
        standalone_ipcs = [0.5 + rng.random() for _ in range(case.acct_cores)]

    stream = make_stream(case)
    reference = build_reference(
        case.scheme,
        case.acct_cores,
        case.geometry,
        standalone_ipcs=standalone_ipcs,
        scheme_kwargs=case.scheme_kwargs,
        perf=perf,
        core_map=case.core_map,
        track_sharers=case.track_sharers,
    )
    if backend == "vector":
        engine = _build_vector_engine(case, standalone_ipcs, perf)
        classic = _build_engine(case, standalone_ipcs, perf)
        divergences = compare_batched(engine, classic, stream, label="vs-classic ")
        if not divergences:
            engine = _build_vector_engine(case, standalone_ipcs, perf)
            divergences = compare_batched(
                engine, reference, stream, label="vs-reference "
            )
    elif backend == "classic":
        cache = _build_engine(case, standalone_ipcs, perf)
        divergences = compare_run(cache, reference, stream)
    else:
        raise ValueError(f"unknown backend {backend!r} (classic or vector)")
    return CaseResult(
        case=case,
        divergences=divergences,
        accesses_run=len(stream),
        intervals=reference.intervals_completed,
    )


def random_case(
    rng,
    schemes: Optional[Sequence[str]] = None,
    sharing: bool = False,
) -> DifferentialCase:
    """Draw one random case from ``rng`` (a ``random.Random``).

    ``sharing=True`` additionally sweeps the shared-ownership and cluster
    axes: scale-out core counts, grouped sharing pools of varying degree
    and width, sharer-bitmask tracking, and random (canonicalised)
    cluster maps. With the default ``sharing=False`` the draw sequence —
    and therefore every historical case — is unchanged.
    """
    schemes = tuple(schemes) if schemes else tuple(sorted(REFERENCE_SCHEMES))
    name = schemes[rng.randrange(len(schemes))]
    num_cores = rng.randrange(2, 7)
    assoc = (2, 4, 8)[rng.randrange(3)]
    num_sets = (2, 4, 8, 16)[rng.randrange(4)]
    kwargs = {}
    if name.startswith("prism"):
        kwargs["seed"] = rng.getrandbits(16)
        if rng.random() < 0.5:
            kwargs["fallback"] = "paper"
        if rng.random() < 0.3:
            kwargs["probability_bits"] = (4, 8)[rng.randrange(2)]
        if rng.random() < 0.3:
            kwargs["bias_correction"] = False
        if rng.random() < 0.3:
            kwargs["sample_shift"] = 0
    elif name == "dip":
        kwargs["seed"] = rng.getrandbits(16)
        if rng.random() < 0.3:
            kwargs["leader_sets"] = 2
    extra = {}
    if sharing:
        if rng.random() < 0.3:
            num_cores = (8, 16, 32)[rng.randrange(3)]
        if rng.random() < 0.6:
            extra["track_sharers"] = True
        if rng.random() < 0.5:
            extra["sharing_degree"] = (2, 3, 4)[rng.randrange(3)]
            extra["sharing"] = (0.15, 0.3, 0.5)[rng.randrange(3)]
        if rng.random() < 0.5:
            # Random surjective cluster map: draw raw group labels, then
            # relabel by first appearance so ids are dense in [0, K).
            raw_k = rng.randrange(1, num_cores + 1)
            raw = [rng.randrange(raw_k) for _ in range(num_cores)]
            relabel: dict = {}
            extra["core_map"] = tuple(
                relabel.setdefault(g, len(relabel)) for g in raw
            )
    return DifferentialCase(
        scheme=name,
        num_cores=num_cores,
        num_sets=num_sets,
        assoc=assoc,
        seed=rng.getrandbits(32),
        accesses=rng.randrange(400, 2501),
        scheme_kwargs=kwargs or None,
        **extra,
    )


def fuzz(
    cases: int = 200,
    seed: int = 0,
    schemes: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    backend: str = "classic",
    sharing: bool = False,
) -> List[CaseResult]:
    """Run ``cases`` random differential cases; return every result.

    The case stream is fully determined by ``seed`` (via
    ``make_rng(seed, "check-fuzz")``), so a failing campaign reproduces
    exactly from its seed. ``backend`` selects the engine under test
    (see :func:`run_case`); the drawn cases are identical either way.
    ``sharing`` enables the shared-ownership and cluster axes (see
    :func:`random_case`).
    """
    rng = make_rng(seed, "check-fuzz")
    schemes = tuple(schemes) if schemes else tuple(sorted(REFERENCE_SCHEMES))
    results = []
    for index in range(cases):
        case = random_case(rng, schemes=schemes, sharing=sharing)
        result = run_case(case, backend=backend)
        results.append(result)
        if progress is not None:
            if result.ok:
                if (index + 1) % 25 == 0:
                    progress(f"[{index + 1}/{cases}] ok so far")
            else:
                progress(
                    f"[{index + 1}/{cases}] DIVERGED {case}: "
                    + "; ".join(str(d) for d in result.divergences)
                )
    return results
