"""Simulator micro-benchmarks: accesses/second of the hot path.

Unlike the figure benches (minutes-long experiments, one round), these are
true pytest-benchmark microbenchmarks with multiple rounds: they track the
cost of the cache access path under each scheme class so performance
regressions in the substrate are visible.

Also runnable directly (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_simulator_speed.py

which times every scenario over ``--rounds`` rounds (at least 3;
``time.perf_counter``, one untimed warm-up round first) and records each
timing's median, quartiles, min, max and ``n`` beside the best-round
rates the trajectory has always kept (``*_aps``, ``accesses_per_sec``,
``best_seconds`` and every ``speedup`` are best round against best
round, as in earlier entries); times the workload
streams' bulk ``take`` against per-call ``next_access()``; runs the
classic and vector backends side by side on the wide backend-comparison
scenarios with their speedup ratio; and, report only (left out of
``--check-floors`` runs), times both engines and both vector routes at
the drivers' geometries (64 to 4,096 sets) and whole ``tenants:web8`` and
``Q7`` driver calls per scheme on both engines at 512 to 2,048 sets (the
rows behind ``repro.cache.backends.VECTOR_MIN_SETS``). It *appends* a run entry
(keyed by git SHA) to ``BENCH_speed.json`` — the trajectory artifact CI
archives so hot-path throughput accumulates per PR instead of being
overwritten. ``--check-floors`` turns the run into the CI
speed-regression smoke: it fails if any scenario's vector/classic speedup
(best round against best round) drops below its conservative floor.
"""

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import TimestampLRUPolicy
from repro.core import HitMaxPolicy, PrismScheme
from repro.partitioning import UCPScheme, VantageScheme
from repro.util.rng import make_rng

GEOMETRY = CacheGeometry(64 << 10, 64, 16)
ACCESSES = 20_000


def _stream(seed=1):
    rng = make_rng(seed, "speed")
    return [(rng.randrange(4), rng.randrange(3000)) for _ in range(ACCESSES)]


def _drive(cache, stream):
    access = cache.access
    for core, addr in stream:
        access(core, (core << 20) + addr)
    return cache.stats.total_misses()


def test_speed_unmanaged_lru(benchmark):
    stream = _stream()
    result = benchmark(lambda: _drive(SharedCache(GEOMETRY, 4), stream))
    assert result > 0


def test_speed_prism(benchmark):
    stream = _stream()

    def run():
        cache = SharedCache(GEOMETRY, 4)
        cache.set_scheme(PrismScheme(HitMaxPolicy(), sample_shift=1))
        return _drive(cache, stream)

    assert benchmark(run) > 0


def test_speed_ucp(benchmark):
    stream = _stream()

    def run():
        cache = SharedCache(GEOMETRY, 4)
        cache.set_scheme(UCPScheme(sample_shift=1))
        return _drive(cache, stream)

    assert benchmark(run) > 0


def test_speed_vantage(benchmark):
    stream = _stream()

    def run():
        cache = SharedCache(GEOMETRY, 4, policy=TimestampLRUPolicy())
        cache.set_scheme(VantageScheme(sample_shift=1))
        return _drive(cache, stream)

    assert benchmark(run) > 0


# -- standalone mode ---------------------------------------------------------


def _unmanaged_lru():
    return SharedCache(GEOMETRY, 4)


def _prism():
    cache = SharedCache(GEOMETRY, 4)
    cache.set_scheme(PrismScheme(HitMaxPolicy(), sample_shift=1))
    return cache


def _ucp():
    cache = SharedCache(GEOMETRY, 4)
    cache.set_scheme(UCPScheme(sample_shift=1))
    return cache


def _vantage():
    cache = SharedCache(GEOMETRY, 4, policy=TimestampLRUPolicy())
    cache.set_scheme(VantageScheme(sample_shift=1))
    return cache


SCENARIOS = {
    "unmanaged_lru": _unmanaged_lru,
    "prism": _prism,
    "ucp": _ucp,
    "vantage": _vantage,
}


# -- backend comparison scenarios --------------------------------------------
#
# Wide last-level caches (thousands of sets) are where batch replay pays:
# the classic engine's per-access pointer chasing misses in the *host*
# cache, while the vector engine's fused array passes keep their
# throughput. Geometries follow the multi-tenant scale-out direction in
# ROADMAP.md, not the scaled-down figure machines.

WIDE = CacheGeometry(16 << 20, 64, 16)  # 16 MiB, 16384 sets
XWIDE = CacheGeometry(64 << 20, 64, 16)  # 64 MiB, 65536 sets
WIDE_CORES = 8


def _wide_stream(accesses, hot_range, hot_frac, seed=7):
    """Shared hot pool + uniform cold tail over a 16 M-block address space."""
    rng = make_rng(seed, "speed-wide")
    return [
        (
            rng.randrange(WIDE_CORES),
            rng.randrange(hot_range) if rng.random() < hot_frac else rng.getrandbits(24),
        )
        for _ in range(accesses)
    ]


def _lru_pair(geometry):
    from repro.cache.vector import VectorCache

    return (lambda: SharedCache(geometry, WIDE_CORES),
            lambda: VectorCache(geometry, WIDE_CORES))


def _dip_pair(geometry):
    from repro.cache.replacement import DIPPolicy
    from repro.cache.vector import VectorCache

    return (lambda: SharedCache(geometry, WIDE_CORES, policy=DIPPolicy(seed=3)),
            lambda: VectorCache(geometry, WIDE_CORES, policy=DIPPolicy(seed=3)))


def _prism_pair(geometry):
    from repro.cache.vector import VectorCache

    def classic():
        cache = SharedCache(geometry, WIDE_CORES)
        cache.set_scheme(PrismScheme(HitMaxPolicy(), seed=5, sample_shift=5))
        return cache

    def vector():
        return VectorCache(
            geometry, WIDE_CORES,
            scheme=PrismScheme(HitMaxPolicy(), seed=5, sample_shift=5),
        )

    return classic, vector


#: name -> (factory pair builder, geometry, (hot_range, hot_frac), CI floor).
#: The floor is the vector/classic speedup below which the CI smoke fails —
#: deliberately conservative (CI runners are noisy and use short streams);
#: see BENCH_speed.json for measured values.
BACKEND_SCENARIOS = {
    "lru_hot": (_lru_pair, WIDE, (40_000, 0.95), 2.5),
    "lru_wide": (_lru_pair, WIDE, (200_000, 0.60), 3.0),
    "lru_xwide": (_lru_pair, XWIDE, (600_000, 0.60), 4.0),
    "dip_wide": (_dip_pair, WIDE, (40_000, 0.95), 1.0),
    "prism_wide": (_prism_pair, WIDE, (40_000, 0.95), 1.2),
}


def _timings(run, rounds):
    """Wall-clock of ``rounds`` timed calls, after one untimed warm-up.

    The warm-up round pages in the engine code paths, warms the allocator
    and (for the vector engine) numpy's internal caches, so round-to-round
    variance reflects the engine, not process start-up.
    """
    import time

    run()
    out = []
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        out.append(time.perf_counter() - start)
    return out


def _spread(seconds):
    """Median, quartiles, min, max and ``n`` of one column's timings."""
    from statistics import median, quantiles

    q1, _, q3 = quantiles(seconds, n=4)
    return {
        "median_s": round(median(seconds), 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
        "min_s": round(min(seconds), 4),
        "max_s": round(max(seconds), 4),
        "n": len(seconds),
    }


def _aps(accesses, seconds):
    """Accesses per second at the best round (the trajectory's statistic)."""
    return round(accesses / min(seconds), 1)


def run_backends(accesses: int = 400_000, rounds: int = 3) -> dict:
    """Both backends side by side on every backend scenario.

    Per scenario: the classic engine driven per access (the historical
    baseline), the classic engine over ``access_many`` (same engine, batch
    call overhead shed), and the vector engine over the same pre-encoded
    stream, each with its spread over ``rounds``. ``speedup`` is vector vs
    per-access classic, best round against best round (the statistic
    ``--check-floors`` gates on).
    """
    from repro.cache.encode import encode_trace

    if accesses < 1 or rounds < 3:
        raise SystemExit(
            f"--accesses must be >= 1 and --rounds >= 3 (got {accesses}, {rounds})"
        )
    results = {}
    for name, (pair, geometry, (hot_range, hot_frac), floor) in BACKEND_SCENARIOS.items():
        classic_factory, vector_factory = pair(geometry)
        stream = _wide_stream(accesses, hot_range, hot_frac)
        encoded = encode_trace(stream, geometry)

        def classic_scalar():
            cache = classic_factory()
            access = cache.access
            for core, addr in stream:
                access(core, addr)

        classic_s = _timings(classic_scalar, rounds)
        classic_batch_s = _timings(
            lambda: classic_factory().access_many(encoded), rounds
        )
        vector_s = _timings(lambda: vector_factory().access_many(encoded), rounds)
        results[name] = {
            "accesses": accesses,
            "rounds": rounds,
            "classic": _spread(classic_s),
            "classic_batch": _spread(classic_batch_s),
            "vector": _spread(vector_s),
            "classic_aps": _aps(accesses, classic_s),
            "classic_batch_aps": _aps(accesses, classic_batch_s),
            "vector_aps": _aps(accesses, vector_s),
            "speedup": round(min(classic_s) / min(vector_s), 2),
            "floor": floor,
        }
    return results


# -- driver-geometry scenarios (report only) ---------------------------------
#
# The geometries the drivers actually build: every default machine() LLC
# has 64 or 128 sets of 16 to 64 ways, and the vector engine's route
# depends on the set count. Each row times the classic engine and both
# routes of the vector engine over the same pre-encoded trace, each
# building its engine inside the timed call, and names the route the
# vector engine takes on auto. No floor: these rows locate the set count
# below which auto replays strict-order schemes per access.

DRIVER_SETS = (64, 128, 256, 512, 1024, 2048, 4096)
DRIVER_CORES = 8


def _driver_geometry(num_sets):
    return CacheGeometry(num_sets * 16 * 64, 64, 16)


def _uniform_trace(geometry, accesses, seed=11):
    """Every core draws uniformly over twice the cache's blocks."""
    from repro.cache.encode import encode_accesses

    rng = make_rng(seed, "speed-driver")
    span = 2 * geometry.num_blocks
    cores = [rng.randrange(DRIVER_CORES) for _ in range(accesses)]
    addrs = [rng.randrange(span) for _ in range(accesses)]
    return encode_accesses(cores, addrs, geometry)


def _hot_trace(geometry, accesses, seed=7):
    """95% of accesses go to a shared pool of 15% of the cache's blocks,
    the rest uniformly over a 16 M-block space: a hit-heavy trace at
    every size, like ``_wide_stream`` scaled to the geometry."""
    from repro.cache.encode import encode_accesses

    rng = make_rng(seed, "speed-driver-hot")
    hot = max(1, geometry.num_blocks * 15 // 100)
    cores = [rng.randrange(DRIVER_CORES) for _ in range(accesses)]
    addrs = [
        rng.randrange(hot) if rng.random() < 0.95 else rng.getrandbits(24)
        for _ in range(accesses)
    ]
    return encode_accesses(cores, addrs, geometry)


def _web8_trace(geometry, accesses, seed=1):
    """The tenants:web8 shared trace (Zipfian and scan tenants): about
    half of PriSM's replacements sample a core with no block in the set
    and take the victim-not-found fallback."""
    import numpy as np

    from repro.cache.encode import encode_accesses
    from repro.workloads.registry import resolve_workload

    chunks = list(resolve_workload("tenants:web8").chunks(accesses, seed))
    cores = np.concatenate([c for c, _ in chunks])
    addrs = np.concatenate([a for _, a in chunks])
    return encode_accesses(cores, addrs, geometry)


#: name -> (trace builder, registry scheme the drivers build).
DRIVER_SCENARIOS = {
    "web8_prism": (_web8_trace, "prism-h"),
    "web8_dip": (_web8_trace, "dip"),
    "uniform_prism": (_uniform_trace, "prism-h"),
    "uniform_dip": (_uniform_trace, "dip"),
    "hot_prism": (_hot_trace, "prism-h"),
    "hot_dip": (_hot_trace, "dip"),
}


class _PerAccessProbe:
    """A per-access monitor that does nothing. Attaching it sends the
    vector engine's ``access_many`` down the per-access route at any set
    count (as the invariant checker does); its call costs less than the
    run-to-run noise of these rows."""

    def observe(self, core, set_index, tag, hit):
        pass


def run_driver_geometries(accesses: int = 100_000, rounds: int = 3) -> dict:
    """Classic vs both vector routes at the drivers' geometries.

    The batch column passes the chunk the engine picks when it batches on
    auto (:func:`repro.cache.vector.auto_chunk`); the per-access column
    attaches :class:`_PerAccessProbe`. ``auto_route`` is the route the
    engine takes with neither, i.e. which of the two columns a driver
    gets.
    """
    from repro.cache.backends import build_cache
    from repro.cache.vector import VectorCache, auto_chunk
    from repro.experiments.schemes import build_scheme

    results = {}
    for name, (make_trace, scheme_name) in DRIVER_SCENARIOS.items():
        for num_sets in DRIVER_SETS:
            geometry = _driver_geometry(num_sets)
            trace = make_trace(geometry, accesses)

            def engine(backend, chunk=None):
                scheme, policy = build_scheme(
                    scheme_name, DRIVER_CORES, [1.0] * DRIVER_CORES
                )
                if backend == "classic":
                    cache, _ = build_cache(
                        geometry, DRIVER_CORES, policy=policy, scheme=scheme
                    )
                    return cache
                return VectorCache(
                    geometry, DRIVER_CORES, policy=policy, scheme=scheme,
                    chunk=chunk,
                )

            def batch():
                cache = engine("vector", auto_chunk(num_sets, free_order=False))
                assert not cache.per_access
                cache.access_many(trace)

            def per_access():
                cache = engine("vector")
                cache.add_monitor(_PerAccessProbe())
                assert cache.per_access
                cache.access_many(trace)

            columns = {
                "classic": lambda: engine("classic").access_many(trace),
                "vector_batch": batch,
                "vector_per_access": per_access,
            }
            row = {
                "trace": name.split("_")[0],
                "scheme": scheme_name,
                "sets": num_sets,
                "accesses": len(trace),
                "rounds": rounds,
                "auto_route": "per-access" if engine("vector").per_access else "batch",
            }
            for column, run in columns.items():
                row[column] = _spread(_timings(run, rounds))
            results[f"{name}_{num_sets}"] = row
    return results


# -- whole driver calls around the vector threshold (report only) -----------
#
# build_cache builds the vector engine for a non-strict request only from
# VECTOR_MIN_SETS LLC sets up. These rows time whole driver calls on both
# engines at 512 to 2,048 sets, one scheme per row, through run_workload:
#
# - web8: the tenant driver on tenants:web8 (8 cores), which replays
#   pre-encoded chunks through access_many (the e2e web8 workload's calls).
#   Each call pays its stand-alone runs, which replay on the requested
#   engine too.
# - q7: the mix driver on Q7 (4 cores), where MultiCoreSystem steps
#   cache.access once per access (what `repro-sim run --mix` does). Its
#   stand-alone runs are classic whatever the request, so they are
#   memoised by the untimed warm-up call and left out.
#
# The vector column lowers the threshold for the call, so the same driver
# code builds the vector engine below it too.

DRIVER_CALL_SETS = (512, 1024, 2048)
DRIVER_CALL_SCHEMES = ("lru", "prism-h", "dip")

#: row prefix -> (workload, cores, requests or instructions per core,
#: memoise the stand-alone runs)
DRIVER_CALLS = {
    "web8": ("tenants:web8", 8, 75_000, False),
    "q7": ("Q7", 4, 300_000, True),
}


def run_driver_calls(rounds: int = 3) -> dict:
    """Whole driver calls per scheme on both engines at 512-2,048 sets."""
    from repro.cache import backends
    from repro.experiments.configs import PAPER_LLC, machine
    from repro.experiments.runner import StandaloneIPCCache, run_workload

    results = {}
    saved = backends.VECTOR_MIN_SETS
    backends.VECTOR_MIN_SETS = 0
    try:
        for prefix, (mix, cores, length, memoise) in DRIVER_CALLS.items():
            size, assoc, _ = PAPER_LLC[cores]
            for num_sets in DRIVER_CALL_SETS:
                config = machine(cores, scale_factor=size // (num_sets * assoc * 64))
                assert config.geometry.num_sets == num_sets
                memo = StandaloneIPCCache()
                for scheme in DRIVER_CALL_SCHEMES:
                    row = {"workload": mix, "scheme": scheme, "sets": num_sets,
                           "length": length, "rounds": rounds}
                    for backend in ("classic", "vector"):
                        def call():
                            result = run_workload(
                                mix, config, scheme, seed=0, instructions=length,
                                standalone_cache=memo if memoise else StandaloneIPCCache(),
                                backend=backend,
                            )
                            assert result.engine.engine == backend, result.engine

                        row[backend] = _spread(_timings(call, rounds))
                    results[f"{prefix}_{scheme}_{num_sets}"] = row
    finally:
        backends.VECTOR_MIN_SETS = saved
    return results


def run_standalone(accesses: int = 100_000, rounds: int = 3) -> dict:
    """Timing spread and best-round accesses/second for every
    classic-only scenario."""
    rng = make_rng(1, "speed")
    stream = [(rng.randrange(4), rng.randrange(3000)) for _ in range(accesses)]
    results = {}
    for name, factory in SCENARIOS.items():
        holder = {}

        def run():
            holder["misses"] = _drive(factory(), stream)

        seconds = _timings(run, rounds)
        assert holder["misses"] > 0
        results[name] = {
            "accesses": accesses,
            "rounds": rounds,
            "seconds": _spread(seconds),
            "best_seconds": round(min(seconds), 6),
            "accesses_per_sec": _aps(accesses, seconds),
        }
    return results


def run_streams(accesses: int = 100_000, rounds: int = 3) -> dict:
    """Accesses/second of the Q1 profiles' access streams, drawn in
    chunks by ``take`` (as ``MultiCoreSystem.run`` reads them) and one
    ``next_access()`` call at a time.

    Both draw the same sequence. The row keeps the stream layer measured
    on its own: the end-to-end tracer times ``next_access``, which the
    paper path no longer calls.
    """
    from repro.cpu.system import _CHUNK
    from repro.workloads.mixes import get_mix
    from repro.workloads.spec import get_profile

    profiles = [get_profile(name) for name in get_mix("Q1")]
    chunks = max(1, accesses // _CHUNK)
    per_profile = chunks * _CHUNK

    def bulk():
        for profile in profiles:
            take = profile.stream(seed=1).take
            for _ in range(chunks):
                take(_CHUNK)

    def per_call():
        for profile in profiles:
            next_access = profile.stream(seed=1).next_access
            for _ in range(per_profile):
                next_access()

    total = per_profile * len(profiles)
    take = _timings(bulk, rounds)
    call = _timings(per_call, rounds)
    return {
        "profiles": [p.name for p in profiles],
        "accesses": total,
        "rounds": rounds,
        "chunk": _CHUNK,
        "take": _spread(take),
        "next_access": _spread(call),
        "take_aps": _aps(total, take),
        "next_access_aps": _aps(total, call),
        "speedup": round(min(call) / min(take), 2),
    }


def _git_sha() -> str:
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        sha = out.stdout.strip() or "unknown"
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10,
        )
        if sha != "unknown" and status.stdout.strip():
            sha += "+dirty"
        return sha
    except OSError:
        return "unknown"


def _append_trajectory(path, entry) -> dict:
    """Append ``entry`` to the run trajectory in ``path`` (format 2).

    The artifact accumulates one entry per invocation instead of being
    overwritten, so the per-PR perf history the ROADMAP asks for actually
    builds up. A pre-format-2 file (one flat snapshot) is preserved under
    ``"legacy"``.
    """
    import json
    import os

    doc = {"format": 2, "runs": []}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                old = json.load(fh)
        except (OSError, ValueError):
            old = None
        if isinstance(old, dict) and old.get("format") == 2:
            doc = old
        elif old is not None:
            doc["legacy"] = old
    doc["runs"].append(entry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def main(argv=None) -> int:
    import argparse
    import json
    import time

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=100_000,
                        help="stream length for the classic-only scenarios")
    parser.add_argument("--backend-accesses", type=int, default=400_000,
                        help="stream length for the backend-comparison scenarios")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed rounds per column (at least 3)")
    parser.add_argument("-o", "--output", default="BENCH_speed.json")
    parser.add_argument("--skip-backends", action="store_true",
                        help="only run the classic-only scenarios")
    parser.add_argument("--check-floors", action="store_true",
                        help="exit 1 if any backend scenario's vector/classic "
                        "speedup falls below its floor (the CI smoke)")
    args = parser.parse_args(argv)
    if args.rounds < 3:
        parser.error("--rounds must be at least 3 (each row records its quartiles)")

    classic_only = run_standalone(accesses=args.accesses, rounds=args.rounds)
    print("classic-only scenarios (64 KiB figure machine):")
    for name, row in classic_only.items():
        print(f"{name:>16}: {row['accesses_per_sec']:>12,.0f} accesses/sec")

    streams = run_streams(accesses=args.accesses, rounds=args.rounds)
    print(f"\nstreams (Q1 profiles, accesses/sec): take({streams['chunk']}) "
          f"{streams['take_aps']:,.0f}, next_access() "
          f"{streams['next_access_aps']:,.0f} ({streams['speedup']:.2f}x)")

    backends = {}
    failures = []
    if not args.skip_backends:
        backends = run_backends(accesses=args.backend_accesses, rounds=args.rounds)
        print("\nbackend comparison (accesses/sec, best round after warm-up):")
        print(f"{'scenario':>12} {'classic':>12} {'classic-batch':>14} "
              f"{'vector':>12} {'speedup':>8}")
        for name, row in backends.items():
            print(f"{name:>12} {row['classic_aps']:>12,.0f} "
                  f"{row['classic_batch_aps']:>14,.0f} "
                  f"{row['vector_aps']:>12,.0f} {row['speedup']:>7.2f}x")
            if row["speedup"] < row["floor"]:
                failures.append(
                    f"{name}: speedup {row['speedup']:.2f}x "
                    f"below floor {row['floor']:.2f}x"
                )

    driver = {}
    driver_calls = {}
    if not args.skip_backends and not args.check_floors:
        # Report-only rows gate nothing, so a gating run leaves them out.
        driver = run_driver_geometries(accesses=args.accesses, rounds=args.rounds)
        print("\ndriver geometries (median s over rounds, report only):")
        print(f"{'scenario':>20} {'classic':>8} {'batch':>8} {'per-acc':>8}"
              f"  auto route")
        for name, row in driver.items():
            print(f"{name:>20} {row['classic']['median_s']:>8.3f} "
                  f"{row['vector_batch']['median_s']:>8.3f} "
                  f"{row['vector_per_access']['median_s']:>8.3f}  "
                  f"{row['auto_route']}")
        driver_calls = run_driver_calls(rounds=args.rounds)
        print("\nwhole driver calls (median [q1, q3] s, report only):")
        for name, row in driver_calls.items():
            cells = "  ".join(
                f"{backend} {row[backend]['median_s']:.3f} "
                f"[{row[backend]['q1_s']:.3f}, {row[backend]['q3_s']:.3f}]"
                for backend in ("classic", "vector")
            )
            print(f"{name:>18}  {cells}")

    entry = {
        "sha": _git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scenarios": classic_only,
        "streams": streams,
        "backends": backends,
        "driver": driver,
        "driver_calls": driver_calls,
    }
    doc = _append_trajectory(args.output, entry)
    print(f"\nwrote {args.output} ({len(doc['runs'])} run(s) in trajectory)")

    if args.check_floors and failures:
        for failure in failures:
            print(f"FLOOR VIOLATION: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
