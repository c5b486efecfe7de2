"""One round of one workload, run by ``run.py`` in a fresh interpreter.

Usage (``run.py`` builds this command line)::

    python child.py WORKLOAD SEED SCALE WORKDIR SPAWN_TIME TRACE

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports
and workload set-up. The round prints one JSON object on its last line.
"""

import resource
import sys
import time

from workloads import build, digest


def _peak_rss_mb() -> float:
    """Peak resident set of this process and of any worker it waited for."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def main(argv) -> dict:
    name, seed, scale, workdir, spawned, traced = argv
    workload = build(name, int(seed), float(scale), workdir)
    setup_s = time.monotonic() - float(spawned)
    calls = workload.calls()
    tracer = None
    if traced == "1":
        from layers import Tracer

        tracer = Tracer().__enter__()
    outputs = []
    start = time.perf_counter()
    for label, call in calls:
        try:
            outputs.append((label, call(), None))
        except Exception as exc:  # a failed driver call is counted, not fatal
            outputs.append((label, None, f"{type(exc).__name__}: {exc}"))
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.restore()

    record = {"calls": {}, "hits": 0, "misses": 0, "fallback": []}
    try:
        for label, out, error in outputs:
            if error is None:
                try:
                    payload, results = workload.summarize(label, out)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            record["calls"][label] = {
                "digest": digest(payload) if error is None else None,
                "error": error,
            }
            if error is not None:
                continue
            for result in results:
                hits = sum(core.hits for core in result.cores)
                misses = sum(core.misses for core in result.cores)
                record["hits"] += hits
                record["misses"] += misses
                if result.victim_not_found_rate is not None:
                    record["fallback"].append(result.victim_not_found_rate)
    finally:
        workload.close()
    record["accesses"] = record["hits"] + record["misses"]
    record.update(
        setup_s=setup_s,
        wall_s=wall_s,
        peak_rss_mb=_peak_rss_mb(),
        counters=workload.counters,
    )
    if tracer is not None:
        record.update(
            spans=tracer.spans(),
            hits_by_layer=tracer.hits,
            tracer_s=tracer.cost_s(),
        )
    return record


if __name__ == "__main__":
    import json

    print(json.dumps(main(sys.argv[1:])))
