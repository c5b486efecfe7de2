"""End-to-end benchmark of the PriSM simulator's drivers.

Runs each workload of ``workloads.py`` in rounds, one fresh interpreter
per round (``child.py``), as a closed loop: rounds go back to back,
round-robin across the selected workloads, after one discarded warm-up
round each. At most ``nproc`` processes are busy at once: a round runs
alone, and only the campaign round starts its two workers.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME ...] [--seed 1]
        [--rounds 7 | --seconds S] [--trace [0|1]] [--scale 1.0] [--out DIR]

End-to-end metrics come from the untraced rounds. ``--trace`` adds one
traced round per workload (``layers.py``) for the per-layer metrics.
Every driver call's result is hashed; a call fails when it raises, when
its digest differs between rounds (traced round included), or, for a
pinned seed and scale (``pins.json``), from the pinned digest. Any failed
call makes the command exit 1.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` driver calls, and ``metrics``, the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``), each a median over rounds. With more than one workload,
metric names are prefixed ``<workload>/``. The full record, with
quartiles, spans and provenance, is written to a new file in ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
PINS = HERE / "pins.json"

#: Measured rounds never drop below this when ``--seconds`` sets the length.
MIN_ROUNDS = 5
#: A round that takes longer than this is killed and the run aborted.
ROUND_TIMEOUT_S = 150

#: End-to-end metrics: (name, unit).
E2E = (
    ("wall_s", "s"),
    ("accesses_per_s", "accesses/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics of the traced round: (name, unit). ``<layer>_s`` is
#: the layer's self time and ``<layer>_n`` its calls; the exceptions are
#: computed in :func:`layer_values`.
LAYERS = (
    ("workloads.stream_s", "s"),
    ("workloads.stream_n", "count"),
    ("workloads.chunks_s", "s"),
    ("workloads.chunks_n", "count"),
    ("cpu.loop_s", "s"),
    ("cpu.advance_s", "s"),
    ("cpu.advance_n", "count"),
    ("cpu.l1_s", "s"),
    ("cpu.l1_n", "count"),
    ("cpu.l1_hits", "count"),
    ("cpu.dram_s", "s"),
    ("cpu.dram_n", "count"),
    ("cache.access_s", "s"),
    ("cache.access_n", "count"),
    ("cache.batch_s", "s"),
    ("cache.batch_n", "count"),
    ("cache.encode_s", "s"),
    ("cache.shadow_s", "s"),
    ("cache.shadow_n", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("core.victim_s", "s"),
    ("core.victim_n", "count"),
    ("core.alloc_s", "s"),
    ("core.intervals", "count"),
    ("core.victim_fallback", "ratio"),
    ("experiments.standalone_s", "s"),
    ("experiments.driver_s", "s"),
    ("telemetry.record_s", "s"),
    ("metrics.missrun_s", "s"),
    ("clustering.profile_s", "s"),
    ("check.belady_s", "s"),
    ("campaign.fingerprint_s", "s"),
    ("campaign.wait_s", "s"),
    ("campaign.spec_s", "s"),
    ("campaign.store_write_s", "s"),
    ("campaign.store_write_n", "count"),
    ("campaign.store_read_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
)


# -- one round -----------------------------------------------------------------


def run_round(name: str, args, traced: bool) -> dict:
    """Run one round of ``name`` in a fresh interpreter; its JSON record."""
    workdir = Path(args.out) / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(workdir)  # keep any temporary file inside the checkout
    command = [
        sys.executable, str(HERE / "child.py"), name, str(args.seed),
        repr(args.scale), str(workdir), repr(time.monotonic()), "1" if traced else "0",
    ]
    proc = subprocess.run(
        command, cwd=HERE, env=env, stdout=subprocess.PIPE, text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"e2e: a {name} round exited with code {proc.returncode}")
    return json.loads(lines[-1])


# -- metrics -------------------------------------------------------------------


def summary(values) -> dict:
    """Median, quartiles, range and count of ``values``."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": values[0],
        "max": values[-1],
        "n": len(values),
    }


def e2e_values(record: dict) -> dict:
    return {
        "wall_s": record["wall_s"],
        "accesses_per_s": record["accesses"] / record["wall_s"],
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def layer_values(record: dict, untraced_wall_s: float) -> dict:
    """Per-layer metric values of one traced round."""
    spans = record["spans"]

    def span(layer: str, key: str):
        return spans.get(layer, {}).get(key, 0)

    self_total = sum(s["self_s"] for s in spans.values())
    fallback = record["fallback"]
    special = {
        "cpu.l1_hits": record["hits_by_layer"].get("cpu.l1", 0),
        "cache.hits": record["hits"],
        "cache.misses": record["misses"],
        "core.intervals": span("core.alloc", "calls"),
        "core.victim_fallback": sum(fallback) / len(fallback) if fallback else 0.0,
        "experiments.standalone_s": span("experiments.standalone", "total_s"),
        "campaign.spec_s": record["counters"].get("campaign.spec_s", 0.0),
        "trace.overhead": record["wall_s"] / untraced_wall_s,
        "trace.unattributed_s": record["wall_s"] - self_total - record["tracer_s"],
    }
    values = {}
    for name, _ in LAYERS:
        if name in special:
            values[name] = special[name]
        elif name.endswith("_s"):
            values[name] = span(name[:-2], "self_s")
        else:
            values[name] = span(name[:-2], "calls")
    return values


# -- correctness -----------------------------------------------------------------


def pinned(seed: int, scale: float) -> dict:
    """Pinned digests for ``(seed, scale)``: ``{workload: {call: digest}}``."""
    with open(PINS) as fh:
        return json.load(fh).get(f"seed={seed} scale={scale:g}", {})


def count_failures(rounds: list, pins: dict) -> tuple:
    """``(attempted, failed, problems)`` over the rounds' driver calls.

    The reference digest of a call is the pinned one when there is one,
    else the first round's.
    """
    attempted = failed = 0
    problems = []
    reference = dict(pins)
    for index, record in enumerate(rounds):
        for label, call in record["calls"].items():
            attempted += 1
            expected = reference.setdefault(label, call["digest"])
            if call["error"] is not None:
                failed += 1
                problems.append(f"round {index} {label}: {call['error']}")
            elif call["digest"] != expected:
                failed += 1
                problems.append(f"round {index} {label}: digest {call['digest'][:12]} "
                                f"!= {str(expected)[:12]}")
    return attempted, failed, problems


# -- provenance ----------------------------------------------------------------


def git_revision() -> str:
    """``<sha>`` or ``<sha>+dirty`` of the checkout, or ``unknown``."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*argv) -> str:
        return subprocess.run(
            ["git", *argv], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+dirty" if dirty else "")


def calibration_s() -> float:
    """Best-of-5 time of a fixed pure-Python loop (host speed reference)."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def provenance(args) -> dict:
    import numpy

    return {
        "git": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calib_s": calibration_s(),
        "seed": args.seed,
        "scale": args.scale,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- driver ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=7,
                        help="measured rounds per workload (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measure for about this long instead of --rounds "
                             f"(at least {MIN_ROUNDS} rounds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one traced round per workload and report layers")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's size (pins exist for 1 and 0.05)")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for the result file (default benchmarks/e2e/out)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def measure(args, names) -> dict:
    """Warm-up, measured rounds and the optional traced round per workload."""
    for name in names:
        run_round(name, args, traced=False)
    rounds = {name: [] for name in names}
    start = time.monotonic()
    while True:
        done = len(rounds[names[0]])
        if args.seconds is None:
            if done >= args.rounds:
                break
        elif done >= MIN_ROUNDS:
            elapsed = time.monotonic() - start
            if elapsed + elapsed / done > args.seconds:
                break
        for name in names:
            rounds[name].append(run_round(name, args, traced=False))
    traced = {name: run_round(name, args, traced=True) for name in names} if args.trace else {}
    return {"rounds": rounds, "traced": traced}


def report(args, names, measured) -> dict:
    pins = pinned(args.seed, args.scale)
    workloads = {}
    for name in names:
        rounds = measured["rounds"][name]
        traced = measured["traced"].get(name)
        checked = rounds + ([traced] if traced else [])
        attempted, failed, problems = count_failures(checked, pins.get(name, {}))
        values = [e2e_values(record) for record in rounds]
        e2e = {
            metric: dict(summary([v[metric] for v in values]), unit=unit)
            for metric, unit in E2E
        }
        e2e["fail_rate"] = dict(summary([failed / attempted]), unit="failed/attempted")
        entry = {
            "why": WORKLOADS[name][0],
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "pinned": bool(pins.get(name)),
            "digests": {label: call["digest"] for label, call in rounds[0]["calls"].items()},
            "e2e": e2e,
        }
        if traced:
            values = layer_values(traced, e2e["wall_s"]["median"])
            entry["layers"] = {
                metric: {"value": values[metric], "unit": unit} for metric, unit in LAYERS
            }
            entry["spans"] = traced["spans"]
            entry["tracer_s"] = traced["tracer_s"]
            entry["traced_digests"] = {
                label: call["digest"] for label, call in traced["calls"].items()
            }
        workloads[name] = entry
    return workloads


def print_table(workloads: dict) -> None:
    for name, entry in workloads.items():
        print(f"== {name}: {entry['attempted']} driver calls, {entry['failed']} failed"
              f"{', digests pinned' if entry['pinned'] else ''}")
        for metric, s in entry["e2e"].items():
            print(f"  {metric:26s} {s['median']:14.6g} {s['unit']:17s} q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  min {s['min']:.6g}  max {s['max']:.6g}  n {s['n']}")
        for metric, v in entry.get("layers", {}).items():
            print(f"  {metric:26s} {v['value']:14.6g} {v['unit']}")
        for problem in entry["problems"]:
            print(f"  FAILED {problem}")


def result_line(args, workloads: dict) -> dict:
    prefix = len(workloads) > 1
    metrics = {}
    for name, entry in workloads.items():
        if args.trace:
            chosen = entry["layers"]
        else:
            chosen = {
                metric: {"value": entry["e2e"][metric]["median"], "unit": unit}
                for metric, unit in E2E
            }
        for metric, value in chosen.items():
            metrics[f"{name}/{metric}" if prefix else metric] = value
    failed = sum(entry["failed"] for entry in workloads.values())
    return {
        "correct": failed == 0,
        "attempted": sum(entry["attempted"] for entry in workloads.values()),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    measured = measure(args, names)
    workloads = report(args, names, measured)
    print_table(workloads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"e2e-{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{os.getpid()}.json"
    with open(path, "w") as fh:
        json.dump({"provenance": provenance(args), "workloads": workloads}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    line = result_line(args, workloads)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
